"""repro — a pure-Python reproduction of Arabesque (SOSP 2015).

Arabesque is a distributed graph mining system built around the
"think like an embedding" paradigm: the system enumerates subgraph
instances (embeddings), the application supplies ``filter``/``process``
functions, and the runtime handles dedup (embedding canonicality), storage
(ODAGs), aggregation (two-level pattern aggregation), and load balancing.

Quickstart — the :class:`~repro.session.Miner` session facade is the
front door::

    from repro import Miner
    from repro.datasets import citeseer_like

    miner = Miner(citeseer_like())
    for pattern, count in miner.motifs(max_size=3).unlabeled().run().counts().items():
        print(pattern, count)
    squares = miner.match("square").unlabeled().workers(4).run()

Package map (see docs/architecture.md for the full inventory):

* :mod:`repro.session` — the fluent ``Miner`` facade (queries, typed
  results, per-session plan/DAG/catalog caching);
* :mod:`repro.graph` — immutable labeled graphs, generators, I/O;
* :mod:`repro.isomorphism` — canonical labeling (bliss substitute), VF2;
* :mod:`repro.core` — the filter-process model and execution techniques;
  each run meters its own per-worker work and wire traffic;
* :mod:`repro.bsp` — the simulated cluster: a cost model that reads those
  meters, and the in-process BSP engine under the TLV baseline;
* :mod:`repro.plan` — pattern-aware guided exploration planner;
* :mod:`repro.apps` — FSM, motifs, cliques, maximal cliques, matching;
* :mod:`repro.baselines` — TLV, TLP, GRAMI/G-Tries/Mace substitutes;
* :mod:`repro.datasets` — synthetic equivalents of the paper's graphs.
"""

from .core import (
    ArabesqueConfig,
    ArabesqueEngine,
    Computation,
    Embedding,
    Pattern,
    RunResult,
    run_computation,
)
from .graph import GraphBuilder, LabeledGraph
from .session import Miner, SessionError

__version__ = "1.0.0"

__all__ = [
    "ArabesqueConfig",
    "ArabesqueEngine",
    "Computation",
    "Embedding",
    "GraphBuilder",
    "LabeledGraph",
    "Miner",
    "Pattern",
    "RunResult",
    "SessionError",
    "run_computation",
    "__version__",
]
