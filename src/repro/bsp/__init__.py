"""The simulated cluster: a reader of metered runs, plus the TLV substrate.

Nothing outside this package and the TLV/TLP baselines imports it.  The
engine in :mod:`repro.core` meters per-worker work units and wire traffic
onto its own per-superstep records (:mod:`repro.core.results`);
:class:`CostModel` prices those records — or a baseline's
:class:`RunMetrics`, a list of the same records — into simulated cluster
time for the Figure 7/8/10 scripts.  :class:`BspEngine` is the in-process
Giraph substitute the TLV baseline runs on.
"""

from .aggregator import (
    Aggregator,
    dict_merge_aggregator,
    list_aggregator,
    max_aggregator,
    min_aggregator,
    sum_aggregator,
)
from .cost_model import CostModel, speedup_curve
from .engine import BspContext, BspEngine, BspError, Worker
from .messages import Message
from .metrics import RunMetrics

__all__ = [
    "Aggregator",
    "BspContext",
    "BspEngine",
    "BspError",
    "CostModel",
    "Message",
    "RunMetrics",
    "Worker",
    "dict_merge_aggregator",
    "list_aggregator",
    "max_aggregator",
    "min_aggregator",
    "speedup_curve",
    "sum_aggregator",
]
