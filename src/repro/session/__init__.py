"""Unified fluent mining API: one session facade over engine, plan, runtime.

This package is the system's front door.  :class:`Miner` wraps a loaded
graph; its workload methods (``motifs``, ``match``, ``fsm``, ``cliques``,
``maximal_cliques``, ``compute``) return chainable :class:`Query` objects
whose options (``backend``, ``workers``, ``storage``, ``limit``,
``collect``, ``unlabeled``, ``exhaustive``/``guided``/``plan``) are
validated loudly at build time; ``.run()`` yields typed result views and
``.stream()`` an iterator.  Plan-capable queries (``match``, ``fsm``)
compile :class:`~repro.plan.MatchingPlan` objects transparently (guided
execution is the default, ``.exhaustive()`` opts out) and the session
caches plans — including guided FSM's per-candidate plans — the step-0
universe, and the stripped graph variant across queries.

The CLI (:mod:`repro.cli`) and every bundled example are built on this
facade.
"""

from .miner import Miner, SessionCacheInfo
from .query import (
    CliqueQuery,
    ComputeQuery,
    FSMQuery,
    MatchQuery,
    MotifQuery,
    Query,
)
from .results import (
    CliqueResult,
    FSMResult,
    MatchResult,
    MiningResult,
    MotifResult,
)
from .spec import QuerySpec, SessionError

__all__ = [
    "CliqueQuery",
    "CliqueResult",
    "ComputeQuery",
    "FSMQuery",
    "FSMResult",
    "MatchQuery",
    "MatchResult",
    "Miner",
    "MiningResult",
    "MotifQuery",
    "MotifResult",
    "Query",
    "QuerySpec",
    "SessionCacheInfo",
    "SessionError",
]
