"""The query service: pooled warm miners behind a stdlib HTTP server.

Three layers, each usable on its own:

* :mod:`~repro.service.registry` — :class:`MinerRegistry` pools one warm
  :class:`~repro.session.Miner` per named graph (memory-accounted LRU
  eviction) plus a whole-result cache keyed by canonical query
  signatures.
* :mod:`~repro.service.queries` — deserializes JSON requests into the
  session's validated :class:`QuerySpec` (which derives the cache-key
  signatures), runs specs through :meth:`Miner.query
  <repro.session.Miner.query>` and splits payloads into NDJSON rows.
* :mod:`~repro.service.server` — :class:`QueryService` adds admission
  control (bounded pool, default budgets) and the asyncio HTTP/NDJSON
  transport; :func:`start_in_background` hosts it in-process for tests
  and examples.

See ``docs/service.md`` for the endpoint and semantics reference.
"""

from .queries import (
    WORKLOADS,
    QuerySpec,
    encode_result,
    parse_pattern,
    parse_request,
    run_query,
    stream_rows,
)
from .registry import (
    MinerRegistry,
    RegistryCacheInfo,
    ServiceError,
    UnknownGraphError,
)
from .server import (
    QueryService,
    ServerHandle,
    ServiceStats,
    run_forever,
    start_in_background,
)

__all__ = [
    "MinerRegistry",
    "QueryService",
    "QuerySpec",
    "RegistryCacheInfo",
    "ServerHandle",
    "ServiceError",
    "ServiceStats",
    "UnknownGraphError",
    "WORKLOADS",
    "encode_result",
    "parse_pattern",
    "parse_request",
    "run_forever",
    "run_query",
    "start_in_background",
    "stream_rows",
]
