"""The network surface of a query: JSON request -> spec -> payload.

A query is validated in exactly one place — the session's frozen
:class:`~repro.session.spec.QuerySpec`, which the CLI and the fluent
facade build too — so this module keeps only what a *network* surface
needs on top of it:

* **unknown-key rejection** per workload, with the allowed spelling
  listed;
* :func:`parse_pattern` — query patterns arrive as outside input (a
  named shape or an explicit edge list; file paths are refused);
* the JSON key -> spec field mapping (``query`` -> ``pattern``,
  ``deadline_ms`` -> ``deadline_seconds``).

Every option rule (types, ranges, ``backend``/``storage`` domains, which
workload takes which parameter) runs inside ``QuerySpec`` *before* the
server admits the request or consults its result cache, so a bad option
is a 400 whether or not the semantic query happens to be cached.  The
spec also derives the canonical signatures the whole-result cache keys
on; see its module docstring for the semantic/execution field split.

Parsing is loud: every failure raises
:class:`~repro.service.registry.ServiceError` — the server maps those
to 400s.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..core.budget import CancelFlag
from ..core.pattern import Pattern
from ..plan.shapes import NAMED_SHAPES
from ..session import Miner, MiningResult, QuerySpec, SessionError
from ..session.spec import PARAMETERS, WORKLOADS

from .registry import ServiceError

#: Request keys that address the query rather than describe it.
_ENVELOPE_KEYS = {"graph", "workload"}
#: Request keys every workload accepts.
_COMMON_KEYS = {
    "labeled",
    "exhaustive",
    "workers",
    "backend",
    "storage",
    "limit",
    "deadline_ms",
    "max_embeddings",
    "stream",
}
#: Spec parameter -> its request key, where the two are spelled apart.
_REQUEST_KEY = {"pattern": "query"}
#: Workload -> the payload key holding its items (what NDJSON streaming
#: splits into rows).
_ITEMS_KEY = {
    "motifs": "counts",
    "match": "matches",
    "fsm": "patterns",
    "cliques": "cliques_by_size",
}


def parse_pattern(value: Any) -> Pattern:
    """A request's query pattern: a named shape or an explicit
    ``{"edges": [[u, v], ...], "vertex_labels": [...]}`` object.

    File paths are deliberately **not** accepted here — a network request
    must never steer the server's filesystem access.
    """
    if isinstance(value, str):
        shape = NAMED_SHAPES.get(value)
        if shape is None:
            raise ServiceError(
                f"unknown query shape {value!r} — named shapes: "
                f"{', '.join(sorted(NAMED_SHAPES))}; or pass an explicit "
                '{"edges": [[u, v], ...], "vertex_labels": [...]} object'
            )
        return shape
    if isinstance(value, dict):
        unknown = set(value) - {"edges", "vertex_labels"}
        if unknown:
            raise ServiceError(
                f"unknown pattern keys {sorted(unknown)} — a pattern "
                'object has "edges" and optional "vertex_labels"'
            )
        raw_edges = value.get("edges")
        if not isinstance(raw_edges, list) or not raw_edges:
            raise ServiceError('pattern "edges" must be a non-empty list')
        edges = []
        max_vertex = -1
        for item in raw_edges:
            if (
                not isinstance(item, list)
                or len(item) not in (2, 3)
                or not all(isinstance(x, int) and not isinstance(x, bool)
                           for x in item)
                or item[0] < 0
                or item[1] < 0
                or item[0] == item[1]
            ):
                raise ServiceError(
                    f"each pattern edge must be [u, v] or [u, v, label] "
                    f"with distinct vertex ids >= 0 (got {item!r})"
                )
            u, v = sorted(item[:2])
            label = item[2] if len(item) == 3 else 0
            edges.append((u, v, label))
            max_vertex = max(max_vertex, v)
        labels = value.get("vertex_labels")
        if labels is None:
            labels = [0] * (max_vertex + 1)
        if (
            not isinstance(labels, list)
            or len(labels) != max_vertex + 1
            or not all(isinstance(x, int) and not isinstance(x, bool)
                       for x in labels)
        ):
            raise ServiceError(
                f'"vertex_labels" must be a list of {max_vertex + 1} '
                f"integers (one per vertex id)"
            )
        return Pattern(tuple(labels), tuple(sorted(set(edges))))
    raise ServiceError(
        "query pattern must be a named shape string "
        f"({', '.join(sorted(NAMED_SHAPES))}) or a pattern object "
        '{"edges": [[u, v], ...], "vertex_labels": [...]}'
    )


def parse_request(workload: str, body: dict) -> QuerySpec:
    """Validate one JSON request body into a :class:`QuerySpec`."""
    if workload not in WORKLOADS:
        raise ServiceError(
            f"unknown workload {workload!r} — available: "
            f"{', '.join(WORKLOADS)}"
        )
    if not isinstance(body, dict):
        raise ServiceError(
            f"request body must be a JSON object (got {type(body).__name__})"
        )
    allowed = _ENVELOPE_KEYS | _COMMON_KEYS | {
        _REQUEST_KEY.get(name, name) for name in PARAMETERS[workload]
    }
    unknown = set(body) - allowed
    if unknown:
        raise ServiceError(
            f"unknown request keys {sorted(unknown)} for workload "
            f"{workload!r} — allowed: {', '.join(sorted(allowed))}"
        )
    fields = {
        key: value for key, value in body.items() if key not in _ENVELOPE_KEYS
    }
    if workload == "match":
        if "query" not in fields:
            raise ServiceError(
                'match requests need a "query" — a named shape or a '
                'pattern object {"edges": [...]}'
            )
        fields["pattern"] = parse_pattern(fields.pop("query"))
    deadline = fields.pop("deadline_ms", None)
    if isinstance(deadline, (int, float)) and not isinstance(deadline, bool):
        deadline /= 1000.0
    try:
        return QuerySpec(workload, deadline_seconds=deadline, **fields)
    except SessionError as exc:
        raise ServiceError(str(exc)) from None


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_query(
    miner: Miner,
    spec: QuerySpec,
    *,
    cancel: CancelFlag | None = None,
    checkpoint_dir: str | None = None,
) -> dict[str, Any]:
    """Execute one spec against a warm session; return its payload.

    ``cancel`` and ``checkpoint_dir`` are *server-side* execution
    options — the server arms a cancel flag per request to abort runs
    whose client disconnected, and (when configured with a checkpoint
    root) snapshots long runs — so they arrive here as keywords, not in
    the request-derived spec.
    """
    query = miner.query(spec)
    if cancel is not None:
        query.cancellation(cancel)
    if checkpoint_dir is not None:
        query.checkpoint(checkpoint_dir)
    return encode_result(spec, query.run())


def encode_result(spec: QuerySpec, result: MiningResult) -> dict[str, Any]:
    """The cached/cacheable response payload for one finished run of
    ``spec`` — the result view's own :meth:`MiningResult.payload`."""
    return result.payload()


def stream_rows(payload: dict[str, Any]) -> Iterator[dict[str, Any]]:
    """Split a payload into NDJSON rows (one JSON object per item).

    The first row is a meta header (workload + totals); every following
    row is one natural item of the workload.  Streaming reads from the
    same payloads the result cache stores, so repeated streams of a
    cached query ship without re-running anything.
    """
    workload = payload["workload"]
    items_key = _ITEMS_KEY[workload]
    yield {
        "meta": {
            key: value for key, value in payload.items() if key != items_key
        }
    }
    items = payload[items_key]
    if workload == "match":
        for match in items:
            yield {"match": match}
    elif workload == "cliques":
        for size, cliques in items.items():
            for clique in cliques:
                yield {"size": int(size), "clique": clique}
    else:
        yield from items


__all__ = [
    "QuerySpec",
    "WORKLOADS",
    "encode_result",
    "parse_pattern",
    "parse_request",
    "run_query",
    "stream_rows",
]
