"""TLV — "think like a vertex": embedding exploration on a Pregel layer.

The paper's TLV baseline (section 3.2) keeps computation and state at graph
vertices: each vertex holds local embeddings and pushes them to "border"
vertices that know how to expand them; a global visited-set provides dedup.
Its two failure modes — which Figure 7 quantifies — are built into the
paradigm:

* **message explosion**: every new embedding is replicated to all of its
  member vertices ("the total messages exchanged for this tiny graph is 120
  million, versus 137 thousand ... by Arabesque");
* **hotspots**: "highly connected vertices must take on a disproportionate
  fraction of embeddings to expand" — with hash partitioning, whichever
  worker owns a hub vertex owns its load.

This implementation is a plain superstep loop over simulated workers, with
graph vertices hash-partitioned across them; every message is metered onto
the superstep's :class:`~repro.core.results.SuperstepRecord`, which
:class:`repro.bsp.CostModel` prices.  Canonicality (Algorithm 2) provides
the same coordination-free dedup as the Arabesque layer, and a per-owner
seen-set removes the identical duplicates that multiple proposers create —
the "extended duplication of state" the paper calls out.  Domains are
aggregated per canonical pattern and published at the barrier, so a
superstep reads the previous superstep's aggregate.

Message protocol (three supersteps per embedding size, keeping sizes
aligned with aggregate publication):

* ``("cand", words)``  -> dedup owner: seen-set check, domain mapping;
* next superstep (woken by a self-addressed ``("tick",)``): α using the
  now-published aggregate, then ``("expand", words, u)`` to each member
  vertex's worker;
* ``("expand", words, u)``: u proposes canonical extensions from its own
  adjacency and sends new ``cand`` messages.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..apps.support import Domain
from ..core.canonical import is_canonical_vertex_extension
from ..core.embedding import VertexInducedEmbedding
from ..core.pattern import Pattern
from ..core.results import RunMetrics, SuperstepRecord
from ..core.wire import INT_BYTES, estimate_size
from ..graph import LabeledGraph
from .grami import exact_mni_support

#: A point-to-point message's routing header: source and destination ids.
ROUTING_BYTES = 2 * INT_BYTES


@dataclass
class TlvResult:
    """Frequent patterns found plus run metrics."""

    frequent: dict[Pattern, int] = field(default_factory=dict)
    metrics: RunMetrics | None = None
    embeddings_processed: int = 0


def _send(step: SuperstepRecord, outboxes: list[list], dst: int, payload: Any) -> None:
    """Deliver ``payload`` to worker ``dst`` next superstep, metered."""
    outboxes[dst].append(payload)
    step.messages_sent += 1
    step.bytes_sent += ROUTING_BYTES + estimate_size(payload)


def run_tlv_fsm(
    graph: LabeledGraph,
    threshold: int,
    max_size: int,
    num_workers: int = 1,
) -> TlvResult:
    """Run the TLV FSM baseline; returns frequent patterns and metrics.

    ``max_size`` caps embedding size in vertices (TLV explores vertex-
    induced embeddings, the natural unit of a vertex-centric paradigm).
    Worker ``w`` owns the graph vertices ``v % num_workers == w`` and the
    embeddings ``hash(words) % num_workers == w``.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    metrics = RunMetrics(num_workers=num_workers)
    seen: list[set[tuple[int, ...]]] = [set() for _ in range(num_workers)]
    pending: list[list[tuple[int, ...]]] = [[] for _ in range(num_workers)]
    inboxes: list[list] = [[] for _ in range(num_workers)]
    published: dict[Pattern, Domain] = {}
    processed = 0
    while True:
        step = metrics.new_superstep()
        outboxes: list[list] = [[] for _ in range(num_workers)]
        current: dict[Pattern, Domain] = {}
        started = time.perf_counter()
        for worker in range(num_workers):
            if step.step == 0:
                for v in range(worker, graph.num_vertices, num_workers):
                    _send(step, outboxes, hash((v,)) % num_workers, ("cand", (v,)))
                continue
            # α + expand-forward for the embeddings accepted last superstep.
            for words in pending[worker]:
                step.add_work(worker, 1)
                if len(words) >= max_size:
                    continue
                canonical = VertexInducedEmbedding(graph, words).pattern().canonical()
                domain = published.get(canonical)
                if domain is None or domain.support(canonical.orbits()) < threshold:
                    continue
                for u in words:
                    _send(step, outboxes, u % num_workers, ("expand", words, u))
            pending[worker] = []
            for message in inboxes[worker]:
                if message[0] == "cand":
                    words = message[1]
                    step.add_work(worker, 1)
                    if words in seen[worker]:
                        continue
                    seen[worker].add(words)
                    processed += 1
                    embedding = VertexInducedEmbedding(graph, words)
                    canonical, mapping = embedding.pattern().canonical_mapping()
                    domain = Domain.from_embedding(embedding).remap_positions(mapping)
                    merged = current.get(canonical)
                    current[canonical] = (
                        domain if merged is None else Domain.merge_all([merged, domain])
                    )
                    pending[worker].append(words)
                elif message[0] == "expand":
                    _, words, u = message
                    # Hotspot accounting: expanding at u costs deg(u) work.
                    step.add_work(worker, graph.degree(u))
                    for w in graph.neighbors(u):
                        if w in words or not is_canonical_vertex_extension(graph, words, w):
                            continue
                        grown = words + (w,)
                        _send(step, outboxes, hash(grown) % num_workers, ("cand", grown))
            if pending[worker]:
                # Wake ourselves next superstep to run the α + expand phase.
                _send(step, outboxes, worker, ("tick",))
        step.wall_seconds = time.perf_counter() - started
        published, inboxes = current, outboxes
        if not step.messages_sent:
            break
    # Supports are re-derived exactly per pattern seen (the aggregate only
    # holds the last superstep), mirroring how the paper's TLV reports.
    patterns = {
        VertexInducedEmbedding(graph, words).pattern().canonical()
        for owned in seen
        for words in owned
    }
    frequent = {}
    for pattern in patterns:
        support = exact_mni_support(graph, pattern, induced=True)
        if support >= threshold:
            frequent[pattern] = support
    return TlvResult(frequent=frequent, metrics=metrics, embeddings_processed=processed)
