"""Load-balancing analysis for the cost-estimated partitioning (section 5.3).

The partitioning itself lives in :meth:`repro.core.odag.Odag.extract`
(rank-range splits over the overapproximated path space, using per-element
path counts as cost estimates) and
:meth:`repro.core.storage.OdagStore.extract_partition`.  This module
provides the measurement side: given a store and a worker count, how even is
the split actually?  Used by the partitioning ablation bench and the
scalability analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .odag import PoolFilter
from .storage import EmbeddingStore


@dataclass(frozen=True)
class PartitionReport:
    """Per-worker shares of one store under a given worker count."""

    num_workers: int
    #: Embeddings each worker would extract (after spurious filtering).
    shares: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.shares)

    @property
    def max_share(self) -> int:
        return max(self.shares, default=0)

    def imbalance(self) -> float:
        """max/mean share; 1.0 means perfectly even."""
        if not self.shares or self.total == 0:
            return 1.0
        return self.max_share / (self.total / len(self.shares))


def measure_partition(
    store: EmbeddingStore,
    num_workers: int,
    children: PoolFilter | None = None,
) -> PartitionReport:
    """Extract every worker's share and report the balance.

    Also validates the partition invariant: every stored embedding is
    extracted by exactly one worker — the shares must sum to what a single
    worker extracting everything would see (the same pool filter applied,
    so spurious-path discards cancel out).  A store whose partitioning
    drops or duplicates embeddings raises ``ValueError``.
    """
    shares = []
    for worker_id in range(num_workers):
        count = sum(
            1 for _ in store.extract_partition(worker_id, num_workers, children)
        )
        shares.append(count)
    whole = sum(1 for _ in store.extract_partition(0, 1, children))
    total = sum(shares)
    if total != whole:
        raise ValueError(
            f"partition invariant violated: {num_workers} workers extract "
            f"{total} embeddings but the store holds {whole} — the split "
            "drops or duplicates embeddings"
        )
    return PartitionReport(num_workers=num_workers, shares=tuple(shares))


def block_round_robin_assignment(total: int, num_workers: int, block: int) -> list[int]:
    """The paper's block round-robin scheme: owner of each embedding index.

    "Workers do round robin on large blocks of b embeddings" — provided for
    the partitioning ablation, which compares block round-robin against the
    cost-estimated rank-range split.
    """
    if block < 1:
        raise ValueError("block size must be >= 1")
    return [(index // block) % num_workers for index in range(total)]
