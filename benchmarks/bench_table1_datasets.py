"""Table 1: graphs used for the evaluation.

Regenerates the dataset-statistics table for the synthetic stand-ins and
shows the paper's originals next to them.  The labeled generators must
match label counts exactly and degree shape approximately
(docs/architecture.md, substitution 2).
"""

from repro.datasets import DATASETS, PAPER_TABLE1, dataset_statistics

from _harness import report


def test_table1_dataset_statistics(benchmark):
    rows = {}

    def build_all():
        for name, factory in DATASETS.items():
            rows[name] = dataset_statistics(factory())
        return rows

    benchmark.pedantic(build_all, rounds=1, iterations=1)

    lines = [
        f"{'dataset':<16} {'V':>9} {'E':>11} {'labels':>6} {'avg deg':>8}   "
        f"(paper: {'V':>11} {'E':>13} {'labels':>6} {'deg':>5})"
    ]
    for name, stats in rows.items():
        paper = PAPER_TABLE1[name]
        paper_labels = str(paper.labels) if paper.labels else "-"
        lines.append(
            f"{stats.row()}   (paper: {paper.vertices:>11,} {paper.edges:>13,} "
            f"{paper_labels:>6} {paper.average_degree:>5.1f})"
        )
    report("table1", "Table 1: dataset statistics (ours vs paper)", lines)

    for name, stats in rows.items():
        paper = PAPER_TABLE1[name]
        if paper.labels:
            assert stats.labels == paper.labels
