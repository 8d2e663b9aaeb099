"""Ablation: per-pattern ODAG grouping vs a single global ODAG.

The paper keeps "one ODAG per pattern" specifically "in order to reduce the
number of spurious embeddings" (section 5.2).  This bench quantifies the
choice: store the same embedding set both ways and compare wire size and
overapproximation factor (spurious paths per stored embedding).  A single
global ODAG is slightly smaller on the wire but spells out vastly more
spurious paths — each of which costs extraction-time filtering.
"""

from repro.core import Odag, OdagStore, PatternCanonicalizer
from repro.core.canonical import canonicalize_vertex_set
from repro.core.embedding import VERTEX_EXPLORATION, make_embedding
from repro.baselines import enumerate_connected_subgraphs
from repro.datasets import mico_like

from _harness import report


def test_ablation_odag_grouping(benchmark):
    graph = mico_like(scale=0.006)  # labeled: many patterns
    data = {}

    def run_all():
        canonicalizer = PatternCanonicalizer()
        per_pattern = OdagStore()
        single = Odag(3)
        stored = 0
        for members in enumerate_connected_subgraphs(graph, 3):
            words = canonicalize_vertex_set(graph, members)
            embedding = make_embedding(graph, VERTEX_EXPLORATION, words)
            pattern, _ = canonicalizer.canonicalize(embedding.pattern())
            per_pattern.add(pattern, words)
            single.add(words)
            stored += 1
        data["stored"] = stored
        data["per_pattern_bytes"] = per_pattern.wire_size()
        data["per_pattern_paths"] = per_pattern.total_paths()
        data["single_bytes"] = single.wire_size()
        data["single_paths"] = single.total_paths()
        data["patterns"] = per_pattern.num_patterns
        return data

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    per_pattern_over = data["per_pattern_paths"] / data["stored"]
    single_over = data["single_paths"] / data["stored"]
    lines = [
        f"stored embeddings:        {data['stored']:,}",
        f"patterns (ODAG count):    {data['patterns']:,}",
        f"per-pattern: {data['per_pattern_bytes']:,} bytes, "
        f"{data['per_pattern_paths']:,} paths ({per_pattern_over:.2f}x over)",
        f"single ODAG: {data['single_bytes']:,} bytes, "
        f"{data['single_paths']:,} paths ({single_over:.2f}x over)",
        "",
        "per-pattern grouping bounds the spurious-path blowup that a single",
        "global ODAG suffers — the design rationale of section 5.2.",
    ]
    report("ablation_odag_grouping", "Ablation: ODAG grouping strategy", lines)

    assert single_over > 3 * per_pattern_over
