"""Benchmark-owned seeded inputs: preferential attachment + skewed labels.

Deliberately independent of ``repro.datasets`` / ``repro.graph.generators``:
an edit to a generator under ``src/`` must not be able to move a workload.
The program under test only ever sees the edge-list *files* written here.

Each graph's shape (who links to whom, which label sits where) is one
frozen preferential-attachment draw; ``--seed`` decides how that shape
is *presented*: the vertex numbering and the order of the lines in the
file.  Every seed therefore gives a different input file whose pattern
counts are identical, which keeps timings comparable across seeds.
Re-drawing the shape per seed was measured and rejected: guided FSM
with a fixed support threshold is a cliff function of where the hub's
label lands (0.8 s to 3.1 s per pass across six draws of one spec).
Vertex order still matters to the program — canonical-embedding checks
and symmetry-breaking restrictions compare vertex ids — so seeds are
not repeats of one run.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

#: Seed of the one PA draw that fixes each graph's shape.
SHAPE_SEED = 20150704


@dataclass(frozen=True)
class GraphSpec:
    """Frozen size of one input graph (calibrated once, see README)."""

    name: str
    vertices: int
    #: Edges each arriving vertex attaches (PA ``m``); may be fractional:
    #: ``m = 1.4`` attaches 1 edge, plus a second with probability 0.4.
    attach: float
    labels: int
    #: Geometric skew of the label histogram: label ``i`` has weight
    #: ``skew ** i`` (1.0 = uniform).
    skew: float


#: Every degree > ``SMALL_POOL_DEGREE`` (16): the mask kernels carry the pass.
PA_DENSE = GraphSpec("pa-dense", vertices=200, attach=17.0, labels=29, skew=0.9)
#: CiteSeer-like: tiny pools, row fallback, few labels so FSM finds patterns.
PA_SPARSE = GraphSpec("pa-sparse", vertices=1400, attach=1.4, labels=6, skew=0.7)
#: ``--quick`` smoke inputs.
QUICK_DENSE = GraphSpec("pa-dense", vertices=60, attach=17.0, labels=29, skew=0.9)
QUICK_SPARSE = GraphSpec("pa-sparse", vertices=300, attach=1.4, labels=6, skew=0.7)


def _shape(spec: GraphSpec) -> tuple[list[int], list[tuple[int, int]]]:
    """The frozen draw: ``(vertex labels, edges)`` in arrival order."""
    rng = random.Random(f"{spec.name}:{SHAPE_SEED}")
    core = int(spec.attach) + 1
    edges = [(u, v) for u in range(core) for v in range(u + 1, core)]
    stubs = [v for edge in edges for v in edge]
    for v in range(core, spec.vertices):
        m = int(spec.attach) + (rng.random() < spec.attach % 1)
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(stubs))  # degree-proportional
        for u in sorted(targets):
            edges.append((u, v))
            stubs += (u, v)
    weights = [spec.skew**i for i in range(spec.labels)]
    labels = rng.choices(range(spec.labels), weights, k=spec.vertices)
    return labels, edges


def generate(spec: GraphSpec, seed: int) -> tuple[list[int], list[tuple[int, int]]]:
    """``(vertex labels, edge list)`` of ``spec`` as presented by ``seed``."""
    labels, edges = _shape(spec)
    rng = random.Random(f"{spec.name}:{seed}")
    rename = list(range(spec.vertices))
    rng.shuffle(rename)
    renamed_labels = [0] * spec.vertices
    for old, new in enumerate(rename):
        renamed_labels[new] = labels[old]
    renamed_edges = [(rename[u], rename[v]) for u, v in edges]
    rng.shuffle(renamed_edges)
    return renamed_labels, renamed_edges


def write_input(spec: GraphSpec, seed: int, directory: Path) -> dict:
    """Write the edge-list file; return its record for the results."""
    labels, edges = generate(spec, seed)
    path = directory / f"{spec.name}-{seed}.edges"
    lines = [f"# {spec.name} seed={seed}"]
    lines += [f"v {v} {label}" for v, label in enumerate(labels)]
    lines += [f"{u} {v}" for u, v in edges]
    data = ("\n".join(lines) + "\n").encode()
    path.write_bytes(data)
    return {
        "name": spec.name,
        "path": str(path),
        "seed": seed,
        "vertices": len(labels),
        "edges": len(edges),
        "avg_degree": round(2 * len(edges) / len(labels), 3),
        "labels": spec.labels,
        "sha256": hashlib.sha256(data).hexdigest(),
    }
