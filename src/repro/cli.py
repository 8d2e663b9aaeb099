"""Command-line interface: run the bundled mining applications on a graph.

Usage::

    python -m repro motifs          GRAPH --max-size 3 [--exhaustive]
    python -m repro cliques         GRAPH --max-size 4 [--maximal]
    python -m repro maximal-cliques GRAPH --max-size 5
    python -m repro fsm             GRAPH --support 100 [--max-edges 3] [--exhaustive]
    python -m repro match           GRAPH QUERY [--exhaustive]
    python -m repro stats           GRAPH
    python -m repro resume          GRAPH RUN_DIR
    python -m repro serve           --graphs GRAPH [GRAPH ...] [--port 8080]

``GRAPH`` is an edge-list file (see :func:`repro.graph.read_edge_list`) or
one of the built-in synthetic dataset names (``citeseer``, ``mico``,
``patents``, ``youtube``, ``sn``, ``instagram``); built-ins accept
``--scale`` to resize.  Results are printed as plain text.

Every subcommand is a thin shell over the session facade
(:class:`repro.session.Miner`): one ``Miner`` is opened per invocation and
the subcommand chains its options onto a fluent query.  The shared flags
map one-to-one — ``--num-workers`` → ``.workers()``, ``--backend`` →
``.backend()`` (``serial``, ``thread``, or ``process``; ``process`` uses
one OS process per worker chunk for real multi-core speedup), and
``--storage`` → ``.storage()`` (``odag``, ``list``, ``adaptive``, or the
out-of-core ``spill``; unset lets the facade pick).  Results are
identical across backends and worker counts by construction.
``--checkpoint-dir`` snapshots the run at every BSP barrier; ``resume``
restarts a crashed run from its last barrier (docs/checkpoint.md).

``match`` retrieves every occurrence of a query pattern — a named shape
(``triangle``, ``square``, ``wedge``, ...) or a pattern edge-list file (see
:func:`repro.plan.read_pattern_file`).  Plan-guided execution is the
default, mirroring the facade: the query is compiled into a pattern-aware
exploration plan (:mod:`repro.plan`) that proposes only plan-compatible
candidates.  ``--exhaustive`` opts out into the filter-process oracle —
identical matches, many more candidates.

``motifs`` and ``fsm`` are guided by default too: ``motifs`` compiles the
whole motif batch into one multi-query plan DAG (:mod:`repro.plan.dag`)
and answers the distribution in a single engine run; ``fsm`` batches each
level's surviving candidates into one DAG run.  Both accept
``--exhaustive`` for the identical-result oracle.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .core import BACKENDS, SERIAL_BACKEND, STORAGE_MODES
from .datasets import DATASETS, UnknownDatasetError, dataset_statistics, resolve
from .graph import LabeledGraph
from .plan import NAMED_SHAPES, resolve_query
from .session import Miner, QuerySpec


def load_graph(spec: str, scale: float | None) -> LabeledGraph:
    """A dataset name or an edge-list path -> LabeledGraph.

    Thin exit-code shell over :func:`repro.datasets.resolve`, the one
    shared name/path dispatch (the service registry uses it too).
    """
    try:
        return resolve(spec, scale=scale)
    except UnknownDatasetError as exc:
        raise SystemExit(f"error: {exc}")


def open_session(args: argparse.Namespace) -> Miner:
    """The one shared loading path: CLI args -> a mining session.

    Every subcommand goes through here, so graph resolution (dataset name
    vs. file) and ``--scale`` handling live in exactly one place.
    """
    return Miner(load_graph(args.graph, args.scale))


def spec_from_args(args: argparse.Namespace) -> QuerySpec:
    """The mining subcommand's namespace -> one validated query spec.

    Every flag a mining subcommand defines is stored under the spec
    field it sets (``--num-workers`` -> ``workers``, ``--exhaustive`` ->
    ``exhaustive``, ``--monomorphic`` -> ``induced=False``, ...), so the
    mapping is "copy the fields the subcommand has"; flags a subcommand
    lacks keep the spec's defaults.  The spec's rules then reject bad
    values exactly as they do for the facade and the service.
    """
    fields = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(QuerySpec)
        if hasattr(args, field.name)
    }
    if hasattr(args, "query"):
        fields["pattern"] = resolve_query(args.query)
    return QuerySpec(**fields)


def cmd_stats(args: argparse.Namespace) -> int:
    session = open_session(args)
    stats = dataset_statistics(session.graph)
    print(f"{'dataset':<16} {'V':>9} {'E':>11} {'labels':>6} {'avg deg':>8}")
    print(stats.row())
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    """Every mining subcommand: namespace -> spec -> run -> print."""
    session = open_session(args)
    # One handler for the whole query layer: bad option values, unknown
    # shapes, malformed pattern files, disconnected queries, guided +
    # collect-style conflicts and labeled queries against a stripped
    # graph all exit cleanly with the spec's or the facade's message
    # instead of dumping a traceback.
    try:
        spec = spec_from_args(args)
        if getattr(args, "explain", False):
            print(
                session.explain(
                    spec.pattern, induced=spec.induced, labeled=spec.labeled
                )
            )
        result = session.query(spec).run()
    except ValueError as exc:  # SessionError is a ValueError
        raise SystemExit(f"error: {exc}")
    # Request echo (needs the user's own spelling), then the view's body.
    mode = "exhaustive" if spec.exhaustive else "guided"
    if spec.workload == "motifs":
        if result.dag is not None:
            print(f"dag: {result.dag.describe()}")
        print(f"motifs ({mode}): max size {spec.max_size}")
    elif spec.workload == "match":
        if result.guided:
            print(f"plan: {result.plan.describe()}")
        semantics = "induced" if spec.induced else "monomorphic"
        print(
            f"query {args.query!r} ({semantics}, {mode}): "
            f"{result.num_matches:,} matches, "
            f"{result.total_candidates:,} candidates generated"
        )
    for line in result.lines(getattr(args, "verbose", False)):
        print(line)
    print(result.summary())
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    from .checkpoint import CheckpointError, load_latest
    from .session.results import view_for

    session = open_session(args)
    # Semantics (storage mode, budgets, the plan) come from the snapshot;
    # only execution knobs are taken from the command line — results are
    # invariant to them by construction.
    try:
        payload = load_latest(args.run_dir)
        config = dataclasses.replace(
            payload["config"],
            backend=args.backend,
            num_workers=args.workers,
            checkpoint_dir=args.run_dir,
        )
        result = session.resume(args.run_dir, config)
    except (CheckpointError, OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    print(
        f"resumed from barrier {payload['step']} "
        f"({payload['processed_total']:,} embeddings already processed)"
    )
    view = view_for(payload["computation"], result)
    for line in view.lines():
        print(line)
    print(view.summary())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from pathlib import Path

    from .service import MinerRegistry, QueryService, run_forever

    registry = MinerRegistry(
        memory_limit_nbytes=(
            None if args.memory_limit_mb is None
            else int(args.memory_limit_mb * (1 << 20))
        )
    )
    try:
        for spec in args.graphs:
            # Dataset names keep their name; file paths pool under their stem.
            name = spec if spec in DATASETS else Path(spec).stem
            registry.load(name, load_graph(spec, args.scale))
        service = QueryService(
            registry,
            max_concurrent=args.max_concurrent,
            max_pending=args.max_pending,
            default_deadline_seconds=(
                None if args.deadline_ms is None else args.deadline_ms / 1000.0
            ),
            default_max_embeddings=args.max_embeddings,
            checkpoint_root=args.checkpoint_root,
        )
    except ValueError as exc:  # ServiceError/SessionError family
        raise SystemExit(f"error: {exc}")
    try:
        asyncio.run(run_forever(service, args.host, args.port))
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        service.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Arabesque reproduction: distributed graph mining",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("graph", help="edge-list file or dataset name")
        sub.add_argument("--scale", type=float, default=None,
                         help="scale factor for built-in datasets")
        sub.add_argument("--num-workers", "--workers", dest="workers",
                         type=int, default=1, metavar="N",
                         help="logical workers the exploration is "
                              "partitioned over (default 1); results never "
                              "depend on this")
        sub.add_argument("--backend", choices=BACKENDS,
                         default=SERIAL_BACKEND,
                         help="execution runtime for the worker tasks: "
                              "'serial' runs them in one loop, 'thread' on "
                              "a thread pool (GIL-bound on standard "
                              "CPython), 'process' on one OS process per "
                              "worker chunk for real multi-core speedup "
                              "(default: serial)")
        sub.add_argument("--storage", choices=STORAGE_MODES, default=None,
                         help="embedding storage strategy (default: let "
                              "the session pick — list for plan-guided "
                              "runs, ODAG otherwise); 'spill' streams "
                              "embedding blocks to disk past a byte budget")
        sub.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                         help="snapshot the run into DIR at every BSP "
                              "barrier; after a crash, 'repro resume GRAPH "
                              "DIR' restarts from the last barrier (see "
                              "docs/checkpoint.md)")

    stats = subparsers.add_parser("stats", help="print dataset statistics")
    common(stats)
    stats.set_defaults(handler=cmd_stats)

    motifs = subparsers.add_parser("motifs", help="count motifs")
    common(motifs)
    motifs.add_argument("--max-size", type=int, default=3)
    motifs.add_argument("--labeled", action="store_true",
                        help="keep vertex labels (labeled motifs)")
    motif_strategy = motifs.add_mutually_exclusive_group()
    motif_strategy.add_argument(
        "--guided", dest="exhaustive", action="store_false", default=False,
        help="compile every motif candidate of the size range into ONE "
             "multi-query plan DAG (shared-prefix exploration, symmetry "
             "breaking per motif) and answer the whole distribution in "
             "one guided engine run (default)",
    )
    motif_strategy.add_argument(
        "--exhaustive", dest="exhaustive", action="store_true",
        help="exploration-agnostic filter-process counting — the oracle "
             "the guided mode is validated against",
    )
    motifs.add_argument(
        "--limit", type=int, default=None,
        help="cap on collected outputs (exhaustive only — guided motifs "
             "aggregate the distribution and reject this loudly, exactly "
             "like the facade)",
    )
    motifs.set_defaults(handler=cmd_mine, workload="motifs")

    cliques = subparsers.add_parser("cliques", help="enumerate cliques")
    common(cliques)
    cliques.add_argument("--max-size", type=int, default=4)
    cliques.add_argument("--min-size", type=int, default=3)
    cliques.add_argument("--maximal", action="store_true",
                         help="report only maximal cliques")
    cliques.add_argument("--limit", type=int, default=100_000,
                         help="cap on collected cliques")
    cliques.add_argument("--verbose", action="store_true")
    cliques.set_defaults(handler=cmd_mine, workload="cliques")

    maximal = subparsers.add_parser(
        "maximal-cliques",
        help="enumerate maximal cliques (those contained in no larger one)",
    )
    common(maximal)
    maximal.add_argument("--max-size", type=int, default=None,
                         help="optional cap; cliques of exactly this size "
                              "are reported when maximal in the full graph")
    maximal.add_argument("--limit", type=int, default=100_000,
                         help="cap on collected cliques")
    maximal.add_argument("--verbose", action="store_true")
    maximal.set_defaults(handler=cmd_mine, workload="cliques", maximal=True)

    match = subparsers.add_parser(
        "match", help="retrieve all occurrences of a query pattern"
    )
    common(match)
    match.add_argument(
        "query",
        help="named query shape "
             f"({', '.join(sorted(NAMED_SHAPES))}) or a pattern "
             "edge-list file ('u v [edge_label]' lines, optional "
             "'v <id> <label>' vertex-label lines)",
    )
    strategy = match.add_mutually_exclusive_group()
    strategy.add_argument(
        "--guided", dest="exhaustive", action="store_false", default=False,
        help="compile the query into a pattern-aware exploration plan "
             "(matching order + symmetry breaking) and only generate "
             "plan-compatible candidates (default)",
    )
    strategy.add_argument(
        "--exhaustive", dest="exhaustive", action="store_true",
        help="exploration-agnostic filter-process matching — the oracle "
             "the guided mode is validated against",
    )
    match.add_argument(
        "--monomorphic", dest="induced", action="store_false",
        help="edge-subset (monomorphism) semantics instead of "
             "vertex-induced occurrences",
    )
    match.add_argument(
        "--labeled", action="store_true",
        help="keep vertex labels (query labels must match graph labels)",
    )
    match.add_argument("--limit", type=int, default=100_000,
                       help="cap on collected matches (counts stay exact)")
    match.add_argument("--verbose", action="store_true",
                       help="print the first 20 matches")
    match.add_argument(
        "--explain", action="store_true",
        help="print the cost-based planner's report before running: "
             "graph statistics, the chosen matching order with per-step "
             "cardinality estimates, and the comparison against the "
             "degree heuristic's order",
    )
    match.set_defaults(handler=cmd_mine, workload="match")

    fsm = subparsers.add_parser("fsm", help="frequent subgraph mining")
    common(fsm)
    fsm.add_argument("--support", type=int, required=True,
                     help="MNI support threshold")
    fsm.add_argument("--max-edges", type=int, default=None)
    fsm_strategy = fsm.add_mutually_exclusive_group()
    fsm_strategy.add_argument(
        "--guided", dest="exhaustive", action="store_false", default=False,
        help="plan-guided FSM (default): grow candidate patterns "
             "level-wise and discover each one's embeddings through its "
             "compiled exploration plan, accumulating MNI domains from "
             "the guided matches",
    )
    fsm_strategy.add_argument(
        "--exhaustive", dest="exhaustive", action="store_true",
        help="one exploration-agnostic edge-exploration run covering "
             "every pattern at once — the oracle the guided mode is "
             "validated against",
    )
    fsm.set_defaults(handler=cmd_mine, workload="fsm")

    resume = subparsers.add_parser(
        "resume",
        help="resume a crashed checkpointed run from its run directory",
    )
    resume.add_argument("graph", help="the SAME edge-list file or dataset "
                                      "name the checkpointed run used")
    resume.add_argument("run_dir", help="the --checkpoint-dir of the "
                                        "crashed run")
    resume.add_argument("--scale", type=float, default=None,
                        help="scale factor for built-in datasets (must "
                             "match the original run's)")
    resume.add_argument("--num-workers", "--workers", dest="workers",
                        type=int, default=1, metavar="N",
                        help="worker count for the resumed steps (an "
                             "execution knob — results never depend on it)")
    resume.add_argument("--backend", choices=BACKENDS,
                        default=SERIAL_BACKEND,
                        help="execution runtime for the resumed steps "
                             "(execution knob, default: serial)")
    resume.set_defaults(handler=cmd_resume)

    serve = subparsers.add_parser(
        "serve",
        help="run the HTTP query service (see docs/service.md)",
    )
    serve.add_argument(
        "--graphs", nargs="+", required=True, metavar="GRAPH",
        help="graphs to pool at startup: dataset names or edge-list "
             "files (files pool under their stem)",
    )
    serve.add_argument("--scale", type=float, default=None,
                       help="scale factor applied to built-in datasets")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--max-concurrent", type=int, default=4,
                       help="queries running at once (worker-pool width)")
    serve.add_argument("--max-pending", type=int, default=16,
                       help="queries allowed to wait for a slot before "
                            "the server answers 429")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="default per-query deadline; a request's own "
                            "deadline_ms overrides it")
    serve.add_argument("--max-embeddings", type=int, default=None,
                       help="default per-query embedding budget; a "
                            "request's own max_embeddings overrides it")
    serve.add_argument("--memory-limit-mb", type=float, default=None,
                       help="bound on the pooled graphs' summed memory; "
                            "loading past it evicts LRU graphs")
    serve.add_argument("--checkpoint-root", default=None, metavar="DIR",
                       help="snapshot every cache-miss query's engine run "
                            "into a unique directory under DIR (resume "
                            "one with 'repro resume')")
    serve.set_defaults(handler=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
