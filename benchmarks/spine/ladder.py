"""The layer ladder: per-layer metrics from outside the program.

Each rung replays one layer's public functions on the workload's own input
and reports a time, a count or a ratio; exact counters already on
``RunResult`` (``StepStats``, ``RunMetrics.supersteps``),
``Miner.cache_info()`` and ``GET /stats`` fill in the rest.  Layer names are
the repo's module names.  A rung that does not apply to a workload is not
run; its metrics read 0 there (README.md says which layer should move
which end-to-end metric on which workload).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time

import measure
import oracles
from job import Job, child_env, run_cli
from measure import single, summarize
from workloads import CLIQUE_SIZE, MAX_EDGES

#: Candidates a kernel replay samples: enough for a steady ns/candidate,
#: small enough that three strategies replay in well under a second.
REPLAY_CANDIDATES = 120_000
STORE_ROWS = 20_000


def timed(fn) -> tuple[float, object]:
    started = time.perf_counter()
    value = fn()
    return time.perf_counter() - started, value


def repeat(job: Job, fn, budget: float, least: int = 3) -> list[float]:
    """Wall seconds of repeated calls until ``budget`` seconds are spent
    (a fifth of it under ``--quick``)."""
    samples: list[float] = []
    deadline = time.perf_counter() + budget * (0.2 if job.quick else 1.0)
    while len(samples) < least or time.perf_counter() < deadline:
        samples.append(timed(fn)[0])
    return samples


# ----------------------------------------------------------------------
# graph, plan
# ----------------------------------------------------------------------
def graph_rungs(job: Job, graph) -> dict:
    from repro.graph import read_edge_list, strip_labels

    with job.tracer.span("ladder.graph"):
        return {
            "graph.read_edge_list_s": summarize(
                repeat(job, lambda: read_edge_list(job.path), 0.3), "s"),
            "graph.strip_labels_s": summarize(
                repeat(job, lambda: strip_labels(graph), 0.15), "s"),
            "graph.memory_mb": single(graph.memory_nbytes() / 2**20, "MiB"),
        }


def plan_compile_rungs(job: Job, graph, shape: str, dag,
                       dag_graph=None) -> tuple[dict, object]:
    """Catalog, single-plan and DAG compilation (``dag`` was compiled for
    ``dag_graph``); returns the shape's plan on ``graph``."""
    from repro.plan import (
        NAMED_SHAPES, build_catalog, build_plan_dag, compile_plan, mask_bundle,
    )

    pattern = NAMED_SHAPES[shape].canonical()
    with job.tracer.span("plan.catalog"):
        catalog_s = repeat(job, lambda: build_catalog(graph), 0.2)
    catalog = build_catalog(graph)
    with job.tracer.span("plan.compile"):
        compile_s = repeat(
            job, lambda: compile_plan(pattern, induced=True, catalog=catalog),
            0.15)
    out = {
        "plan.build_catalog_s": summarize(catalog_s, "s"),
        "plan.compile_plan_ms": summarize([s * 1e3 for s in compile_s], "ms"),
    }
    if dag is not None:
        dag_catalog = build_catalog(dag_graph)

        def build():
            return build_plan_dag(dag.patterns, induced=dag.induced,
                                  catalog=dag_catalog)

        with job.tracer.span("plan.compile", what="dag"):
            out["plan.build_plan_dag_s"] = summarize(repeat(job, build, 0.4, 2), "s")
        # the bundle is memoized per DAG object: time it on fresh DAGs
        out["plan.mask_bundle_s"] = summarize(
            [timed(lambda d=build(): mask_bundle(d, dag_graph))[0]
             for _ in range(3)], "s")
        out["plan.dag_nodes"] = single(dag.num_nodes, "count")
    return out, compile_plan(pattern, induced=True, catalog=catalog)


def _sample_states(step_fn, extendable, roots) -> tuple[list, list[int]]:
    """Partial matches of whole exploration subtrees, root by root, until
    they generate REPLAY_CANDIDATES candidates (vertex ids are a seeded
    permutation, so the first roots are a random sample)."""
    states: list[tuple[int, ...]] = []
    counts: list[int] = []
    for root in roots:
        stack = [(root,)]
        while stack:
            words = stack.pop()
            count, survivors = step_fn(words)
            states.append(words)
            counts.append(count)
            for word in survivors:
                if extendable(words + (word,)):
                    stack.append(words + (word,))
        if sum(counts) >= REPLAY_CANDIDATES:
            break
    return states, counts


def kernel_rungs(job: Job, graph, plan) -> dict:
    """``guided_survivors`` replayed over the plan's stored prefixes under
    each strategy; ns per candidate, and the share the mask path takes."""
    from repro.plan import guided_survivors
    from repro.plan.guided import prefers_row_iteration

    _, roots = guided_survivors(plan, graph, ())
    with job.tracer.span("ladder.kernel", kernel="guided_survivors"):
        states, counts = _sample_states(
            lambda words: guided_survivors(plan, graph, words),
            lambda words: len(words) < plan.num_steps, roots)
        candidates = max(sum(counts), 1)
        out = {}
        for strategy in ("masks", "rows", None):
            def replay():
                for words in states:
                    guided_survivors(plan, graph, words, strategy)

            seconds = min(repeat(job, replay, 0.2, 2))
            out[f"plan.kernel_{strategy or 'adaptive'}_ns_per_cand"] = single(
                seconds * 1e9 / candidates, "ns")
    # the adaptive kernel's own choice: pool estimate = the smallest degree
    # among the step's matched back-neighbors
    masked = sum(
        count for words, count in zip(states, counts)
        if not prefers_row_iteration(min(
            graph.degree(words[earlier])
            for earlier, _ in plan.steps[len(words)].back_edges)))
    out["plan.kernel_masks_fraction"] = single(masked / candidates, "ratio")
    return out


def dag_kernel_rung(job: Job, graph, dag) -> dict:
    from repro.plan import DagStepper

    probe = DagStepper(dag, graph)
    _, roots = probe.step(())
    with job.tracer.span("ladder.kernel", kernel="DagStepper.step"):
        states, counts = _sample_states(probe.step, probe.extendable, roots)

        def replay():
            stepper = DagStepper(dag, graph)
            for words in states:
                stepper.step(words)

        seconds = min(repeat(job, replay, 0.3, 2))
    return {"plan.dag_step_ns_per_cand": single(
        seconds * 1e9 / max(sum(counts), 1), "ns")}


def counter_rungs(results: list) -> dict:
    """Exact exploration counters of one pass (guided queries only)."""
    candidates = sum(r.total_candidates for r in results)
    survivors = sum(r.total_processed for r in results)
    return {
        "plan.candidates": single(candidates, "count"),
        "plan.survivors": single(survivors, "count"),
        "plan.useful_ratio": single(survivors / max(candidates, 1), "ratio"),
    }


# ----------------------------------------------------------------------
# core
# ----------------------------------------------------------------------
def store_rungs(job: Job, rows: list, modes: tuple[str, ...]) -> dict:
    """add / extract / wire size of each store mode on final-step rows."""
    from repro.core.storage import make_store

    out = {}
    rows = rows[:STORE_ROWS]
    with job.tracer.span("ladder.store"):
        for mode in modes:
            spill_dir = job.scratch / "spill-rung"

            def fill():
                # a budget far below the rows' size, so spill really spills
                store = make_store(mode, spill_dir=str(spill_dir),
                                   spill_budget_nbytes=1 << 16)
                for pattern, words in rows:
                    store.add(pattern, words)
                return store

            add_s = min(timed(fill)[0] for _ in range(2))
            store = fill()
            extract_s = min(
                timed(lambda: sum(1 for _ in store.extract_partition(0, 1)))[0]
                for _ in range(2))
            out[f"core.store_add_ns_per_row.{mode}"] = single(
                add_s * 1e9 / len(rows), "ns")
            out[f"core.store_extract_ns_per_row.{mode}"] = single(
                extract_s * 1e9 / len(rows), "ns")
            if mode != "spill":
                out[f"core.store_bytes_per_row.{mode}"] = single(
                    store.wire_size() / len(rows), "B")
            shutil.rmtree(spill_dir, ignore_errors=True)
    return out


def aggregation_rungs(job: Job, aggregates: dict, reduce_fn) -> dict:
    from repro.core import AggregationChannel, canonicalize_pattern, merge_partials

    patterns = list(aggregates)
    if not patterns:
        return {}

    def canonicalize_all():
        canonicalize_pattern.cache_clear()
        for pattern in patterns:
            canonicalize_pattern(pattern)

    channel = AggregationChannel("ladder", reduce_fn)
    with job.tracer.span("ladder.aggregation"):
        canon = repeat(job, canonicalize_all, 0.15)
        merge = repeat(
            job, lambda: merge_partials(channel, [aggregates, aggregates]), 0.1)
    return {
        "core.canonicalize_pattern_us": summarize(
            [s * 1e6 / len(patterns) for s in canon], "us"),
        "core.merge_partials_ms": summarize([s * 1e3 for s in merge], "ms"),
    }


def canonical_rungs(job: Job, graph, results: list) -> dict:
    from repro.core import is_canonical_vertex_extension

    samples = [
        ((u, v), w)
        for u in range(0, graph.num_vertices, 3)
        for v in graph.neighbors(u) if v > u
        for w in graph.neighbors(v)
    ][:40_000]

    def check_all():
        for words, candidate in samples:
            is_canonical_vertex_extension(graph, words, candidate)

    with job.tracer.span("ladder.canonical"):
        seconds = min(repeat(job, check_all, 0.15, 2))
    steps = [s for r in results for s in r.raw.steps]
    generated = sum(s.candidates_generated for s in steps)
    expanded = sum(s.expanded_embeddings for s in steps)
    return {
        "core.canonical_check_ns": single(seconds * 1e9 / len(samples), "ns"),
        "core.canonical_ratio": single(
            sum(s.canonical_candidates for s in steps) / max(generated, 1),
            "ratio"),
        "core.odag_spurious_ratio": single(
            sum(s.spurious_discarded for s in steps) / max(expanded, 1),
            "ratio"),
    }


# ----------------------------------------------------------------------
# runtime, checkpoint (exhaustive-bsp only)
# ----------------------------------------------------------------------
def superstep_rungs(result) -> dict:
    steps = result.raw.metrics.supersteps
    walls = [s.wall_seconds for s in steps]
    return {
        "runtime.supersteps": single(len(steps), "count"),
        "runtime.max_superstep_share": single(
            max(walls) / max(sum(walls), 1e-9), "ratio"),
        "runtime.imbalance_max": single(
            max(s.imbalance() for s in steps), "ratio"),
    }


def backend_rungs(job: Job, miner, reference) -> dict:
    """The primary query under each backend at 2 workers, no checkpoint."""
    walls, cpus = {}, {}
    expected = reference.signature()
    for backend in ("serial", "thread", "process"):
        query = (miner.cliques(CLIQUE_SIZE).storage("odag").workers(2)
                 .backend(backend))
        cpu_before = measure.cpu_seconds()
        with job.tracer.span("ladder.backend", backend=backend):
            walls[backend], result = timed(query.run)
        cpus[backend] = measure.cpu_seconds() - cpu_before
        job.tally.record(
            f"signature {backend} == process+checkpoint",
            [] if result.signature() == expected else ["signature differs"])
    return {
        "runtime.serial_2w_s": single(walls["serial"], "s"),
        "runtime.thread_2w_s": single(walls["thread"], "s"),
        "runtime.process_2w_s": single(walls["process"], "s"),
        "runtime.process_speedup": single(
            walls["serial"] / walls["process"], "ratio"),
        "runtime.process_cpu_overhead": single(
            cpus["process"] / cpus["serial"] - 1.0, "ratio"),
    }


def checkpoint_rungs(job: Job, graph, miner) -> dict:
    from repro.checkpoint import (
        latest_snapshot_path, read_snapshot, resume_run, write_snapshot,
    )

    # barrier overhead on a cheaper twin (cliques one size down, serial),
    # with and without snapshots, interleaved; best of two each
    plain_dir = job.scratch / "ckpt-rung"
    walls = {True: [], False: []}
    barriers = 1
    with job.tracer.span("ladder.checkpoint"):
        for _ in range(2):
            for snap in (False, True):
                query = miner.cliques(3).storage("odag")
                if snap:
                    query.checkpoint(plain_dir)
                seconds, result = timed(query.run)
                walls[snap].append(seconds)
                barriers = max(result.num_steps, 1)
        run_dir = str(job.scratch / "ckpt")  # left by the last pass
        path = latest_snapshot_path(run_dir)
        read_s = repeat(job, lambda: read_snapshot(path), 0.1)
        payload = read_snapshot(path)
        write_s = repeat(job, lambda: write_snapshot(
                str(job.scratch / "ckpt-write"), payload["step"], payload),
            0.1)
        # resume the twin from its last barrier (the pass's own run would
        # replay its most expensive step)
        resume_s, resumed = timed(lambda: resume_run(str(plain_dir), graph))
    job.tally.record(
        "resume == uninterrupted",
        [] if resumed.canonical_signature() == result.signature()
        else ["signature differs"])
    return {
        "checkpoint.overhead_per_barrier_ms": single(
            (min(walls[True]) - min(walls[False])) * 1e3 / barriers, "ms"),
        "checkpoint.write_snapshot_ms": summarize(
            [s * 1e3 for s in write_s], "ms"),
        "checkpoint.read_snapshot_ms": summarize(
            [s * 1e3 for s in read_s], "ms"),
        "checkpoint.snapshot_bytes": single(os.path.getsize(path), "B"),
        "checkpoint.resume_s": single(resume_s, "s"),
    }


# ----------------------------------------------------------------------
# apps, cli, baselines
# ----------------------------------------------------------------------
def fsm_rungs(job: Job, graph, result) -> dict:
    from repro.core import pattern_orbits
    from repro.plan import (
        build_catalog, compile_plan, domain_sets_from_matches,
        guided_survivors, mni_support_from_domains,
    )

    frequent = result.patterns()
    pattern = max((p for p in frequent if p.num_edges == 2),
                  key=lambda p: (frequent[p], repr(p)), default=None)
    out = {
        "apps.fsm_levels": single(len(result.guided_details.levels), "count"),
        "apps.fsm_frequent_patterns": single(len(frequent), "count"),
    }
    if pattern is None:
        return out
    plan = compile_plan(pattern, induced=False, catalog=build_catalog(graph))
    matches, stack = [], [()]
    while stack and len(matches) < 20_000:
        words = stack.pop()
        for word in guided_survivors(plan, graph, words)[1]:
            grown = words + (word,)
            (matches if len(grown) == plan.num_steps else stack).append(grown)
    orbits = pattern_orbits(pattern)
    with job.tracer.span("ladder.mni"):
        mni = repeat(job, lambda: mni_support_from_domains(
            domain_sets_from_matches(plan, matches), orbits), 0.15)
    out["apps.mni_support_ms"] = summarize([s * 1e3 for s in mni], "ms")
    return out


def cli_rungs(job: Job, in_process_cold_s: float) -> dict:
    """Interpreter + import cost, and what the CLI adds on top of the same
    work done in-process (load + session + cold primary query)."""
    def import_repro():
        subprocess.run([sys.executable, "-c", "import repro"],
                       env=child_env(), check=True, timeout=60)

    with job.tracer.span("ladder.cli"):
        import_s = repeat(job, import_repro, 0.0, 3)
        cli_wall, _ = run_cli(job)
    return {
        "cli.import_s": summarize(import_s, "s"),
        "cli.startup_overhead_s": single(cli_wall - in_process_cold_s, "s"),
    }


def baseline_rung(job: Job, name: str, fn, program_wall: float):
    """A centralized baseline on the same input, repeated until it has run
    for 0.3 s in total (Table 2 framing); ratio = program ÷ baseline.
    Returns ``(metrics, the baseline's answer)``."""
    answers = []
    with job.tracer.span("ladder.baseline", baseline=name):
        seconds = repeat(job, lambda: answers.append(fn()), 0.3, 1)
    wall = summarize(seconds, "s")
    return {
        f"baselines.{name}_s": wall,
        "baselines.ratio": single(program_wall / wall["value"], "ratio"),
    }, answers[-1]


def motif_table(counts: dict) -> dict[tuple, int]:
    """Motif counts keyed the way :mod:`oracles` keys them."""
    return {oracles.pattern_key(p.vertex_labels, p.edges): n
            for p, n in counts.items()}


def trace_rungs(job: Job, untraced_walls: list[float],
                traced_walls: list[float]) -> dict:
    """What tracing costs, two ways, and where the traced passes spent
    their time (self time = span − children).

    ``trace_overhead_pct`` is the difference between the runs: best traced
    against best untraced calibrated wall of interleaved passes — on a
    noisy host this is the noise, either sign.  ``trace_recorder_pct`` is
    the recorder's own cost: every span of the run (ladder spans included,
    so an upper bound) at the measured price of a span, over the traced
    passes' wall.
    """
    base, traced = min(untraced_walls), min(traced_walls)
    price = measure.Tracer("price", enabled=True)
    started = time.perf_counter()
    for _ in range(2000):
        with price.span("span"):
            pass
    per_span = (time.perf_counter() - started) / 2000
    own = job.tracer.self_seconds()
    out = {
        "bench.trace_overhead_pct": single((traced - base) / base * 100, "%"),
        "bench.trace_recorder_pct": single(
            len(job.tracer.spans) * per_span / sum(traced_walls) * 100, "%"),
        "bench.trace_spans": single(len(job.tracer.spans), "count"),
    }
    for name in ("engine.run", "result.view", "client.send", "client.recv"):
        out[f"trace.self_s.{name.replace('.', '_')}"] = single(
            own.get(name, 0.0), "s")
    return out


# ----------------------------------------------------------------------
# The ladders
# ----------------------------------------------------------------------
def batch_ladder(job: Job, graph, miner, cold, untraced, traced,
                 info_after_cold) -> dict:
    from repro.baselines import count_cliques_by_size, count_motifs, run_grami
    from repro.graph import strip_labels
    from repro.plan import NAMED_SHAPES

    name = job.workload.name
    last = traced[-1]
    warm_wall = summarize([p.wall for p in untraced], "s")["value"]
    primary_wall = summarize(
        [p.query_walls[0] for p in untraced], "s")["value"]
    by_name = dict(zip((q.name for q in job.workload.queries), last.results))
    stripped = strip_labels(graph)
    out = graph_rungs(job, graph)

    info_now = miner.cache_info()
    warm_passes = len(untraced) + len(traced)
    out["session.cold_minus_warm_s"] = single(cold.wall - warm_wall, "s")
    # hits per warm pass (exact: the cold pass built, every warm pass hits)
    for cache in ("plan", "dag", "catalog", "universe"):
        hits = (getattr(info_now, f"{cache}_hits")
                - getattr(info_after_cold, f"{cache}_hits"))
        out[f"session.{cache}_hits"] = single(hits / warm_passes, "count")

    if name == "dense-guided":
        motifs = by_name["motifs3-unlabeled"]
        compile_out, plan = plan_compile_rungs(
            job, stripped, "square", motifs.dag, stripped)
        out.update(compile_out)
        kernels = kernel_rungs(job, stripped, plan)
        dag_kernel = dag_kernel_rung(job, stripped, motifs.dag)
        out.update(kernels)
        out.update(dag_kernel)
        out.update(counter_rungs(last.results))
        kernel_ns = (
            by_name["square-unlabeled"].total_candidates
            * kernels["plan.kernel_adaptive_ns_per_cand"]["value"]
            + motifs.total_candidates
            * dag_kernel["plan.dag_step_ns_per_cand"]["value"])
        out["plan.kernel_share_est"] = single(
            kernel_ns * 1e-9 / warm_wall, "ratio")
        square = NAMED_SHAPES["square"].canonical()
        out.update(store_rungs(
            job, [(square, words) for words in
                  by_name["square-unlabeled"].vertex_sets()], ("list",)))
        out.update(aggregation_rungs(
            job, motifs.raw.output_aggregates, lambda key, values: sum(values)))
        out.update(superstep_rungs(motifs))
        twin_s, twin = timed(
            miner.motifs(3).unlabeled().exhaustive().storage("odag").run)
        job.tally.record(
            "guided motifs == exhaustive twin",
            [] if motif_table(twin.counts()) == motif_table(motifs.counts())
            else ["counts differ"])
        out["plan.guided_speedup"] = single(twin_s / primary_wall, "ratio")
        esu_out, esu_counts = baseline_rung(
            job, "esu", lambda: count_motifs(stripped, 3), primary_wall)
        out.update(esu_out)
        job.tally.record(
            "guided motifs == ESU",
            [] if motif_table(esu_counts) == motif_table(motifs.counts())
            else ["counts differ"])

    elif name == "sparse-fsm":
        fsm, motifs = by_name["fsm"], by_name["motifs3-labeled"]
        compile_out, plan = plan_compile_rungs(
            job, stripped, "square", motifs.dag, graph)
        out.update(compile_out)
        kernels = kernel_rungs(job, stripped, plan)
        dag_kernel = dag_kernel_rung(job, graph, motifs.dag)
        out.update(kernels)
        out.update(dag_kernel)
        out.update(counter_rungs(last.results))
        out["plan.kernel_share_est"] = single(
            (fsm.total_candidates + motifs.total_candidates)
            * dag_kernel["plan.dag_step_ns_per_cand"]["value"] * 1e-9
            / warm_wall, "ratio")
        out.update(fsm_rungs(job, graph, fsm))
        from repro.apps.support import Domain

        out.update(aggregation_rungs(
            job, fsm.raw.final_aggregates,
            lambda key, values: Domain.merge_all(values)))
        out.update(superstep_rungs(motifs))
        out.update(baseline_rung(
            job, "grami",
            lambda: run_grami(graph, job.theta, max_edges=MAX_EDGES),
            primary_wall)[0])

    else:  # exhaustive-bsp
        cliques = by_name["cliques4-process-checkpoint"]
        motifs = by_name["motifs3-exhaustive"]
        out.update(canonical_rungs(job, graph, last.results))
        clique4 = NAMED_SHAPES["clique4"].canonical()
        rows = [(clique4, tuple(c)) for c in cliques.by_size().get(4, [])]
        out.update(store_rungs(job, rows, ("list", "odag", "spill")))
        out.update(aggregation_rungs(
            job, motifs.raw.output_aggregates, lambda key, values: sum(values)))
        out.update(superstep_rungs(cliques))
        out.update(backend_rungs(job, miner, cliques))
        out.update(checkpoint_rungs(job, graph, miner))
        twin_s, twin = timed(miner.motifs(3).unlabeled().run)
        job.tally.record(
            "exhaustive motifs == guided twin",
            [] if motif_table(twin.counts()) == motif_table(motifs.counts())
            else ["counts differ"])
        out["plan.guided_speedup"] = single(
            summarize([p.query_walls[1] for p in untraced], "s")["value"]
            / twin_s, "ratio")
        bk_out, bk_counts = baseline_rung(
            job, "bk", lambda: count_cliques_by_size(graph, CLIQUE_SIZE),
            primary_wall)
        out.update(bk_out)
        job.tally.record(
            "clique counts == Bron–Kerbosch",
            [] if bk_counts == {k: len(v) for k, v in cliques.by_size().items()}
            else ["counts differ"])

    in_process_cold = (
        sum(s["end"] - s["start"] for s in job.tracer.spans
            if s["name"] in ("load", "session.open"))
        + cold.query_walls[0])
    out.update(cli_rungs(job, in_process_cold))
    out.update(trace_rungs(
        job, [p.wall * p.factor for p in untraced],
        [p.wall * p.factor for p in traced]))
    return out


def service_ladder(job: Job, server, client, passes, traced, delta) -> dict:
    from repro import Miner
    from repro.graph import read_edge_list, strip_labels
    from repro.service import MinerRegistry, encode_result, parse_request
    from service_mix import BULK_BODY, HIT_BODIES, MISS_BODY, http_call

    graph = read_edge_list(job.path)
    stripped = strip_labels(graph)
    out = graph_rungs(job, graph)
    compile_out, plan = plan_compile_rungs(
        job, stripped, MISS_BODY["query"], None)
    out.update(compile_out)
    out.update(kernel_rungs(job, stripped, plan))

    health = repeat(
        job, lambda: http_call(server.port, "GET", "/health"), 0.3, 30)
    out["service.health_roundtrip_ms_p50"] = summarize(
        [s * 1e3 for s in health], "ms")

    registry = MinerRegistry()
    registry.load("g", graph)
    body = {"graph": "g", **HIT_BODIES[0]}
    body.pop("workload")
    spec = parse_request("match", dict(body))
    signatures = ("g", spec.query_signature(), spec.config_signature())
    registry.cached(*signatures, lambda miner: {"primed": True})

    def hit_1000():
        for _ in range(1000):
            registry.cached(*signatures, None)  # a hit never computes

    def parse_1000():
        for _ in range(1000):
            parse_request("match", dict(body))

    bulk_spec = parse_request(
        "match", {k: v for k, v in BULK_BODY.items() if k != "workload"})
    bulk_result = Miner(graph).match(BULK_BODY["query"]).unlabeled().run()
    with job.tracer.span("ladder.service"):
        out["service.execute_hit_us"] = summarize(
            [s * 1e3 for s in repeat(job, hit_1000, 0.1)], "us")
        out["service.parse_request_us"] = summarize(
            [s * 1e3 for s in repeat(job, parse_1000, 0.1)], "us")
        out["service.encode_result_ms"] = summarize(
            [s * 1e3 for s in repeat(
                job, lambda: encode_result(bulk_spec, bulk_result), 0.2)], "ms")

    everything = passes + traced
    pooled = {kind: [x for p in everything for x in p["latencies"][kind]]
              for kind in ("hit", "miss", "bulk")}
    bulk_mb = sum(p["bulk_bytes"] for p in everything) / 2**20
    out.update({
        "service.hit_latency_ms_p95": single(
            measure.percentile(pooled["hit"], 0.95), "ms"),
        "service.miss_latency_ms_p90": single(
            measure.percentile(pooled["miss"], 0.90), "ms"),
        "service.bulk_latency_ms_p50": single(
            measure.percentile(pooled["bulk"], 0.50), "ms"),
        "service.bulk_mb_per_s": single(
            bulk_mb / (sum(pooled["bulk"]) / 1e3), "MiB/s"),
    })
    for key, value in delta.items():
        out[f"service.{key}"] = single(value, "count")
    out.update(trace_rungs(
        job, [p["wall"] * p["factor"] for p in passes],
        [p["wall"] * p["factor"] for p in traced]))
    return out
