"""Tests for checkpointed out-of-core execution (repro.checkpoint).

Four concerns:

* **spill store** — :class:`SpillListStore` stays under its byte budget
  by writing sorted segment files, and its streamed extraction is
  byte-identical to a merged-and-sorted :class:`ListStore`;
* **snapshot writer** — versioned checksummed files, atomic naming,
  retain-last-K, fresh-run clearing;
* **crash-resume** — a run killed at *any* barrier (in-process raise or
  a real ``SIGKILL``) resumes to a ``canonical_signature`` byte-identical
  to the uninterrupted run, across every storage mode and backend, even
  when the resumed half runs with different execution knobs;
* **facade** — ``.checkpoint()`` / ``.cancellation()`` / ``Miner.resume``
  validate eagerly and round-trip through the session layer.

The determinism contract these tests lean on (pinned by
``test_equivalence_matrix.py``): at a FIXED worker count every backend yields
byte-identical full-order signatures; across worker counts only the
order-normalized signature (``ignore_output_order=True``) is invariant,
because ODAG's block round-robin extraction legitimately reorders
emissions.  Resume comparisons therefore pair each resumed run with a
fresh run at the SAME (storage, backend, workers) combination.
"""

import dataclasses
import os
import pickle
import signal

import pytest

from repro.apps import CliqueFinding, FrequentSubgraphMining, MotifCounting
from repro.bsp import CostModel
from repro.checkpoint import (
    CheckpointWriter,
    CrashingWriter,
    InjectedCrash,
    graph_fingerprint,
    list_snapshots,
    load_latest,
    run_to_crash,
    resume_run,
)
from repro.core import (
    ArabesqueConfig,
    CancelFlag,
    LIST_STORAGE,
    ListStore,
    Pattern,
    RunCancelled,
    SPILL_STORAGE,
    STORAGE_MODES,
    SpillListStore,
    run_computation,
)
from repro.graph import assign_labels, complete_graph, gnm_random_graph, strip_labels
from repro.session import Miner, SessionError


def crash_graph():
    """Small but multi-barrier: cliques up to size 4 snapshot barriers
    0..3 (the size-5 step finds nothing and breaks before snapshotting)."""
    return complete_graph(7)


def mining_graph():
    return assign_labels(gnm_random_graph(10, 22, seed=11), 2, seed=12)


P_EDGE = Pattern((1, 2), ((0, 1, 0),))
P_PATH = Pattern((1, 2, 1), ((0, 1, 0), (1, 2, 0)))


# ---------------------------------------------------------------------------
# SpillListStore
# ---------------------------------------------------------------------------
class TestSpillListStore:
    def _fill(self, store, n=200, width=3):
        for i in range(n):
            store.add(P_PATH, (i, i + 1, i + 2))
            if width > 2:
                store.add(P_EDGE, (n - i, n - i + 1))

    def test_spills_past_budget_and_tracks_peak(self, tmp_path):
        store = SpillListStore(directory=str(tmp_path), budget_nbytes=512)
        self._fill(store)
        assert store.spill_count > 0
        assert store.num_segments > 0
        assert store.peak_memory_nbytes <= 512 + 4 + 4 * 3  # one-row slack
        segments = [n for n in os.listdir(tmp_path) if n.endswith(".seg")]
        assert len(segments) == store.num_segments

    def test_extraction_matches_sorted_list_store(self, tmp_path):
        spill = SpillListStore(directory=str(tmp_path), budget_nbytes=256)
        reference = ListStore()
        rows = [(P_PATH, (9 - i, i, i + 1)) for i in range(10)] + [
            (P_EDGE, (i % 5, i)) for i in range(1, 11)
        ]
        for pattern, words in rows:
            spill.add(pattern, words)
            reference.add(pattern, words)
        reference.sort()
        for workers in (1, 2, 3, 7):
            for worker in range(workers):
                assert list(spill.extract_partition(worker, workers)) == list(
                    reference.extract_partition(worker, workers)
                )

    def test_wire_size_and_counts_match_list_store(self, tmp_path):
        spill = SpillListStore(directory=str(tmp_path), budget_nbytes=128)
        reference = ListStore()
        self._fill(spill, n=50)
        self._fill(reference, n=50)
        assert spill.wire_size() == reference.wire_size()
        assert spill.num_embeddings == reference.num_embeddings
        assert spill.patterns() == reference.patterns()

    def test_merge_accepts_spill_and_list_sources(self, tmp_path):
        merged = SpillListStore(directory=str(tmp_path), budget_nbytes=256, tag="m")
        other_spill = SpillListStore(
            directory=str(tmp_path), budget_nbytes=128, tag="a"
        )
        other_list = ListStore()
        self._fill(other_spill, n=40)
        other_list.add(P_EDGE, (900, 901))
        merged.merge(other_spill)
        merged.merge(other_list)
        assert merged.num_embeddings == other_spill.num_embeddings + 1
        with pytest.raises(TypeError):
            merged.merge(object())

    def test_dispose_removes_segments(self, tmp_path):
        store = SpillListStore(directory=str(tmp_path), budget_nbytes=64)
        self._fill(store, n=60)
        assert any(name.endswith(".seg") for name in os.listdir(tmp_path))
        store.dispose()
        assert not any(name.endswith(".seg") for name in os.listdir(tmp_path))

    def test_owned_directory_is_created_and_disposed(self):
        store = SpillListStore(budget_nbytes=64)
        self._fill(store, n=60)
        directory = store._directory
        assert directory is not None and os.path.isdir(directory)
        store.dispose()
        assert not os.path.exists(directory)

    def test_survives_pickling_with_segments_on_disk(self, tmp_path):
        """The process backend ships worker deltas by pickling; a spill
        store's segment paths must stay valid across the round-trip."""
        store = SpillListStore(directory=str(tmp_path), budget_nbytes=128)
        self._fill(store, n=40)
        clone = pickle.loads(pickle.dumps(store))
        assert list(clone.extract_partition(0, 1)) == list(
            store.extract_partition(0, 1)
        )

    def test_engine_spill_results_match_list_storage(self):
        graph = mining_graph()
        reference = run_computation(
            graph,
            CliqueFinding(max_size=3, min_size=2),
            ArabesqueConfig(storage=LIST_STORAGE),
        )
        spilled = run_computation(
            graph,
            CliqueFinding(max_size=3, min_size=2),
            ArabesqueConfig(storage=SPILL_STORAGE, spill_budget_nbytes=128),
        )
        assert (
            spilled.canonical_signature() == reference.canonical_signature()
        )

    def test_engine_cleans_up_spill_root(self, tmp_path):
        config = ArabesqueConfig(
            storage=SPILL_STORAGE,
            spill_budget_nbytes=128,
            spill_dir=str(tmp_path),
        )
        run_computation(mining_graph(), MotifCounting(3), config)
        assert os.listdir(tmp_path) == []  # per-run root removed


# ---------------------------------------------------------------------------
# Snapshot writer
# ---------------------------------------------------------------------------
class TestCheckpointWriter:
    def _run(self, run_dir, keep=2, every=1):
        config = ArabesqueConfig(
            checkpoint_dir=str(run_dir),
            checkpoint_keep=keep,
            checkpoint_every=every,
        )
        return run_computation(
            crash_graph(), CliqueFinding(max_size=4, min_size=2), config
        )

    def test_retains_only_the_newest_keep_snapshots(self, tmp_path):
        self._run(tmp_path, keep=2)
        steps = [step for step, _ in list_snapshots(str(tmp_path))]
        assert steps == [1, 2]  # barriers 0..2 written, oldest pruned

    def test_checkpoint_every_skips_barriers(self, tmp_path):
        self._run(tmp_path, keep=10, every=2)
        steps = [step for step, _ in list_snapshots(str(tmp_path))]
        assert steps == [1]  # only (step + 1) % 2 == 0 barriers

    def test_fresh_run_clears_stale_snapshots_lazily(self, tmp_path):
        self._run(tmp_path, keep=10)
        stale = [path for _, path in list_snapshots(str(tmp_path))]
        assert stale
        writer = CheckpointWriter(str(tmp_path), keep=10, fresh=True)
        # Nothing destroyed until the new run actually writes...
        assert [path for _, path in list_snapshots(str(tmp_path))] == stale
        writer.write(0, load_latest(str(tmp_path)))
        steps = [step for step, _ in list_snapshots(str(tmp_path))]
        assert steps == [0]  # ...then the stale sequence is gone

    def test_no_tmp_files_left_behind(self, tmp_path):
        self._run(tmp_path)
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            CheckpointWriter(str(tmp_path), keep=0)


# ---------------------------------------------------------------------------
# Crash-resume: every barrier, every storage, across backends/workers
# ---------------------------------------------------------------------------
def _fresh_signature(graph, config):
    return run_computation(
        graph, CliqueFinding(max_size=4, min_size=2), config
    ).canonical_signature()


class TestCrashResume:
    @pytest.mark.parametrize("storage", STORAGE_MODES)
    @pytest.mark.parametrize("crash_after", [0, 1, 2])
    def test_every_barrier_and_storage_resumes_byte_identically(
        self, tmp_path, storage, crash_after
    ):
        graph = crash_graph()
        config = ArabesqueConfig(
            storage=storage, spill_budget_nbytes=256, checkpoint_keep=2
        )
        run_to_crash(
            graph,
            CliqueFinding(max_size=4, min_size=2),
            config,
            str(tmp_path),
            crash_after,
        )
        resumed = resume_run(str(tmp_path), graph, config=config)
        assert resumed.canonical_signature() == _fresh_signature(graph, config)

    @pytest.mark.parametrize(
        "backend,workers", [("serial", 3), ("thread", 2), ("process", 2)]
    )
    def test_backends_and_worker_counts_resume_byte_identically(
        self, tmp_path, backend, workers
    ):
        graph = crash_graph()
        config = ArabesqueConfig(
            storage=LIST_STORAGE, backend=backend, num_workers=workers
        )
        run_to_crash(
            graph, CliqueFinding(max_size=4, min_size=2), config, str(tmp_path), 1
        )
        resumed = resume_run(str(tmp_path), graph, config=config)
        # Full-order equality holds at the same (backend, workers) combo.
        assert resumed.canonical_signature() == _fresh_signature(graph, config)

    def test_execution_knobs_may_change_across_the_crash(self, tmp_path):
        graph = crash_graph()
        before = ArabesqueConfig(storage=LIST_STORAGE, num_workers=1)
        run_to_crash(
            graph, CliqueFinding(max_size=4, min_size=2), before, str(tmp_path), 1
        )
        after = dataclasses.replace(
            before, backend="thread", num_workers=3, checkpoint_every=2
        )
        resumed = resume_run(str(tmp_path), graph, config=after)
        reference = run_computation(
            graph, CliqueFinding(max_size=4, min_size=2), before
        )
        # Different worker counts reorder emissions (ODAG round-robin), so
        # only the order-normalized signature is comparable here.
        assert resumed.canonical_signature(
            ignore_output_order=True
        ) == reference.canonical_signature(ignore_output_order=True)

    def test_resumed_steps_are_priced_on_the_workers_they_ran_on(self, tmp_path):
        """Snapshotted at 2 workers, resumed at 4: each superstep's record
        names its own worker count, and the cost model prices it on that
        (the split record reported 2 for the whole run)."""
        graph = mining_graph()
        before = ArabesqueConfig(num_workers=2)
        run_to_crash(graph, MotifCounting(3), before, str(tmp_path), 0)
        resumed = resume_run(
            str(tmp_path), graph, config=dataclasses.replace(before, num_workers=4)
        )
        assert [step.num_workers for step in resumed.steps] == [2, 4, 4]
        assert [len(step.work_units) for step in resumed.steps] == [2, 4, 4]
        model = CostModel()
        assert model.makespan(resumed) == pytest.approx(sum(
            model.superstep_seconds(step, workers)
            for step, workers in zip(resumed.steps, (2, 4, 4))
        ))
        as_if_2 = sum(model.superstep_seconds(step, 2) for step in resumed.steps)
        assert model.makespan(resumed) != pytest.approx(as_if_2)

    def test_aggregating_workload_resumes_byte_identically(self, tmp_path):
        graph = mining_graph()
        config = ArabesqueConfig()
        writer = CrashingWriter(str(tmp_path), crash_after_step=1)
        from repro.core.engine import ArabesqueEngine

        with pytest.raises(InjectedCrash):
            ArabesqueEngine(
                graph, MotifCounting(3), config, checkpointer=writer
            ).run()
        resumed = resume_run(str(tmp_path), graph)
        reference = run_computation(graph, MotifCounting(3), ArabesqueConfig())
        assert resumed.canonical_signature() == reference.canonical_signature()

    def test_fsm_cross_step_aggregates_resume_byte_identically(self, tmp_path):
        graph = mining_graph()
        config = ArabesqueConfig()
        computation = FrequentSubgraphMining(2, max_edges=3)
        run_to_crash(graph, computation, config, str(tmp_path), 1)
        resumed = resume_run(str(tmp_path), graph)
        reference = run_computation(
            graph, FrequentSubgraphMining(2, max_edges=3), ArabesqueConfig()
        )
        assert resumed.canonical_signature() == reference.canonical_signature()

    def test_repeated_crashes_resume_from_the_latest_barrier(self, tmp_path):
        """A resumed run keeps checkpointing into the run dir, so a second
        crash re-executes only from the newest barrier."""
        graph = crash_graph()
        config = ArabesqueConfig(storage=LIST_STORAGE)
        run_to_crash(
            graph, CliqueFinding(max_size=4, min_size=2), config, str(tmp_path), 0
        )
        with pytest.raises(InjectedCrash):
            # Crash the RESUMED run too, at a later barrier.
            payload = load_latest(str(tmp_path))
            from repro.checkpoint.resume import (
                build_resume_config,
                validate_payload,
            )
            from repro.checkpoint.snapshot import payload_resume_state
            from repro.core.engine import ArabesqueEngine

            validate_payload(payload, graph, config)
            run_config = build_resume_config(payload, str(tmp_path), config)
            writer = CrashingWriter(
                str(tmp_path), crash_after_step=2, fresh=False
            )
            ArabesqueEngine(
                graph,
                payload["computation"],
                run_config,
                checkpointer=writer,
            ).run(resume_state=payload_resume_state(payload))
        assert load_latest(str(tmp_path))["step"] == 2
        resumed = resume_run(str(tmp_path), graph, config=config)
        assert resumed.canonical_signature() == _fresh_signature(graph, config)

    def test_hard_kill_sigkill_after_barrier_then_resume(self, tmp_path):
        """The real thing: a forked child SIGKILLs itself right after the
        barrier-1 snapshot lands — no finally blocks, no interpreter
        shutdown — and the parent resumes from what ``os.replace`` made
        durable."""
        graph = crash_graph()
        config = ArabesqueConfig(storage=LIST_STORAGE)
        pid = os.fork()
        if pid == 0:  # child: die hard, never return into pytest
            try:
                run_to_crash(
                    graph,
                    CliqueFinding(max_size=4, min_size=2),
                    config,
                    str(tmp_path),
                    1,
                    action=lambda: os.kill(os.getpid(), signal.SIGKILL),
                )
            finally:
                os._exit(1)  # pragma: no cover - only on injection failure
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        assert load_latest(str(tmp_path))["step"] == 1
        resumed = resume_run(str(tmp_path), graph, config=config)
        assert resumed.canonical_signature() == _fresh_signature(graph, config)

    def test_spill_run_snapshots_portable_rows(self, tmp_path):
        """Spill-mode snapshots materialize the rows (segment files die
        with the run): resume works even though the original spill
        directory is gone."""
        graph = crash_graph()
        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        config = ArabesqueConfig(
            storage=SPILL_STORAGE,
            spill_budget_nbytes=128,
            spill_dir=str(spill_dir),
        )
        run_dir = tmp_path / "run"
        run_to_crash(
            graph, CliqueFinding(max_size=4, min_size=2), config, str(run_dir), 1
        )
        for name in os.listdir(spill_dir):  # simulate the crash's cleanup loss
            import shutil

            shutil.rmtree(spill_dir / name)
        resumed = resume_run(str(run_dir), graph, config=config)
        assert resumed.canonical_signature() == _fresh_signature(graph, config)

    def test_crash_past_the_last_barrier_is_a_loud_test_bug(self, tmp_path):
        with pytest.raises(RuntimeError, match="finished before"):
            run_to_crash(
                crash_graph(),
                CliqueFinding(max_size=4, min_size=2),
                ArabesqueConfig(),
                str(tmp_path),
                99,
            )


# ---------------------------------------------------------------------------
# Cancellation
# ---------------------------------------------------------------------------
class TestCancellation:
    def test_preset_flag_cancels_at_the_first_barrier(self):
        flag = CancelFlag()
        flag.set()
        with pytest.raises(RunCancelled, match="barrier"):
            run_computation(
                crash_graph(),
                CliqueFinding(max_size=4, min_size=2),
                ArabesqueConfig(cancel=flag),
            )

    def test_flag_set_from_another_thread_stops_the_run(self):
        import threading

        flag = CancelFlag()
        started = threading.Event()

        class Slow(CliqueFinding):
            def filter(self, embedding):
                started.set()
                return super().filter(embedding)

        def arm():
            started.wait(timeout=30)
            flag.set()

        killer = threading.Thread(target=arm)
        killer.start()
        try:
            with pytest.raises(RunCancelled):
                run_computation(
                    complete_graph(9),
                    Slow(max_size=6, min_size=2),
                    ArabesqueConfig(cancel=flag),
                )
        finally:
            killer.join(timeout=30)

    def test_cancel_must_be_a_cancel_flag(self):
        with pytest.raises(ValueError, match="cancel"):
            ArabesqueConfig(cancel=object())


# ---------------------------------------------------------------------------
# Session facade
# ---------------------------------------------------------------------------
class TestFacade:
    def test_checkpoint_and_resume_round_trip(self, tmp_path):
        # That snapshots change nothing is the equivalence matrix's axis.
        miner = Miner(mining_graph())
        run_dir = tmp_path / "run"
        result = miner.cliques(max_size=3, min_size=2).checkpoint(run_dir).run()
        resumed = miner.resume(str(run_dir))
        assert resumed.canonical_signature() == result.raw.canonical_signature()

    def test_resume_retries_the_stripped_variant(self, tmp_path):
        """A run chained with .unlabeled() snapshots the stripped graph's
        fingerprint; Miner.resume on the same dataset must find it."""
        miner = Miner(mining_graph())
        run_dir = tmp_path / "run"
        result = (
            miner.cliques(max_size=3, min_size=2)
            .unlabeled()
            .checkpoint(run_dir)
            .run()
        )
        assert graph_fingerprint(miner.graph) != graph_fingerprint(
            strip_labels(miner.graph)
        )
        resumed = miner.resume(str(run_dir))
        assert (
            resumed.canonical_signature()
            == result.raw.canonical_signature()
        )

    def test_spill_storage_flows_through_the_facade(self):
        miner = Miner(mining_graph())
        spilled = miner.cliques(max_size=3, min_size=2).storage("spill").run()
        listed = miner.cliques(max_size=3, min_size=2).storage("list").run()
        assert (
            spilled.raw.canonical_signature()
            == listed.raw.canonical_signature()
        )

    def test_options_validate_eagerly(self):
        query = Miner(mining_graph()).cliques(max_size=3)
        with pytest.raises(SessionError, match="checkpoint"):
            query.checkpoint("")
        with pytest.raises(SessionError, match="CancelFlag"):
            query.cancellation("not a flag")
