"""Failure injection: misbehaving applications and hostile configurations.

The engine is a framework running user code; these tests pin down what
happens when that code misbehaves — errors must propagate cleanly (never
pass silently), contexts must be detached afterwards, and API misuse must
produce actionable messages.
"""

import pytest

from repro.core import (
    ArabesqueConfig,
    Computation,
    ExplorationError,
    VERTEX_EXPLORATION,
    run_computation,
)
from repro.core.engine import ArabesqueEngine
from repro.graph import complete_graph, path_graph


class Boom(RuntimeError):
    pass


class TestUserFunctionErrors:
    def _run(self, computation):
        return run_computation(complete_graph(4), computation)

    def test_filter_error_propagates(self):
        class BadFilter(Computation):
            def filter(self, e):
                raise Boom("filter")

        with pytest.raises(Boom):
            self._run(BadFilter())

    def test_process_error_propagates(self):
        class BadProcess(Computation):
            def process(self, e):
                raise Boom("process")

        with pytest.raises(Boom):
            self._run(BadProcess())

    def test_aggregation_filter_error_propagates(self):
        class BadAlpha(Computation):
            def filter(self, e):
                return e.num_vertices <= 2

            def aggregation_filter(self, e):
                raise Boom("alpha")

        with pytest.raises(Boom):
            self._run(BadAlpha())

    def test_termination_filter_error_propagates(self):
        class BadTermination(Computation):
            def termination_filter(self, e):
                raise Boom("termination")

        with pytest.raises(Boom):
            self._run(BadTermination())

    def test_context_detached_after_error(self):
        class BadProcess(Computation):
            def process(self, e):
                raise Boom("process")

        app = BadProcess()
        with pytest.raises(Boom):
            self._run(app)
        # The engine's finally-block must have unbound the context.
        with pytest.raises(RuntimeError):
            app.output("stale")

    def test_reduce_error_propagates(self):
        class BadReduce(Computation):
            def filter(self, e):
                return e.num_vertices <= 2

            def process(self, e):
                self.map("k", 1)
                self.map("k", 2)

            def reduce(self, key, values):
                raise Boom("reduce")

        with pytest.raises(Boom):
            self._run(BadReduce())


class TestApiMisuse:
    def test_map_without_reduce(self):
        class MapNoReduce(Computation):
            def filter(self, e):
                return e.num_vertices <= 1

            def process(self, e):
                self.map("k", 1)
                self.map("k", 2)

        with pytest.raises(NotImplementedError, match="reduce"):
            run_computation(path_graph(3), MapNoReduce())

    def test_map_output_without_reduce_output(self):
        class MapOutNoReduce(Computation):
            def filter(self, e):
                return e.num_vertices <= 1

            def process(self, e):
                self.map_output("k", 1)
                self.map_output("k", 2)

        with pytest.raises(NotImplementedError, match="reduce_output"):
            run_computation(path_graph(3), MapOutNoReduce())

    def test_framework_functions_outside_run(self):
        class Plain(Computation):
            pass

        app = Plain()
        for call in (
            lambda: app.output(1),
            lambda: app.map("k", 1),
            lambda: app.map_output("k", 1),
            lambda: app.read_aggregate("k"),
        ):
            with pytest.raises(RuntimeError, match="engine"):
                call()

    def test_read_aggregate_of_unknown_key_is_none(self):
        observed = []

        class Reader(Computation):
            def filter(self, e):
                return e.num_vertices <= 2

            def process(self, e):
                observed.append(self.read_aggregate("never-mapped"))

        run_computation(path_graph(3), Reader())
        assert observed
        assert all(value is None for value in observed)

    def test_unknown_exploration_mode(self):
        class WrongMode(Computation):
            exploration_mode = "sideways"

        with pytest.raises(ValueError, match="exploration mode"):
            ArabesqueEngine(path_graph(3), WrongMode())


class TestHostileFilters:
    def test_non_terminating_filter_hits_step_bound(self):
        class Everything(Computation):
            def filter(self, e):
                return True

        config = ArabesqueConfig(max_exploration_steps=3)
        with pytest.raises(ExplorationError, match="anti-monotonicity"):
            run_computation(complete_graph(8), Everything(), config)

    def test_flip_flopping_filter_is_contained(self):
        """A non-anti-monotone filter (accepts odd sizes only) violates the
        contract; the engine cannot detect it, but exploration still halts
        because nothing of even size survives to be extended."""

        class FlipFlop(Computation):
            exploration_mode = VERTEX_EXPLORATION

            def filter(self, e):
                return e.num_vertices % 2 == 1

        result = run_computation(complete_graph(5), FlipFlop())
        assert result.num_steps == 2  # size-1 accepted, size-2 all rejected

    def test_output_limit_zero_collects_nothing(self):
        class Emit(Computation):
            def filter(self, e):
                return e.num_vertices <= 1

            def process(self, e):
                self.output(e.words)

        config = ArabesqueConfig(output_limit=0)
        result = run_computation(path_graph(4), Emit(), config)
        assert result.outputs == []
        assert result.num_outputs == 4


class TestCheckpointFailureModes:
    """Damaged or mismatched snapshots must refuse to resume, loudly.

    The snapshot trailer is a sha256 over everything before it, so
    arbitrary damage (bit flips, truncation) surfaces as a checksum
    failure; magic/version diagnostics require re-signing the blob, which
    is exactly what a hand-crafted hostile file would do.
    """

    def _crashed_run_dir(self, tmp_path):
        from repro.apps import CliqueFinding
        from repro.checkpoint import run_to_crash

        run_to_crash(
            complete_graph(6),
            CliqueFinding(max_size=4, min_size=2),
            ArabesqueConfig(),
            str(tmp_path),
            1,
        )
        from repro.checkpoint import latest_snapshot_path

        return latest_snapshot_path(str(tmp_path))

    def _resign(self, path, blob):
        import hashlib

        with open(path, "wb") as handle:
            handle.write(blob + hashlib.sha256(blob).digest())

    def test_bit_flip_fails_the_checksum(self, tmp_path):
        from repro.checkpoint import CheckpointError, read_snapshot

        path = self._crashed_run_dir(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(CheckpointError, match="failed its checksum"):
            read_snapshot(path)

    def test_truncated_mid_write_is_detected(self, tmp_path):
        from repro.checkpoint import CheckpointError, read_snapshot

        path = self._crashed_run_dir(tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="checksum|truncated"):
            read_snapshot(path)

    def test_nearly_empty_file_is_reported_as_truncated(self, tmp_path):
        from repro.checkpoint import CheckpointError, read_snapshot

        path = self._crashed_run_dir(tmp_path)
        open(path, "wb").write(b"ARBK")
        with pytest.raises(CheckpointError, match="is truncated"):
            read_snapshot(path)

    def test_foreign_file_with_valid_checksum_fails_magic(self, tmp_path):
        from repro.checkpoint import CheckpointError, read_snapshot

        path = self._crashed_run_dir(tmp_path)
        self._resign(path, b"NOTARBSQ" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="bad magic"):
            read_snapshot(path)

    def test_future_format_version_is_rejected(self, tmp_path):
        import struct

        from repro.checkpoint import CheckpointError, read_snapshot
        from repro.checkpoint.snapshot import MAGIC, _CHECKSUM_NBYTES

        path = self._crashed_run_dir(tmp_path)
        data = open(path, "rb").read()
        blob = data[:-_CHECKSUM_NBYTES]
        payload = blob[len(MAGIC) + 4 :]
        self._resign(path, MAGIC + struct.pack(">I", 99) + payload)
        with pytest.raises(CheckpointError, match="format version 99"):
            read_snapshot(path)

    @pytest.mark.parametrize("old_version", [1, 2, 3])
    def test_older_format_snapshot_is_refused(self, tmp_path, old_version):
        """Version 1 pickled ODAGs as Python sets under other slot names,
        version 2 pickled FSM domains as frozensets (``Domain._sets``),
        version 3 a ``RunResult`` with a second per-step list on a
        ``bsp.metrics.RunMetrics``; an older file must stop at the version
        check, never reach unpickling."""
        import struct

        from repro.checkpoint import CheckpointError, read_snapshot
        from repro.checkpoint.snapshot import FORMAT_VERSION, MAGIC

        assert FORMAT_VERSION == 4
        path = self._crashed_run_dir(tmp_path)
        self._resign(
            path, MAGIC + struct.pack(">I", old_version) + b"not even a pickle"
        )
        with pytest.raises(
            CheckpointError,
            match=f"format version {old_version}; this build reads version 4",
        ):
            read_snapshot(path)

    @pytest.mark.parametrize("old_version", [2, 3])
    def test_older_fsm_snapshot_fails_at_the_version_check_on_resume(
        self, tmp_path, old_version
    ):
        """A real FSM snapshot re-stamped as version 2 (whose ``Domain``
        pickles would not load) or 3 (whose ``RunResult`` carried a
        ``metrics`` object this build's has no slot for): resume raises
        the version error, not an ``AttributeError`` from half-way through
        unpickling or resuming."""
        import struct

        from repro.apps import FrequentSubgraphMining
        from repro.checkpoint import CheckpointError, resume_run, run_to_crash
        from repro.checkpoint.snapshot import MAGIC, _CHECKSUM_NBYTES, list_snapshots

        graph = complete_graph(6)
        run_to_crash(
            graph, FrequentSubgraphMining(2, max_edges=3), ArabesqueConfig(),
            str(tmp_path), 1,
        )
        for _, path in list_snapshots(str(tmp_path)):
            payload = open(path, "rb").read()[len(MAGIC) + 4 : -_CHECKSUM_NBYTES]
            self._resign(path, MAGIC + struct.pack(">I", old_version) + payload)
        with pytest.raises(
            CheckpointError, match=f"format version {old_version}; this build"
        ):
            resume_run(str(tmp_path), graph)

    def test_empty_run_dir_has_nothing_to_resume(self, tmp_path):
        from repro.checkpoint import CheckpointError, resume_run

        with pytest.raises(
            CheckpointError, match="no checkpoint snapshots found"
        ):
            resume_run(str(tmp_path), complete_graph(6))

    def test_resuming_against_the_wrong_graph_is_refused(self, tmp_path):
        from repro.checkpoint import CheckpointGraphMismatch, resume_run

        self._crashed_run_dir(tmp_path)
        with pytest.raises(CheckpointGraphMismatch, match="graph"):
            resume_run(str(tmp_path), complete_graph(7))

    def test_resuming_with_semantic_config_changes_is_refused(self, tmp_path):
        from repro.checkpoint import CheckpointConfigMismatch, resume_run

        self._crashed_run_dir(tmp_path)
        with pytest.raises(CheckpointConfigMismatch, match="storage"):
            resume_run(
                str(tmp_path),
                complete_graph(6),
                config=ArabesqueConfig(storage="list"),
            )
