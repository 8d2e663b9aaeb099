"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, load_graph, main
from repro.graph import write_edge_list, gnm_random_graph, assign_labels, path_graph


@pytest.fixture
def edge_list_file(tmp_path):
    graph = assign_labels(gnm_random_graph(20, 40, seed=1), 3, seed=1)
    path = tmp_path / "toy.edges"
    write_edge_list(graph, path)
    return path


class TestLoadGraph:
    def test_dataset_name(self):
        graph = load_graph("citeseer", scale=0.1)
        assert graph.num_vertices == 331

    def test_dataset_default_scale(self):
        graph = load_graph("citeseer", scale=None)
        assert graph.num_vertices == 3312

    def test_file(self, edge_list_file):
        graph = load_graph(str(edge_list_file), scale=None)
        assert graph.num_vertices == 20

    def test_missing_spec(self):
        with pytest.raises(SystemExit):
            load_graph("no-such-thing", scale=None)


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats", "citeseer", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "citeseer-like" in out

    def test_motifs(self, capsys, edge_list_file):
        assert main(["motifs", str(edge_list_file), "--max-size", "3"]) == 0
        out = capsys.readouterr().out
        assert "motifs (guided)" in out  # DAG-guided is the default
        assert "dag: patterns=" in out
        assert "motif v=3" in out
        assert "processed=" in out

    def test_motifs_labeled_flag(self, capsys, edge_list_file):
        assert main(
            ["motifs", str(edge_list_file), "--max-size", "3", "--labeled"]
        ) == 0
        out = capsys.readouterr().out
        assert "motif" in out

    @pytest.mark.parametrize("labeled", [[], ["--labeled"]])
    def test_motifs_exhaustive_round_trip(self, capsys, edge_list_file, labeled):
        """`motifs` and `motifs --exhaustive` print identical tables —
        same rows in the same order — with or without labels, and
        labeled rows say which labels they count."""

        def motif_lines(args):
            assert main(args) == 0
            out = capsys.readouterr().out
            return [
                line for line in out.splitlines()
                if line.startswith("motif v=")
            ]

        base = ["motifs", str(edge_list_file), "--max-size", "3", *labeled]
        guided = motif_lines(base)
        exhaustive = motif_lines(base + ["--exhaustive"])
        assert guided == exhaustive and guided
        assert all(("labels=[" in line) == bool(labeled) for line in guided)

    def test_motifs_guided_rejects_limit(self, capsys, edge_list_file):
        # --limit caps collected outputs, which guided motifs never
        # materialize — same loud facade error, clean exit.
        with pytest.raises(SystemExit, match="exhaustive"):
            main(
                ["motifs", str(edge_list_file), "--max-size", "3",
                 "--limit", "5"]
            )
        assert main(
            ["motifs", str(edge_list_file), "--max-size", "3",
             "--exhaustive", "--limit", "5"]
        ) == 0

    def test_motifs_guided_exhaustive_mutually_exclusive(self, edge_list_file):
        with pytest.raises(SystemExit):
            main(
                ["motifs", str(edge_list_file), "--guided", "--exhaustive"]
            )

    def test_cliques(self, capsys, edge_list_file):
        assert main(["cliques", str(edge_list_file), "--max-size", "3"]) == 0
        out = capsys.readouterr().out
        assert "cliques" in out

    def test_cliques_maximal(self, capsys, edge_list_file):
        assert main(
            ["cliques", str(edge_list_file), "--max-size", "3", "--maximal"]
        ) == 0

    def test_cliques_maximal_honours_the_min_size_default(self, capsys, tmp_path):
        path = tmp_path / "path.edges"
        write_edge_list(path_graph(5), path)
        assert main(["cliques", str(path), "--maximal"]) == 0
        assert "size 2" not in capsys.readouterr().out
        assert main(["cliques", str(path), "--maximal", "--min-size", "2"]) == 0
        assert "size 2: 4 maximal cliques" in capsys.readouterr().out

    @pytest.mark.parametrize("strategy", [[], ["--exhaustive"]],
                             ids=["guided", "exhaustive"])
    def test_motifs_min_size_drops_the_smaller_motifs(self, capsys, tmp_path,
                                                      strategy):
        path = tmp_path / "plain.edges"
        write_edge_list(gnm_random_graph(20, 40, seed=1), path)

        def motif_lines(*extra):
            args = ["motifs", str(path), "--max-size", "4", *strategy, *extra]
            assert main(args) == 0
            out = capsys.readouterr().out
            return [line for line in out.splitlines() if line.startswith("motif ")]

        default = motif_lines()
        assert default == motif_lines("--min-size", "3")
        assert any(line.startswith("motif v=3 ") for line in default)
        at_least_4 = motif_lines("--min-size", "4")
        assert at_least_4 == [l for l in default if l.startswith("motif v=4 ")]
        assert at_least_4

    def test_maximal_cliques_subcommand(self, capsys, edge_list_file):
        assert main(
            ["maximal-cliques", str(edge_list_file), "--max-size", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "maximal cliques" in out
        # Must agree with the equivalent `cliques --maximal` spelling.
        assert main(
            ["cliques", str(edge_list_file), "--max-size", "3",
             "--min-size", "1", "--maximal"]
        ) == 0
        via_flag = capsys.readouterr().out
        assert [l for l in out.splitlines() if l.startswith("size")] == \
            [l for l in via_flag.splitlines() if l.startswith("size")]

    def test_storage_flag(self, capsys, edge_list_file):
        for storage in ("odag", "list", "adaptive"):
            assert main(
                ["motifs", str(edge_list_file), "--max-size", "3",
                 "--storage", storage]
            ) == 0

    def test_unknown_storage_rejected(self, edge_list_file):
        with pytest.raises(SystemExit):
            main(["motifs", str(edge_list_file), "--storage", "bogus"])

    def test_cliques_verbose(self, capsys, edge_list_file):
        assert main(
            ["cliques", str(edge_list_file), "--max-size", "3",
             "--min-size", "2", "--verbose"]
        ) == 0
        out = capsys.readouterr().out
        assert "size 2" in out

    def test_fsm(self, capsys, edge_list_file):
        assert main(
            ["fsm", str(edge_list_file), "--support", "3", "--max-edges", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "fsm (guided)" in out
        assert "pattern labels=" in out

    def test_fsm_exhaustive_round_trip(self, capsys, edge_list_file):
        """`fsm` and `fsm --exhaustive` print the identical pattern table."""

        def pattern_lines(args):
            assert main(args) == 0
            out = capsys.readouterr().out
            return [
                line for line in out.splitlines()
                if line.startswith("pattern labels=")
            ]

        base = ["fsm", str(edge_list_file), "--support", "3",
                "--max-edges", "2"]
        guided = pattern_lines(base)
        exhaustive = pattern_lines(base + ["--exhaustive"])
        assert guided and guided == exhaustive

    def test_fsm_strategy_flags_conflict(self, edge_list_file):
        with pytest.raises(SystemExit):
            main(["fsm", str(edge_list_file), "--support", "3",
                  "--guided", "--exhaustive"])

    def test_fsm_requires_support(self, edge_list_file):
        with pytest.raises(SystemExit):
            main(["fsm", str(edge_list_file)])

    def test_workers_flag(self, capsys, edge_list_file):
        assert main(
            ["motifs", str(edge_list_file), "--max-size", "3",
             "--workers", "4"]
        ) == 0

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("fsm", ["--support", "0"]),
            ("cliques", ["--max-size", "0"]),
            ("cliques", ["--limit", "-1"]),
            ("maximal-cliques", ["--num-workers", "0"]),
            ("motifs", ["--max-size", "0"]),
            ("match", ["nosuchshape"]),
        ],
    )
    def test_bad_arguments_exit_cleanly(
        self, capsys, edge_list_file, command, flags
    ):
        # Every mining subcommand shares one handler: an `error:` line,
        # never a traceback.
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(edge_list_file), *flags])
        assert str(exit_info.value.code).startswith("error:")
        assert "Traceback" not in capsys.readouterr().err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMatchCommand:
    def _match_count(self, out: str) -> int:
        for line in out.splitlines():
            if " matches, " in line:
                return int(line.split(":")[-1].split("matches")[0].strip().replace(",", ""))
        raise AssertionError(f"no match-count line in {out!r}")

    def test_named_shape_guided_default(self, capsys, edge_list_file):
        # The facade made guided execution the transparent default; the
        # CLI mirrors it and prints the compiled plan.
        assert main(["match", str(edge_list_file), "triangle"]) == 0
        out = capsys.readouterr().out
        assert "guided" in out
        assert "plan: order=" in out

    def test_exhaustive_opt_out(self, capsys, edge_list_file):
        assert main(
            ["match", str(edge_list_file), "triangle", "--exhaustive"]
        ) == 0
        out = capsys.readouterr().out
        assert "exhaustive" in out
        assert "plan:" not in out

    def test_guided_prints_plan_and_agrees_with_exhaustive(
        self, capsys, edge_list_file
    ):
        assert main(["match", str(edge_list_file), "square", "--guided"]) == 0
        guided_out = capsys.readouterr().out
        assert "plan: order=" in guided_out
        assert "|Aut|=" in guided_out
        assert main(["match", str(edge_list_file), "square", "--exhaustive"]) == 0
        exhaustive_out = capsys.readouterr().out
        assert self._match_count(guided_out) == self._match_count(exhaustive_out)

    def test_explain_prints_cost_report(self, capsys, edge_list_file):
        assert main(
            ["match", str(edge_list_file), "wedge", "--explain"]
        ) == 0
        out = capsys.readouterr().out
        assert "graph: V=" in out
        assert "winner=" in out
        assert "reason:" in out
        assert "step 0" in out

    def test_explain_skewed_reports_cost_win(self, capsys):
        # The bundled adversarial dataset is where the cost model beats
        # the degree heuristic — the report must say so.
        assert main(["match", "skewed", "triangle", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "winner=" in out

    def test_monomorphic_semantics(self, capsys, edge_list_file):
        assert main(
            ["match", str(edge_list_file), "wedge", "--guided", "--monomorphic"]
        ) == 0
        out = capsys.readouterr().out
        assert "monomorphic" in out

    def test_verbose_lists_matches(self, capsys, edge_list_file):
        assert main(
            ["match", str(edge_list_file), "edge", "--guided", "--verbose"]
        ) == 0
        out = capsys.readouterr().out
        assert "(0," in out or "(1," in out

    def test_pattern_file_query(self, capsys, tmp_path, edge_list_file):
        pattern_file = tmp_path / "wedge.pattern"
        pattern_file.write_text("# a wedge\n0 1\n1 2\n")
        assert main(
            ["match", str(edge_list_file), str(pattern_file), "--guided"]
        ) == 0
        file_out = capsys.readouterr().out
        assert main(["match", str(edge_list_file), "wedge", "--guided"]) == 0
        named_out = capsys.readouterr().out
        assert self._match_count(file_out) == self._match_count(named_out)

    def test_unknown_query_rejected(self, edge_list_file):
        with pytest.raises(SystemExit):
            main(["match", str(edge_list_file), "not-a-shape"])

    def test_labeled_query_without_labeled_flag_rejected(
        self, tmp_path, edge_list_file
    ):
        # Graph labels are stripped by default; a labeled query would
        # silently match nothing, so it must be refused instead.
        pattern_file = tmp_path / "labeled.pattern"
        pattern_file.write_text("v 0 1\n0 1\n1 2\n")
        with pytest.raises(SystemExit, match="labeled"):
            main(["match", str(edge_list_file), str(pattern_file)])
        # With --labeled the same query runs (match count depends on the
        # graph's actual labels).
        assert main(
            ["match", str(edge_list_file), str(pattern_file), "--labeled"]
        ) == 0

    def test_directory_query_rejected_cleanly(self, tmp_path, edge_list_file):
        # A directory passes Path.exists() but not is_file(); must exit
        # cleanly, not dump an IsADirectoryError traceback.
        with pytest.raises(SystemExit):
            main(["match", str(edge_list_file), str(tmp_path)])

    @pytest.mark.parametrize("mode_flag", ["--exhaustive", "--guided"])
    def test_disconnected_query_rejected_cleanly(
        self, tmp_path, edge_list_file, mode_flag
    ):
        # Connected exploration cannot find disconnected occurrences; both
        # modes must refuse instead of confidently reporting 0 matches.
        pattern_file = tmp_path / "disconnected.pattern"
        pattern_file.write_text("0 1\n2 3\n")
        with pytest.raises(SystemExit, match="connected"):
            main(["match", str(edge_list_file), str(pattern_file), mode_flag])

    def test_guided_and_exhaustive_flags_conflict(self, edge_list_file):
        with pytest.raises(SystemExit):
            main(["match", str(edge_list_file), "triangle",
                  "--guided", "--exhaustive"])

    def test_match_with_workers_and_backend(self, capsys, edge_list_file):
        assert main(
            ["match", str(edge_list_file), "triangle", "--guided",
             "--num-workers", "3", "--backend", "thread"]
        ) == 0
