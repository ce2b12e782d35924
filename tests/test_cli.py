"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.graph.io import save_graph_json, save_pattern_json
from repro.graph.pattern import Pattern


@pytest.fixture
def graph_file(tmp_path, tiny_graph):
    path = tmp_path / "graph.json"
    save_graph_json(tiny_graph, path)
    return path


@pytest.fixture
def pattern_file(tmp_path):
    pattern = Pattern(name="cli-pattern")
    pattern.add_node("A", "A")
    pattern.add_node("D", "D")
    pattern.add_edge("A", "D", 2)
    path = tmp_path / "pattern.json"
    save_pattern_json(pattern, path)
    return path


@pytest.fixture
def failing_pattern_file(tmp_path):
    pattern = Pattern(name="no-match")
    pattern.add_node("A", "A")
    pattern.add_node("Z", "Z")
    pattern.add_edge("A", "Z", 1)
    path = tmp_path / "failing.json"
    save_pattern_json(pattern, path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_match_arguments(self):
        args = build_parser().parse_args(
            ["match", "--graph", "g.json", "--pattern", "p.json", "--oracle", "bfs"]
        )
        assert args.command == "match"
        assert args.oracle == "bfs"

    def test_experiment_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "not-a-figure"])


class TestMatchCommand:
    @pytest.mark.parametrize("flag", ["--graph", "--pattern"])
    def test_missing_file_is_a_one_line_error(self, tmp_path, graph_file, flag):
        missing = tmp_path / "nonexistent.json"
        argv = {"--graph": str(graph_file), "--q": "(a)->(b)"}
        if flag == "--pattern":
            del argv["--q"]
        argv[flag] = str(missing)
        with pytest.raises(SystemExit) as excinfo:
            main(["match", *[item for pair in argv.items() for item in pair]])
        message = excinfo.value.code
        # SystemExit with a string prints it to stderr and exits 1.
        assert isinstance(message, str) and "\n" not in message
        assert str(missing) in message and "No such file" in message

    def test_text_output(self, graph_file, pattern_file, capsys):
        exit_code = main(["match", "--graph", str(graph_file), "--pattern", str(pattern_file)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "maximum match" in captured
        assert "A -> {a}" in captured

    def test_json_output(self, graph_file, pattern_file, capsys):
        exit_code = main(
            ["match", "--graph", str(graph_file), "--pattern", str(pattern_file), "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"A": ["a"], "D": ["d"]}

    def test_factorised_output(self, graph_file, pattern_file, capsys):
        exit_code = main(
            ["match", "--graph", str(graph_file), "--pattern", str(pattern_file), "--factorised"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "factorised match: 1 assignment tuple(s) (1 x 1)" in captured
        assert "A: 1 candidate(s)" in captured

    def test_factorised_no_match(self, graph_file, failing_pattern_file, capsys):
        exit_code = main(
            [
                "match",
                "--graph",
                str(graph_file),
                "--pattern",
                str(failing_pattern_file),
                "--factorised",
            ]
        )
        assert exit_code == 1
        assert "no match" in capsys.readouterr().out

    def test_no_match_exit_code(self, graph_file, failing_pattern_file, capsys):
        exit_code = main(
            ["match", "--graph", str(graph_file), "--pattern", str(failing_pattern_file)]
        )
        assert exit_code == 1
        assert "no match" in capsys.readouterr().out

    def test_result_graph_flag(self, graph_file, pattern_file, capsys):
        main(
            [
                "match",
                "--graph", str(graph_file),
                "--pattern", str(pattern_file),
                "--result-graph",
            ]
        )
        assert "result graph:" in capsys.readouterr().out

    @pytest.mark.parametrize("oracle", ["compiled", "matrix", "bfs", "2hop"])
    def test_all_oracles(self, graph_file, pattern_file, oracle, capsys):
        exit_code = main(
            [
                "match",
                "--graph", str(graph_file),
                "--pattern", str(pattern_file),
                "--oracle", oracle,
            ]
        )
        assert exit_code == 0


class TestGenerateAndStats:
    @pytest.mark.parametrize(
        "kind,extra",
        [
            ("random", ["--nodes", "30", "--edges", "60"]),
            ("scale-free", ["--nodes", "30", "--edges", "60"]),
            ("small-world", ["--nodes", "30", "--edges", "60"]),
            ("pblog", ["--scale", "0.05"]),
        ],
    )
    def test_generate_kinds(self, tmp_path, kind, extra, capsys):
        out = tmp_path / "generated.json"
        exit_code = main(["generate", "--kind", kind, "--seed", "3", "--out", str(out)] + extra)
        assert exit_code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_stats(self, graph_file, capsys):
        exit_code = main(["stats", str(graph_file)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "|V|: 4" in captured
        assert "|E|: 5" in captured


class TestExperimentCommand:
    def test_single_experiment_runs(self, capsys, monkeypatch):
        # Patch the registry to a fast driver to keep the test quick.
        from repro import experiments as exp_module
        from repro.experiments import dataset_table_experiment

        monkeypatch.setitem(
            exp_module.ALL_EXPERIMENTS, "table-datasets",
            lambda: dataset_table_experiment(scale=0.01),
        )
        import repro.cli as cli_module

        monkeypatch.setattr(cli_module, "ALL_EXPERIMENTS", exp_module.ALL_EXPERIMENTS)
        exit_code = main(["experiment", "table-datasets"])
        assert exit_code == 0
        assert "table-datasets" in capsys.readouterr().out


class TestIncrementalCommand:
    @pytest.fixture
    def updates_file(self, tmp_path):
        path = tmp_path / "updates.json"
        path.write_text(
            json.dumps(
                [
                    {"op": "delete", "source": "b", "target": "d"},
                    {"op": "insert", "source": "b", "target": "d"},
                    {"op": "insert", "source": "a", "target": "d"},
                ]
            )
        )
        return path

    def test_incremental_stream_runs(
        self, graph_file, pattern_file, updates_file, capsys
    ):
        exit_code = main(
            [
                "incremental",
                "--graph", str(graph_file),
                "--pattern", str(pattern_file),
                "--updates", str(updates_file),
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "1 batch(es)" in captured
        assert "final match" in captured

    def test_incremental_json_report_with_batches(
        self, graph_file, pattern_file, updates_file, capsys
    ):
        exit_code = main(
            [
                "incremental",
                "--graph", str(graph_file),
                "--pattern", str(pattern_file),
                "--updates", str(updates_file),
                "--batch-size", "2",
                "--json",
            ]
        )
        assert exit_code == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["batches"]) == 2
        assert report["match_pairs"] > 0

    def test_incremental_bad_updates_file(self, graph_file, pattern_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"op": "explode", "source": "a", "target": "b"}]))
        with pytest.raises(SystemExit):
            main(
                [
                    "incremental",
                    "--graph", str(graph_file),
                    "--pattern", str(pattern_file),
                    "--updates", str(bad),
                ]
            )


class TestQueryCommand:
    def test_batch_query_text(self, capsys, graph_file, pattern_file, failing_pattern_file):
        code = main(
            [
                "query",
                "--graph", str(graph_file),
                "--patterns", str(pattern_file), str(failing_pattern_file),
                "--repeat", "2",
                "--explain",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1  # one pattern has no match
        assert "strategy:" in out          # --explain printed the plans
        assert "no match" in out
        assert "cache hits/misses" in out

    def test_batch_query_json(self, capsys, graph_file, pattern_file):
        code = main(
            [
                "query",
                "--graph", str(graph_file),
                "--patterns", str(pattern_file), str(pattern_file),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["patterns"]) == 2
        assert all(row["matched"] for row in payload["patterns"])
        # Identical pattern files share one fingerprint -> computed once.
        assert payload["session"]["cache_entries"] == 1

    def test_serial_matches_forced_fork(self, capsys, graph_file, pattern_file):
        for mode in ("serial", "pool"):
            code = main(
                [
                    "query",
                    "--graph", str(graph_file),
                    "--patterns", str(pattern_file),
                    "--parallel", mode,
                    "--json",
                ]
            )
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["patterns"][0]["match_pairs"] == 2


class TestChaosCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.command == "chaos"
        assert args.seeds == 1 and args.rounds == 2
        assert args.plan is None and args.graph is None

    def test_chaos_text_report(self, capsys):
        code = main(
            [
                "chaos",
                "--nodes", "60", "--edges", "180",
                "--queries", "3",
                "--rounds", "1",
                "--plan", "queue.stall@0.5#1",
                "--no-mutate",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "all survived" in out
        assert "recovery:" in out

    def test_chaos_json_matrix(self, capsys):
        code = main(
            [
                "chaos",
                "--nodes", "60", "--edges", "180",
                "--queries", "2",
                "--rounds", "1",
                "--seeds", "2",
                "--plan", "worker.crash@0.5#1",
                "--no-mutate",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["survived"] is True
        assert [run["seed"] for run in payload["runs"]] == [101, 202]
        assert all(run["survived"] for run in payload["runs"])

    def test_chaos_rejects_bad_plan(self, capsys):
        with pytest.raises(SystemExit, match="unknown fault point"):
            main(["chaos", "--plan", "bogus.point", "--rounds", "1"])
