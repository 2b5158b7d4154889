"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.datasets.paper_examples import figure1_graph
from repro.graph.io import write_uncertain_edge_list


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "figure1.txt"
    write_uncertain_edge_list(figure1_graph(), path)
    return str(path)


class TestCLI:
    def test_stats(self, graph_file, capsys):
        assert main(["stats", graph_file]) == 0
        out = capsys.readouterr().out
        assert "nodes\t4" in out
        assert "edges\t3" in out

    def test_mpds(self, graph_file, capsys):
        code = main([
            "mpds", graph_file, "--k", "2", "--theta", "1500", "--seed", "3",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        rank1 = lines[0].split("\t")
        assert rank1[0] == "1"
        assert set(rank1[3].split()) == {"B", "D"}

    def test_mpds_with_sampler_and_ablation(self, graph_file, capsys):
        code = main([
            "mpds", graph_file, "--theta", "300", "--sampler", "RSS",
            "--one-per-world", "--seed", "1",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip()

    def test_nds(self, graph_file, capsys):
        code = main([
            "nds", graph_file, "--k", "1", "--min-size", "2",
            "--theta", "1500", "--seed", "3",
        ])
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[0]
        parts = line.split("\t")
        assert set(parts[3].split()) == {"B", "D"}
        assert abs(float(parts[1]) - 0.7) < 0.05

    def test_exact(self, graph_file, capsys):
        assert main(["exact", graph_file, "--k", "1"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[0]
        parts = line.split("\t")
        assert abs(float(parts[1]) - 0.42) < 1e-9

    def test_exact_refuses_large_graphs(self, tmp_path, capsys):
        from repro.graph.generators import uncertain_erdos_renyi
        import random
        graph = uncertain_erdos_renyi(12, 0.6, random.Random(1))
        path = tmp_path / "big.txt"
        write_uncertain_edge_list(graph, path)
        assert main(["exact", str(path)]) == 2

    def test_clique_density_option(self, graph_file, capsys):
        code = main([
            "mpds", graph_file, "--density", "clique", "--h", "2",
            "--theta", "200", "--seed", "5",
        ])
        assert code == 0

    def test_heuristic_flag(self, graph_file, capsys):
        code = main([
            "mpds", graph_file, "--heuristic", "--theta", "200", "--seed", "5",
        ])
        assert code == 0

    def test_surplus_density_option(self, graph_file, capsys):
        code = main([
            "mpds", graph_file, "--density", "surplus", "--alpha", "0.33",
            "--theta", "64", "--seed", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tau-hat" in out

    @pytest.mark.parametrize("command", ["mpds", "nds"])
    def test_engine_option_identical_output(self, command, graph_file, capsys):
        """--engine python and --engine vectorized print identical results."""
        outputs = {}
        for engine in ("python", "vectorized", "auto"):
            code = main([
                command, graph_file, "--k", "2", "--theta", "120",
                "--seed", "9", "--engine", engine,
            ])
            assert code == 0
            outputs[engine] = capsys.readouterr().out
        assert outputs["python"] == outputs["vectorized"] == outputs["auto"]
        assert outputs["python"].strip()

    def test_engine_option_with_explicit_sampler(self, graph_file, capsys):
        for engine in ("python", "vectorized"):
            code = main([
                "mpds", graph_file, "--sampler", "LP", "--theta", "80",
                "--seed", "2", "--engine", engine,
            ])
            assert code == 0
        assert capsys.readouterr().out.strip()

    def test_engine_option_rejects_unknown(self, graph_file, capsys):
        with pytest.raises(SystemExit):
            main(["mpds", graph_file, "--engine", "warp-drive"])


class TestCLISpecs:
    """Registry spec strings on --sampler/--measure, and --workers auto."""

    def test_measure_spec_flag(self, graph_file, capsys):
        code = main([
            "mpds", graph_file, "--measure", "clique:h=2",
            "--theta", "200", "--seed", "5",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip()

    def test_measure_spec_overrides_density(self, graph_file, capsys):
        """--measure wins over the legacy --density flags; equal specs
        print identical output."""
        assert main([
            "mpds", graph_file, "--density", "edge",
            "--measure", "clique:h=2", "--theta", "150", "--seed", "2",
        ]) == 0
        via_spec = capsys.readouterr().out
        assert main([
            "mpds", graph_file, "--density", "clique", "--h", "2",
            "--theta", "150", "--seed", "2",
        ]) == 0
        assert via_spec == capsys.readouterr().out

    def test_sampler_spec_lowercase_and_params(self, graph_file, capsys):
        assert main([
            "mpds", graph_file, "--sampler", "rss:r=3",
            "--theta", "100", "--seed", "1",
        ]) == 0
        assert capsys.readouterr().out.strip()

    def test_sampler_spec_carries_theta_and_seed(self, graph_file, capsys):
        """theta=/seed= in the spec override the flags: both spellings
        must print identical results."""
        assert main([
            "mpds", graph_file, "--sampler", "mc:theta=200,seed=9", "--k", "2",
        ]) == 0
        via_spec = capsys.readouterr().out
        assert main([
            "mpds", graph_file, "--theta", "200", "--seed", "9", "--k", "2",
        ]) == 0
        assert via_spec == capsys.readouterr().out

    def test_unknown_sampler_spec_exits_2(self, graph_file, capsys):
        assert main(["mpds", graph_file, "--sampler", "metropolis"]) == 2
        assert "unknown sampler" in capsys.readouterr().err

    def test_bad_sampler_constructor_params_exit_2(self, graph_file, capsys):
        """Spec parameters the sampler rejects (bad values or unknown
        keywords) exit 2 cleanly, like every other spec error."""
        assert main([
            "mpds", graph_file, "--sampler", "rss:r=0", "--seed", "1",
        ]) == 2
        assert "r must be >= 1" in capsys.readouterr().err
        assert main([
            "mpds", graph_file, "--sampler", "lp:r=4", "--seed", "1",
        ]) == 2
        assert "keyword" in capsys.readouterr().err

    def test_unknown_measure_spec_exits_2(self, graph_file, capsys):
        assert main(["mpds", graph_file, "--measure", "volume"]) == 2
        assert "unknown measure" in capsys.readouterr().err

    def test_workers_auto_accepted(self, graph_file, capsys):
        assert main([
            "mpds", graph_file, "--theta", "150", "--seed", "3",
            "--workers", "auto", "--k", "2",
        ]) == 0
        auto_out = capsys.readouterr().out
        assert main([
            "mpds", graph_file, "--theta", "150", "--seed", "3", "--k", "2",
        ]) == 0
        assert auto_out == capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["mpds", "--k", "3"],
        ["nds", "--k", "3", "--min-size", "2"],
    ])
    @pytest.mark.parametrize("sampler", [
        ["--sampler", "mc", "--theta", "32", "--seed", "7"],
        ["--sampler", "lp:theta=32,seed=3"],
    ])
    def test_workers_fan_out_prints_identical_output(
        self, tmp_path, capsys, command, sampler
    ):
        """One query pipeline: a fan-out prints exactly what the
        in-process run prints, for seeded MC and LP draws alike."""
        from repro.datasets import karate_club_uncertain

        path = tmp_path / "karate.txt"
        write_uncertain_edge_list(karate_club_uncertain(seed=2023), path)
        argv = [command[0], str(path), *command[1:], *sampler]
        assert main(argv + ["--workers", "1"]) == 0
        sequential = capsys.readouterr().out
        assert sequential.strip()
        assert main(argv + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == sequential

    def test_workers_rejects_garbage(self, graph_file):
        with pytest.raises(SystemExit):
            main(["mpds", graph_file, "--workers", "many"])

    def test_workers_rejects_nonpositive(self, graph_file):
        for bad in ("0", "-2"):
            with pytest.raises(SystemExit):
                main(["mpds", graph_file, "--workers", bad])


class TestCLIQuery:
    """The `query` subcommand: several runs on one Session."""

    def test_query_runs_share_one_draw(self, graph_file, capsys):
        code = main([
            "query", graph_file, "--sampler", "mc:theta=300,seed=7",
            "--run", "mpds:k=2",
            "--run", "mpds:k=2,measure=clique:h=2",
            "--run", "nds:k=1,min_size=2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("# run ") == 3
        assert "tau-hat" in out and "gamma-hat" in out
        assert "300 worlds sampled in 1 draw(s)" in out
        assert "2 warm hit(s)" in out

    def test_query_matches_one_shot_commands(self, graph_file, capsys):
        assert main([
            "query", graph_file, "--theta", "200", "--seed", "3",
            "--run", "mpds:k=2", "--run", "nds:k=1",
        ]) == 0
        query_out = capsys.readouterr().out
        assert main([
            "mpds", graph_file, "--k", "2", "--theta", "200", "--seed", "3",
        ]) == 0
        mpds_out = capsys.readouterr().out
        assert main([
            "nds", graph_file, "--k", "1", "--theta", "200", "--seed", "3",
        ]) == 0
        nds_out = capsys.readouterr().out
        for line in mpds_out.strip().splitlines():
            assert line in query_out
        for line in nds_out.strip().splitlines():
            assert line in query_out

    def test_query_default_run_is_mpds(self, graph_file, capsys):
        assert main([
            "query", graph_file, "--theta", "100", "--seed", "1",
        ]) == 0
        assert "tau-hat" in capsys.readouterr().out

    def test_query_unseeded_summary_reports_sampling(self, graph_file,
                                                     capsys):
        """Without --seed nothing is cacheable; the summary must report
        the worlds actually drawn, not '0 draw(s)'."""
        assert main([
            "query", graph_file, "--theta", "50",
            "--run", "mpds:k=1", "--run", "nds:k=1",
        ]) == 0
        out = capsys.readouterr().out
        assert "# session: unseeded -- 100 worlds sampled" in out
        assert "pass --seed" in out

    def test_query_rejects_unknown_algorithm(self, graph_file, capsys):
        assert main([
            "query", graph_file, "--run", "pagerank:k=2",
        ]) == 2
        assert "unknown run algorithm" in capsys.readouterr().err

    def test_query_rejects_unknown_run_parameter(self, graph_file, capsys):
        assert main([
            "query", graph_file, "--run", "mpds:depth=3",
        ]) == 2
        assert "unknown run parameter" in capsys.readouterr().err

    def test_query_rejects_bad_measure(self, graph_file, capsys):
        assert main([
            "query", graph_file, "--run", "mpds:measure=volume",
        ]) == 2
        assert "unknown measure" in capsys.readouterr().err

    def test_query_rejects_bad_run_values_cleanly(self, graph_file, capsys):
        """Typos in run parameter *values* exit 2 with the offending
        run named -- no tracebacks."""
        for run in ("mpds:k=zero", "mpds:k=0", "nds:min_size=0",
                    "mpds:workers=oops"):
            assert main([
                "query", graph_file, "--theta", "20", "--seed", "1",
                "--run", run,
            ]) == 2, run
            err = capsys.readouterr().err
            assert f"run '{run}'" in err
