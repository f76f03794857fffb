"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

GOLDEN = Path(__file__).resolve().parent / "golden"

#: Every analytic artefact: its stdout is pinned byte for byte in
#: ``tests/golden/<words joined by _>.txt``.
ANALYTIC = [
    *(["figure", n] for n in ("3", "4", "13", "14", "15", "16")),
    ["table", "3"],
    *(["evaluate", w] for w in ("NCF", "YouTube", "Fox", "Facebook")),
]


def golden(argv) -> str:
    return (GOLDEN / f"{'_'.join(argv)}.txt").read_text()


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure 14" in out
        assert "table 3" in out


class TestEvaluate:
    def test_evaluate_workload(self, capsys):
        assert main(["evaluate", "YouTube", "--batch", "32"]) == 0
        out = capsys.readouterr().out
        assert "TDIMM" in out
        assert "batch 32" in out

    def test_evaluate_with_scale(self, capsys):
        assert main(["evaluate", "Fox", "--scale", "4"]) == 0
        assert "embedding dim 2048" in capsys.readouterr().out

    def test_unknown_workload(self, capsys):
        assert main(["evaluate", "Netflix"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option", [("--scale", "0"), ("--scale", "-2"), ("--batch", "0")], ids=" ".join
    )
    def test_non_positive_count_is_a_usage_error(self, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "NCF", *option])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option[0]}: must be a positive integer" in err


class TestFigures:
    def test_figure_14(self, capsys):
        assert main(["figure", "14"]) == 0
        assert "normalised to GPU-only" in capsys.readouterr().out

    def test_figure_3(self, capsys):
        assert main(["figure", "3"]) == 0
        assert "model size" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    @pytest.mark.parametrize("number", ["14", "3"])
    def test_quick_refused_where_it_trims_nothing(self, number, capsys):
        assert main(["figure", number, "--quick"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "figures 11 and 12" in captured.err

    @pytest.mark.parametrize("number", ["3", "4", "13", "14", "15", "16"])
    def test_jobs_refused_where_nothing_fans_out(self, number, capsys):
        assert main(["figure", number, "--jobs", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "figures 11 and 12" in captured.err

    @pytest.mark.parametrize("value", ["-4", "two", "1.5"])
    def test_bad_jobs_is_a_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "11", "--quick", "--jobs", value])
        assert exc.value.code == 2
        assert "argument --jobs: must be a non-negative integer" in capsys.readouterr().err

    def test_jobs_zero_means_all_cpus(self):
        assert build_parser().parse_args(["figure", "11", "--jobs", "0"]).jobs == 0

    def test_table_3(self, capsys):
        assert main(["table", "3"]) == 0
        assert "FPU" in capsys.readouterr().out

    def test_unknown_table(self, capsys):
        assert main(["table", "7"]) == 2

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestGoldens:
    @pytest.mark.parametrize("argv", ANALYTIC, ids=" ".join)
    def test_analytic_artefact_matches_golden(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == golden(argv)


@pytest.mark.parametrize(
    "argv", [["ablations"], ["evaluate", "NCF"]], ids=" ".join
)
def test_in_process_commands_have_no_jobs_option(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--jobs", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 1" in capsys.readouterr().err


class TestAblations:
    def test_ablations_run(self, capsys):
        assert main(["ablations"]) == 0
        out = capsys.readouterr().out
        assert "address mapping" in out
        assert "queue sizing" in out
        assert out == golden(["ablations"])
