"""CLI and text-plot helpers."""

import numpy as np
import pytest

from repro.analysis.ascii import cdf_plot, histogram
from repro.cli import build_parser, main


# ----------------------------------------------------------------------
# ascii plots
# ----------------------------------------------------------------------
def test_histogram_linear():
    out = histogram([1, 2, 2, 3, 3, 3], bins=3, width=10)
    lines = out.splitlines()
    assert "histogram (n=6)" in lines[0]
    assert len(lines) == 4
    assert "3" in lines[-1]  # the modal bin count


def test_histogram_log_scale():
    vals = np.logspace(0, 4, 200)
    out = histogram(vals, bins=8, log=True)
    assert len(out.splitlines()) == 9


def test_histogram_empty_rejected():
    with pytest.raises(ValueError):
        histogram([])


def test_cdf_plot_structure():
    out = cdf_plot({"a": [1, 2, 3], "b": [10, 20, 30]}, width=30, height=8)
    lines = out.splitlines()
    assert lines[0].startswith("1.00 |")
    assert "*=a" in lines[-1] and "+=b" in lines[-1]
    assert len(lines) == 8 + 3


def test_cdf_plot_empty_rejected():
    with pytest.raises(ValueError):
        cdf_plot({})


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig1" in out and "ext-eevdf" in out


def test_cli_run(capsys):
    rc = main(["run", "--scheduler", "sfs", "--requests", "300",
               "--cores", "8", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "SFS promoted" in out
    assert "p50 (ms)" in out


def test_cli_run_plain_scheduler_no_sfs_rows(capsys):
    main(["run", "--scheduler", "cfs", "--requests", "200", "--cores", "8"])
    out = capsys.readouterr().out
    assert "SFS promoted" not in out


def test_cli_compare(capsys):
    rc = main(["compare", "--schedulers", "cfs", "sfs", "--requests", "400",
               "--cores", "8", "--load", "1.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "SFS vs CFS" in out


def test_cli_experiment_unknown_id(capsys):
    rc = main(["experiment", "not-a-figure"])
    assert rc == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_experiment_runs_small(capsys):
    rc = main(["experiment", "fig1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Fig 1" in out


def test_cli_parser_defaults():
    args = build_parser().parse_args(["run"])
    assert args.scheduler == "sfs"
    assert args.engine == "fluid"
    assert args.ctx_cost == 500


@pytest.mark.parametrize("argv", [
    ["trace", "no_such_dir/out.json", "--requests", "10"],
    ["report", "no_such_dir/out.html", "--requests", "10"],
    ["report", "out.html", "--bundle", "no_such_dir/run/",
     "--requests", "10"],
    ["fuzz", "--budget", "1", "--out", "no_such_dir/findings"],
    ["explore", "bundle.json", "-o", "no_such_dir/out.html"],
], ids=["trace", "report", "report-bundle", "fuzz-out", "explore"])
def test_cli_missing_parent_dir_exits_2(argv, capsys, tmp_path,
                                        monkeypatch):
    """Every artifact-writing path fails fast with the same exit code."""
    monkeypatch.chdir(tmp_path)  # guarantee no_such_dir doesn't exist
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "directory does not exist" in capsys.readouterr().err


def test_cli_explore_bad_bundle_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    rc = main(["explore", str(bad), "-o", str(tmp_path / "out.html")])
    assert rc == 2
    assert "not a repro.explore/1" in capsys.readouterr().err


def test_cli_explore_too_many_bundles_exits_2(capsys, tmp_path):
    rc = main(["explore", "a", "b", "c",
               "-o", str(tmp_path / "out.html")])
    assert rc == 2
    assert "one bundle" in capsys.readouterr().err
