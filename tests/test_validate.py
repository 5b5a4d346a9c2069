"""The self-validation battery (python -m repro validate)."""

import pytest

from repro.analysis.validate import ALL_CHECKS, CheckResult, render, run_battery


def test_all_checks_pass():
    results = run_battery()
    failing = [r.name for r in results if not r.passed]
    assert not failing, f"validation failures: {failing}"
    assert len(results) == len(ALL_CHECKS)


def test_subset_selection():
    results = run_battery(["determinism"])
    assert len(results) == 1
    assert results[0].name == "determinism"


def test_unknown_check_rejected(capsys):
    """An unknown row is an argparse usage error (exit 2)."""
    from repro.cli import main

    with pytest.raises(SystemExit) as exc_info:
        main(["validate", "no-such-check"])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "invalid choice: 'no-such-check'" in err


def test_render_reports_failures():
    fake = [
        CheckResult("good", True, "fine", 0.1),
        CheckResult("bad", False, "broken", 0.2),
    ]
    out = render(fake)
    assert "FAIL" in out and "FAILURES: bad" in out


def test_cli_validate_subcommand(capsys):
    from repro.cli import main

    rc = main(["validate", "determinism", "oracle:sfs:load1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "determinism" in out and "oracle:sfs:load1" in out
    assert "PASS" in out and "FAIL" not in out
