"""The ``repro replay`` subcommand: path validation, resume, stats."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as _main

BASE = ["replay", "--requests", "300", "--cores", "4", "--load", "0.9",
        "--seed", "5"]


def main(argv):
    """Run the CLI, folding SystemExit (the _check_parent path) into
    the return code like the real process boundary does."""
    try:
        return _main(argv)
    except SystemExit as exc:
        return exc.code


# ----------------------------------------------------------------------
# uniform --output parent-dir validation: pinned exit code 2, before
# the (possibly long) run starts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("flag", ["--output", "--spill", "--stats"])
def test_missing_parent_dir_exits_2(flag, capsys):
    rc = main(BASE + [flag, "/definitely/not/a/dir/x.json"])
    assert rc == 2
    assert "directory does not exist" in capsys.readouterr().err


def test_missing_checkpoint_parent_exits_2(capsys):
    rc = main(BASE + ["--checkpoint-dir", "/definitely/not/a/dir/ckpt"])
    assert rc == 2
    assert "directory does not exist" in capsys.readouterr().err


def test_resume_requires_checkpoint_dir(capsys):
    rc = main(BASE + ["--resume"])
    assert rc == 2
    assert "--resume requires --checkpoint-dir" in capsys.readouterr().err


def test_resume_without_stored_checkpoint_exits_2(tmp_path, capsys):
    rc = main(BASE + ["--checkpoint-dir", str(tmp_path / "empty"),
                      "--resume"])
    assert rc == 2
    assert "no checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("schema", ["repro.stream/1", "repro.stream/2",
                                    "repro.stream/3", "repro.stream/4",
                                    "repro.stream/5", "repro.stream/6",
                                    "repro.stream/7", "repro.stream/8",
                                    "repro.stream/9", "repro.stream/10",
                                    "repro.stream/11"],
                         ids=["v1", "v2", "v3", "v4", "v5", "v6", "v7",
                              "v8", "v9", "v10", "v11"])
def test_resume_of_older_checkpoint_schema_exits_2(tmp_path, capsys, schema):
    ckpt = tmp_path / "ckpt"
    args = BASE + ["--checkpoint-dir", str(ckpt), "--checkpoint-every", "5",
                   "--output", str(tmp_path / "a.json")]
    assert main(args) == 0
    manifest = ckpt / "checkpoint.manifest.json"
    doc = json.loads(manifest.read_text())
    doc["schema"] = schema
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(args + ["--resume"]) == 2
    assert schema in capsys.readouterr().err


# ----------------------------------------------------------------------
# happy path
# ----------------------------------------------------------------------
def test_replay_writes_summary_and_stats(tmp_path):
    out = tmp_path / "summary.json"
    stats = tmp_path / "stats.json"
    rc = main(BASE + ["--output", str(out), "--stats", str(stats)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.stream-summary/1"
    assert doc["requests"] == 300
    s = json.loads(stats.read_text())
    assert s["requests"] == 300
    assert s["rss_kb"] > 0
    assert s["wall_s"] >= 0


def test_replay_stdout_is_canonical_json(capsys):
    rc = main(BASE)
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["requests"] == 300


def test_cli_resume_reproduces_summary(tmp_path):
    """Resuming the final in-run checkpoint replays the tail to the
    byte-identical summary (the cheap in-process cousin of the CI
    SIGKILL job)."""
    ckpt = tmp_path / "ckpt"
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    args = BASE + ["--checkpoint-every", "10", "--checkpoint-dir",
                   str(ckpt)]
    assert main(args + ["--output", str(out_a)]) == 0
    assert (ckpt / "checkpoint.manifest.json").exists()
    assert main(args + ["--output", str(out_b), "--resume"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_resume_config_mismatch_exits_2(tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    args = BASE + ["--checkpoint-every", "10",
                   "--checkpoint-dir", str(ckpt)]
    assert main(args + ["--output", str(tmp_path / "a.json")]) == 0
    rc = main(["replay", "--requests", "300", "--cores", "8", "--load",
               "0.9", "--seed", "5", "--checkpoint-every", "10",
               "--checkpoint-dir", str(ckpt), "--resume"])
    assert rc == 2
    assert "different replay configuration" in capsys.readouterr().err


def test_cli_mem_budget_abort_writes_report(tmp_path, capsys):
    stats = tmp_path / "report.json"
    rc = main(BASE + ["--mem-budget", "1", "--checkpoint-every", "10",
                      "--checkpoint-dir", str(tmp_path / "ckpt"),
                      "--stats", str(stats)])
    assert rc == 1
    report = json.loads(stats.read_text())
    assert report["error"] == "memory budget exceeded"
    assert report["checkpoint"]
    assert "--resume" in report["resume_hint"]
    err = capsys.readouterr().err
    assert "budget" in err
    assert "checkpoint saved" in err
