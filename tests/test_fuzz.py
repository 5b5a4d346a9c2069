"""repro.fuzz: seeded chaos fuzzing, shrinking, corpus, and CLI.

The battery mirrors the package's promises:

1. **Replayability** — any case is a pure function of
   ``(campaign_seed, index)``, and a whole campaign renders a
   byte-identical summary when re-run.
2. **Soundness** — a healthy tree fuzzes clean (no oracle false
   positives), and every checked-in corpus case replays green.
3. **Sensitivity** — a deliberately seeded accounting bug is found by a
   small-budget campaign and shrunk to a tiny reproducer.
4. **Plumbing** — ReproCase JSON round-trips strictly, the shrinker
   preserves req_ids, and the ``repro fuzz`` / ``repro check`` CLIs pin
   their exit codes.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro import cli
from repro.experiments.runner import RunConfig, run_workload
from repro.faults.plan import FaultPlan
from repro.fuzz import ReproCase, applicable_oracles, make_case, run_campaign
from repro.fuzz.corpus import load_corpus
from repro.fuzz.generators import FuzzCase, plan_component_count
from repro.fuzz.oracles import ORACLE_BY_NAME, Oracle, Violation
from repro.fuzz.shrink import shrink_case
from repro.machine.base import MachineParams
from repro.obs import MetricsRegistry
from repro.sim.engine import SimulationError
from repro.sim.task import Burst, BurstKind, Task
from repro.workload.spec import RequestSpec, Workload

CORPUS_DIR = Path(__file__).parent / "corpus"


def _undercharge(monkeypatch_like):
    """Seed the classic lost-work accounting bug (cf. test_invariants)."""
    real = Task.consume_cpu

    def undercharging(self, amount):
        real(self, amount)
        if self.cpu_time > 0:
            self.cpu_time -= 1  # work vanishes from the books

    monkeypatch_like.setattr(Task, "consume_cpu", undercharging)


# ----------------------------------------------------------------------
# 1. replayability
# ----------------------------------------------------------------------
def test_case_replays_bit_identically_from_id():
    a, b = make_case(7, 3), make_case(7, 3)
    assert a == b
    assert [r.bursts for r in a.workload] == [r.bursts for r in b.workload]
    assert a.config == b.config


def test_cases_differ_across_indices_and_seeds():
    cases = {0: make_case(0, 0), 1: make_case(0, 1), 2: make_case(1, 0)}
    assert cases[0] != cases[1]
    assert cases[0] != cases[2]


def test_campaign_summary_is_deterministic():
    one = run_campaign(budget=20, seed=3, case_seconds=None)
    two = run_campaign(budget=20, seed=3, case_seconds=None)
    assert one.render() == two.render()


# ----------------------------------------------------------------------
# 2. soundness on a healthy tree
# ----------------------------------------------------------------------
def test_healthy_tree_fuzzes_clean():
    summary = run_campaign(budget=25, seed=11, case_seconds=None)
    assert summary.n_findings == 0, summary.render()
    assert summary.n_timeouts == 0
    assert summary.n_clean == 25
    # every oracle family got exercised by the generator's biases;
    # every case gets a conservation-law oracle: single-machine cases
    # the invariant replay, cluster cases the exactly-once closure
    assert (summary.applicable["invariant"]
            + summary.applicable["cluster-exactly-once"]) == 25
    assert summary.applicable["cluster-exactly-once"] > 0
    assert summary.applicable["differential-engines"] > 0
    assert summary.applicable["metamorphic-drop-fault"] > 0
    # the reconstruction oracle covers cluster cases too
    assert summary.applicable["why-exact-sum"] == 25


def test_oracle_gates_track_config():
    nominal = make_case(0, 25)  # cfs/fluid, no faults (see corpus survey)
    names = {o.name for o in applicable_oracles(nominal)}
    assert "differential-ideal" in names
    assert "metamorphic-drop-fault" not in names
    faulted = make_case(0, 54)  # sfs/discrete with crash+straggler+retry
    names = {o.name for o in applicable_oracles(faulted)}
    assert "metamorphic-drop-fault" in names
    assert "differential-ideal" not in names
    # a timeout makes cross-engine status comparison unsound
    gated = nominal.with_config(
        replace(nominal.config, timeout=1_000_000)
    )
    names = {o.name for o in applicable_oracles(gated)}
    assert "differential-engines" not in names
    assert "metamorphic-idle-hosts" not in names


@pytest.mark.parametrize(
    "path", sorted(CORPUS_DIR.glob("*.json")), ids=lambda p: p.stem
)
def test_corpus_case_replays_green(path):
    ok, message = ReproCase.load(path).replays_as_expected()
    assert ok, f"{path.name}: {message}"


def test_corpus_covers_every_oracle_family():
    families = set()
    for _, case in load_corpus(CORPUS_DIR):
        families.add(case.oracle.split("-")[0])
    assert {"invariant", "differential", "metamorphic"} <= families


# ----------------------------------------------------------------------
# 3. sensitivity: a seeded bug is found and minimised
# ----------------------------------------------------------------------
def test_seeded_bug_is_found_and_shrunk(monkeypatch, tmp_path):
    with monkeypatch.context() as m:
        _undercharge(m)
        summary = run_campaign(budget=5, seed=0, out_dir=tmp_path,
                               case_seconds=None)
    assert summary.n_findings == 5  # every case trips work-conservation
    for finding in summary.findings:
        assert finding.oracle == "invariant"
        assert "work-conservation" in finding.detail
        assert finding.shrunk_requests <= 3
        assert finding.shrunk_components <= 1
        saved = ReproCase.load(tmp_path / finding.filename)
        assert saved.expect_violation
        # with the bug gone the reproducer no longer fires
        assert saved.replay() is None


def test_saved_reproducer_fires_while_bug_present(monkeypatch, tmp_path):
    with monkeypatch.context() as m:
        _undercharge(m)
        summary = run_campaign(budget=1, seed=0, out_dir=tmp_path,
                               case_seconds=None)
        saved = ReproCase.load(tmp_path / summary.findings[0].filename)
        violation = saved.replay()
        assert violation is not None
        ok, message = saved.replays_as_expected()
        assert ok, message


# ----------------------------------------------------------------------
# 4a. shrinker
# ----------------------------------------------------------------------
def _case_with(requests, **cfg):
    defaults = dict(scheduler="cfs", engine="fluid",
                    machine=MachineParams(n_cores=2), notify_latency=0)
    defaults.update(cfg)
    return FuzzCase(campaign_seed=-1, index=-1,
                    workload=Workload(list(requests)),
                    config=RunConfig(**defaults))


def _cpu_request(req_id, arrival=0, cpu=10_000):
    return RequestSpec(req_id=req_id, arrival=arrival,
                       bursts=(Burst(BurstKind.CPU, cpu),))


def test_shrinker_minimises_to_the_culprit_request():
    case = _case_with(
        [_cpu_request(i, arrival=i * 100) for i in range(12)],
        faults=FaultPlan(seed=1, crash_prob=0.2, stragglers=((0, 0.5),)),
    )
    oracle = Oracle(
        name="synthetic",
        applies=lambda c: True,
        check=lambda c: Violation("synthetic", "req 7 present")
        if any(r.req_id == 7 for r in c.workload) else None,
    )
    shrunk = shrink_case(case, oracle)
    # exactly the culprit survives, with its original req_id
    assert [r.req_id for r in shrunk.workload] == [7]
    # everything irrelevant was folded away
    assert shrunk.config.faults is None
    assert shrunk.workload.requests[0].arrival == 0
    assert shrunk.workload.requests[0].cpu_demand == 1
    assert shrunk.config.machine.n_cores == 1


def test_shrinker_returns_input_when_not_reproducible():
    case = _case_with([_cpu_request(0)])
    oracle = Oracle("never", lambda c: True, lambda c: None)
    assert shrink_case(case, oracle) == case


# ----------------------------------------------------------------------
# 4b. ReproCase JSON
# ----------------------------------------------------------------------
def test_repro_case_roundtrips(tmp_path):
    case = make_case(0, 10)  # faulted sfs/discrete case
    repro = ReproCase.from_fuzz_case(case, oracle="invariant",
                                     expect_violation=False, note="n")
    path = tmp_path / "case.json"
    repro.save(path)
    loaded = ReproCase.load(path)
    assert loaded.to_json() == repro.to_json()
    assert loaded.workload.requests == case.workload.requests
    assert loaded.config == case.config
    assert loaded.campaign_seed == 0 and loaded.index == 10


def test_repro_case_rejects_unknown_fields(tmp_path):
    case = ReproCase.from_fuzz_case(make_case(0, 3), oracle="invariant")
    doc = case.to_json()
    doc["surprise"] = 1
    with pytest.raises(ValueError, match="unknown ReproCase fields"):
        ReproCase.from_json(doc)
    doc = case.to_json()
    doc["schema"] = "repro.fuzz/999"
    with pytest.raises(ValueError, match="unsupported schema"):
        ReproCase.from_json(doc)
    doc = case.to_json()
    doc["oracle"] = "no-such-oracle"
    with pytest.raises(ValueError, match="unknown oracle"):
        ReproCase.from_json(doc)
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        ReproCase.load(path)


# ----------------------------------------------------------------------
# 4c. campaign plumbing
# ----------------------------------------------------------------------
def test_campaign_counts_into_metrics_registry():
    registry = MetricsRegistry()
    run_campaign(budget=8, seed=2, metrics=registry, case_seconds=None)
    by_name = {i.name: i for i in registry}
    assert by_name["repro_fuzz_cases_total"].value == 8
    assert by_name["repro_fuzz_violations_total"].value == 0
    assert by_name["repro_fuzz_oracle_runs_total"].value >= 8


def test_campaign_validates_budget():
    with pytest.raises(ValueError, match="budget must be positive"):
        run_campaign(budget=0, seed=0)


def test_run_config_validates_max_events():
    with pytest.raises(ValueError, match="max_events must be positive"):
        RunConfig(max_events=0)


def test_max_events_error_names_run_and_recent_events():
    wl = Workload([_cpu_request(i, arrival=0, cpu=50_000) for i in range(6)])
    cfg = RunConfig(scheduler="cfs", engine="discrete",
                    machine=MachineParams(n_cores=1), max_events=4)
    with pytest.raises(SimulationError) as exc_info:
        run_workload(wl, cfg)
    message = str(exc_info.value)
    assert "event budget exhausted" in message
    assert "scheduler=cfs engine=discrete" in message
    assert "last events:" in message
    assert "t=" in message  # the virtual-clock tail is present


# ----------------------------------------------------------------------
# 5. CLI exit codes
# ----------------------------------------------------------------------
def test_cli_fuzz_clean_exits_zero(capsys):
    assert cli.main(["fuzz", "--budget", "5", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "fuzz campaign: seed=0 budget=5" in out
    assert "findings: 0" in out


def test_cli_fuzz_finding_exits_one(monkeypatch, tmp_path, capsys):
    with monkeypatch.context() as m:
        _undercharge(m)
        rc = cli.main(["fuzz", "--budget", "2", "--seed", "0",
                       "--out", str(tmp_path)])
    assert rc == 1
    assert sorted(p.name for p in tmp_path.glob("*.json")) == [
        "repro-0-0.json", "repro-0-1.json",
    ]
    assert "invariant" in capsys.readouterr().out


def test_cli_fuzz_crashing_case_exits_one(monkeypatch, capsys):
    # a simulator bug that no oracle catches (an IndexError, say) is
    # quarantined: the campaign must still fail
    import repro.fuzz.campaign as campaign

    def crash(seed, index):
        raise IndexError(f"simulated bug in case {index}")

    monkeypatch.setattr(campaign, "make_case", crash)
    rc = cli.main(["fuzz", "--budget", "2", "--seed", "0",
                   "--workers", "0"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "quarantined case indices: [0, 1]" in captured.out
    assert "IndexError: simulated bug in case 0" in captured.err


def test_cli_fuzz_replay_green_corpus_exits_zero(capsys):
    paths = [str(p) for p in sorted(CORPUS_DIR.glob("*.json"))]
    assert cli.main(["fuzz", "replay"] + paths) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_fuzz_replay_reproducing_exits_one(monkeypatch, tmp_path, capsys):
    with monkeypatch.context() as m:
        _undercharge(m)
        run_campaign(budget=1, seed=0, out_dir=tmp_path, case_seconds=None)
        rc = cli.main(["fuzz", "replay", str(tmp_path / "repro-0-0.json")])
    assert rc == 1
    assert "work-conservation" in capsys.readouterr().out


def test_cli_fuzz_replay_bad_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "repro.fuzz/1"}))
    assert cli.main(["fuzz", "replay", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_check_pins_exit_codes(monkeypatch, capsys):
    """0 = every comparison agrees; 1 = a divergence, naming the req."""
    from repro.invariants import diff as diff_mod

    clean = diff_mod.DiffReport(name="engines:cfs", n_requests=3)
    monkeypatch.setattr(cli, "run_check", lambda quick, seed: [clean])
    assert cli.main(["check", "--quick"]) == 0
    assert "1/1 comparisons clean" in capsys.readouterr().out

    bad = diff_mod.DiffReport(
        name="engines:cfs", n_requests=3,
        divergences=["req 7: outcome fluid=ok/1 discrete=failed/2"],
        first_divergence=7,
    )
    monkeypatch.setattr(cli, "run_check", lambda quick, seed: [clean, bad])
    assert cli.main(["check", "--quick"]) == 1
    out = capsys.readouterr().out
    assert "req 7" in out
    assert "1/2 comparisons clean" in out
