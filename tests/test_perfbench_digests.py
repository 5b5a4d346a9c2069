"""Pins of the benchmark's simulated results, one reduced case each.

``perfbench/workloads.py`` runs each workload as a batch of cases and
digests each case's canonical results (``CaseOutput.digest``).  This
file runs case 0 of seed 0 of every workload at a reduced request
count and pins that digest, so a change that moves any simulated
result of the benchmark fails tier-1 before it reaches a benchmark
run.  To print the digests of the current tree, run
``PYTHONPATH=src python tests/test_perfbench_digests.py``.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
from pathlib import Path
from typing import Dict

import pytest

import repro.sim.task as task_mod

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads as bench  # noqa: E402

#: simulated requests per reduced case
REQUESTS = {"headline": 400, "replay_discrete_io": 300,
            "cluster_outage": 300, "traced_why": 300}


def case_digest(name: str) -> str:
    task_mod._task_ids = itertools.count()
    w = dataclasses.replace(bench.WORKLOADS[name], requests=REQUESTS[name])
    out = w.run_case(w, bench.case_seed(0, 0))
    assert out.violations == []
    return out.digest


DIGESTS: Dict[str, str] = {
    'cluster_outage':
        '4301ce44da2a26be90c0cd91f021a137d64d9fcde9259e189ca3a2c392655703',
    'headline':
        'b14b4196eb3218478d2786b623037e255f9a20e52f8b7c74991f4bc654703949',
    'replay_discrete_io':
        '74131440d7c16fd99efa6755aec37b2ec99aacb588b1842247d222b13de715fd',
    'traced_why':
        '0e8f457d44d1e445f643807ca87b5350f90581ca87b37389715beccf0c38e034',
}


@pytest.fixture(autouse=True)
def _fresh_task_ids(monkeypatch):
    monkeypatch.setattr(task_mod, "_task_ids", itertools.count())


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_case_digest(name):
    assert case_digest(name) == DIGESTS[name]


if __name__ == "__main__":  # pragma: no cover - prints the pin table
    print("DIGESTS = {")
    for name in sorted(REQUESTS):
        print(f"    {name!r}:\n        {case_digest(name)!r},")
    print("}")
