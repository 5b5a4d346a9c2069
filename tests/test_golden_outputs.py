"""Golden outputs: every observability artifact pinned by sha256.

The run-to-run determinism tests elsewhere only prove that two runs of
the *same* code agree.  This module pins the bytes across code
versions: each corpus case (plus a few coverage runs that reach the
decision sites the corpus misses — slice/quantum/throttle preemption,
FILTER slice demotion, overload bypass, shedding, cold starts) is
replayed with every sink installed, and the sha256 of each artifact is
compared with the table below:

* ``trace``  — the trace JSONL (events only; the manifest carries
  wall-clock fields);
* ``metrics`` — the metrics JSONL with gauge series;
* ``audit``  — the scheduler-decision records;
* ``why``    — the ``repro.why/1`` JSON with every request embedded;
* ``bundle`` — ``RunBundle.to_json()`` (wall-clock fields stripped).

:data:`RENDERS` also pins the scaled seed-0 text of the experiments
whose machines and schedulers a scheduler refactor touches (``fig2``
runs every kernel class plus the srtf/ideal oracles, ``ext-predictive``
the PredictiveSFS layer, ``ext-eevdf`` the discrete engine's EEVDF fair
class).

Driver runs that take no audit log (cluster, OpenLambda) pin no
``audit`` digest.  Invariant checking is forced off so the bytes do not
depend on ``REPRO_INVARIANTS``, and every run starts the process-wide
task-id counter at 0 so they do not depend on which tests ran first.

A refactor of the instrumentation must leave every digest unchanged.
To print the digests of the current tree, run
``PYTHONPATH=src python tests/test_golden_outputs.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Optional

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from conftest import small_workload  # noqa: E402
from repro.experiments.registry import REGISTRY  # noqa: E402
from repro.experiments.runner import RunConfig, run_workload  # noqa: E402
from repro.explore import RunBundle  # noqa: E402
from repro.faas.cluster import ClusterConfig, run_cluster  # noqa: E402
from repro.faas.coldstart import ColdStartConfig  # noqa: E402
from repro.faas.openlambda import OpenLambdaConfig, run_openlambda  # noqa: E402
from repro.faas.resilience import (  # noqa: E402
    HedgePolicy,
    ResilienceConfig,
    RetryBudget,
)
from repro.faults.plan import FaultPlan  # noqa: E402
from repro.faults.policy import AdmissionControl, RetryPolicy  # noqa: E402
from repro.fuzz import ReproCase  # noqa: E402
from repro.machine.base import MachineParams  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.obs.export import to_jsonl  # noqa: E402
from repro.sim import task as task_mod  # noqa: E402
from repro.sim.units import MS, SEC  # noqa: E402
from repro.trace import TraceRecorder  # noqa: E402
from repro.trace.export import to_jsonl_lines  # noqa: E402
from repro.why import AuditLog, build_timelines, build_why_doc, why_json  # noqa: E402

CORPUS_DIR = Path(__file__).parent / "corpus"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(result, trace, metrics, audit=None) -> Dict[str, str]:
    out = {
        "trace": _sha("\n".join(to_jsonl_lines(trace))),
        "metrics": _sha(to_jsonl(metrics, include_series=True)),
        "why": _sha(why_json(build_why_doc(
            build_timelines(result.records, trace, audit=audit),
            top_blamed=0))),
        "bundle": _sha(RunBundle.capture(result, trace, metrics=metrics,
                                         audit=audit).to_json()),
    }
    if audit is not None:
        out["audit"] = _sha(repr(audit.records))
    return out


def _single(workload, cfg: RunConfig) -> Dict[str, str]:
    trace, metrics, audit = TraceRecorder(), MetricsRegistry(), AuditLog()
    res = run_workload(workload, replace(cfg, invariants=False),
                       trace=trace, metrics=metrics, audit=audit)
    return _digests(res, trace, metrics, audit)


def _corpus(name: str, engine: str = "") -> Callable[[], Dict[str, str]]:
    def run() -> Dict[str, str]:
        case = ReproCase.load(CORPUS_DIR / f"{name}.json")
        cfg = replace(case.config, engine=engine) if engine else case.config
        if case.cluster is None:
            return _single(case.workload, cfg)
        # the cluster driver, shaped as the cluster-exactly-once oracle
        # shapes it (repro.fuzz.oracles.run_cluster_case)
        cl = case.cluster
        host = OpenLambdaConfig(
            machine=cfg.machine, scheduler=cl.scheduler, engine=cfg.engine,
            faults=cfg.faults, retry=cfg.retry, admission=cfg.admission,
            timeout=cfg.timeout,
        )
        resilience = ResilienceConfig(
            hedge=HedgePolicy(delay=20_000) if cl.hedge else None)
        trace, metrics = TraceRecorder(), MetricsRegistry()
        res = run_cluster(
            case.workload,
            ClusterConfig(n_hosts=cl.n_hosts, host=host,
                          placement="least_loaded", resilience=resilience),
            trace=trace, metrics=metrics, invariants=False,
        )
        return _digests(res, trace, metrics)
    return run


def _coverage(scheduler: str, engine: str, seed: int, n_requests: int = 80,
              load: float = 1.3, workload: Dict[str, object] = {},
              **kw) -> Callable[[], Dict[str, str]]:
    machine = kw.pop("machine", MachineParams(n_cores=2))

    def run() -> Dict[str, str]:
        wl = small_workload(n_requests=n_requests, n_cores=2, load=load,
                            seed=seed, **workload)
        return _single(wl, RunConfig(scheduler=scheduler, engine=engine,
                                     machine=machine, **kw))
    return run


def _cluster(resilience: ResilienceConfig, plan: FaultPlan,
             retry: Optional[RetryPolicy], engine: str,
             ) -> Callable[[], Dict[str, str]]:
    def run() -> Dict[str, str]:
        wl = small_workload(n_requests=300, n_cores=6, load=1.0, seed=11)
        host = OpenLambdaConfig(
            machine=MachineParams(n_cores=2), scheduler="sfs", engine=engine,
            faults=plan, retry=retry,
        )
        trace, metrics = TraceRecorder(), MetricsRegistry()
        res = run_cluster(
            wl,
            ClusterConfig(n_hosts=3, host=host, placement="least_loaded",
                          resilience=resilience),
            trace=trace, metrics=metrics, invariants=False,
        )
        return _digests(res, trace, metrics)
    return run


def _openlambda() -> Dict[str, str]:
    wl = small_workload(n_requests=120, n_cores=2, load=1.1, seed=4)
    cfg = OpenLambdaConfig(
        machine=MachineParams(n_cores=2), scheduler="sfs", engine="discrete",
        coldstart=ColdStartConfig(keep_alive=1 * SEC), faults=FaultPlan(seed=3, crash_prob=0.1),
        retry=RetryPolicy(max_attempts=3),
        admission=AdmissionControl(max_outstanding=12),
    )
    trace, metrics = TraceRecorder(), MetricsRegistry()
    res = run_openlambda(wl, cfg, trace=trace, metrics=metrics)
    return _digests(res, trace, metrics)


_FAULTED = dict(
    faults=FaultPlan(seed=5, crash_prob=0.2, coldstart_fail_prob=0.15),
    retry=RetryPolicy(max_attempts=3),
    admission=AdmissionControl(max_outstanding=20),
    timeout=1_500_000,
)

RUNS: Dict[str, Callable[[], Dict[str, str]]] = {
    "cluster-exactly-once-outage-hedge":
        _corpus("cluster-exactly-once-outage-hedge"),
    "diff-engines-sfs-faulted": _corpus("diff-engines-sfs-faulted"),
    "diff-ideal-cfs": _corpus("diff-ideal-cfs"),
    "invariant-sfs-eevdf-faulted": _corpus("invariant-sfs-eevdf-faulted"),
    "invariant-sfs-eevdf-faulted@fluid":
        _corpus("invariant-sfs-eevdf-faulted", engine="fluid"),
    "meta-drop-fault-fifo": _corpus("meta-drop-fault-fifo"),
    "meta-idle-hosts-cfs": _corpus("meta-idle-hosts-cfs"),
    "meta-permute-cfs": _corpus("meta-permute-cfs"),
    "meta-scaling-cfs": _corpus("meta-scaling-cfs"),
    "coverage-cfs-discrete": _coverage("cfs", "discrete", seed=7),
    "coverage-cfs-discrete-io": _coverage(
        "cfs", "discrete", seed=7, workload=dict(io_fraction=0.5)),
    "coverage-sfs-discrete-bursty": _coverage(
        "sfs", "discrete", seed=3, n_requests=150, load=1.0,
        workload=dict(iat_kind="bursty")),
    "coverage-sfs-fluid-bursty": _coverage(
        "sfs", "fluid", seed=3, n_requests=300, load=1.0,
        workload=dict(iat_kind="bursty")),
    "coverage-rr-discrete": _coverage("rr", "discrete", seed=7),
    "coverage-fifo-throttled": _coverage(
        "fifo", "discrete", seed=7, machine=MachineParams(
            n_cores=2, rt_bandwidth=(30 * MS, 50 * MS))),
    "coverage-sfs-discrete-faulted": _coverage(
        "sfs", "discrete", seed=6, n_requests=150, load=1.4, **_FAULTED),
    "coverage-sfs-fluid-faulted": _coverage(
        "sfs", "fluid", seed=6, n_requests=150, load=1.4, **_FAULTED),
    "coverage-openlambda-sfs": _openlambda,
    "coverage-cluster-host-lost": _cluster(
        ResilienceConfig(failover=False),
        FaultPlan(seed=2, host_failures=((1, 200_000, 2_000_000),)),
        None, "fluid"),
    "coverage-cluster-retry-budget": _cluster(
        ResilienceConfig(retry_budget=RetryBudget(rate_per_sec=1.0, burst=1),
                         hedge=HedgePolicy(delay=5_000)),
        FaultPlan(seed=2, crash_prob=0.4), RetryPolicy(max_attempts=4),
        "discrete"),
}

GOLDEN: Dict[str, Dict[str, str]] = {
    'cluster-exactly-once-outage-hedge': {
        'bundle':
            '85b4a99d204b58b6430d3f45fd402d7e4eb8448493c033e51380c39e6df825c9',
        'metrics':
            '705d3c18224e6f88247e2569f1c9e4f7273805b31b3e615273621e0c9d1d7acc',
        'trace':
            '59d8b3731a396615afa9e3831e1e71987e06363b3bee8930438a002c6e919794',
        'why':
            '667c5744f41fff98dac39dc5e61e39d97a3fdf4efd8e304732dade3c5a485510',
    },
    'coverage-cfs-discrete': {
        'audit':
            '2c56349efe0552487412d2b01b973fd1dee546441732f3f192e5d9ac858a38a4',
        'bundle':
            '23d983cc6422743cddf8b47f790de2af4aaab48a2bfd1290c61fadd63b0612fa',
        'metrics':
            '032956dfec5acd7b4458122e7180209d89acbccc01593004a2f79b0fb278173f',
        'trace':
            '18ffad12fed1f60bdfa67e97481bab363ff35da3618e32cfbaba6affcc9e057b',
        'why':
            '46ea20c342ed2428e2c536801d1891af56f1613ebfff92263d0ee0fdb884db33',
    },
    'coverage-cfs-discrete-io': {
        'audit':
            '123a55e33427110ebe5ef1c7a78119ef05d9d0cb7f36748bc4bb0216fde6d0a7',
        'bundle':
            '249d4c1c503b747130744bfff06940f3da52130c3b039801e8c89b9098c26687',
        'metrics':
            '3989989eb4645e70da06ad28831954efea5e1531ee3f7932e2a95ee0c5270e94',
        'trace':
            '605730b8f31f58207dca09b54bcceddadc99cf7783d7a174966f50e66538958d',
        'why':
            '5e6e763d5e2f976291bb363f9e2d185eb5f1b999877a0564a77c6b7928a7d402',
    },
    'coverage-cluster-host-lost': {
        'bundle':
            '1c21f953eaded68edf5463617719b8faab61556a2337f71d5f03a9164d85110a',
        'metrics':
            '4231f5d929f5a87b436758a0db61c25652f83db84cd361787d9e187c193657d9',
        'trace':
            'a0656e96feb13369b34faa0cfc2358b3aa3283281ad40aadd2dcd45586bb1668',
        'why':
            '7ce1fbae3259297449adf0dbdac3090f89f90dd153c92faa78393f8b970a1aa6',
    },
    'coverage-cluster-retry-budget': {
        'bundle':
            '675761fb62bada44e617d94e1f0fd26a4d1e93f4e08fe3fbbcc0182e60fd7c02',
        'metrics':
            'c9fadc1d83957ad8b3ed8b9af6736e556b21bfdf06712e089d6da825efb523f4',
        'trace':
            '1e3b552e84abf812000982b1ebe4c6ab2c296230cee1acfa3643e04cd22e6a10',
        'why':
            '745668fb9dca5ba5378b68a3990fb1bf7a5878a36e7a779635f23cb2c8f92661',
    },
    'coverage-fifo-throttled': {
        'audit':
            '6eec5a122d282455535f0875cd847e9d486c22ed7d4d582bf6da6e652aff3869',
        'bundle':
            '9ee93390c4e763404700f06c89522055d20b3fc992da86c15680f61aa861372c',
        'metrics':
            '53606899a4269c9e0907cef64429bad27558727eb01566c28cf093c14b14d3bf',
        'trace':
            '9c6c53a6e4b3880a0dd38c3dc2f0926556ce6828fc2baa752acb81449811552b',
        'why':
            '54ff66de0ce6d3fb0dfa22e169b9346be7cc90baf69c1204a777287587cd48b6',
    },
    'coverage-openlambda-sfs': {
        'bundle':
            '08dfa16c38bb56e7dde7df83fd29eb7b36ac89c26d78d0be528cc0004084fced',
        'metrics':
            '533000d0739151791ae3ea45ff4f53c81c476d7ba032d98cb2753d1acf82d9d2',
        'trace':
            'fa7e9007078ed31f8e0712e5ffa10c97026001d04a6898ef22c941f1bfc64fb0',
        'why':
            'd9fb44c1db289ccd9ca93f1628e549405d2aac54991e125c3c47e7f91f26e4d8',
    },
    'coverage-rr-discrete': {
        'audit':
            '1bd90eda8f2068d1b2c59b11970fdc3aa03854bfc7a5086d3b120e7c82ac4c0d',
        'bundle':
            '4b411e1135065c0424242aa8dd86a009ecdd7ae7c9ef16711be202ece413615d',
        'metrics':
            'bb975dd79f7601055f3abc66b5993be48e205c6b98eac4205df1d701de321865',
        'trace':
            '84bfa9644e284991a987a468c0f2d9a9824b4108a628bc238568cdb831c87e67',
        'why':
            '6b7897613f1afb6026af683dc670c95ee17890e630ab76175ab190a5e463b3e6',
    },
    'coverage-sfs-discrete-bursty': {
        'audit':
            'bcbdcda51cf857a07803b1f589978f7443103bbfae4e966d8690e36c31e3da5c',
        'bundle':
            'bc8e1a83f1f7d36a21e977758aac606eb4343a4399618033c725fe2063b1641a',
        'metrics':
            '819d5e68c1a80587ff133206ccb8f7ca78bc26218cb295d21805129bd10c183f',
        'trace':
            '3b8230bf966e6718ed9df9a4a0106acad76fa5b1ae14d7513c090e6a458bbfa4',
        'why':
            'f81ed40cb21143d2f3de4399f0608b1a3c85f2c600cb770a0f45b5c381df098a',
    },
    'coverage-sfs-discrete-faulted': {
        'audit':
            '7d7a763b8d477b37da83882bb92455775c981ce03b14a38c683aac34e9c63a5d',
        'bundle':
            'eaa2e76f45896be79788ecd896e0da27a17ffaab0d51f38d4b47e26fc987a22f',
        'metrics':
            '10dc2a0fc8a6e67819997edd7ad0b5aa42704b9a2e29291d4e8f2de521cde666',
        'trace':
            '8d848b48618e550620b3036fb1df4b3aaeede13140c5cd5d394fde23eeec430a',
        'why':
            '2ce2693fad7e57f517346eda8143bcb6c41dc0964758e819cad1a9a95aefffc1',
    },
    'coverage-sfs-fluid-bursty': {
        'audit':
            '71d4f5c4acc66d1457857dd9b3cb724de9c864ae673cec26770f9ef2409048c8',
        'bundle':
            '37e3ab9fd5ce11ca2bfb3875d9abce2dd80391ec5d5c2a14d32921e4516febfa',
        'metrics':
            '111e1d8be66ea273a527e47414f2851a1adba19cbaa722df1f96673e2dd1c7ef',
        'trace':
            '9e78771ed4655ad3ef8c54702a3ca35022169f8884ef631b4a4bd6b2ab1b4e4b',
        'why':
            'a787c0eccaae6fdcc8e8bfa356dbb8bd5ee85dc7a131989e21dc7f4ddad6b611',
    },
    'coverage-sfs-fluid-faulted': {
        'audit':
            'a3c93be800cfb3f4c1bfaf3a0a6da2c82d192f2545ae1b62284e7dca7245c9e4',
        'bundle':
            '4f7217f702c7ea22d1c212dfd6be7775ddb534038f5b3cc7e4e5a695fd06730e',
        'metrics':
            'e7f72e6f6b0f7cec75e67a7defb3b44dacc6071d42749298615cb11b747c28ca',
        'trace':
            'a3dcf0f3640d6f2d30b30401c7388bea227101e3164a3a6e2d0c90988a25e803',
        'why':
            '4ec335affcc1b32f792c722c081ff56700a3f95a77fd05065af2150ea4cf2c23',
    },
    'diff-engines-sfs-faulted': {
        'audit':
            '903ae7137c02cb46687f9da99ebda7b97e2707ee816c1fd9a916085cbd1efcfe',
        'bundle':
            '8a572bbd81199c57303da7e0c6478bfdfa3e5e322199f0b3ed9acfbf81811c61',
        'metrics':
            '3427d47c55178c0c7e57c4360c418c6e81618db73bc4f1949dcf74442389fedc',
        'trace':
            '0e1508b2e3db5381bbc79f615e66775b8a0d51dba67c74e45048242db0331d91',
        'why':
            '560d4edcbb0ea2b7610ec9c572863481137c8082d24a79628cf955cb72dc6b18',
    },
    'diff-ideal-cfs': {
        'audit':
            'cbb27316ed7d1530640a485d0a5b8d06cbf815485b8f0f0533dfc6cef3fcd11f',
        'bundle':
            '98d3e34cdc064283a08a93bc5b3c6f7d4e81586a09772580504b23993efe792f',
        'metrics':
            '55506304aff6b5335f7fa66720f5bd1727f0d37ef209223b13cd924d373bae3c',
        'trace':
            '3e67f9f1b2616d05bdf4148c89bcd0b49b550990eec598a570ffe5f0fbad1096',
        'why':
            'b66a9a8094a32167b18db49bfc46226b30efa558dc8d77b6440fe32a1da4f277',
    },
    'invariant-sfs-eevdf-faulted': {
        'audit':
            '9c551b7eeaee2aa4b0a8975c75f4b1bf64a873a96c08ac3f2707c23a06f4081f',
        'bundle':
            'dfc888fe911bbb52009d8eb8eae90e5223a28df802d9c0aa12f55c736c6ad35a',
        'metrics':
            'a9624d86d6951ef664f1e3c0fd51344e8199aa572c7fef3f8beb8d3ea8c8d7f4',
        'trace':
            'bd56798dc9f6b757d5cd5bf800672aa2dc830bbf230b44824d560955fa2f4e5b',
        'why':
            '781bcd3f3e12d16c5a796caeec7e5c874ab81305e0655d37d7ed942539000138',
    },
    'invariant-sfs-eevdf-faulted@fluid': {
        'audit':
            '82372d24e8a553b1bc0258dd1289590ebd1af6387c4418e57d0e42c5b8e3ba21',
        'bundle':
            'a45316bc5d9b37ff63ef8d57565d9108d213a8192cc09dd8df7262c929f9e23d',
        'metrics':
            '4e9b95aa34e2955eb7755e17aa1334bb67fc12a12705e48a39aeead2b544beee',
        'trace':
            '595c3cda2526d3d20f768932abd662f37a5d1b0aadd88879a7a2725913a13c59',
        'why':
            '1e31a1090c9a1413bef6339aafac8f088a3d99445c8055eefafd81b3e26d9d40',
    },
    'meta-drop-fault-fifo': {
        'audit':
            'ad9c45b1958b49fef1cc3fb9ef33f35b81ae36ff15345d6689231581fc905bc4',
        'bundle':
            '4aa88d7705c120d82b15bfe097fd3be1d11d0e768dd07084eebe07ab7b63d945',
        'metrics':
            '10796d26fc6ebb788a6422430c1d3a1b111eae5a080b373929a8762192e4c65e',
        'trace':
            '9a2e171e5e4389c79cb028b360534c1871a394cb41b82672e355ae89acbb99c6',
        'why':
            'a9c40c9dd66198a74a3caa4ae125b22a052d38878c012063cb03f3083fe11736',
    },
    'meta-idle-hosts-cfs': {
        'audit':
            '0563b1912038c63253b1d176a0d36892b8808a3ea15fc57b1b95a21b29302b8f',
        'bundle':
            '9252d20ff8c635d37e83baac2c1e144fd853b33d70bf73fe0c219250cae7a8bb',
        'metrics':
            'beecab55f1c3f09765ead5ad9942fbbe9bede0c850719d658956c7d1cf900654',
        'trace':
            'd71c145c18656ffe48f2d7277265a09c494d6a4411018f846c762c5bd9e7a55b',
        'why':
            '73340f0044ab33a726fbff26ecf2d7092e3bae9e66c896a3c5020a0862067721',
    },
    'meta-permute-cfs': {
        'audit':
            'cbb27316ed7d1530640a485d0a5b8d06cbf815485b8f0f0533dfc6cef3fcd11f',
        'bundle':
            '98d3e34cdc064283a08a93bc5b3c6f7d4e81586a09772580504b23993efe792f',
        'metrics':
            '55506304aff6b5335f7fa66720f5bd1727f0d37ef209223b13cd924d373bae3c',
        'trace':
            '3e67f9f1b2616d05bdf4148c89bcd0b49b550990eec598a570ffe5f0fbad1096',
        'why':
            'b66a9a8094a32167b18db49bfc46226b30efa558dc8d77b6440fe32a1da4f277',
    },
    'meta-scaling-cfs': {
        'audit':
            '0a2287641ae6eb768e15c3f3f3bad0c9d52c07615b1ecfee52bef5391fcb4508',
        'bundle':
            '5cfdfb2bdb404277c6e233fa8601773842d9eef5898467f4314c87828be85ca8',
        'metrics':
            'e3bde094905db60e9aec8e70602a575382d073868bbc03e154f26a25ad6bf375',
        'trace':
            '603d00d91f021e28da249b2e9f3d41c64c24523d4acddb82e4f4acb9b06c41a1',
        'why':
            '9a3b3fafcbd34f78087d2f809c48c4c727c3f21b806e23d1014fdc79ed8741eb',
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_outputs(name, monkeypatch):
    monkeypatch.setattr(task_mod, "_task_ids", itertools.count())
    assert RUNS[name]() == GOLDEN[name]


RENDERS: Dict[str, str] = {
    "ext-eevdf":
        "0c36f93a45dacf9e0b8a5b3a00b5e98044d891471e33eddf8e840dcc089b8fcc",
    "ext-predictive":
        "77fcb4a81f7e7d90d78be01a4eb424799b3ec484541d70bcfc00660b9da3ddb9",
    "fig2":
        "c31a84b8a6f8545c71e0ed62839ac1e6605febacdac4cc89edc56442e9000881",
}


def _render(exp_id: str) -> str:
    entry = REGISTRY[exp_id]
    return _sha(entry.render(entry.run_scaled(seed=0)))


@pytest.mark.parametrize("exp_id", sorted(RENDERS))
def test_golden_renders(exp_id, monkeypatch):
    monkeypatch.setattr(task_mod, "_task_ids", itertools.count())
    assert _render(exp_id) == RENDERS[exp_id]


if __name__ == "__main__":
    print("GOLDEN: Dict[str, Dict[str, str]] = {")
    for key in sorted(RUNS):
        print(f"    {key!r}: {{")
        task_mod._task_ids = itertools.count()
        for art, digest in sorted(RUNS[key]().items()):
            print(f"        {art!r}:\n            {digest!r},")
        print("    },")
    print("}")
    print("RENDERS: Dict[str, str] = {")
    for key in sorted(RENDERS):
        task_mod._task_ids = itertools.count()
        print(f"    {key!r}:\n        {_render(key)!r},")
    print("}")
