"""The campaign driver behind ``repro fuzz``.

One campaign is ``budget`` cases drawn from ``(seed, 0..budget-1)``:
generate, sweep the applicable oracles in registry order, shrink the
first finding, and (optionally) write the minimal reproducer as a
``ReproCase`` JSON under ``out_dir``.  Each case runs under the
portable thread-timer wall-clock bound
:func:`repro.experiments.artifacts.deadline`, so a case that is slow
*in wall time* (as opposed to livelocked in virtual time, which the
per-case ``max_events`` guard catches) is recorded as a timeout instead
of hanging the campaign.

The cases are :func:`repro.pool.run_pool` items at every ``workers``
count (0 runs them inline, in the calling process): each case digests
to canonical JSON, and the digests merge in case-index order.
Everything in the summary is derived from the seed and the runs — no
wall-clock timestamps, no paths outside ``out_dir``, no process-local
task ids — so two campaigns with the same ``(budget, seed)`` on the
same tree render **byte-identical** summaries at any worker count.
That property is itself under test: it is what makes a campaign
finding citable ("seed 7, index 23") rather than anecdotal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.experiments.artifacts import ExperimentTimeout, deadline
from repro.fuzz.corpus import ReproCase
from repro.fuzz.generators import make_case, plan_component_count
from repro.fuzz.oracles import ORACLES, applicable_oracles
from repro.fuzz.shrink import shrink_case
from repro.pool import PoolConfig, run_pool

#: per-case wall-clock bound (seconds) unless the caller overrides it
DEFAULT_CASE_SECONDS = 60.0


def _stable_detail(detail: str) -> str:
    """The replay-stable prefix of a violation detail.

    Task ids are a process-global counter, so ``tid=...`` (and anything
    after it) differs between the campaign process and a later
    ``repro fuzz replay`` process; everything before it — invariant
    name, charged/demanded amounts, virtual time — is case state."""
    return detail.split(" tid=")[0]


@dataclass(frozen=True)
class Finding:
    """One violating case, after shrinking."""

    index: int
    oracle: str
    detail: str
    #: size of the original and minimised workloads
    n_requests: int
    shrunk_requests: int
    shrunk_components: int
    #: reproducer filename (relative to out_dir), when one was written
    filename: str = ""


@dataclass
class CampaignSummary:
    """Deterministic digest of one campaign (see module docstring)."""

    seed: int
    budget: int
    n_clean: int = 0
    n_timeouts: int = 0
    #: oracle name -> cases whose gate accepted it
    applicable: Dict[str, int] = field(default_factory=dict)
    findings: List[Finding] = field(default_factory=list)
    timeouts: List[int] = field(default_factory=list)
    #: case indices the pool quarantined (raised, or kept crashing
    #: workers even after retries)
    quarantined: List[int] = field(default_factory=list)

    @property
    def n_findings(self) -> int:
        return len(self.findings)

    def render(self) -> str:
        lines = [
            f"fuzz campaign: seed={self.seed} budget={self.budget}",
            f"  clean: {self.n_clean}  findings: {self.n_findings}"
            f"  timeouts: {self.n_timeouts}",
            "  oracle applicability:",
        ]
        for oracle in ORACLES:  # registry order, not dict order
            n = self.applicable.get(oracle.name, 0)
            lines.append(f"    {oracle.name:<24} {n:>4}/{self.budget}")
        if self.timeouts:
            lines.append(f"  timed-out case indices: {self.timeouts}")
        if self.quarantined:
            lines.append(f"  quarantined case indices: {self.quarantined}")
        for f in self.findings:
            lines.append(
                f"  [{self.seed}:{f.index}] {f.oracle}: "
                f"{f.n_requests} -> {f.shrunk_requests} requests, "
                f"{f.shrunk_components} fault component(s)"
                + (f" -> {f.filename}" if f.filename else "")
            )
            lines.append(f"      {f.detail}")
        return "\n".join(lines)


def _case_digest(
    seed: int,
    index: int,
    budget: int,
    case_seconds: Optional[float],
    want_repro: bool,
) -> Dict[str, Any]:
    """Run one case and digest it to a JSON-safe dict.

    The digest is a pure function of ``(tree, seed, index, budget)`` —
    details are tid-stripped, the reproducer document is embedded
    rather than written — so a digest merges into the same summary
    bytes whichever process computed it.
    """
    case = make_case(seed, index)
    oracles = applicable_oracles(case)
    digest: Dict[str, Any] = {
        "index": index,
        "applicable": [o.name for o in oracles],
        "status": "clean",
    }
    violation = hit = shrunk = None
    try:
        with deadline(case_seconds):
            for oracle in oracles:
                violation = oracle.check(case)
                if violation is not None:
                    hit = oracle
                    break
            if violation is not None:
                shrunk = shrink_case(case, hit)
    except ExperimentTimeout:
        digest["status"] = "timeout"
        return digest
    if violation is None:
        return digest
    digest.update(
        status="finding",
        oracle=hit.name,
        detail=_stable_detail(violation.detail),
        n_requests=len(case.workload),
        shrunk_requests=len(shrunk.workload),
        shrunk_components=plan_component_count(shrunk.config.faults),
    )
    if want_repro:
        # pin what the *shrunk* case says, not the original: the
        # reproducer is the shrunk case, and its violation detail
        # (amounts, virtual times) differs from the full case's
        final = hit.check(shrunk) or violation
        digest["filename"] = f"repro-{seed}-{index}.json"
        digest["repro_doc"] = ReproCase.from_fuzz_case(
            shrunk, oracle=hit.name,
            expected=_stable_detail(final.detail),
            expect_violation=True,
            note=f"found by `repro fuzz --budget {budget} --seed {seed}`",
        ).to_json()
    return digest


def run_case_shard(payload: Dict[str, Any]) -> str:
    """Module-level pool task: one campaign case, canonical JSON out."""
    digest = _case_digest(
        payload["seed"],
        payload["index"],
        payload["budget"],
        payload.get("case_seconds"),
        payload.get("want_repro", False),
    )
    return json.dumps(digest, sort_keys=True, separators=(",", ":")) + "\n"


def case_items(
    budget: int,
    seed: int,
    case_seconds: Optional[float] = DEFAULT_CASE_SECONDS,
    want_repro: bool = False,
) -> List[Tuple[str, Dict[str, Any]]]:
    """``(item_id, payload)`` pool items for one campaign."""
    return [
        (f"case{index}",
         {"seed": seed, "index": index, "budget": budget,
          "case_seconds": case_seconds, "want_repro": want_repro})
        for index in range(budget)
    ]


def _merge_digest(
    summary: CampaignSummary,
    digest: Dict[str, Any],
    out: Optional[Path],
    counters: Dict[str, Any],
    progress: Optional[Callable[[str], None]],
    case_seconds: Optional[float],
) -> None:
    """Fold one case digest into the summary, in case-index order."""
    seed, index = summary.seed, digest["index"]
    for name in digest["applicable"]:
        summary.applicable[name] = summary.applicable.get(name, 0) + 1
    if counters:
        counters["cases"].inc()
        counters["oracle_runs"].inc(len(digest["applicable"]))
    if digest["status"] == "timeout":
        summary.n_timeouts += 1
        summary.timeouts.append(index)
        if counters:
            counters["timeouts"].inc()
        if progress is not None:
            progress(f"[{seed}:{index}] TIMEOUT after {case_seconds}s")
        return
    if digest["status"] == "clean":
        summary.n_clean += 1
        if progress is not None and (index + 1) % 10 == 0:
            progress(f"[{seed}:{index}] ... {index + 1}/{summary.budget} "
                     f"clean so far: {summary.n_clean}")
        return
    if counters:
        counters["violations"].inc()
    filename = ""
    if out is not None and "repro_doc" in digest:
        filename = digest["filename"]
        ReproCase.from_json(digest["repro_doc"]).save(out / filename)
    finding = Finding(
        index=index,
        oracle=digest["oracle"],
        detail=digest["detail"],
        n_requests=digest["n_requests"],
        shrunk_requests=digest["shrunk_requests"],
        shrunk_components=digest["shrunk_components"],
        filename=filename,
    )
    summary.findings.append(finding)
    if progress is not None:
        progress(f"[{seed}:{index}] {finding.oracle}: shrunk "
                 f"{finding.n_requests} -> {finding.shrunk_requests} "
                 f"requests")


def run_campaign(
    budget: int,
    seed: int,
    out_dir: Optional[Union[str, Path]] = None,
    metrics: Optional[object] = None,
    case_seconds: Optional[float] = DEFAULT_CASE_SECONDS,
    progress: Optional[Callable[[str], None]] = None,
    workers: int = 0,
) -> CampaignSummary:
    """Fuzz ``budget`` cases from ``seed``; shrink and save findings.

    ``metrics`` is an optional :class:`repro.obs.MetricsRegistry`;
    ``progress`` an optional line sink (the CLI passes stderr printing,
    keeping stdout reserved for the deterministic summary).

    The cases run through :func:`repro.pool.run_pool` with
    ``workers`` worker processes (0 = inline).  Case digests merge in
    index order, so the summary (and every reproducer file) is
    byte-identical at any worker count; a case that raises (or keeps
    crashing its worker through the retries) is quarantined (pool
    report under ``out_dir``) and listed in ``summary.quarantined``
    instead of aborting the campaign.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    summary = CampaignSummary(seed=seed, budget=budget)
    out: Optional[Path] = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)

    counters: Dict[str, Any] = {}
    if metrics is not None:
        counters = {
            "cases": metrics.counter(
                "repro_fuzz_cases_total", help="fuzz cases executed"),
            "violations": metrics.counter(
                "repro_fuzz_violations_total", help="oracle findings"),
            "timeouts": metrics.counter(
                "repro_fuzz_timeouts_total",
                help="cases killed by the watchdog"),
            "oracle_runs": metrics.counter(
                "repro_fuzz_oracle_runs_total", help="oracle invocations"),
        }

    report = run_pool(
        case_items(budget, seed, case_seconds=case_seconds,
                   want_repro=out is not None),
        run_case_shard,
        PoolConfig(workers=workers),
        quarantine_path=(str(out / "quarantine.json")
                         if out is not None else None),
        metrics=metrics,
        progress=progress,
    )
    for index, text in enumerate(report.results):
        if text is None:  # quarantined, not abandoned silently
            summary.quarantined.append(index)
            continue
        _merge_digest(summary, json.loads(text), out, counters,
                      progress, case_seconds)
    return summary
