"""Declarative, seeded fault plans.

A :class:`FaultPlan` is the *complete* description of what goes wrong
in a run: which hosts straggle or fail outright, and with what
probability sandboxes crash mid-execution or container provisioning
fails.  Like a :class:`~repro.workload.spec.Workload`, the plan is
frozen data — every stochastic decision is a pure function of
``(plan.seed, req_id, attempt)`` via a hashed per-decision generator,
**not** a shared sequential stream.  That discipline is what makes
fault injection composable with the paired-comparison methodology: the
same plan crashes the same requests at the same points under CFS and
under SFS, regardless of how event interleavings differ between the
two runs.

Plans round-trip through JSON (``save`` / ``load``) so an experiment's
failure scenario travels with its manifest.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

# per-decision hash salts: each (req_id, attempt) gets independent
# streams for independent fault classes
_SALT_CRASH = 0xC1
_SALT_COLDSTART = 0xC2
# seeded fail/recover window schedules (flaky_host_windows)
_SALT_FLAP = 0xD0


@dataclass(frozen=True)
class FaultPlan:
    """What goes wrong, when, deterministically.

    ``stragglers`` maps host indices to a relative speed in ``(0, 1)``
    (see :class:`repro.machine.base.MachineParams.speed`).
    ``host_failures`` are ``(host, down_at, up_at)`` windows in absolute
    virtual microseconds; in-flight work on the host is killed at
    ``down_at`` and the host rejoins placement at ``up_at``.

    ``fault_domains`` groups host indices into racks/zones (each host
    belongs to at most one domain); ``domain_failures`` are
    ``(domain_index, down_at, up_at)`` windows that take the whole
    domain down at once — the correlated-failure mode a per-host window
    cannot express.  :meth:`expanded_host_failures` flattens both forms
    into one per-host window list for the cluster runtime.
    """

    seed: int = 0
    #: per-attempt probability a sandbox crashes partway through
    crash_prob: float = 0.0
    #: per-attempt probability container provisioning fails (cold path)
    coldstart_fail_prob: float = 0.0
    #: ((host_index, speed), ...) — degraded hosts
    stragglers: Tuple[Tuple[int, float], ...] = ()
    #: ((host_index, down_at_us, up_at_us), ...) — fail/recover windows
    host_failures: Tuple[Tuple[int, int, int], ...] = ()
    #: ((host_index, ...), ...) — rack/zone groupings for correlated
    #: failures; a host may appear in at most one domain
    fault_domains: Tuple[Tuple[int, ...], ...] = ()
    #: ((domain_index, down_at_us, up_at_us), ...) — whole-domain outages
    domain_failures: Tuple[Tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        for name in ("crash_prob", "coldstart_fail_prob"):
            p = getattr(self, name)
            if isinstance(p, bool) or not isinstance(p, numbers.Real):
                raise ValueError(f"{name} must be a number in [0, 1], got {p!r}")
            # NaN fails both comparisons, so this also rejects NaN
            if not (0.0 <= float(p) <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {p!r}")
        # normalise nested JSON lists into hashable tuples
        try:
            object.__setattr__(
                self, "stragglers",
                tuple((int(h), float(s)) for h, s in self.stragglers),
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"stragglers must be (host_index, speed) pairs, got "
                f"{self.stragglers!r}: {exc}"
            ) from None
        try:
            object.__setattr__(
                self, "host_failures",
                tuple((int(h), int(d), int(u)) for h, d, u in self.host_failures),
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"host_failures must be (host_index, down_at_us, up_at_us) "
                f"triples, got {self.host_failures!r}: {exc}"
            ) from None
        straggling = set()
        for host, speed in self.stragglers:
            if host < 0:
                raise ValueError("straggler host index must be >= 0")
            # the explicit != ordering also rejects NaN speeds
            if not (0.0 < speed <= 1.0) or speed != speed:
                raise ValueError(f"straggler speed {speed} not in (0, 1]")
            if host in straggling:
                raise ValueError(
                    f"host {host} appears twice in stragglers; one entry "
                    f"per host (straggler_speed would silently use the first)"
                )
            straggling.add(host)
        try:
            object.__setattr__(
                self, "fault_domains",
                tuple(tuple(int(h) for h in dom) for dom in self.fault_domains),
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"fault_domains must be tuples of host indices, got "
                f"{self.fault_domains!r}: {exc}"
            ) from None
        try:
            object.__setattr__(
                self, "domain_failures",
                tuple((int(d), int(a), int(b)) for d, a, b in self.domain_failures),
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"domain_failures must be (domain_index, down_at_us, "
                f"up_at_us) triples, got {self.domain_failures!r}: {exc}"
            ) from None
        grouped = set()
        for di, dom in enumerate(self.fault_domains):
            if not dom:
                raise ValueError(f"fault domain {di} is empty")
            for host in dom:
                if host < 0:
                    raise ValueError("domain host index must be >= 0")
                if host in grouped:
                    raise ValueError(
                        f"host {host} appears in more than one fault "
                        f"domain; a host belongs to at most one rack/zone"
                    )
                grouped.add(host)
        for domain, down_at, up_at in self.domain_failures:
            if not (0 <= domain < len(self.fault_domains)):
                raise ValueError(
                    f"domain failure targets domain {domain} but the plan "
                    f"declares {len(self.fault_domains)} fault domains"
                )
            if not (0 <= down_at < up_at):
                raise ValueError("domain failure needs 0 <= down_at < up_at")
        # validate the *expanded* per-host windows so a direct window and
        # a domain outage cannot overlap on the same host either
        windows: dict = {}
        for host, down_at, up_at in self.expanded_host_failures():
            if host < 0:
                raise ValueError("failed host index must be >= 0")
            if not (0 <= down_at < up_at):
                raise ValueError("host failure needs 0 <= down_at < up_at")
            for other_down, other_up in windows.get(host, ()):
                if down_at < other_up and other_down < up_at:
                    raise ValueError(
                        f"host {host} has overlapping failure windows "
                        f"[{other_down}, {other_up}) and [{down_at}, "
                        f"{up_at}); a host cannot fail while already down"
                    )
            windows.setdefault(host, []).append((down_at, up_at))
        contradicted = straggling & set(windows)
        if contradicted:
            raise ValueError(
                f"host(s) {sorted(contradicted)} appear in both stragglers "
                f"and host_failures; a degraded-but-alive host and a dead "
                f"host are contradictory fault models — pick one per host"
            )

    # ------------------------------------------------------------------
    # stochastic decisions (hashed, interleaving-independent)
    # ------------------------------------------------------------------
    @property
    def is_null(self) -> bool:
        """True when the plan injects nothing at all."""
        return (
            self.crash_prob == 0.0
            and self.coldstart_fail_prob == 0.0
            and not self.stragglers
            and not self.host_failures
            and not self.domain_failures
        )

    def expanded_host_failures(self) -> Tuple[Tuple[int, int, int], ...]:
        """Every per-host fail/recover window, with domain outages
        flattened to one window per member host.  Order is
        deterministic: direct windows first, then domain windows in
        (failure, member) declaration order."""
        out = list(self.host_failures)
        for domain, down_at, up_at in self.domain_failures:
            for host in self.fault_domains[domain]:
                out.append((host, down_at, up_at))
        return tuple(out)

    def crashes(self, req_id: int, attempt: int) -> Optional[float]:
        """Crash point for this attempt as a fraction of its ideal
        duration in ``(0, 1)``, or None if the attempt survives.

        Pure function of ``(seed, req_id, attempt)``: no generator is
        shared across calls, so the decision is identical no matter how
        the surrounding simulation interleaves.
        """
        if self.crash_prob == 0.0:
            return None
        rng = np.random.default_rng((self.seed, req_id, attempt, _SALT_CRASH))
        if rng.random() >= self.crash_prob:
            return None
        # strictly interior crash point: the sandbox did some work
        return 0.05 + 0.9 * rng.random()

    def coldstart_fails(self, req_id: int, attempt: int) -> bool:
        """Does container provisioning fail for this attempt?"""
        if self.coldstart_fail_prob == 0.0:
            return False
        rng = np.random.default_rng((self.seed, req_id, attempt, _SALT_COLDSTART))
        return bool(rng.random() < self.coldstart_fail_prob)

    def straggler_speed(self, host: int) -> float:
        """Relative speed of ``host`` (1.0 when not a straggler)."""
        for idx, speed in self.stragglers:
            if idx == host:
                return speed
        return 1.0

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ValueError(
                f"FaultPlan JSON must be an object, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown FaultPlan fields: {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        return cls(**data)

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        return cls.from_json(json.loads(Path(path).read_text()))


#: the do-nothing plan (shared, immutable)
NULL_PLAN = FaultPlan()


def flaky_host_windows(
    seed: int,
    host: int,
    horizon_us: int,
    n_windows: int = 3,
    down_us: int = 500_000,
) -> Tuple[Tuple[int, int, int], ...]:
    """Seeded deterministic fail/recover schedule for one flapping host.

    Partitions ``[0, horizon_us)`` into ``n_windows`` equal slots and
    places one ``down_us``-long outage at a hashed offset inside each,
    so the windows are non-overlapping by construction and the schedule
    is a pure function of ``(seed, host)`` — the same host flaps at the
    same instants under CFS and under SFS.
    """
    if horizon_us <= 0 or n_windows <= 0:
        raise ValueError("flaky_host_windows needs a positive horizon "
                         "and window count")
    slot = horizon_us // n_windows
    down = max(1, min(down_us, slot - 1)) if slot > 1 else 1
    rng = np.random.default_rng((seed, host, _SALT_FLAP))
    out = []
    for i in range(n_windows):
        start = i * slot + int(rng.integers(0, max(1, slot - down)))
        out.append((host, start, start + down))
    return tuple(out)
