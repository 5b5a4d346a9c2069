"""Per-layer metrics of a traced run.

Self times come from the span profile; counts come from span counts or
from the counters the simulator's own objects keep (SFS and fault
statistics), captured as the traced run created them.  Every metric is
reported on every workload; a layer a workload never enters reads 0.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from tracer import ALL_LAYERS, Profile


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p50_ms(samples) -> float:
    samples = np.asarray(samples, dtype=float)
    return float(np.median(samples)) / 1000 if samples.size else 0.0


def layer_metrics(profile: Profile, instances: Dict[str, list], outputs,
                  untraced_s: float, traced_s: float, spans: int,
                  ) -> Dict[str, float]:
    sims = instances.get("Simulator", [])
    sfss = instances.get("SFS", [])
    governors = instances.get("FaultRuntime", [])
    caches = instances.get("KeepAliveCache", [])

    def sfs_stat(name: str) -> int:
        return sum(getattr(s.stats, name) for s in sfss)

    def fault_stat(name: str) -> int:
        return sum(getattr(g.stats, name) for g in governors)

    events = sum(s.events_executed for s in sims)
    scheduled = profile.count("sim", "Simulator.schedule_at")
    polls = profile.count("core", "SFS._on_worker_poll")
    waits = [o.extra["waits"] for o in outputs if "waits" in o.extra]
    delays = [d for s in sfss for _ts, d in s.delay_samples()]
    m = {
        "sim.events": events,
        "sim.events_per_s": events / untraced_s,
        "sim.scheduled": scheduled,
        "sim.cancelled": scheduled - events - sum(s.pending for s in sims),
        "sim.loop_self_s": profile.self_seconds("sim", "Simulator.run"),
        "sim.pending_work_calls": profile.count("sim",
                                                "Simulator.pending_work"),
        "sim.pending_work_s": profile.seconds("sim", "Simulator.pending_work"),
        "machine.spawn_calls": profile.count("machine", ".spawn"),
        "machine.set_policy_calls": profile.count("machine", ".set_policy"),
        "machine.poll_state_calls": profile.count("machine", ".poll_state"),
        "sched.enqueue_calls": profile.count("sched", ".enqueue"),
        "sched.pick_next_calls": profile.count("sched", ".pick_next",
                                               "RTRunqueue.pop"),
        "sched.rbtree_ops": profile.count("sched", "RBTree.insert",
                                          "RBTree.delete", "RBTree.pop_min"),
        # runqueue waits of requests on the discrete engine, whose waits
        # the literal runqueues decide
        "sched.wait_p50_ms_sim": _p50_ms(np.concatenate(waits)
                                         if waits else []),
        "core.submits": profile.count("core", "SFS.submit"),
        "core.polls": polls,
        "core.promotions": sfs_stat("promoted"),
        "core.filter_finish_ratio": _ratio(sfs_stat("completed_in_filter"),
                                           sfs_stat("promoted")),
        "core.poll_yield": _ratio(sfs_stat("demoted_io"), polls),
        "core.queue_delay_p50_ms_sim": _p50_ms(delays),
        "faas.invokes": profile.count("faas", "OpenLambdaPlatform.invoke"),
        "faas.dispatches": profile.count("faas", "FaaSCluster.dispatch"),
        "faas.health_polls": profile.count("faas", "ResilienceRuntime._poll"),
        "faas.cold_start_ratio": _ratio(
            sum(c.stats.cold_starts for c in caches),
            sum(c.stats.requests for c in caches)),
        "faas.failovers": fault_stat("failovers"),
        "faas.hedge_win_ratio": _ratio(fault_stat("hedge_wins"),
                                       fault_stat("hedges")),
        "faults.retries": fault_stat("retries"),
        "stream.observe_calls": profile.count("stream",
                                              "StreamSummary.observe"),
        "workload.stream_chunk_s": profile.seconds("workload",
                                                   "_generate_chunk"),
        "workload.generate_s": profile.seconds("workload", ".generate"),
        "metrics.build_records_s": profile.seconds("metrics",
                                                   "build_records"),
        "trace.emit_calls": profile.count("trace", "TraceRecorder.emit"),
        "why.audit_records": profile.count("why", "AuditLog.record"),
        "why.timeline_s": profile.seconds("why", "build_timelines"),
        "why.doc_s": profile.seconds("why", "build_why_doc"),
        "explore.capture_s": profile.seconds("explore", "RunBundle.capture"),
    }
    for layer in ALL_LAYERS:
        m[f"{layer}.self_s"] = profile.layer_self[layer]
    m["bench.untraced_s"] = untraced_s
    m["bench.traced_s"] = traced_s
    m["bench.tracing_overhead_s"] = traced_s - untraced_s
    m["bench.unattributed_s"] = traced_s - sum(profile.layer_self.values())
    m["bench.spans"] = spans
    return m


def check_layer_separation(workload: str, m: Dict[str, float]) -> List[str]:
    """Which layers a workload must and must not enter (README, the
    per-layer table).  Reported, not failed: a violation means the
    workload no longer exercises what it was chosen for."""
    bad = []

    def want(cond: bool, what: str) -> None:
        if not cond:
            bad.append(f"{workload}: expected {what}")

    pending = m["sim.pending_work_calls"]
    if workload in ("cluster_outage", "traced_why"):
        want(pending > 0, "sim.pending_work_calls > 0")
    else:
        want(pending == 0, "sim.pending_work_calls == 0")
    faas = m["faas.invokes"] + m["faas.dispatches"] + m["faas.health_polls"]
    want((faas > 0) == (workload == "cluster_outage"),
         "faas calls only on cluster_outage")
    want((m["stream.observe_calls"] > 0) == (workload == "replay_discrete_io"),
         "stream.observe_calls only on replay_discrete_io")
    want((m["sched.rbtree_ops"] > 0) == (workload == "replay_discrete_io"),
         "rbtree operations only on replay_discrete_io")
    want((m["trace.emit_calls"] > 0) == (workload == "traced_why"),
         "trace.emit_calls only on traced_why")
    return bad

