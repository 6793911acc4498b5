"""Per-layer metrics from recorded spans and the program's own telemetry.

A span's *self time* is its duration minus the time its direct children
cover.  A layer's ``calls`` and ``self_s`` sum over every span whose name
starts with the layer name; the sub-metrics split out single entry points.
Ratios come from the program's telemetry counters where the program
already counts the work (cache hits, auth queries), and from span counts
where only the wrappers see it (RTT probes).

Every traced run reports every metric in :data:`PER_LAYER`; a layer the
workload never enters reads 0.
"""

from __future__ import annotations

import glob
import os
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

#: Spans that wrap a whole unit of driver work: a shard in a pool worker,
#: one experiment report.  Their self time is code between traced calls.
DRIVER_SPANS = ("runtime.shard", "experiments.report")

LAYERS = (
    "zones", "clouds", "workload", "resolver", "server", "dnscore",
    "capture", "analysis", "runtime", "experiments", "telemetry", "service",
)

#: (metric name, unit) for every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    [item for layer in LAYERS for item in ((f"{layer}.calls", "count"), (f"{layer}.self_s", "s"))]
    + [
        ("zones.build_s", "s"),
        ("zones.lookup.calls", "count"),
        ("zones.lookup.self_s", "s"),
        ("clouds.build_s", "s"),
        ("clouds.resolvers", "count"),
        ("resolver.resolve.calls", "count"),
        ("resolver.auth_per_client", "ratio"),
        ("resolver.cache_hit_ratio", "ratio"),
        ("resolver.rtt_calls_per_auth", "ratio"),
        ("server.handle.calls", "count"),
        ("server.handle.self_s", "s"),
        ("server.rtt.self_s", "s"),
        ("server.plan_hit_ratio", "ratio"),
        ("dnscore.encode.calls", "count"),
        ("dnscore.encode.self_s", "s"),
        ("dnscore.decode.calls", "count"),
        ("dnscore.decode.self_s", "s"),
        ("dnscore.make_query.self_s", "s"),
        ("capture.append.calls", "count"),
        ("capture.append.self_s", "s"),
        ("capture.sort_s", "s"),
        ("capture.spool.write_s", "s"),
        ("capture.spool.bytes", "B"),
        ("analysis.attribute_s", "s"),
        ("analysis.fold.rows", "count"),
        ("analysis.fold.self_s", "s"),
        ("analysis.merge_s", "s"),
        ("analysis.report_s", "s"),
        ("runtime.execute_s", "s"),
        ("runtime.shard_busy_s", "s"),
        ("runtime.worker_utilization", "ratio"),
        ("runtime.merge_s", "s"),
        ("runtime.shard_retries", "count"),
        ("runtime.shard_failures", "count"),
        ("runtime.env_cache_hit_ratio", "ratio"),
        ("experiments.reports", "count"),
        ("experiments.runs", "count"),
        ("experiments.run_reuse_ratio", "ratio"),
        ("telemetry.publish_s", "s"),
        ("service.classify.calls", "count"),
        ("service.classify.self_s", "s"),
        ("service.admit.self_s", "s"),
        ("service.dispatch.calls", "count"),
        ("service.dispatch.self_s", "s"),
        ("service.handle.self_s", "s"),
        ("service.wait_ms.p50", "ms"),
        ("service.wait_ms.p99", "ms"),
        ("loadgen.lag_ms.p99", "ms"),
        ("loadgen.latency_ms.p50", "ms"),
        ("loadgen.latency_ms.p99", "ms"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead", "ratio"),
        ("trace.coverage", "ratio"),
        ("trace.driver_coverage", "ratio"),
        ("trace.spans", "count"),
    ]
)


# -- span files -----------------------------------------------------------------

class ProcessSpans:
    """One process's dumped spans, with self times computed."""

    def __init__(self, path: str):
        with np.load(path) as data:
            self.names: List[str] = [str(n) for n in data["names"]]
            self.name_id = data["name_id"].astype(np.int64)
            self.start = data["start"]
            self.end = data["end"]
            self.parent = data["parent"]
            self.qid = data["qid"]
            self.counts: Dict[str, int] = {
                str(k): int(v)
                for k, v in zip(data["count_keys"], data["count_values"])
            }
            self.pid = int(data["pid"][0])
        self.duration = self.end - self.start
        has_parent = self.parent >= 0
        child_time = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent],
            minlength=len(self.start),
        )
        self.self_time = self.duration - child_time

    def __len__(self) -> int:
        return len(self.start)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name_id == self.names.index(name)

    def root_time(self, t0: float, t1: float) -> float:
        """Time covered by root spans inside ``[t0, t1]``: the sum of every
        layer's self time over the window."""
        roots = (self.parent < 0) & (self.start >= t0) & (self.end <= t1)
        return float(self.duration[roots].sum())


def load_processes(span_dir: str) -> List[ProcessSpans]:
    return [ProcessSpans(p) for p in sorted(glob.glob(os.path.join(span_dir, "spans-*.npz")))]


def span_stats(processes: Iterable[ProcessSpans]) -> Dict[str, Tuple[int, float, float]]:
    """span name -> (calls, self seconds, total seconds) over all processes."""
    stats: Dict[str, List[float]] = {}
    for proc in processes:
        for index, name in enumerate(proc.names):
            sel = proc.name_id == index
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += int(sel.sum())
            entry[1] += float(proc.self_time[sel].sum())
            entry[2] += float(proc.duration[sel].sum())
    return {name: (int(c), s, t) for name, (c, s, t) in stats.items()}


# -- telemetry snapshots (TelemetrySnapshot.as_dict() form) ---------------------

def counter_total(snapshot: Dict, name: str) -> float:
    """Sum of a counter family over every label combination."""
    total = 0
    for key, value in snapshot.get("counters", {}).items():
        if key == name or key.startswith(name + "{"):
            total += value
    return float(total)


def phase_total(snapshot: Dict, name: str, prefix: bool = False) -> float:
    total = 0.0
    for key, stat in snapshot.get("phases", {}).items():
        if key == name or (prefix and key.startswith(name)):
            total += float(stat["total_s"])
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    processes: List[ProcessSpans],
    telemetry: Dict,
    coverage: float,
    traced_wall_s: float,
    untraced_wall_s: float,
    extras: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced run."""
    stats = span_stats(processes)
    counts: Dict[str, int] = {}
    for proc in processes:
        for key, value in proc.counts.items():
            counts[key] = counts.get(key, 0) + value

    def calls(name: str) -> int:
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(name: str) -> float:
        return stats.get(name, (0, 0.0, 0.0))[1]

    def total_s(name: str) -> float:
        return stats.get(name, (0, 0.0, 0.0))[2]

    driver_total = sum(total_s(n) for n in DRIVER_SPANS)
    driver_self = sum(self_s(n) for n in DRIVER_SPANS)

    out: Dict[str, float] = {}
    for layer in LAYERS:
        members = [n for n in stats if n.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = float(sum(calls(n) for n in members))
        out[f"{layer}.self_s"] = sum(self_s(n) for n in members)

    auth = counter_total(telemetry, "resolver.auth_queries")
    client = counter_total(telemetry, "resolver.client_queries")
    hits = counter_total(telemetry, "resolver.cache_hits")
    misses = counter_total(telemetry, "resolver.cache_misses")
    plan_hits = counter_total(telemetry, "runtime.plan_cache.hits")
    plan_misses = counter_total(telemetry, "runtime.plan_cache.misses")
    env_hits = counter_total(telemetry, "runtime.env_cache.hit")
    env_misses = counter_total(telemetry, "runtime.env_cache.miss")
    requests = counts.get("experiments.run_requests", 0)
    sim_runs = counts.get("experiments.sim_runs", 0)

    out.update({
        "zones.build_s": total_s("zones.build"),
        "zones.lookup.calls": float(calls("zones.lookup")),
        "zones.lookup.self_s": self_s("zones.lookup"),
        "clouds.build_s": total_s("clouds.build"),
        "clouds.resolvers": float(telemetry.get("gauges", {}).get("sim.fleet_size", 0.0)),
        "resolver.resolve.calls": float(calls("resolver.resolve")),
        "resolver.auth_per_client": _ratio(auth, client),
        "resolver.cache_hit_ratio": _ratio(hits, hits + misses),
        "resolver.rtt_calls_per_auth": _ratio(calls("server.rtt"), auth),
        "server.handle.calls": float(calls("server.handle")),
        "server.handle.self_s": self_s("server.handle"),
        "server.rtt.self_s": self_s("server.rtt"),
        "server.plan_hit_ratio": _ratio(plan_hits, plan_hits + plan_misses),
        "dnscore.encode.calls": float(calls("dnscore.encode")),
        "dnscore.encode.self_s": self_s("dnscore.encode"),
        "dnscore.decode.calls": float(calls("dnscore.decode")),
        "dnscore.decode.self_s": self_s("dnscore.decode"),
        "dnscore.make_query.self_s": self_s("dnscore.make_query"),
        "capture.append.calls": float(calls("capture.append")),
        "capture.append.self_s": self_s("capture.append"),
        "capture.sort_s": total_s("capture.sort"),
        "capture.spool.write_s": total_s("capture.spool_write"),
        "capture.spool.bytes": counter_total(telemetry, "capture.spool.bytes"),
        "analysis.attribute_s": total_s("analysis.attribute"),
        "analysis.fold.rows": counter_total(telemetry, "runtime.stream.rows_folded"),
        "analysis.fold.self_s": self_s("analysis.fold"),
        "analysis.merge_s": total_s("analysis.merge"),
        "analysis.report_s": total_s("analysis.report"),
        "runtime.execute_s": phase_total(telemetry, "runtime.execute"),
        "runtime.shard_busy_s": phase_total(telemetry, "runtime.shard.", prefix=True),
        "runtime.worker_utilization": float(
            telemetry.get("gauges", {}).get("runtime.worker_utilization", 0.0)
        ),
        "runtime.merge_s": phase_total(telemetry, "runtime.merge")
        + phase_total(telemetry, "runtime.stream.merge"),
        "runtime.shard_retries": counter_total(telemetry, "runtime.shard_retries"),
        "runtime.shard_failures": counter_total(telemetry, "runtime.shard_failures"),
        "runtime.env_cache_hit_ratio": _ratio(env_hits, env_hits + env_misses),
        "experiments.reports": float(calls("experiments.report")),
        "experiments.runs": float(sim_runs),
        "experiments.run_reuse_ratio": _ratio(max(requests - sim_runs, 0), requests),
        "telemetry.publish_s": out["telemetry.self_s"],
        "service.classify.calls": float(calls("service.classify")),
        "service.classify.self_s": self_s("service.classify"),
        "service.admit.self_s": self_s("service.admit"),
        "service.dispatch.calls": float(calls("service.dispatch")),
        "service.dispatch.self_s": self_s("service.dispatch"),
        "service.handle.self_s": self_s("service.handle"),
        "service.wait_ms.p50": 0.0,
        "service.wait_ms.p99": 0.0,
        "loadgen.lag_ms.p99": 0.0,
        "loadgen.latency_ms.p50": 0.0,
        "loadgen.latency_ms.p99": 0.0,
        "trace.wall_s": traced_wall_s,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead": _ratio(traced_wall_s - untraced_wall_s, untraced_wall_s),
        "trace.coverage": coverage,
        "trace.driver_coverage": _ratio(driver_total - driver_self, driver_total),
        "trace.spans": float(sum(len(p) for p in processes)),
    })
    if extras:
        out.update(extras)
    missing = [name for name, _ in PER_LAYER if name not in out]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: out[name] for name, _ in PER_LAYER}


def wait_ms(
    processes: List[ProcessSpans],
    qids: np.ndarray,
    latency_ms: np.ndarray,
) -> Tuple[float, float]:
    """(p50, p99) of client latency minus server handling time, matched by
    DNS message id: the time a query spent queued outside the handler."""
    handled: Dict[int, float] = {}
    for proc in processes:
        sel = proc.mask("service.handle") & (proc.qid >= 0)
        for qid, dur in zip(proc.qid[sel].tolist(), proc.duration[sel].tolist()):
            handled[qid] = dur * 1000.0
    waits = [
        lat - handled[q]
        for q, lat in zip(qids.tolist(), latency_ms.tolist())
        if q in handled
    ]
    if not waits:
        return 0.0, 0.0
    p50, p99 = np.percentile(np.array(waits), [50, 99])
    return float(p50), float(p99)
