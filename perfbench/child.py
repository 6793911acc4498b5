"""One fresh-process repetition of a batch workload.

``run.py`` starts this script once per repetition, so no cache, plan or
interned name survives from one repetition to the next.  The parent passes
its ``time.perf_counter()`` reading just before launch; ``setup_s`` is the
time from then to the first timed call.  The result, including the output
checks, is written as JSON to ``--out``.

With ``--setup-only`` the process stops right before the timed call, so a
run can sample set-up time several times at little cost.

The host-speed probe (``speed.py``) starts before the program is imported,
so it covers set-up and the timed call; its samples go into the result.
A traced repetition stops it before the timed call, so that no probe runs
inside a traced span.
"""

from __future__ import annotations

import speed

#: Started before the program's imports below, so set-up time is probed too.
PROBE = speed.SpeedProbe().start() if __name__ == "__main__" else None

import argparse
import contextlib
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import sys
import time
import traceback

import numpy as np

from repro.analysis import Attributor, StreamingAnalytics, ViewAnalytics
from repro.clouds import PROVIDERS
from repro.experiments.context import ExperimentContext
from repro.experiments.render_all import collect_all
from repro.sim import run_dataset
from repro.workload import dataset

import tracer

#: The simulation seed of every batch workload: the program's own default
#: (``run_dataset``, ``repro dataset`` and ``repro experiments`` all use it).
SIM_SEED = 20201027

#: The capture columns whose bytes define a run's output.
DIGEST_COLUMNS = ("timestamp", "qname", "qtype", "rcode", "server_id", "transport")


def capture_digest(view) -> str:
    """SHA-256 over the capture columns that define a run's output."""
    digest = hashlib.sha256()
    for column in DIGEST_COLUMNS:
        values = getattr(view, column)
        if values.dtype == object:
            digest.update("\n".join(str(v) for v in values.tolist()).encode())
        else:
            digest.update(np.ascontiguousarray(values).tobytes())
        digest.update(b"|")
    return digest.hexdigest()


def _cpu_s(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _join_children(timeout_s: float = 30.0) -> None:
    """Wait for every multiprocessing child (pool workers), so their CPU
    time is accounted and their span files are written."""
    deadline = time.monotonic() + timeout_s
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))


# -- workloads --------------------------------------------------------------------
#
# Each builds what precedes the timed call and returns (timed, check):
# ``timed`` is the measured call and returns its state; ``check`` runs
# after the timed region and returns a dict with the client queries run,
# the operations attempted and failed, the failure messages, the capture
# digest and the run's telemetry snapshot.


def sim_nl_cold(volume: int, span, workdir: str):
    descriptor = dataset("nl-w2020")

    def timed():
        run = run_dataset(descriptor, seed=SIM_SEED, client_queries=volume, workers=1)
        with span("analysis.report"):
            view = run.capture.view()
            analytics = ViewAnalytics(view, Attributor(run.registry, PROVIDERS).attribute(view))
            summary = analytics.dataset_summary()
            shares = analytics.provider_shares(PROVIDERS)
        return run, view, summary, shares

    def check(state):
        run, view, summary, shares = state
        failures = []
        if run.client_queries_run != volume:
            failures.append(f"client_queries_run {run.client_queries_run} != {volume}")
        if summary.queries_total != len(view) or not shares:
            failures.append("headline analytics disagree with the capture")
        return _outcome(run.client_queries_run, run.runtime_report.shard_count,
                        failures, capture_digest(view), run.telemetry.as_dict())

    return timed, check


def sim_root_stream(volume: int, span, workdir: str):
    descriptor = dataset("root-2020")
    spool_dir = os.path.join(workdir, f"spool-{os.getpid()}")

    def timed():
        run = run_dataset(
            descriptor, seed=SIM_SEED, client_queries=volume, workers=2,
            stream=True, spool_dir=spool_dir,
        )
        with span("analysis.report"):
            analytics = StreamingAnalytics(run.aggregates)
            summary = analytics.dataset_summary()
            composition = analytics.composition()
            sovereignty = analytics.sovereignty()
        return run, summary, composition, sovereignty

    def check(state):
        run, summary, composition, sovereignty = state
        failures = []
        if run.client_queries_run != volume:
            failures.append(f"client_queries_run {run.client_queries_run} != {volume}")
        report = run.runtime_report
        failures.extend(
            f"shard {o.index}: {o.error}" for o in report.outcomes if o.error
        )
        view = run.capture.view()
        memory = ViewAnalytics(view, Attributor(run.registry, PROVIDERS).attribute(view))
        if memory.dataset_summary() != summary:
            failures.append("streaming dataset_summary differs from the spool view")
        if memory.sovereignty() != sovereignty:
            failures.append("streaming sovereignty differs from the spool view")
        exact = memory.composition()
        for field in ("total_queries", "category_counts", "category_shares",
                      "provider_categories", "cm_error_bound"):
            if getattr(exact, field) != getattr(composition, field):
                failures.append(f"streaming composition.{field} differs from the spool view")
        truth = {}
        for qname in view.qname.tolist():
            key = str(qname)
            truth[key] = truth.get(key, 0) + 1
        for hitter in composition.heavy_hitters:
            if not hitter.lower_bound <= truth.get(hitter.qname, 0) <= hitter.estimate:
                failures.append(f"heavy hitter {hitter.qname} outside its bounds")
        digest = capture_digest(view)
        shutil.rmtree(spool_dir, ignore_errors=True)
        return _outcome(run.client_queries_run, report.shard_count, failures,
                        digest, run.telemetry.as_dict())

    return timed, check


def experiments_small(volume: int, span, workdir: str):
    # ``volume`` is unused: the experiment set fixes its own volumes.
    ctx = ExperimentContext(scale=0.01, seed=SIM_SEED, workers=1, stream=False,
                            trace=None, vector=False)

    def timed():
        return collect_all(ctx)

    def check(reports):
        failures = []
        for report in reports:
            try:
                report.to_text()
            except Exception as exc:  # noqa: BLE001 - a failed render is a failed report
                failures.append(f"{report.experiment_id}: {type(exc).__name__}: {exc}")
        telemetry = ctx.telemetry.snapshot().as_dict()
        queries = sum(
            v for k, v in telemetry["counters"].items()
            if k.startswith("sim.client_queries")
        )
        return _outcome(queries, len(reports), failures, None, telemetry,
                        failed=len(failures))

    return timed, check


def _outcome(queries, attempted, failures, digest, telemetry, failed=None):
    """A check's result.  Unless ``failed`` says otherwise, any failed
    output check fails every operation of the run."""
    if failed is None:
        failed = attempted if failures else 0
    return {"queries": queries, "attempted": attempted, "failed": failed,
            "failures": failures, "digest": digest, "telemetry": telemetry}


WORKLOADS = {
    "sim-nl-cold": sim_nl_cold,
    "sim-root-stream": sim_root_stream,
    "experiments-small": experiments_small,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--volume", type=int, required=True)
    parser.add_argument("--launch", type=float, required=True,
                        help="parent's perf_counter() reading at launch")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    recorder = installation = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.trace:
        PROBE.stop()
        recorder = tracer.SpanRecorder(os.path.join(args.workdir, "spans"))
        installation = tracer.install(recorder)
        span = recorder.span
    timed, check = WORKLOADS[args.workload](args.volume, span, args.workdir)

    self_cpu0 = _cpu_s(resource.RUSAGE_SELF)
    child_cpu0 = _cpu_s(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    result = {"launch": args.launch, "t0": t0, "setup_s": t0 - args.launch,
              "pid": os.getpid(), "sim_seed": SIM_SEED}
    if args.setup_only:
        result["speed"] = PROBE.stop()
        _write(args.out, result)
        return 0

    state = timed()
    t1 = time.perf_counter()
    self_cpu1 = _cpu_s(resource.RUSAGE_SELF)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["speed"] = PROBE.stop()
    if installation is not None:
        installation.uninstall()
    _join_children()
    child_cpu1 = _cpu_s(resource.RUSAGE_CHILDREN)

    try:
        outcome = check(state)
    except Exception:  # noqa: BLE001 - a crashed check is a failed run
        outcome = _outcome(0, 1, [traceback.format_exc(limit=3)], None, {})
    result.update(outcome)
    result.update({
        "t1": t1,
        "wall_s": t1 - t0,
        "cpu_s": (self_cpu1 - self_cpu0) + (child_cpu1 - child_cpu0),
        "peak_rss_mb": peak_kb / 1024.0 - speed.BUFFER_MB,
    })
    if recorder is None:
        del result["telemetry"]
    else:
        recorder.dump()
    _write(args.out, result)
    return 0


def _write(path: str, result: dict) -> None:
    with open(path, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    sys.exit(main())
