"""The repository's benchmark: four cold workloads, end to end and per layer.

Run one workload (the form the ledger uses; the last stdout line is the
JSON result)::

    python3 perfbench/run.py --workload sim-nl-cold --seed 1 --seconds 15 --trace 0

or every workload, with a table of every metric by workload, name and unit::

    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  Their
times are scaled to the reference box's speed by the host-speed probe
(``speed.py``) that runs alongside every measured process.
``--trace 1`` is a separate traced run: untraced and traced repetitions,
the per-layer table from a traced one, and the tracing overhead as the
difference between the two.  See ``perfbench/README.md``.

Every repetition runs in a fresh process whose environment has every
``REPRO_*`` variable removed.  Everything the benchmark writes goes under
``.bench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import layers
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_run")
DIGESTS = os.path.join(HERE, "digests.json")

#: Workload parameters.  ``volume`` is client queries per repetition for
#: the simulations; the experiment set fixes its own volumes (scale 0.01).
#: A traced run makes ``trace_pairs`` untraced/traced repetition pairs.
#: serve-udp offers 1000 q/s: the server's socket buffer (the system default,
#: 256 small datagrams) then absorbs a 256 ms server stall; at 2000 q/s a
#: 174 ms stall (a GC pause on a busy host) dropped 92 queries.
WORKLOADS: Dict[str, Dict] = {
    "sim-nl-cold": {"kind": "batch", "volume": 20000, "workers": 1, "trace_pairs": 2},
    "sim-root-stream": {"kind": "batch", "volume": 20000, "workers": 2, "trace_pairs": 2},
    "serve-udp": {"kind": "serve", "rate": 1000.0, "lifetimes": 3, "workers": 1},
    "experiments-small": {"kind": "batch", "volume": 0, "workers": 1, "trace_pairs": 1},
}

#: (name, unit) of every end-to-end metric, as BENCHMARK.json lists them.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("queries_per_s", "1/s"),
    ("cpu_s", "s"),
    ("cpu_us_per_query", "us"),
    ("peak_rss_mb", "MB"),
    ("ok_fraction", "fraction"),
    ("p50_ms", "ms"),
)

#: Set-up time is sampled this many times per run (repetitions plus
#: set-up-only launches) and reported as the median.
SETUP_SAMPLES = 5
#: No repetition is started once this much of a run has elapsed.
RUN_BUDGET_S = 120.0
#: A single child process is killed after this long.
CHILD_TIMEOUT_S = 170.0

class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to failed checks)."""


# -- environment and manifest ----------------------------------------------------

def child_env() -> Dict[str, str]:
    """The environment of every workload process: no ambient ``REPRO_*``
    knob, fixed string hashing, temp files inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    env["PYTHONHASHSEED"] = "0"
    tmp = os.path.join(WORKDIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def source_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def manifest(workload: str, args, params: Dict, input_seeds: List[int], host: Dict) -> Dict:
    """What a result was measured on.  ``input_seeds`` are the seeds the
    inputs were made from: the query-stream seeds on serve-udp, the fixed
    simulation seed on the batch workloads (which ignore ``--seed``).
    ``host`` holds the median speed factor and the unscaled times."""
    return {
        **host,
        "workload": workload,
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed_arg": args.seed,
        "input_seeds": input_seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "volume": params.get("volume"),
        "workers": params["workers"],
        "offered_qps": params.get("rate"),
    }


# -- batch workloads -------------------------------------------------------------

def run_child(workload: str, volume: int, trace: bool, setup_only: bool = False) -> Dict:
    """One fresh-process repetition; returns the child's result dict."""
    out = os.path.join(WORKDIR, f"child-{workload}-{time.time_ns()}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--volume", str(volume), "--out", out,
        "--workdir", WORKDIR, "--trace", "1" if trace else "0",
    ]
    if setup_only:
        cmd.append("--setup-only")
    launch = time.perf_counter()
    proc = subprocess.run(
        cmd + ["--launch", repr(launch)], env=child_env(), cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not os.path.exists(out):
        raise BenchmarkError(
            f"{workload} process exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    with open(out) as handle:
        result = json.load(handle)
    os.remove(out)
    return result


def recorded_digest(workload: str, volume: int) -> Optional[str]:
    if not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS) as handle:
        return json.load(handle).get(workload, {}).get(str(volume))


def record_digest(workload: str, volume: int, digest: str) -> None:
    table = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as handle:
            table = json.load(handle)
    table.setdefault(workload, {})[str(volume)] = digest
    with open(DIGESTS, "w") as handle:
        json.dump(table, handle, indent=2, sort_keys=True)
        handle.write("\n")


def check_digests(workload: str, volume: int, reps: List[Dict], record: bool) -> List[str]:
    """Every repetition's capture digest equals the recorded one."""
    digests = {r["digest"] for r in reps if r.get("digest")}
    if not digests:
        return []
    if record:
        if len(digests) == 1:
            record_digest(workload, volume, digests.pop())
            return []
        return [f"repetitions disagree on the capture digest: {sorted(digests)}"]
    expected = recorded_digest(workload, volume)
    if expected is None:
        return [f"no digest recorded for {workload} at volume {volume} "
                "(run with --record-digests)"]
    return [
        f"capture digest {d[:12]} != recorded {expected[:12]}"
        for d in sorted(digests) if d != expected
    ]


def scale(rep: Dict) -> Dict:
    """A repetition's set-up, wall and CPU time with the probes' own time
    taken out, scaled to the reference speed, and the timed window's speed
    factor (see ``speed.py``)."""
    samples = rep["speed"]
    factor, busy, _ = speed.window(samples, rep["launch"], rep["t0"])
    out = {"setup_s": (rep["setup_s"] - busy) * factor}
    if "t1" in rep:
        factor, busy, cpu = speed.window(samples, rep["t0"], rep["t1"])
        out.update({
            "speed": factor,
            "wall_s": (rep["wall_s"] - busy) * factor,
            "cpu_s": (rep["cpu_s"] - cpu) * factor,
            "probe_wall_s": busy,
        })
    return out


def batch_run(workload: str, params: Dict, seconds: float, record: bool) -> Tuple[Dict, List[Dict], List[str], Dict]:
    """Fresh-process repetitions until ``seconds`` of timed work (at least
    one); returns (end-to-end metrics, repetitions, failure messages, the
    host speed and unscaled times)."""
    volume = params["volume"]
    started = time.perf_counter()
    reps: List[Dict] = []
    while not reps or (
        sum(r["wall_s"] for r in reps) < seconds
        and time.perf_counter() - started < RUN_BUDGET_S / 2
    ):
        reps.append(run_child(workload, volume, trace=False))
    setup_reps = list(reps)
    while len(setup_reps) < SETUP_SAMPLES:
        setup_reps.append(run_child(workload, volume, trace=False, setup_only=True))
    failures = [f for r in reps for f in r["failures"]]
    failures += check_digests(workload, volume, reps, record)
    scaled = [scale(r) for r in reps]
    walls = [s["wall_s"] for s in scaled]
    metrics = {
        "setup_s": statistics.median(scale(r)["setup_s"] for r in setup_reps),
        "wall_s": statistics.median(walls),
        "queries_per_s": statistics.median(
            r["queries"] / s["wall_s"] for r, s in zip(reps, scaled)
        ),
        "cpu_s": statistics.median(s["cpu_s"] for s in scaled),
        "cpu_us_per_query": statistics.median(
            1e6 * s["cpu_s"] / max(r["queries"], 1) for r, s in zip(reps, scaled)
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "p50_ms": 1000.0 * statistics.median(walls),
    }
    host = {
        "host_speed": statistics.median(s["speed"] for s in scaled),
        "unscaled_wall_s": statistics.median(r["wall_s"] for r in reps),
        "unscaled_setup_s": statistics.median(r["setup_s"] for r in setup_reps),
    }
    return metrics, reps, failures, host


def batch_trace(workload: str, params: Dict, record: bool) -> Tuple[Dict, List[Dict], List[str]]:
    """``trace_pairs`` pairs of an untraced and a traced repetition; the
    per-layer metrics come from the last traced one, the overhead from the
    median walls, and every capture must be bit-identical."""
    span_dir = os.path.join(WORKDIR, "spans")
    plain, traced = [], []
    for _ in range(params["trace_pairs"]):
        shutil.rmtree(span_dir, ignore_errors=True)
        plain.append(run_child(workload, params["volume"], trace=False))
        traced.append(run_child(workload, params["volume"], trace=True))
    reps = plain + traced
    failures = [f for r in reps for f in r["failures"]]
    failures += check_digests(workload, params["volume"], reps, record)
    last = traced[-1]
    processes = layers.load_processes(span_dir)
    main = [p for p in processes if p.pid == last["pid"]]
    if not main:
        raise BenchmarkError(f"{workload}: the traced process wrote no spans")
    coverage = main[0].root_time(last["t0"], last["t1"]) / last["wall_s"]
    metrics = layers.per_layer_metrics(
        processes, last["telemetry"], coverage,
        statistics.median(r["wall_s"] for r in traced),
        # The untraced repetitions ran the host-speed probe; its time is
        # taken out, unscaled, so both sides measure the same work.
        statistics.median(r["wall_s"] - scale(r)["probe_wall_s"] for r in plain),
    )
    shutil.rmtree(span_dir, ignore_errors=True)
    return metrics, reps, failures


# -- serve-udp ---------------------------------------------------------------------

def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def _proc_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _pin(pid: int, slot: int) -> None:
    """Keep the server (slot 0) and the load generator (slot 1) on separate
    cores, so the generator never competes with the server it measures."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        os.sched_setaffinity(pid, {cpus[slot]})


class Server:
    """A fresh ``repro serve nl-w2020`` process on ephemeral loopback ports.
    ``mode`` is ``speed`` (under the host-speed probe), ``trace`` (under the
    tracing wrappers) or ``plain`` (the program's own entry point alone)."""

    def __init__(self, mode: str, tag: str):
        self.port_file = os.path.join(WORKDIR, f"ports-{tag}.json")
        self.telemetry_file = os.path.join(WORKDIR, f"serve-telemetry-{tag}.json")
        self.speed_file = os.path.join(WORKDIR, f"serve-speed-{tag}.json")
        self.log_file = os.path.join(WORKDIR, f"serve-{tag}.log")
        for path in (self.port_file, self.telemetry_file, self.speed_file):
            if os.path.exists(path):
                os.remove(path)
        serve_args = [
            "serve", "nl-w2020", "--host", "127.0.0.1", "--udp-port", "0",
            "--no-metrics", "--port-file", self.port_file,
            "--telemetry-out", self.telemetry_file,
        ]
        if mode == "plain":
            cmd = [sys.executable, "-m", "repro"] + serve_args
        else:
            out = self.speed_file if mode == "speed" else os.path.join(WORKDIR, "spans")
            cmd = [sys.executable, os.path.join(HERE, "serve_entry.py"), mode, out] + serve_args
        self.samples: List = []
        self.log = open(self.log_file, "w")
        self.launch = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=child_env(), cwd=ROOT, stdout=self.log, stderr=subprocess.STDOUT,
        )
        _pin(self.proc.pid, 0)
        self.port = self._await_ports()
        self.bound = time.perf_counter()
        self.setup_s = self.bound - self.launch

    def _await_ports(self) -> int:
        deadline = time.perf_counter() + 60.0
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                self.stop()
                raise BenchmarkError(f"server exited {self.proc.returncode} before binding")
            try:
                with open(self.port_file) as handle:
                    return int(json.load(handle)["udp"])
            except (OSError, ValueError, KeyError):
                time.sleep(0.002)
        self.stop()
        raise BenchmarkError("server did not bind within 60 s")

    def stop(self) -> Dict:
        """SIGTERM, wait for the graceful drain; returns final telemetry.
        The probe's samples are then in ``samples``."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        if os.path.exists(self.speed_file):
            with open(self.speed_file) as handle:
                self.samples = json.load(handle)
        if os.path.exists(self.telemetry_file):
            with open(self.telemetry_file) as handle:
                return json.load(handle)
        return {}


def serve_load(server: Server, rate: float, seconds: float, seed: int, per_query: Optional[str]) -> Dict:
    """Drive one server with the open-loop generator; returns the
    generator's result plus the server's CPU over ``[w0, w1]`` and its peak
    RSS."""
    out = os.path.join(WORKDIR, "loadgen.json")
    cmd = [
        sys.executable, os.path.join(HERE, "loadgen.py"), "--port", str(server.port),
        "--rate", repr(rate), "--seconds", repr(seconds), "--seed", str(seed),
        "--out", out,
    ]
    if per_query:
        cmd += ["--per-query", per_query]
    gen = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    _pin(gen.pid, 1)
    try:
        line = gen.stdout.readline()
        if not line.startswith("READY"):
            raise BenchmarkError(f"load generator failed to start: {line!r}")
        cpu0 = _proc_cpu_s(server.proc.pid)
        w0 = time.perf_counter()
        gen.stdout.read()
        if gen.wait(timeout=seconds + CHILD_TIMEOUT_S / 2) != 0:
            raise BenchmarkError(f"load generator exited {gen.returncode}")
    finally:
        if gen.poll() is None:
            gen.kill()
            gen.wait()
        gen.stdout.close()
    cpu1 = _proc_cpu_s(server.proc.pid)
    w1 = time.perf_counter()
    with open(out) as handle:
        result = json.load(handle)
    os.remove(out)
    result.update({
        "w0": w0, "w1": w1, "server_cpu_s": cpu1 - cpu0,
        "server_peak_rss_mb": _proc_hwm_mb(server.proc.pid),
    })
    return result


def scale_load(load: Dict, server: Server) -> Dict:
    """The load's speed factor and server CPU less the probes' CPU, unscaled
    (call after ``server.stop()``)."""
    factor, _, probe_cpu = speed.window(server.samples, load["w0"], load["w1"])
    return {"speed": factor, "server_cpu_s": load["server_cpu_s"] - probe_cpu}


def scale_setup(server: Server) -> float:
    """The server's set-up time, probes taken out, at the reference speed."""
    factor, busy, _ = speed.window(server.samples, server.launch, server.bound)
    return (server.setup_s - busy) * factor


def serve_run(params: Dict, seconds: float, seed: int) -> Tuple[Dict, int, int, List[str], List[int], Dict]:
    """Set-up samples, then ``lifetimes`` fresh servers, each loaded for an
    equal share of ``seconds``.  Latency is the median over lifetimes."""
    lifetimes = params["lifetimes"]
    seeds = [seed * lifetimes + life for life in range(lifetimes)]
    setups: List[float] = []
    unscaled_setups: List[float] = []
    for probe in range(SETUP_SAMPLES - lifetimes):
        server = Server("speed", tag=f"probe{probe}")
        server.stop()
        setups.append(scale_setup(server))
        unscaled_setups.append(server.setup_s)
    loads = []
    for life, stream_seed in enumerate(seeds):
        server = Server("speed", tag=f"load{life}")
        try:
            load = serve_load(server, params["rate"], seconds / lifetimes, stream_seed, None)
        finally:
            server.stop()
        load.update(scale_load(load, server))
        loads.append(load)
        setups.append(scale_setup(server))
        unscaled_setups.append(server.setup_s)
    # Wall time and throughput are set by the offered rate, so they are not
    # scaled; server CPU and latency are, each lifetime by its own factor.
    window = sum(load["end"] - load["start"] for load in loads)
    answered = sum(load["answered"] for load in loads)
    cpu = sum(load["server_cpu_s"] * load["speed"] for load in loads)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": window,
        "queries_per_s": answered / window,
        "cpu_s": cpu,
        "cpu_us_per_query": 1e6 * cpu / max(answered, 1),
        "peak_rss_mb": statistics.median(
            load["server_peak_rss_mb"] - speed.BUFFER_MB for load in loads
        ),
        "p50_ms": statistics.median(load["p50_ms"] * load["speed"] for load in loads),
    }
    host = {
        "host_speed": statistics.median(load["speed"] for load in loads),
        "unscaled_p50_ms": statistics.median(load["p50_ms"] for load in loads),
        "unscaled_setup_s": statistics.median(unscaled_setups),
    }
    failures = [f for load in loads for f in load["failures"]]
    return (metrics, sum(load["queries"] for load in loads),
            sum(load["failed"] for load in loads), failures, seeds, host)


def serve_trace(params: Dict, seconds: float, seed: int) -> Tuple[Dict, int, int, List[str], List[int], Dict]:
    """An untraced and a traced loaded server, neither probed; per-layer
    metrics from the traced one, overhead as the change in server CPU per
    answered query."""
    span_dir = os.path.join(WORKDIR, "spans")
    shutil.rmtree(span_dir, ignore_errors=True)
    server = Server("plain", tag="plain")
    try:
        plain = serve_load(server, params["rate"], seconds, seed, None)
    finally:
        server.stop()
    per_query = os.path.join(WORKDIR, "per-query.npz")
    server = Server("trace", tag="traced")
    try:
        traced = serve_load(server, params["rate"], seconds, seed, per_query)
    finally:
        telemetry = server.stop()
    processes = layers.load_processes(span_dir)
    if not processes:
        raise BenchmarkError("serve-udp: the traced server wrote no spans")
    with np.load(per_query) as data:
        wait_p50, wait_p99 = layers.wait_ms(processes, data["qid"], data["latency_ms"])
    os.remove(per_query)
    window = traced["end"] - traced["start"]
    plain_cost = plain["server_cpu_s"] / max(plain["answered"], 1)
    traced_cost = traced["server_cpu_s"] / max(traced["answered"], 1)
    metrics = layers.per_layer_metrics(
        processes, telemetry,
        sum(p.root_time(traced["start"], traced["end"]) for p in processes) / window,
        window, plain["end"] - plain["start"],
        extras={
            "service.wait_ms.p50": wait_p50,
            "service.wait_ms.p99": wait_p99,
            "loadgen.lag_ms.p99": traced["lag_p99_ms"],
            "loadgen.latency_ms.p50": plain["p50_ms"],
            "loadgen.latency_ms.p99": plain["p99_ms"],
            "trace.overhead": traced_cost / plain_cost - 1.0 if plain_cost else 0.0,
        },
    )
    shutil.rmtree(span_dir, ignore_errors=True)
    attempted = plain["queries"] + traced["queries"]
    failed = plain["failed"] + traced["failed"]
    return metrics, attempted, failed, plain["failures"] + traced["failures"], [seed], {}


# -- one workload -------------------------------------------------------------------

def run_workload(workload: str, args) -> Dict:
    """The result of one workload run, as the last stdout line reports it."""
    params = dict(WORKLOADS[workload])
    if args.volume is not None and params["kind"] == "batch":
        params["volume"] = args.volume
    os.makedirs(WORKDIR, exist_ok=True)
    if params["kind"] == "serve":
        run = serve_trace if args.trace else serve_run
        metrics, attempted, failed, failures, seeds, host = run(params, args.seconds, args.seed)
    else:
        host = {}
        if args.trace:
            metrics, reps, failures = batch_trace(workload, params, args.record_digests)
        else:
            metrics, reps, failures, host = batch_run(
                workload, params, args.seconds, args.record_digests,
            )
        seeds = sorted({r["sim_seed"] for r in reps})
        attempted = sum(r["attempted"] for r in reps)
        failed = sum(r["failed"] for r in reps)
        if failures and not failed:
            # A failed run-level check (digest) fails every operation.
            failed = attempted
    if not args.trace:
        metrics["ok_fraction"] = (attempted - failed) / attempted if attempted else 0.0
        units = dict(END_TO_END)
    else:
        units = dict(layers.PER_LAYER)
    info = manifest(workload, args, params, seeds, host)
    result = {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    with open(os.path.join(WORKDIR, f"last-{workload}.json"), "w") as handle:
        json.dump({"manifest": info, "failures": failures, "result": result}, handle, indent=2)
    print("manifest " + json.dumps(info, sort_keys=True))
    for message in failures[:10]:
        print(f"FAILED {workload}: {message}")
    return result


def print_table(results: Dict[str, Dict]) -> None:
    print(f"{'workload':<18} {'metric':<30} {'value':>16}  unit")
    for workload, result in results.items():
        for name, metric in result["metrics"].items():
            print(f"{workload:<18} {name:<30} {metric['value']:>16.6g}  {metric['unit']}")
        print(f"{workload:<18} {'correct':<30} {str(result['correct']):>16}  "
              f"({result['failed']}/{result['attempted']} failed)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--volume", type=int, default=None,
                        help="override the client queries per simulation repetition")
    parser.add_argument("--record-digests", action="store_true",
                        help="record the capture digests instead of checking them")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"benchmark: no program source at {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args) for name in names}
    except (BenchmarkError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print_table(results)
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": metric
                for w, r in results.items() for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
