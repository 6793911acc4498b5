"""Self-tests of the benchmark: its contract file, the tracing wrappers and
the host-speed probe as pure observers, the span and speed arithmetic, and a
tiny-volume smoke of every workload through the real command, traced and
untraced.

Run with ``python3 -m pytest perfbench -q`` (add ``-m "not slow"`` to skip
the experiments-small smoke, which has no tiny volume and takes about a minute).
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import layers
import loadgen
import run as bench
import speed
import tracer
from child import SIM_SEED, capture_digest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- the contract file ------------------------------------------------------------

def test_benchmark_json_lists_exactly_what_the_command_reports():
    spec = _bench_json()
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# -- tracing wrappers ----------------------------------------------------------------

def _bindings():
    """Every object the wrappers replace, as found before installing."""
    for module_name in tracer._PRELOAD:
        importlib.import_module(module_name)
    found = {}
    for name, target, attr, kind in tracer.ENTRY_POINTS:
        module_name, _, class_name = target.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            cls = getattr(module, class_name)
            found[(cls, attr)] = cls.__dict__[attr]
        else:
            original = getattr(module, attr)
            for mod in list(sys.modules.values()):
                if mod is not None and getattr(mod, "__name__", "").startswith("repro") \
                        and mod.__dict__.get(attr) is original:
                    found[(mod, attr)] = original
    return found


def test_wrappers_replace_every_entry_point_and_uninstall_exactly(tmp_path):
    before = _bindings()
    installation = tracer.install(tracer.SpanRecorder(str(tmp_path)))
    try:
        for (owner, attr), original in before.items():
            assert owner.__dict__[attr] is not original, (owner, attr)
    finally:
        installation.uninstall()
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original, (owner, attr)


def _sim_digest(descriptor_id, **kwargs):
    from repro.sim import run_dataset
    from repro.workload import dataset

    run = run_dataset(dataset(descriptor_id), seed=SIM_SEED, client_queries=500, **kwargs)
    return capture_digest(run.capture.view())


@pytest.mark.parametrize("dataset_id,kwargs", [
    ("nl-w2020", {"workers": 1}),
    ("root-2020", {"workers": 2, "stream": True}),
])
def test_tracing_leaves_the_capture_bit_identical(tmp_path, dataset_id, kwargs):
    kwargs = dict(kwargs)
    if kwargs.get("stream"):
        kwargs["spool_dir"] = str(tmp_path / "spool")
    plain = _sim_digest(dataset_id, **kwargs)
    recorder = tracer.SpanRecorder(str(tmp_path / "spans"))
    installation = tracer.install(recorder)
    try:
        traced = _sim_digest(dataset_id, **kwargs)
    finally:
        installation.uninstall()
    assert len(recorder.start) > 0
    assert traced == plain
    assert _sim_digest(dataset_id, **kwargs) == plain


# -- host-speed probe ----------------------------------------------------------------

def test_speed_probe_samples_on_its_timer_and_restores_the_alarm(tmp_path):
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe().start()
    plain = _sim_digest("nl-w2020", workers=1)
    samples = probe.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(samples) >= 2
    assert all(wall > 0 and cpu > 0 for _, wall, cpu in samples)
    assert _sim_digest("nl-w2020", workers=1) == plain


def test_speed_window_takes_out_probe_time_and_scales():
    ref = speed.REFERENCE_CPU_S
    # Probes at 0.5, 1.5, 2.5 s took twice the reference CPU: half speed.
    samples = [(t, 3 * ref, 2 * ref) for t in (0.5, 1.5, 2.5)] + [(9.0, ref, ref)]
    factor, busy, cpu = speed.window(samples, 0.0, 3.0)
    assert factor == pytest.approx(0.5)
    assert busy == pytest.approx(9 * ref) and cpu == pytest.approx(6 * ref)
    rep = {"launch": 0.0, "t0": 3.0, "t1": 10.0, "setup_s": 3.0, "wall_s": 7.0,
           "cpu_s": 7.0, "speed": samples}
    scaled = bench.scale(rep)
    assert scaled["setup_s"] == pytest.approx((3.0 - 9 * ref) * 0.5)
    # One probe in [3, 10): too few, so the factor comes from all four.
    assert scaled["speed"] == pytest.approx(4 / 7)
    assert scaled["wall_s"] == pytest.approx((7.0 - ref) * 4 / 7)
    assert scaled["cpu_s"] == pytest.approx((7.0 - ref) * 4 / 7)
    assert speed.window([], 0.0, 1.0) == (1.0, 0, 0)


# -- span arithmetic ----------------------------------------------------------------

def test_self_time_subtracts_direct_children_and_roots_cover_the_window(tmp_path):
    recorder = tracer.SpanRecorder(str(tmp_path))
    names = [recorder.name_index(n) for n in ("resolver.resolve", "server.handle", "zones.lookup")]
    # resolve [0, 10] > handle [2, 8] > lookup [3, 4]; a second root [12, 13].
    for name_id, start, end, parent in [
        (names[0], 0.0, 10.0, -1), (names[1], 2.0, 8.0, 0),
        (names[2], 3.0, 4.0, 1), (names[2], 12.0, 13.0, -1),
    ]:
        recorder.name_id.append(name_id)
        recorder.start.append(start)
        recorder.end.append(end)
        recorder.parent.append(parent)
        recorder.qid.append(-1)
    proc = layers.ProcessSpans(recorder.dump())
    assert proc.self_time.tolist() == [4.0, 5.0, 1.0, 1.0]
    assert proc.root_time(0.0, 11.0) == 10.0
    stats = layers.span_stats([proc])
    assert stats["zones.lookup"] == (2, 2.0, 2.0)
    metrics = layers.per_layer_metrics([proc], {}, 0.9, 11.0, 10.0)
    assert metrics["resolver.self_s"] == 4.0
    assert metrics["server.self_s"] == 5.0
    assert metrics["zones.lookup.calls"] == 2
    assert metrics["trace.overhead"] == pytest.approx(0.1)
    assert [name for name, _ in layers.PER_LAYER] == list(metrics)


def _spans(recorder, rows):
    for name, start, end, parent in rows:
        recorder.name_id.append(recorder.name_index(name))
        recorder.start.append(start)
        recorder.end.append(end)
        recorder.parent.append(parent)
        recorder.qid.append(-1)
    return layers.ProcessSpans(recorder.dump())


def test_driver_coverage_is_the_share_of_driver_spans_under_layer_spans(tmp_path):
    # A pool worker's shard [0, 10] with a resolve [1, 7] inside it.
    proc = _spans(tracer.SpanRecorder(str(tmp_path)), [
        ("runtime.shard", 0.0, 10.0, -1), ("resolver.resolve", 1.0, 7.0, 0),
    ])
    metrics = layers.per_layer_metrics([proc], {}, 1.0, 10.0, 10.0)
    assert metrics["trace.driver_coverage"] == pytest.approx(0.6)


def test_wait_time_is_latency_minus_handling_by_query_id(tmp_path):
    recorder = tracer.SpanRecorder(str(tmp_path))
    handle = recorder.name_index("service.handle")
    for qid, start, end in [(7, 1.0, 1.001), (9, 2.0, 2.003)]:
        recorder.name_id.append(handle)
        recorder.start.append(start)
        recorder.end.append(end)
        recorder.parent.append(-1)
        recorder.qid.append(qid)
    proc = layers.ProcessSpans(recorder.dump())
    p50, p99 = layers.wait_ms([proc], np.array([7, 9]), np.array([5.0, 5.0]))
    assert p50 == pytest.approx(3.0)
    assert p99 == pytest.approx(3.98)


# -- the load generator ------------------------------------------------------------

class _StallingWires(list):
    """Encoded queries whose ``stall_at``-th fetch blocks the sender."""

    def __init__(self, wires, stall_at, stall_s):
        super().__init__(wires)
        self.stall_at, self.stall_s = stall_at, stall_s

    def __getitem__(self, index):
        if index == self.stall_at:
            time.sleep(self.stall_s)
        return super().__getitem__(index)


def _drive_against_echo(wires, rate):
    """drive() against a loopback UDP echo, so every query is "answered"."""
    echo = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    echo.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
    echo.bind(("127.0.0.1", 0))
    echo.settimeout(0.05)
    done = threading.Event()

    def serve():
        while not done.is_set():
            try:
                data, peer = echo.recvfrom(4096)
            except socket.timeout:
                continue
            echo.sendto(data, peer)

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        start, sent, received, _ = loadgen.drive(echo.getsockname()[1], wires, rate)
    finally:
        done.set()
        thread.join()
        echo.close()
    return loadgen.summarise(start, sent, received, rate)


def test_a_send_stall_marks_the_run_invalid():
    _, wires = loadgen.build_wires(seed=5, count=400)
    # The sender stalls 0.2 s at query 40 of a 0.2 s schedule, so every
    # later query goes out late and the median latency is the generator's.
    stalled = _drive_against_echo(_StallingWires(wires, stall_at=40, stall_s=0.2), 2000.0)
    assert stalled["lag_p50_ms"] > 50.0
    assert stalled["invalid"], stalled


# -- the command ------------------------------------------------------------------------

def _run(*args, cwd=ROOT, timeout=600):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=timeout,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


SMOKE = [
    ("sim-nl-cold", ["--volume", "500"]),
    ("sim-root-stream", ["--volume", "500"]),
    ("serve-udp", []),
    pytest.param("experiments-small", [], marks=pytest.mark.slow),
]


@pytest.mark.parametrize("workload,extra", SMOKE)
def test_smoke_every_workload_traced_and_untraced(workload, extra):
    spec = _bench_json()
    names = {
        "0": [m["name"] for m in spec["end_to_end"]],
        "1": [m["name"] for m in spec["per_layer"]],
    }
    traces = ("1",) if workload == "experiments-small" else ("0", "1")
    for trace in traces:
        result = _result(_run(
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", trace, *extra,
        ))
        assert result["correct"], result
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == names[trace]
        if trace == "1" and workload != "serve-udp":
            assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "sim-nl-cold", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path), timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
