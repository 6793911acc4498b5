"""Open-loop UDP load generator for the serve-udp workload.

Runs in its own process with one socket.  Every query is built and encoded
before timing starts.  Query ``i`` is *due* at ``start + i / rate``;
latency is measured from that due time, not from the actual send, so a
stall in the generator or the server shows up as latency of every query
queued behind it.  The generator also reports its own send lag (actual
send minus due time).  Latency includes that lag, so when the median lag
exceeds half the median latency (and one send interval), the median it
measures is largely the generator's own and the run is marked invalid.

Protocol with the parent: after encoding, one line ``READY <start>`` goes
to stdout (``start`` is a ``time.perf_counter()`` reading slightly in the
future); the result is written as JSON to ``--out`` and, with
``--per-query``, the answered query ids and their latencies as ``.npz``.
"""

from __future__ import annotations

import argparse
import json
import math
import select
import socket
import sys
import time

import numpy as np

from repro.dnscore import EdnsRecord, Message
from repro.service.loadgen import LoadGenConfig, build_query_stream

#: EDNS0 buffer size advertised by every query (the fleet's modal value).
BUFSIZE = 1232
#: Seconds between READY and the first due time.
LEAD_S = 0.25
#: Seconds to wait for outstanding answers after the last due time.
DRAIN_S = 2.0
#: A run is invalid when the median send lag exceeds this share of the
#: median latency and also one send interval.  (A quantile of the lag can
#: never exceed the same quantile of the latency, which includes it.)  The
#: interval floor keeps the wake-up overshoot of ``select`` (about 0.07 ms)
#: from invalidating a healthy generator in front of a faster server.
LAG_SHARE = 0.5


def build_wires(seed: int, count: int):
    """(questions, encoded queries): query ``i`` carries message id ``i``."""
    if count > 65536:
        raise ValueError("at most 65536 queries: the message id is the query index")
    stream = build_query_stream(LoadGenConfig(queries=count, seed=seed))
    wires = [
        Message.make_query(
            qname, qtype, msg_id=index, edns=EdnsRecord(udp_payload_size=BUFSIZE)
        ).to_wire()
        for index, (qname, qtype) in enumerate(stream)
    ]
    return stream, wires


def drive(port: int, wires, rate: float):
    """Send every query at its due time; returns (start, sent, received,
    answers) with ``received[i]`` NaN for an unanswered query."""
    count = len(wires)
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
        sock.connect(("127.0.0.1", port))
        sock.setblocking(False)
        sent = np.full(count, np.nan)
        received = np.full(count, np.nan)
        answers = [None] * count
        start = time.perf_counter() + LEAD_S
        print(f"READY {start!r}", flush=True)
        interval = 1.0 / rate
        perf = time.perf_counter
        send, recv = sock.send, sock.recv
        next_index = 0
        outstanding = 0
        last_due = start + (count - 1) * interval
        while True:
            now = perf()
            while next_index < count and start + next_index * interval <= now:
                send(wires[next_index])
                sent[next_index] = perf()
                next_index += 1
                outstanding += 1
            while True:
                try:
                    data = recv(4096)
                except BlockingIOError:
                    break
                stamp = perf()
                if len(data) < 2:
                    continue
                qid = (data[0] << 8) | data[1]
                if qid < count and math.isnan(received[qid]):
                    received[qid] = stamp
                    answers[qid] = data
                    outstanding -= 1
            now = perf()
            if next_index >= count:
                if outstanding <= 0 or now > last_due + DRAIN_S:
                    break
                wait = last_due + DRAIN_S - now
            else:
                wait = start + next_index * interval - now
            if wait > 0:
                select.select([sock], [], [], wait)
        return start, sent, received, answers
    finally:
        sock.close()


def verify(stream, answers) -> list:
    """Every answer decodes and echoes its query's id and question."""
    failures = []
    for index, (wire, (qname, qtype)) in enumerate(zip(answers, stream)):
        if wire is None:
            failures.append(f"query {index}: no answer")
            continue
        try:
            message = Message.from_wire(wire)
        except Exception as exc:  # noqa: BLE001 - any decode failure fails the query
            failures.append(f"query {index}: undecodable answer ({exc})")
            continue
        question = message.questions[0] if message.questions else None
        if (
            message.msg_id != index
            or question is None
            or question.qname != qname
            or question.qtype != qtype
        ):
            failures.append(f"query {index}: answer does not echo id and question")
    return failures


def summarise(start: float, sent, received, rate: float) -> dict:
    """Latency and send-lag percentiles of one drive, and its validity."""
    due = start + np.arange(len(sent)) / rate
    answered = ~np.isnan(received)
    latency_ms = (received[answered] - due[answered]) * 1000.0
    lag_ms = (sent - due) * 1000.0
    p50, p99 = (np.percentile(latency_ms, [50, 99]) if latency_ms.size else (math.nan,) * 2)
    lag_p50, lag_p99 = (float(v) for v in np.percentile(lag_ms, [50, 99]))
    last = np.nanmax(received) if answered.any() else start
    return {
        "answered": int(answered.sum()),
        "latency_ms": latency_ms,
        "invalid": bool(lag_p50 > max(LAG_SHARE * p50, 1000.0 / rate)),
        "start": start,
        "end": float(max(last, due[-1])),
        "p50_ms": float(p50),
        "p99_ms": float(p99),
        "lag_p50_ms": lag_p50,
        "lag_p99_ms": lag_p99,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--rate", type=float, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--per-query", default=None)
    args = parser.parse_args()

    count = int(args.rate * args.seconds)
    stream, wires = build_wires(args.seed, count)
    start, sent, received, answers = drive(args.port, wires, args.rate)
    summary = summarise(start, sent, received, args.rate)
    latency_ms = summary.pop("latency_ms")
    failures = verify(stream, answers)
    if summary["invalid"]:
        failures.append(
            f"invalid run: median send lag {summary['lag_p50_ms']:.3f} ms against "
            f"median latency {summary['p50_ms']:.3f} ms"
        )
    failed = len({f.split(":")[0] for f in failures if f.startswith("query")})
    result = {
        "queries": count,
        # An invalid run fails every query it sent.
        "failed": count if summary["invalid"] else failed,
        "failures": failures[:20],
        **summary,
    }
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    if args.per_query:
        np.savez(args.per_query, qid=np.flatnonzero(~np.isnan(received)), latency_ms=latency_ms)
    return 0


if __name__ == "__main__":
    sys.exit(main())
