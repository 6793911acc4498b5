"""Host-speed probe: how fast this machine runs at the moment of a measurement.

The reference box's speed moves by up to ±30% in phases of seconds to
minutes, and ``cpu_s`` moves with ``wall_s``: the program executes more
slowly, it does not lose time slices.  What moves is memory latency (other
tenants' traffic in the shared last-level cache), so the probe is a fixed
number of random reads from a 16 MiB buffer, which miss the private
caches, much as the simulator's pointer-heavy heap does.

``SpeedProbe`` runs the probe from a ``SIGALRM`` interval timer every
``PERIOD_S`` while a workload runs in the same process, and records each
probe's start (``time.perf_counter``, comparable across processes), wall
time and CPU time.  ``window`` turns the samples of a time window into the
window's speed factor, ``REFERENCE_CPU_S`` over the mean probe CPU time, plus
the wall and CPU time the probes themselves took, which the benchmark
subtracts before scaling.  A time scaled by the factor is the time the work
would have taken on the reference box in a quiet phase.

The probe allocates no container objects, so it never triggers a garbage
collection of the workload's heap, and changes no state the program reads.
The interval timer is not inherited by forked pool workers.  The signal
interrupts blocking system calls, so a process that waits (on its pool
workers, or on a socket) still runs the probe on time; Python retries every
interrupted call after running the handler (PEP 475).
"""

from __future__ import annotations

import signal
import time
from typing import List, Sequence, Tuple

#: Seconds between probes.
PERIOD_S = 0.1
#: Reads per probe (about 3 ms on the reference box).
READS = 12000
#: The probe's buffer: 16 MiB of distinct, written pages (a zero-filled
#: buffer would map every page to the one shared zero page).
_BUFFER = bytes(range(256)) * (1 << 16)
#: Resident size of the buffer, subtracted from peak RSS.
BUFFER_MB = len(_BUFFER) / float(1 << 20)
#: Mean probe CPU time on the reference box (2-vCPU Xeon, Python 3.11) in
#: a quiet phase; a window whose probes take this long has speed 1.
REFERENCE_CPU_S = 0.0030
#: A window with fewer samples than this takes the speed of the whole process.
MIN_SAMPLES = 3

#: One probe: (start, wall seconds, CPU seconds).
Sample = Tuple[float, float, float]


_cursor = 12345


def probe(reads: int = READS) -> int:
    """Pseudo-random reads from the buffer.  The walk (a full-period linear
    congruential sequence) continues from one probe to the next, so every
    probe reads lines it has not read recently."""
    global _cursor
    buf = _BUFFER
    mask = len(buf) - 1
    x = _cursor
    acc = 0
    for _ in range(reads):
        x = (x * 1103515245 + 12345) & mask
        acc += buf[x]
    _cursor = x
    return acc


class SpeedProbe:
    """Probes every ``PERIOD_S`` seconds of wall time from ``start`` to ``stop``."""

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        cpu = time.thread_time()
        probe()
        self.samples.append((
            start, time.perf_counter() - start, time.thread_time() - cpu,
        ))

    def start(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> List[Sample]:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        return self.samples


def window(samples: Sequence[Sample], start: float, end: float) -> Tuple[float, float, float]:
    """(speed factor, probe wall s, probe CPU s) over the probes that
    started in ``[start, end)``.  The factor comes from all ``samples`` when
    the window holds fewer than ``MIN_SAMPLES``; with no samples it is 1."""
    inside = [s for s in samples if start <= s[0] < end]
    basis = inside if len(inside) >= MIN_SAMPLES else list(samples)
    speed = (REFERENCE_CPU_S * len(basis) / sum(s[2] for s in basis)) if basis else 1.0
    return speed, sum(s[1] for s in inside), sum(s[2] for s in inside)
