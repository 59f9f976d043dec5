"""Core-speed probe: a fixed kernel timed alongside the workload.

On a shared host the speed of a virtual core drifts by tens of per cent over
seconds to minutes, and a kernel timed before or after a repetition does not
predict the speed the repetition saw.  This probe instead times a small fixed
pure-Python kernel every PROBE_INTERVAL_S of wall time, from a SIGALRM
handler in the workload's own thread, so it samples the same core at the same
moments as the workload.  The kernel works within the first-level cache,
so the workload's own use of the caches barely changes its cost.
``bench/run.py`` subtracts the probes' CPU time and scales what is left by
REF_PROBE_S over the probes' mean cost: CPU seconds at the reference core
speed.

The timer is ITIMER_REAL on purpose.  A process CPU-time timer
(ITIMER_PROF or ITIMER_VIRTUAL) makes Linux sample the process CPU clock
only at scheduler ticks, which would ruin the readings being scaled.
"""

from __future__ import annotations

import signal
import time

PROBE_INTERVAL_S = 0.05
# Mean cost of one probe kernel at the reference speed: about its cost on a
# 2-vCPU Intel Xeon guest with Python 3.11 (0.7 to 1.0 ms there), so that
# reference seconds there read close to CPU seconds.
REF_PROBE_S = 0.8e-3
MIN_PHASE_PROBES = 5


def probe_kernel() -> None:
    table: dict[int, int] = {}
    acc = 0
    for i in range(4000):
        key = i & 255
        acc = (acc + table.get(key, i) * 3) & 0xFFFFFF
        table[key] = acc


class SpeedProbe:
    """Runs the kernel on SIGALRM and keeps (process time at start, CPU
    seconds taken) per probe.  A handler that is due while the thread is in a
    long C call runs when the call returns; further ticks in that call are
    dropped, not queued."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        c0 = time.process_time()
        probe_kernel()
        self.samples.append((c0, time.process_time() - c0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)


def reference_seconds(c_start: float, c_end: float, samples) -> float:
    """CPU seconds of work between two process-time readings, probes left
    out, at the reference speed.  The speed comes from the probes inside the
    interval, or from all probes when the interval holds too few."""
    inside = [d for c, d in samples if c_start <= c < c_end]
    speed_from = inside if len(inside) >= MIN_PHASE_PROBES else [d for _, d in samples]
    if not speed_from:
        raise ValueError("no speed probes were recorded")
    mean = sum(speed_from) / len(speed_from)
    return (c_end - c_start - sum(inside)) * REF_PROBE_S / mean
