"""Times scaled to a reference machine speed by interleaved calibration bursts.

A shared host changes the speed it gives one process by up to 2x within
seconds, as other tenants' load comes and goes: a fixed pure-Python loop
timed over 30 s windows on a 2-vCPU VM spread 17% (interquartile range over
median), which is as much as any engine change worth measuring.  The host
slows the burst below and the engine alike, so timing the burst next to the
timed instances and dividing by it cancels most of that: on the same VM the
scaled time of partition instances spread 3% over 15 s windows where the raw
time spread 16%.

A scaled time is `raw * REF_BURST_S / burst`, what the raw time would be on a
machine on which one burst takes REF_BURST_S.  The burst is integer
arithmetic, dict lookups and set membership on prebuilt objects: it allocates
no container and calls no engine code, so an engine change cannot make it
faster or slower, and a change that makes the engine faster shows in full.

Bursts run before an instance (at most every EVERY_S), after an instance of
EVERY_S or longer, and inside a long instance every INTERIOR_S of this
process's CPU time, from a SIGVTALRM handler; the handler's time is taken out
of the instance's.  The CPU-time timer does not run while the process waits,
so a workload whose instances are child processes gets no interior bursts
competing with the child for the CPU.  An instance's burst time is the mean
of every burst from HALO_S before it starts to HALO_S after it ends, leaving
out the fastest and slowest fifth, so that it follows the speed over the whole
instance while no single burst, slowed by an interrupt, sets its scale.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: one burst's duration on the reference machine (2-vCPU VM, Python 3.11)
REF_BURST_S = 0.00022
#: a burst runs before an instance once this long has passed since the last
EVERY_S = 0.01
#: CPU time between bursts inside one instance
INTERIOR_S = 0.05
#: bursts this close to an instance set its scale
HALO_S = 0.25
#: bursts when timing starts, so the first instance has some before it
FIRST_BURSTS = 3
#: set-up is scaled by the median of this many bursts at each end
SETUP_BURSTS = 5

_TABLE = {i: i * 7 for i in range(64)}
_MEMBERS = frozenset(range(0, 64, 3))


def burst(n: int = 2000) -> float:
    """Seconds taken by one fixed burst of interpreter work."""
    table, members = _TABLE, _MEMBERS
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        j = i & 63
        acc += table[j] ^ (i >> 2)
        if j in members:
            acc -= 1
    return time.perf_counter() - t0


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest fifth."""
    values = sorted(values)
    cut = len(values) // 5
    return statistics.mean(values[cut:len(values) - cut])


def bursts(k: int = SETUP_BURSTS) -> float:
    """Median duration of k bursts."""
    return statistics.median(burst() for _ in range(k))


class Scaler:
    """Times instances and scales each by the bursts around and inside it.

    interior=False leaves out the bursts inside instances, as a traced run
    must: they would count as the self time of whatever span they land in.
    """

    def __init__(self, interior: bool = True) -> None:
        self.interior = interior and hasattr(signal, "setitimer")
        if self.interior:
            signal.signal(signal.SIGVTALRM, self._on_timer)
        self.burst_at: list[float] = []
        self.burst_s: list[float] = []
        self.spans: list[tuple[float, float, float]] = []
        self.paused = 0.0
        for _ in range(FIRST_BURSTS):
            self._burst()

    @property
    def count(self) -> int:
        return len(self.burst_s)

    def _burst(self) -> None:
        self.burst_s.append(burst())
        self.burst_at.append(time.perf_counter())

    def _on_timer(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._burst()
        self.paused += time.perf_counter() - t0

    def timed(self, fn, *args):
        """Call fn(*args); return its result and its raw duration."""
        if time.perf_counter() - self.burst_at[-1] >= EVERY_S:
            self._burst()
        self.paused = 0.0
        if self.interior:
            signal.setitimer(signal.ITIMER_VIRTUAL, INTERIOR_S, INTERIOR_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - t0
            if self.interior:
                signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        raw = elapsed - self.paused
        self.spans.append((t0, t0 + elapsed, raw))
        if raw >= EVERY_S:
            self._burst()
        return result, raw

    def scaled(self) -> list[float]:
        """Every duration timed so far, scaled to the reference speed."""
        out = []
        for start, end, raw in self.spans:
            lo = bisect.bisect_left(self.burst_at, start - HALO_S)
            hi = bisect.bisect_right(self.burst_at, end + HALO_S)
            out.append(raw * REF_BURST_S / trimmed_mean(self.burst_s[lo:hi]))
        return out
