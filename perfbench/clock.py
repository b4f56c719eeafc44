"""Time calls in reference seconds, on a machine whose speed drifts.

The shared VM the benchmark was built on changes speed by up to 2x, within
seconds as well as over minutes, as other tenants load the host.  Steal time
stays near 0, so CPU time drifts with wall time and does not help.  So while
a timed call runs, a timer signal every INTERVAL_S interrupts it to run
`probe`, a fixed loop of about 1 ms that slows with the machine, and the
call's time is integrated piece by piece: each stretch between two probes
counts its wall time times PROBE_REF_S / (the mean of those two probes).
That is the time the call would take on a machine where the probe always
takes PROBE_REF_S.  Since a stretch lasts INTERVAL_S at most, the clock
follows the machine through a long call, which one factor per call or per
run does not.  The probe touches nothing of abelint, so a change to
abelint shows in full; the probes' own time is left out.

The module imports nothing beyond the interpreter's built-in modules, so
that a fresh process can time its own imports with it.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

PROBE_N = 3000
PROBE_REF_S = 0.001   # the probe's time on the baseline VM in a quiet stretch
INTERVAL_S = 0.025
EDGE_PROBES = 3       # probes before and after a call; their median counts


def probe():
    """Time a fixed loop of integer arithmetic and dict updates, the kind of
    work the interpreter does in abelint's exact algebra.  The collector is
    off while it runs, so what abelint leaves on the heap cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        d, x = {}, 1
        for i in range(PROBE_N):
            x = (x * 48271 + i) % 2147483647
            d[x & 1023] = d.get(x & 1023, 0) + x
        return t0, perf_counter()
    finally:
        if enabled:
            gc.enable()


def _edge():
    """The median length of EDGE_PROBES probes in a row, and the time the
    last one ended."""
    marks = [probe() for _ in range(EDGE_PROBES)]
    return sorted(b - a for a, b in marks)[EDGE_PROBES // 2], marks[-1][1]


class RefClock:
    """`time(fn)` runs fn() with the probe interleaved.  It returns fn's
    result, the exception fn raised (or None), fn's wall time without the
    probes and its reference time.  `probe_s` adds up the time spent in
    probes inside calls, so that a tracer can leave it out of its spans."""

    def __init__(self):
        self.probe_s = 0.0
        self.probes = []   # every probe's length, for the run's metadata
        self.marks = []

    def _sample(self, *_):
        t0, t1 = probe()
        self.marks.append((t0, t1))
        self.probe_s += t1 - t0

    def time(self, fn):
        dt, end = _edge()
        self.marks = [(end - dt, end)]
        out = err = None
        old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = perf_counter()
        try:
            out = fn()
        except Exception as exc:   # the caller counts the call as failed
            err = exc
        finally:
            t1 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        dt, end = _edge()
        self.marks.append((end, end + dt))
        raw = ref = 0.0
        for (a0, b0), (a1, b1) in zip(self.marks, self.marks[1:]):
            seg = max(0.0, min(a1, t1) - max(b0, t0))
            raw += seg
            ref += seg * 2 * PROBE_REF_S / ((b0 - a0) + (b1 - a1))
        self.probes += [b - a for a, b in self.marks]
        return out, err, raw, ref
