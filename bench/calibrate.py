"""Speed probe: a fixed piece of pure-Python work that does not use liereduce.

The benchmark runs on shared hosts whose CPU throughput is not steady.  On
the reference host (2-CPU shared virtual machine) one CPU switches between a
fast state and one about half as fast every tenth of a second to a few
seconds, and the share of time spent slow drifts over minutes; CPU time
drifts with wall time and steal time stays near zero.  The worker therefore
samples the speed of the host with ``probe()`` every ``PERIOD_S`` during a
pass (``Probes``), and reports each stretch of work between two probes scaled
to reference seconds: the time it would take on a host where one probe
takes ``REFERENCE_S``.  The probe does not use liereduce, so no change to
the program can make it faster or slower.

The probe imitates what liereduce spends its time on: sparse polynomials
keyed by exponent tuples with ``Fraction`` coefficients, derivatives,
evaluation at rational points and text output.  Garbage collection is off
while it runs, so its time does not depend on the heap a pass has built.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# One probe's time in the fast state of the reference host, Python 3.11.
# Only a scale: the ratio of two builds' timings does not depend on it.
REFERENCE_S = 0.0017
# Wall time from the end of one probe to the start of the next during a pass.
PERIOD_S = 0.03

_A = {(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(-3, 4),
      (0, 0, 2): Fraction(2, 3), (0, 0, 0): Fraction(5)}
_B = {(0, 1, 1): Fraction(7, 5), (2, 0, 0): Fraction(-1, 3),
      (0, 0, 0): Fraction(1, 7)}
_POINT = (Fraction(3, 2), Fraction(-2, 5), Fraction(7, 3))


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def _diff(a: dict, i: int) -> dict:
    out = {}
    for e, c in a.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
    return out


def _value(a: dict) -> Fraction:
    total = Fraction(0)
    for e, c in a.items():
        term = c
        for x, n in zip(_POINT, e):
            term *= x ** n
        total += term
    return total


def _work() -> int:
    q = _mul(_mul(_A, _B), _A)
    size = 0
    for i in range(3):
        size += _value(_diff(q, i)).denominator % 7 + len(str(q))
    return size


def probe() -> float:
    """Seconds one run of the fixed work takes now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def factor(probe_s: float) -> float:
    """Reference seconds per second of work while a probe takes probe_s."""
    return REFERENCE_S / probe_s


def median_probe(count: int) -> float:
    return statistics.median(probe() for _ in range(count))


class Probes:
    """The probes of one interpreter, with their ``perf_counter`` spans.

    ``start()`` arms a one-shot ``SIGALRM`` timer that probes and re-arms
    itself, so probes fall inside items too; the handler runs between two
    bytecodes of the main thread, and a probe never nests in another.
    """

    def __init__(self) -> None:
        # (start, end, probe seconds), in time order.
        self.spans: list[tuple[float, float, float]] = []
        self._previous = None
        self._running = False

    def run(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            s = probe()
            self.spans.append((t0, time.perf_counter(), s))

    def _tick(self, signum, frame) -> None:
        if self._running:
            self.run()
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self) -> None:
        # A tick already pending runs as a no-op and does not re-arm.
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def times(self) -> list[float]:
        return [s for _, _, s in self.spans]

    def work(self, a: float, b: float) -> tuple[float, float]:
        """(seconds, reference seconds) of work in [a, b], probes left out.

        Each stretch between two probes is scaled by the factor of the mean
        of those two probes; [a, b] must lie between the first probe and
        the last.
        """
        raw = scaled = 0.0
        for (_, end, s0), (start, _, s1) in zip(self.spans, self.spans[1:]):
            lo, hi = max(a, end), min(b, start)
            if hi > lo:
                raw += hi - lo
                scaled += (hi - lo) * factor((s0 + s1) / 2)
        return raw, scaled
