"""Scale measured times to a reference host speed.

On a shared host the same Python code runs 20-50% faster or slower from
one stretch of seconds to the next, because of other tenants.  Times taken
minutes apart, as two benchmark runs are, then differ by more than any
change worth measuring.  A fixed calibration round, interleaved with the
operations, measures the host's speed as it goes; each operation's wall
time is multiplied by ``ref_ns / (mean round time around it)``.

Different code slows down by different amounts, so each workload has a
round made of the kind of work its operations spend their time on: Bareiss
steps over Fractions, trial division of a big integer, small-Fraction
arithmetic, or a mix with JSON for the CLI.  The rounds are the benchmark's
own code and never call the package, so a change to the package does not
change them.

A reported time therefore reads as the wall time on this host at its
reference speed, where a round takes ``ref_ns``.  Raw wall times are kept
in the result file beside the scaled ones.
"""

from __future__ import annotations

import bisect
import json
import math
import random
import time
from fractions import Fraction
from typing import Callable, NamedTuple

#: Share of operation time spent on calibration rounds after it.
CAL_SHARE = 0.06
#: Operation time after which a burst of rounds runs.
CAL_EVERY_NS = 50_000_000
#: An operation's scale comes from the rounds within this many ns of its
#: midpoint.  The host's speed can flip between two levels several times a
#: second, so the mean over a few seconds is its speed for a long operation.
WINDOW_NS = 2_500_000_000


class Round(NamedTuple):
    run: Callable[[], object]
    ref_ns: int  # typical duration on a 2-vCPU x86-64 cloud host, Python 3.11


_MATRIX = [[Fraction(random.Random(i * 9 + j).randint(-999, 999)) for j in range(9)] for i in range(9)]


def _bareiss():
    a = [row[:] for row in _MATRIX]
    prev = Fraction(1)
    for k in range(len(a) - 1):
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]


def _trial_division():
    n = 10**40 + 12345
    for p in range(3, 48001, 2):
        n % p


def _small_fractions():
    rng = random.Random(5)
    acc = Fraction(0)
    for _ in range(240):
        acc = (acc + Fraction(rng.randint(-50, 50), rng.randint(1, 50))) * Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if abs(acc.numerator) > 10**12:
            acc = Fraction(1, 7)


def _mixed():
    n = 1234567891011121314151617181920212223
    for p in range(3, 6001, 2):
        n % p
    x = Fraction(1, 3)
    for i in range(1, 160):
        x = (x * Fraction(i, i + 1) + Fraction(1, i)) / 2
    json.loads(json.dumps({str(i): [i, str(x.denominator % (i + 7))] for i in range(80)}, sort_keys=True))


BAREISS = Round(_bareiss, 3_000_000)
TRIAL_DIVISION = Round(_trial_division, 3_000_000)
SMALL_FRACTIONS = Round(_small_fractions, 3_000_000)
MIXED = Round(_mixed, 3_000_000)


def timed(round_: Round) -> int:
    start = time.perf_counter_ns()
    round_.run()
    return time.perf_counter_ns() - start


class SpeedLog:
    """Calibration rounds on one timeline, and the time scale they give.

    A burst of rounds runs after every CAL_EVERY_NS of operation time, long
    enough to take CAL_SHARE of it.
    """

    def __init__(self, round_: Round):
        self.round = round_
        self.starts: list[int] = []  # perf_counter_ns at each round's start
        self.totals: list[int] = [0]  # running sum of round durations
        self._since = 0
        self.calibrate()

    def calibrate(self) -> None:
        for _ in range(max(1, math.ceil(CAL_SHARE * self._since / self.round.ref_ns))):
            self.starts.append(time.perf_counter_ns())
            self.totals.append(self.totals[-1] + timed(self.round))
        self._since = 0

    def after_op(self, op_ns: int) -> None:
        self._since += op_ns
        if self._since >= CAL_EVERY_NS:
            self.calibrate()

    def scale(self, at_ns: int) -> float:
        """ref_ns over the mean round time within WINDOW_NS of ``at_ns``."""
        lo = bisect.bisect_left(self.starts, at_ns - WINDOW_NS)
        hi = bisect.bisect_right(self.starts, at_ns + WINDOW_NS)
        if hi == lo:  # no round that close: take the nearest one
            lo, hi = (hi - 1, hi) if hi else (0, 1)
        return self.round.ref_ns * (hi - lo) / (self.totals[hi] - self.totals[lo])
