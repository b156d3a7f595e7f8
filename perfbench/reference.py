"""A fixed reference computation that gauges the host's speed during a run.

On a shared host the same code runs up to half again as slow for seconds or
minutes at a time, so two runs of one commit disagree by more than any useful
bound.  So while a session runs, a timer interrupts it every ``PERIOD_S``
seconds to time one unit of this computation (``Sampler``).  The session's
times, less the time the units took, are scaled by
``REFERENCE_S / (median CPU time of its units)``: they read as seconds on a
host where a unit takes ``REFERENCE_S``.  A change to the engine moves the
scaled times as it moves the raw ones, because the reference does not import
``cdgalab``; a host that runs everything slower slows the reference too, and
the ratio cancels it.  Units timed only before or after a run follow the host
less well: its speed changes within a session of a few seconds.  The unit's CPU
time, not its wall time, gives the speed, so that time the hypervisor takes
away in bursts does not enter the scale.

The unit is the engine's kind of work: exact Gauss-Jordan elimination over
Q(zeta_12) on flat integer rows, each entry four numerators and a common
denominator kept in lowest terms, in plain Python.  It is frozen; changing it
changes every scaled time.
"""

from __future__ import annotations

import signal
import statistics
import time
from math import gcd

# Median CPU time of one unit on the 2-vCPU Xeon VM the bounds were set on,
# in seconds.
REFERENCE_S = 0.022
# Timer of the sampler: first unit after FIRST_S, then one every PERIOD_S (a
# unit takes about a tenth of that).
FIRST_S = 0.05
PERIOD_S = 0.25
# Rows and columns of the matrix a unit reduces.
SIZE = 12
PHI = 4  # degree of Q(zeta_12) = Q[z] / (z^4 - z^2 + 1)
W = PHI + 1


def _normalize(nums: list[int], den: int) -> list[int]:
    if den < 0:
        den, nums = -den, [-v for v in nums]
    g = den
    for v in nums:
        if v:
            g = gcd(g, v)
            if g == 1:
                break
    if g > 1:
        den //= g
        nums = [v // g for v in nums]
    return nums + [den]


def _powers() -> list[list[int]]:
    """Power-basis coordinates of z^0 .. z^(2 PHI - 2)."""
    out = [[int(i == e) for i in range(PHI)] for e in range(PHI)]
    for _ in range(PHI - 1):  # z^e = z * z^(e-1), folding z^4 = z^2 - 1
        top = out[-1][-1]
        shifted = [0] + out[-1][:-1]
        out.append([s + top * r for s, r in zip(shifted, (-1, 0, 1, 0))])
    return out


POWERS = _powers()


def _mul(a, b) -> list[int]:
    conv = [0] * (2 * PHI - 1)
    for i in range(PHI):
        if a[i]:
            for j in range(PHI):
                if b[j]:
                    conv[i + j] += a[i] * b[j]
    for e in range(PHI, 2 * PHI - 1):
        c = conv[e]
        if c:
            for j, r in enumerate(POWERS[e]):
                if r:
                    conv[j] += c * r
    return _normalize(conv[:PHI], a[PHI] * b[PHI])


def _sub(a, b) -> list[int]:
    da, db = a[PHI], b[PHI]
    return _normalize([x * db - y * da for x, y in zip(a[:PHI], b[:PHI])], da * db)


def _galois(a, k: int) -> list[int]:
    """z -> z^k, for k prime to 12."""
    out = [0] * PHI
    for i in range(PHI):
        if a[i]:
            e = i * k % 12
            sign = -1 if e >= 6 else 1  # z^6 = -1
            for j, c in enumerate(POWERS[e % 6]):
                out[j] += sign * a[i] * c
    return out + [a[PHI]]


def _inverse(a) -> list[int]:
    """1/a = (product of a's other Galois images) / (norm of a)."""
    prod = _mul(_mul(_galois(a, 5), _galois(a, 7)), _galois(a, 11))
    norm = _mul(a, prod)  # rational: only its first coordinate is nonzero
    return _normalize([v * norm[PHI] for v in prod[:PHI]], prod[PHI] * norm[0])


def _matrix() -> list[list[int]]:
    """A fixed, full-rank matrix; entry j of a row is ``row[j*W:(j+1)*W]``."""
    rows = []
    for i in range(SIZE):
        row = []
        for j in range(SIZE):
            nums = [(i * 5 + j * 3 + k * 7 + i * j * k) % 7 - 3 for k in range(PHI)]
            if i == j:
                nums[0] += 23  # diagonally dominant, so never singular
            row += _normalize(nums, 1 + (i + 2 * j) % 3)
        rows.append(row)
    return rows


def unit() -> int:
    """Reduce the fixed matrix to the identity; return its rank."""
    rows = _matrix()
    for col in range(SIZE):
        piv = rows[col]
        p_inv = _inverse(piv[col * W:(col + 1) * W])
        for j in range(SIZE):
            e = piv[j * W:(j + 1) * W]
            if any(e[:PHI]):
                piv[j * W:(j + 1) * W] = _mul(e, p_inv)
        for r, row in enumerate(rows):
            c = row[col * W:(col + 1) * W]
            if r == col or not any(c[:PHI]):
                continue
            for j in range(SIZE):
                e = piv[j * W:(j + 1) * W]
                if any(e[:PHI]):
                    row[j * W:(j + 1) * W] = _sub(row[j * W:(j + 1) * W], _mul(e, c))
    one = [1] + [0] * (PHI - 1) + [1]
    return sum(1 for i in range(SIZE) if rows[i][i * W:(i + 1) * W] == one)


class Sampler:
    """Times one unit on every tick of a timer, between the bytecodes of
    whatever the main thread runs.  ``wall_s`` and ``cpu_s`` add up the time
    the units took, so that the caller can take it out of its own timings."""

    def __init__(self):
        self.cpu: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def sample(self, *_signal) -> None:
        c0 = time.process_time()
        w0 = time.perf_counter()
        if unit() != SIZE:
            raise RuntimeError("reference elimination lost rank")
        cpu = time.process_time() - c0
        self.wall_s += time.perf_counter() - w0
        self.cpu_s += cpu
        self.cpu.append(cpu)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, FIRST_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def result(self) -> dict:
        """The median CPU time of a unit, and the number of units.  A run too
        short for the timer to fire gets one unit timed now."""
        if not self.cpu:
            self.sample()
        return {"reference_cpu_s": statistics.median(self.cpu),
                "reference_units": len(self.cpu)}
