"""Micro-benchmarks of the arithmetic kernel and the invariant layer.

Times the hot paths over Q(zeta_12): batched coefficient products, inverses
of non-rational values, and sparse row reduction of a random matrix.  It
also times the cyclic-action layer on ``paper.cdga``: the invariant complex
(the orbit-sum projector) plus the fixed-part cross-check, without the
cohomology table of the invariant complex between them.  The end-to-end
harness is ``perfbench/run.py``.

    python benchmarks/bench_kernels.py [--muls N] [--size N] [--repeat N]
"""

import argparse
import random
import time
from pathlib import Path

from cdgalab import dsl
from cdgalab._backend import kernel
from cdgalab.action import check_fixed_part, invariant_complex
from cdgalab.algebra import DGA
from cdgalab.field import make_field
from cdgalab.homology import cohomology
from cdgalab.linalg import _inv_cv

DENSITY = 0.3
INVERSES = 20_000
INVARIANT_REPEAT = 20
PAPER = Path(__file__).resolve().parent.parent / "paper.cdga"


def rand_cv(rng, phi):
    # small entries: exact elimination on random matrices blows up
    # coefficient sizes quickly, which measures bignum cost, not dispatch
    return kernel.cv_normalize(
        [rng.randint(-2, 2) for _ in range(phi)], rng.randint(1, 3))


def bench_cv_mul(pairs, mul):
    t0 = time.perf_counter()
    for a, b in pairs:
        kernel.cv_mul(a, b, mul)
    return time.perf_counter() - t0


def bench_inverse(values, inv):
    t0 = time.perf_counter()
    for a in values:
        inv(a)
    return time.perf_counter() - t0


def bench_rref(rows, ncols, phi, mul, inv):
    work = [dict(r) for r in rows]
    t0 = time.perf_counter()
    rank, _ = kernel.rref(work, ncols, ncols, phi, mul, inv)
    return time.perf_counter() - t0, rank


def bench_invariant(dga, action, full):
    t0 = time.perf_counter()
    cx = invariant_complex(dga, action)
    t1 = time.perf_counter()
    table = cohomology(cx)
    t2 = time.perf_counter()
    check_fixed_part(table, full, action)
    return (t1 - t0) + (time.perf_counter() - t2)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--muls", type=int, default=200_000)
    ap.add_argument("--size", type=int, default=32)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    field = make_field(12)
    phi, mul = field.phi, field.mul
    rng = random.Random(2024)
    inv = _inv_cv(field)

    pairs = [(rand_cv(rng, phi), rand_cv(rng, phi)) for _ in range(args.muls)]
    best = min(bench_cv_mul(pairs, mul) for _ in range(args.repeat))
    print(f"cv_mul x {args.muls} over Q(zeta_12): {best:8.3f} s")

    values = []
    while len(values) < INVERSES:
        cv = rand_cv(rng, phi)
        if any(cv[1:-1]):  # not rational
            values.append(cv)
    best = min(bench_inverse(values, inv) for _ in range(args.repeat))
    print(f"inverse x {INVERSES} of non-rational values over Q(zeta_12): {best:8.3f} s")

    n = args.size
    ncols = n + 6
    rows = []
    for _ in range(n):
        row = {}
        for j in range(ncols):
            if rng.random() < DENSITY:
                cv = rand_cv(rng, phi)
                if not kernel.cv_is_zero(cv):
                    row[j] = cv
        rows.append(row)
    runs = [bench_rref(rows, ncols, phi, mul, inv) for _ in range(args.repeat)]
    best = min(dt for dt, _ in runs)
    print(f"rref of a {n}x{ncols} matrix at density {DENSITY} over Q(zeta_12): "
          f"{best:8.3f} s (rank {runs[0][1]})")

    session = dsl.parse(PAPER.read_text())
    ctx = session.algebras["M"]
    action = session.maps["rho"].action
    dga = DGA(ctx.algebra, ctx.require_differential())
    full = cohomology(dga)
    best = min(bench_invariant(dga, action, full) for _ in range(INVARIANT_REPEAT))
    print(f"invariant complex + fixed-part cross-check of {PAPER.name}, "
          f"best of {INVARIANT_REPEAT}: {best * 1e3:8.2f} ms")


if __name__ == "__main__":
    main()
