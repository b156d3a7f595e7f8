"""Micro-benchmarks of start-up, the arithmetic kernel and the invariant layer.

Times start-up: ``import cdgalab`` followed by ``dsl.parse`` of
``paper.cdga``, the median over ``--repeat`` fresh interpreters that run
with the caller's environment (so ``PYTHONDONTWRITEBYTECODE`` and
``PYTHONPATH`` apply as they do to the caller).  Times the hot paths over
Q(zeta_12): batched coefficient products, the fused multiply-add
``t + a*b`` of the field against ``cv_add`` after ``cv_mul`` on the same
values, inverses of non-rational values, and sparse row reduction of a
random matrix.  It
times d-matrix assembly: every degree of a fresh full complex of the ladder
session (``perfbench/sessions/ladder.cdga``, 10 generators, 1024 words), on
a fresh differential, so the per-word Leibniz rows are computed too.  It
also times the two sides of the cyclic-action layer on ``paper.cdga``
apart: the invariant subspaces (the left kernels of F_k - I) and the fixed
part of the induced action on the full table (b_k - rank(A_k - I)).  It
times one Lefschetz query: k = 1 on ``omega`` against the full table of
``paper.cdga``, built once.  It times ``merge_words`` on every ordered pair of basis words of
the paper's algebra, and ``Matrix.rank`` on the 30 x 30 matrix of the first
k = 1 query of the seed-1 scan session (``perfbench/workloads.py``).  On the
full table of ``paper.cdga`` it times ``wedge`` on every ordered pair of
degree-2 representatives, and ``class_coords`` on the products r * omega of the
degree-3 representatives r, the rows of a k = 1 Lefschetz query.  The
end-to-end harness is ``perfbench/run.py``.

    python benchmarks/bench_kernels.py [--muls N] [--size N] [--repeat N]
"""

import argparse
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cdgalab import dsl
from cdgalab._backend import kernel
from cdgalab.action import induced_action_fixed_dims, invariant_subspaces
from cdgalab.algebra import Differential, wedge
from cdgalab.field import FieldElement, make_field
from cdgalab.homology import CochainComplex, CohomologyTable
from cdgalab.linalg import _inv_cv
from cdgalab.symplectic import lefschetz

DENSITY = 0.3
INVERSES = 20_000
INVARIANT_REPEAT = 20
LEFSCHETZ_QUERIES = 100
RANK_REPEAT = 20
ROOT = Path(__file__).resolve().parent.parent
PAPER = ROOT / "paper.cdga"
LADDER = ROOT / "perfbench" / "sessions" / "ladder.cdga"
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (the scan session generator)


# Run in a fresh interpreter: the wall time of the import and the parse.
STARTUP = """\
import sys, time
with open(sys.argv[1], encoding="utf-8") as f:
    text = f.read()
t0 = time.perf_counter()
import cdgalab
from cdgalab import dsl
dsl.parse(text)
print(time.perf_counter() - t0)
"""


def bench_startup(repeat):
    times = []
    for _ in range(repeat):
        r = subprocess.run([sys.executable, "-c", STARTUP, str(PAPER)],
                           capture_output=True, text=True, check=True)
        times.append(float(r.stdout))
    return statistics.median(times)


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


def bench_addmul(triples, addmul):
    t0 = time.perf_counter()
    for t, a, b in triples:
        addmul(t, a, b)
    return time.perf_counter() - t0


def bench_add_after_mul(triples, mul):
    t0 = time.perf_counter()
    for t, a, b in triples:
        kernel.cv_add(t, kernel.cv_mul(a, b, mul))
    return time.perf_counter() - t0


def bench_inverse(values, field):
    t0 = time.perf_counter()
    for a in values:
        FieldElement(field, a).inverse()
    return time.perf_counter() - t0


def bench_rref(rows, ncols, field):
    work = [dict(r) for r in rows]
    inv = _inv_cv(field)  # a fresh memo per run
    t0 = time.perf_counter()
    rank, _ = kernel.rref(work, ncols, ncols, field, inv)
    return time.perf_counter() - t0, rank


def bench_d_matrices(differential):
    fresh = Differential(differential.algebra, differential.assignments)
    t0 = time.perf_counter()
    cx = CochainComplex(fresh)
    for k in range(cx.top + 1):
        cx.d_matrix(k)
    return time.perf_counter() - t0


def bench_invariant_subspaces(action):
    t0 = time.perf_counter()
    invariant_subspaces(action)
    return time.perf_counter() - t0


def bench_fixed_dims(action, full):
    t0 = time.perf_counter()
    induced_action_fixed_dims(full, action)
    return time.perf_counter() - t0


def bench_lefschetz(omega_class, queries):
    t0 = time.perf_counter()
    for _ in range(queries):
        lefschetz(omega_class, 1)
    return time.perf_counter() - t0


def bench_merge_words(alg, words):
    merge = alg.merge_words
    t0 = time.perf_counter()
    for w1 in words:
        for w2 in words:
            merge(w1, w2)
    return time.perf_counter() - t0


def bench_rank(m):
    t0 = time.perf_counter()
    m.rank()
    return time.perf_counter() - t0


def bench_wedge(pairs):
    t0 = time.perf_counter()
    for x, y in pairs:
        wedge(x, y)
    return time.perf_counter() - t0


def bench_class_coords(table, xs, k):
    t0 = time.perf_counter()
    for x in xs:
        table.class_coords(x, k)
    return time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--muls", type=int, default=200_000)
    ap.add_argument("--size", type=int, default=32)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    median = bench_startup(args.repeat)
    print(f"import cdgalab and dsl.parse of {PAPER.name}, median of {args.repeat} "
          f"fresh interpreters: {median * 1e3:8.2f} ms")

    field = make_field(12)
    phi, mul = field.phi, field.mul
    rng = random.Random(2024)

    pairs = [(rand_cv(rng, phi), rand_cv(rng, phi)) for _ in range(args.muls)]
    best = min(bench_cv_mul(pairs, mul) for _ in range(args.repeat))
    print(f"cv_mul x {args.muls} over Q(zeta_12): {best:8.3f} s")
    # t runs over the same values: t_i is the left factor of pair i - 1
    triples = [(t, a, b) for (t, _), (a, b) in zip(pairs[-1:] + pairs, pairs)]
    for name, bench, op in (("addmul", bench_addmul, field.addmul),
                            ("cv_add(t, cv_mul(a, b))", bench_add_after_mul, mul)):
        best = min(bench(triples, op) for _ in range(args.repeat))
        print(f"{name} over Q(zeta_12), the same {len(triples)} values: "
              f"{best / len(triples) * 1e6:8.3f} us per call")

    values = []
    while len(values) < INVERSES:
        cv = rand_cv(rng, phi)
        if any(cv[1:-1]):  # not rational
            values.append(cv)
    best = min(bench_inverse(values, field) for _ in range(args.repeat))
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
    runs = [bench_rref(rows, ncols, field) for _ in range(args.repeat)]
    best = min(dt for dt, _ in runs)
    print(f"rref of a {n}x{ncols} matrix at density {DENSITY} over Q(zeta_12): "
          f"{best:8.3f} s (rank {runs[0][1]})")

    ladder = dsl.parse(LADDER.read_text()).algebras["M"].differential
    best = min(bench_d_matrices(ladder) for _ in range(args.repeat))
    print(f"d-matrices of every degree, full complex of {LADDER.name} "
          f"({ladder.algebra.total_dim()} words): {best * 1e3:8.2f} ms")

    session = dsl.parse(PAPER.read_text())
    action = session.maps["rho"].action
    full = CohomologyTable(CochainComplex(action.differential))
    best = min(bench_invariant_subspaces(action) for _ in range(INVARIANT_REPEAT))
    print(f"invariant_subspaces of {PAPER.name}, "
          f"best of {INVARIANT_REPEAT}: {best * 1e3:8.2f} ms")
    best = min(bench_fixed_dims(action, full) for _ in range(INVARIANT_REPEAT))
    print(f"induced_action_fixed_dims on the full table of {PAPER.name}, "
          f"best of {INVARIANT_REPEAT}: {best * 1e3:8.2f} ms")

    omega_class = full.class_of(session.lets["omega"], 2)
    best = min(bench_lefschetz(omega_class, LEFSCHETZ_QUERIES)
               for _ in range(args.repeat))
    print(f"lefschetz k=1 on omega, full table of {PAPER.name}, "
          f"{LEFSCHETZ_QUERIES} queries: {best / LEFSCHETZ_QUERIES * 1e3:8.3f} ms per query")

    reps = full.representatives(2)
    pairs = [(x, y) for x in reps for y in reps]
    best = min(bench_wedge(pairs) for _ in range(args.repeat))
    print(f"wedge on all {len(pairs)} pairs of degree-2 representatives of {PAPER.name}: "
          f"{best / len(pairs) * 1e6:8.3f} us per product")
    omega = omega_class.representative()
    products = [wedge(r, omega) for r in full.representatives(3)]
    best = min(bench_class_coords(full, products, 5) for _ in range(args.repeat))
    print(f"class_coords of r * omega for the {len(products)} degree-3 representatives r "
          f"of {PAPER.name}: {best / len(products) * 1e6:8.3f} us per solve")

    alg = full.complex.algebra
    words = [w for k in range(alg.top + 1) for w in alg.basis(k)]
    best = min(bench_merge_words(alg, words) for _ in range(args.repeat))
    print(f"merge_words on all {len(words) ** 2} pairs of basis words of {PAPER.name}: "
          f"{best / len(words) ** 2 * 1e6:8.3f} us per merge")

    scan = dsl.parse(workloads.scan_session(1))
    scan_table = CohomologyTable(CochainComplex(scan.algebras["M"].differential))
    m = lefschetz(scan_table.class_of(scan.lets["w0"], 2), 1).matrix
    best = min(bench_rank(m) for _ in range(RANK_REPEAT))
    print(f"Matrix.rank of the {m.nrows}x{m.ncols} k=1 Lefschetz matrix of w0, "
          f"scan seed 1, best of {RANK_REPEAT}: {best * 1e3:8.3f} ms")


if __name__ == "__main__":
    main()
