import random

import pytest

from cdgalab import Matrix, Subspace, make_field, quotient_basis, rref
from cdgalab.algebra import apply_d
from cdgalab.linalg import Eliminator, densify

from conftest import random_field_element


def d_matrix(model, k):
    """Matrix of d: degree k -> k+1, one row per basis word (x * A = b)."""
    alg = model.algebra
    rows = [apply_d(model.differential, alg.word_element(w)).to_coords(k + 1)
            for w in alg.basis(k)]
    return Matrix.from_rows(alg.field, rows)


def dense_rows(f, rows, n):
    """Sparse rows as dense lists of n field elements."""
    return [densify(f, r, n) for r in rows]


def transpose(m):
    cols = [{} for _ in range(m.ncols)]
    for i, row in enumerate(m.sparse_rows):
        for j, cv in row.items():
            cols[j][i] = cv
    return Matrix.sparse(m.field, m.nrows, cols)


def times(f, x, m):
    """The product x * A for a dense row x."""
    return [sum((x[i] * m.entry(i, j) for i in range(m.nrows)), f.zero)
            for j in range(m.ncols)]


def test_rref_identity_and_zero():
    f = make_field(12)
    assert rref(Matrix.identity(f, 3)).rank == 3
    assert rref(Matrix.zero(f, 3, 4)).rank == 0


def test_rref_rank_of_degree_one_differential(model):
    m = d_matrix(model, 1)
    assert m.nrows == 8
    assert rref(m).rank == 2  # image spanned by mu*nu and mubar*nubar


def test_solve_examples(model):
    f = model.field
    el = Eliminator(d_matrix(model, 1))
    b = (model.gens["mu"] * model.gens["nu"]).to_coords(2)
    x = el.solve_left(b)
    theta_coords = model.gens["theta"].to_coords(1)
    assert x == theta_coords
    assert el.solve_left((model.gens["mu"] * model.gens["eta"]).to_coords(2)) is None
    zero = el.solve_left([f.zero] * 28)
    assert zero == [f.zero] * 8


def test_membership_and_quotient_examples(model):
    f = model.field
    e1 = [f.one, f.zero]
    s = Subspace.from_vectors(f, 2, [e1])
    assert s.contains(e1)
    assert not s.contains([f.one, f.one])

    # ker(d|L2) (dim 19) / im(d|L1) (dim 2) -> dim 17
    alg = model.algebra
    rows2 = [apply_d(model.differential, alg.word_element(w)).to_coords(3)
             for w in alg.basis(2)]
    cocycles = Subspace.from_vectors(f, 28, Eliminator(Matrix.from_rows(f, rows2)).kernel_rows())
    rows1 = [apply_d(model.differential, alg.word_element(w)).to_coords(2)
             for w in alg.basis(1)]
    cob = Eliminator(Matrix.from_rows(f, rows1)).image
    assert cocycles.dim == 19 and cob.dim == 2
    assert quotient_basis(cocycles, cob).dim == 17

    assert quotient_basis(cocycles, cocycles).dim == 0


def test_quotient_fails_loudly_when_not_contained():
    f = make_field(12)
    big = Subspace.from_vectors(f, 3, [[f.one, f.zero, f.zero]])
    small = Subspace.from_vectors(f, 3, [[f.zero, f.one, f.zero]])
    with pytest.raises(ValueError, match="not contained"):
        quotient_basis(big, small)


def _random_matrix(f, rng, nrows, ncols, density=0.6):
    entries = [random_field_element(f, rng) if rng.random() < density else f.zero
               for _ in range(nrows * ncols)]
    return Matrix(f, nrows, ncols, entries)


def test_rank_transpose_and_rank_nullity_randomized():
    f = make_field(12)
    rng = random.Random(21)
    for _ in range(60):
        m = _random_matrix(f, rng, rng.randint(1, 6), rng.randint(1, 6))
        r = rref(m)
        assert r.rank == rref(transpose(m)).rank
        assert m.nrows == r.rank + len(Eliminator(m).kernel_rows())
        assert m.ncols == r.rank + len(Eliminator(transpose(m)).kernel_rows())


def test_rref_is_idempotent_and_deterministic():
    f = make_field(12)
    rng = random.Random(22)
    for _ in range(40):
        m = _random_matrix(f, rng, rng.randint(1, 5), rng.randint(1, 5))
        r1 = rref(m)
        assert rref(r1.reduced).reduced == r1.reduced
        r2 = rref(m)
        assert r1.reduced == r2.reduced and r1.pivots == r2.pivots


def test_solve_residual_exactness_randomized():
    f = make_field(12)
    rng = random.Random(23)
    consistent = 0
    for _ in range(80):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(f, rng, nr, nc)
        if rng.random() < 0.5:
            b = times(f, [random_field_element(f, rng) for _ in range(nr)], m)
        else:
            b = [random_field_element(f, rng) for _ in range(nc)]
        x = Eliminator(m).solve_left(b)
        if x is not None:
            consistent += 1
            assert times(f, x, m) == b
    assert consistent > 10


def test_kernel_vectors_annihilate():
    f = make_field(12)
    rng = random.Random(24)
    for _ in range(40):
        m = _random_matrix(f, rng, rng.randint(1, 6), rng.randint(1, 6))
        for e in Eliminator(m).kernel_rows():
            assert all(p.is_zero() for p in times(f, densify(f, e, m.nrows), m))


# --- the sparse elimination against a dense reference -----------------------

def dense_gauss_jordan(rows, limit):
    """Reference Gauss-Jordan on dense lists of field elements with the
    engine's pivot rule: columns in order, the first row at or below the
    current pivot row with a nonzero entry, swapped up.  Returns
    (rank, pivots, rows)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    pivots = []
    piv = 0
    for col in range(limit):
        if piv == nrows:
            break
        r = next((i for i in range(piv, nrows) if not rows[i][col].is_zero()), None)
        if r is None:
            continue
        rows[piv], rows[r] = rows[r], rows[piv]
        inv = rows[piv][col].inverse()
        rows[piv] = [e * inv for e in rows[piv]]
        for i in range(nrows):
            c = rows[i][col]
            if i != piv and not c.is_zero():
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[piv])]
        pivots.append(col)
        piv += 1
    return piv, pivots, rows


def dense_eliminator(f, m):
    """(rank, pivots, R rows, E rows) of the reference elimination of [A | I]."""
    aug = [row + [f.one if j == i else f.zero for j in range(m.nrows)]
           for i, row in enumerate(dense_rows(f, m.sparse_rows, m.ncols))]
    rank, pivots, rows = dense_gauss_jordan(aug, m.ncols)
    return (rank, pivots, [r[:m.ncols] for r in rows[:rank]],
            [r[m.ncols:] for r in rows])


def dense_solve_left(f, ref, b):
    """Reference x with x * A = b from the reduced [A | I], or None."""
    rank, pivots, r_rows, e_rows = ref
    rem = list(b)
    x = [f.zero] * len(e_rows)
    for i, col in enumerate(pivots):
        c = rem[col]
        if c.is_zero():
            continue
        rem = [a - c * p for a, p in zip(rem, r_rows[i])]
        x = [a + c * e for a, e in zip(x, e_rows[i])]
    return None if any(not e.is_zero() for e in rem) else x


def first_nonzero_scan(rows):
    return [next(j for j, e in enumerate(r) if not e.is_zero()) for r in rows]


def _rational_matrix(f, rng, nrows, ncols, density=0.4):
    entries = [f.rational(rng.randint(-3, 3)) if rng.random() < density else f.zero
               for _ in range(nrows * ncols)]
    return Matrix(f, nrows, ncols, entries)


def _rank_deficient_matrix(f, rng, nrows, ncols):
    """Product of random nrows x r and r x ncols matrices, r < min(nrows, ncols)."""
    r = rng.randint(0, max(0, min(nrows, ncols) - 1))
    left = _random_matrix(f, rng, nrows, r, density=0.7)
    right = _random_matrix(f, rng, r, ncols, density=0.7)
    return Matrix.from_rows(f, [[sum((left.entry(i, k) * right.entry(k, j)
                                      for k in range(r)), f.zero)
                                 for j in range(ncols)] for i in range(nrows)])


def _matrix_cases():
    f = make_field(12)
    rng = random.Random(25)
    cases = [Matrix.zero(f, 0, 4), Matrix.zero(f, 3, 0), Matrix.zero(f, 0, 0),
             Matrix.from_rows(f, [[random_field_element(f, rng)]]),
             Matrix.from_rows(f, [[f.zero]])]
    for _ in range(25):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        cases.append(_rational_matrix(f, rng, nr, nc))
        cases.append(_random_matrix(f, rng, nr, nc, density=0.5))
        cases.append(_rank_deficient_matrix(f, rng, nr, nc))
    return f, rng, cases


def test_sparse_rref_matches_dense_reference():
    f, _, cases = _matrix_cases()
    deficient = 0
    for m in cases:
        rank, pivots, rows = dense_gauss_jordan(dense_rows(f, m.sparse_rows, m.ncols),
                                                m.ncols)
        deficient += rank < min(m.nrows, m.ncols)
        r = rref(m)
        assert (r.rank, r.pivots) == (rank, pivots)
        assert dense_rows(f, r.reduced.sparse_rows, m.ncols) == rows
        assert list(r.reduced.entries) == [e for row in rows for e in row]
    assert deficient >= 25


def test_eliminator_matches_dense_reference():
    f, rng, cases = _matrix_cases()
    for m in cases:
        ref = dense_eliminator(f, m)
        rank, pivots, r_rows, e_rows = ref
        el = Eliminator(m)
        assert (el.rank, el.pivots) == (rank, pivots)
        assert dense_rows(f, el.image.rows, m.ncols) == r_rows
        assert dense_rows(f, el.kernel_rows(), m.nrows) == e_rows[rank:]
        targets = [[random_field_element(f, rng) for _ in range(m.ncols)],
                   [f.zero] * m.ncols]
        x0 = [random_field_element(f, rng) for _ in range(m.nrows)]
        targets.append([sum((x0[i] * m.entry(i, j) for i in range(m.nrows)), f.zero)
                        for j in range(m.ncols)])
        for b in targets:
            want = dense_solve_left(f, ref, b)
            assert el.solve_left(b) == want
            sparse_b = {j: e.cv for j, e in enumerate(b) if not e.is_zero()}
            got = el.solve_left(sparse_b)
            if want is None:
                assert got is None
            else:
                assert got == {i: e.cv for i, e in enumerate(want) if not e.is_zero()}
        assert el.solve_left(targets[-1]) is not None


def test_subspace_matches_dense_reference_and_caches_pivots():
    f, rng, cases = _matrix_cases()
    for m in cases:
        dense = dense_rows(f, m.sparse_rows, m.ncols)
        rank, pivots, rows = dense_gauss_jordan(dense, m.ncols)
        s = Subspace.from_vectors(f, m.ncols, dense)
        s_rows = dense_rows(f, s.rows, m.ncols)
        assert s.dim == rank
        assert s_rows == rows[:rank]
        assert s.pivots == pivots == first_nonzero_scan(s_rows)
        v = [random_field_element(f, rng) for _ in range(m.ncols)]
        coeffs, rem = s.reduce(v)
        want = list(v)
        for i, col in enumerate(pivots):
            assert coeffs[i] == want[col]
            want = [a - coeffs[i] * p for a, p in zip(want, rows[i])]
        assert rem == want
    full = Subspace.full(f, 5)
    assert full.pivots == first_nonzero_scan(dense_rows(f, full.rows, 5)) == list(range(5))


def test_sparse_vectors_with_bad_entries_are_rejected():
    f = make_field(12)
    one, zero = f.one.cv, f.zero.cv
    s = Subspace.from_vectors(f, 3, [[f.one, f.zero, f.zero]])
    el = Eliminator(Matrix.identity(f, 3))
    full = Subspace.full(f, 3)
    for bad in ({3: one}, {-1: one}, {"0": one}, {1: zero}):
        for call in (s.reduce, s.contains, full.contains, el.solve_left):
            with pytest.raises(ValueError):
                call(bad)
    # the same vectors, well formed, are accepted
    assert s.contains({0: one}) and not s.contains({1: one})
    assert el.solve_left({2: one}) == {2: one}
