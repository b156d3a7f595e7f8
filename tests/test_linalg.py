import random
import types

import pytest

from cdgalab import Matrix, Subspace, make_field, quotient_basis
from cdgalab.algebra import apply_d
from cdgalab._backend import kernel
from cdgalab.field import FieldElement
from cdgalab.linalg import Eliminator, _inv_cv

from conftest import counting_row_work, densify, random_field_element, sparse_row, times


def d_matrix(model, k):
    """Matrix of d: degree k -> k+1, one row per basis word (x * A = b)."""
    alg = model.algebra
    rows = [apply_d(model.differential, alg.word_element(w)).to_row(k + 1)
            for w in alg.basis(k)]
    return Matrix(alg.field, alg.dim(k + 1), rows)


def dense_rows(f, rows, n):
    """Sparse rows as dense lists of n field elements."""
    return [densify(f, r, n) for r in rows]


def transpose(m):
    cols = [{} for _ in range(m.ncols)]
    for i, row in enumerate(m.sparse_rows):
        for j, cv in row.items():
            cols[j][i] = cv
    return Matrix(m.field, m.nrows, cols)


def test_rref_identity_and_zero():
    f = make_field(12)
    identity = Eliminator(Matrix.identity(f, 3))
    assert identity.rank == 3 and identity.pivots == [0, 1, 2]
    zero = Eliminator(Matrix(f, 4, [{} for _ in range(3)]))
    assert zero.rank == 0 and zero.pivots == [] and zero.image.dim == 0
    assert len(zero.kernel_rows()) == 3


def test_rref_rank_of_degree_one_differential(model):
    m = d_matrix(model, 1)
    assert m.nrows == 8
    assert Eliminator(m).rank == 2  # image spanned by mu*nu and mubar*nubar
    assert Subspace.from_vectors(m.field, m.ncols, m.sparse_rows).dim == 2


def test_solve_examples(model):
    el = Eliminator(d_matrix(model, 1))
    b = (model.gens["mu"] * model.gens["nu"]).to_row(2)
    x = el.solve_left(b)
    assert x == model.gens["theta"].to_row(1)
    assert el.solve_left((model.gens["mu"] * model.gens["eta"]).to_row(2)) is None
    assert el.solve_left({}) == {}


def test_membership_and_quotient_examples(model):
    f = model.field
    one = f.one.cv
    e1 = {0: one}
    s = Subspace.from_vectors(f, 2, [e1])
    assert s.contains(e1)
    assert not s.contains({0: one, 1: one})

    # ker(d|L2) (dim 19) / im(d|L1) (dim 2) -> dim 17
    cocycles = Subspace.from_vectors(f, 28, Eliminator(d_matrix(model, 2)).kernel_rows())
    cob = Eliminator(d_matrix(model, 1)).image
    assert cocycles.dim == 19 and cob.dim == 2
    assert quotient_basis(cocycles.rows, cob).dim == 17

    assert quotient_basis(cocycles.rows, cocycles).dim == 0


def test_quotient_fails_loudly_when_not_contained():
    f = make_field(12)
    big = Subspace.from_vectors(f, 3, [{0: f.one.cv}])
    small = Subspace.from_vectors(f, 3, [{1: f.one.cv}])
    with pytest.raises(ValueError, match="not contained"):
        quotient_basis(big.rows, small)


def _random_matrix(f, rng, nrows, ncols, density=0.6):
    return Matrix(f, ncols, [sparse_row([random_field_element(f, rng)
                                         if rng.random() < density else f.zero
                                         for _ in range(ncols)])
                             for _ in range(nrows)])


def _rank(m):
    """The rank of m from the echelon form of its rows alone."""
    return Subspace.from_vectors(m.field, m.ncols, m.sparse_rows).dim


def test_rank_transpose_and_rank_nullity_randomized():
    f = make_field(12)
    rng = random.Random(21)
    for _ in range(60):
        m = _random_matrix(f, rng, rng.randint(1, 6), rng.randint(1, 6))
        rank = _rank(m)
        assert rank == _rank(transpose(m)) == Eliminator(m).rank
        assert m.nrows == rank + len(Eliminator(m).kernel_rows())
        assert m.ncols == rank + len(Eliminator(transpose(m)).kernel_rows())


def test_forward_elimination_rank_matches_the_eliminator():
    """``Matrix.rank`` eliminates forward only, without back-substitution;
    on random sparse matrices over Q(zeta_12) of every shape, and with zero
    and repeated rows, it must find the rank of the [A | I] elimination and
    leave the matrix's rows as they were."""
    f = make_field(12)
    rng = random.Random(47)
    cases = [Matrix(f, 5, []), Matrix(f, 3, [{}, {}])]
    for _ in range(20):
        short, long = rng.randint(1, 4), rng.randint(5, 9)
        density = rng.choice((0.15, 0.3, 0.6))
        cases.append(_random_matrix(f, rng, long, short, density))  # tall
        cases.append(_random_matrix(f, rng, short, long, density))  # wide
        rows = _random_matrix(f, rng, short + 2, long, density).sparse_rows
        cases.append(Matrix(f, long, rows[:1] + [{}] + rows[1:] + [{}]))  # zero rows
        cases.append(Matrix(f, long, rows + [dict(rows[0]), dict(rows[-1])]))  # repeats
        cases.append(_rank_deficient_matrix(f, rng, long, short + 3))
    deficient = 0
    for m in cases:
        before = [dict(row) for row in m.sparse_rows]
        rank = m.rank()
        assert rank == Eliminator(m).rank
        assert m.sparse_rows == before
        deficient += rank < min(m.nrows, m.ncols)
    assert 20 <= deficient < len(cases)


def test_rref_is_idempotent_and_deterministic():
    f = make_field(12)
    rng = random.Random(22)
    for _ in range(40):
        m = _random_matrix(f, rng, rng.randint(1, 5), rng.randint(1, 5))
        s1 = Subspace.from_vectors(f, m.ncols, m.sparse_rows)
        again = Subspace.from_vectors(f, m.ncols, s1.rows)
        assert (again.rows, again.pivots) == (s1.rows, s1.pivots)
        s2 = Subspace.from_vectors(f, m.ncols, m.sparse_rows)
        assert (s2.rows, s2.pivots) == (s1.rows, s1.pivots)
        image = Eliminator(m).image
        assert (image.rows, image.pivots) == (s1.rows, s1.pivots)


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
        x = Eliminator(m).solve_left(sparse_row(b))
        if x is not None:
            consistent += 1
            assert times(f, densify(f, x, nr), m) == b
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
    pivot rule of ``kernel.rref``: columns in order, the first row at or
    below the current pivot row with a nonzero entry, swapped up.  Returns
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
    return Matrix(f, ncols, [sparse_row([f.rational(rng.randint(-3, 3))
                                         if rng.random() < density else f.zero
                                         for _ in range(ncols)])
                             for _ in range(nrows)])


def _rank_deficient_matrix(f, rng, nrows, ncols):
    """Product of random nrows x r and r x ncols matrices, r < min(nrows, ncols)."""
    r = rng.randint(0, max(0, min(nrows, ncols) - 1))
    left = _random_matrix(f, rng, nrows, r, density=0.7)
    right = _random_matrix(f, rng, r, ncols, density=0.7)
    return Matrix(f, ncols, [sparse_row(times(f, x, right))
                             for x in dense_rows(f, left.sparse_rows, r)])


def _matrix_cases():
    f = make_field(12)
    rng = random.Random(25)
    cases = [Matrix(f, 4, []), Matrix(f, 0, [{}, {}, {}]), Matrix(f, 0, []),
             Matrix(f, 1, [sparse_row([random_field_element(f, rng)])]),
             Matrix(f, 1, [{}])]
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
        s = Subspace.from_vectors(f, m.ncols, m.sparse_rows)
        assert (s.dim, s.pivots) == (rank, pivots)
        assert dense_rows(f, s.rows, m.ncols) == rows[:rank]
        assert all(e.is_zero() for row in rows[rank:] for e in row)
        reduced = Matrix(f, m.ncols, s.rows)
        assert list(reduced.entries) == [e for row in rows[:rank] for e in row]
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
        targets.append(times(f, x0, m))
        for b in targets:
            want = dense_solve_left(f, ref, b)
            got = el.solve_left(sparse_row(b))
            if want is None:
                assert got is None
            else:
                assert got == sparse_row(want)
                assert densify(f, got, m.nrows) == want
        assert el.solve_left(sparse_row(targets[-1])) is not None


def _nonrational(f, rng):
    """A seeded nonzero field value that is not rational."""
    while True:
        c = random_field_element(f, rng)
        if any(c.cv[1:-1]):
            return c


def _one_entry_matrix(f, rng, nrows, ncols):
    """Seeded rows over Q(zeta_12), most with one non-rational entry in a
    few columns, so that one-entry rows share columns with each other and
    with the longer rows among them."""
    rows = []
    for _ in range(nrows):
        if rng.random() < 0.6:
            rows.append({rng.randrange(ncols): _nonrational(f, rng).cv})
        else:
            rows.append({j: _nonrational(f, rng).cv for j in range(ncols)
                         if rng.random() < 0.4})
    return Matrix(f, ncols, rows)


def test_rank_with_one_entry_pivot_rows_matches_dense_reference():
    """``Matrix.rank`` clears the column of a one-entry pivot row by
    deleting entries; on seeded matrices full of one-entry rows that share
    columns it must find the dense reference's rank and leave the matrix's
    rows as they were, and the kernel's elimination must clear every row
    that is not a pivot row to zero."""
    f = make_field(12)
    rng = random.Random(34)
    shared = deficient = 0
    for _ in range(80):
        m = _one_entry_matrix(f, rng, rng.randint(2, 12), rng.randint(1, 6))
        before = [dict(row) for row in m.sparse_rows]
        rank, _, _ = dense_gauss_jordan(dense_rows(f, m.sparse_rows, m.ncols), m.ncols)
        assert m.rank() == rank
        assert m.sparse_rows == before
        rows = [dict(row) for row in m.sparse_rows]
        assert kernel.rank(rows, m.ncols, f, _inv_cv(f)) == rank
        assert sum(map(bool, rows)) == rank
        singles = [next(iter(row)) for row in m.sparse_rows if len(row) == 1]
        shared += len(singles) > len(set(singles))
        deficient += rank < min(m.nrows, m.ncols)
    assert shared >= 40 and deficient >= 10


def test_one_entry_pivot_rows_take_no_inverse(monkeypatch):
    """When every pivot row has one entry by the time its column is reached,
    the rank takes no inverse: here one-entry rows come first, and each
    longer row has its last entry in a column of its own, past the columns
    of one-entry rows that clear its others.  Two rows of two entries each
    in the same columns take one: every pivot rule pivots on a two-entry
    row there."""
    f = make_field(12)
    rng = random.Random(35)
    cases = []
    for _ in range(30):
        cols = sorted(rng.sample(range(8), rng.randint(1, 4)))
        rows = [{c: _nonrational(f, rng).cv} for c in cols for _ in range(rng.randint(1, 3))]
        rng.shuffle(rows)
        for extra in range(8, 8 + rng.randint(0, 3)):
            rows.append({**{c: _nonrational(f, rng).cv for c in cols if rng.random() < 0.6},
                         extra: _nonrational(f, rng).cv})
        m = Matrix(f, 11, rows)
        cases.append((m, dense_gauss_jordan(dense_rows(f, m.sparse_rows, 11), 11)[0]))
    two = Matrix(f, 2, [{0: _nonrational(f, rng).cv, 1: _nonrational(f, rng).cv},
                        {0: _nonrational(f, rng).cv, 1: _nonrational(f, rng).cv}])
    inverses = []
    monkeypatch.setattr(FieldElement, "inverse", lambda self: inverses.append(self))
    for m, rank in cases:
        assert m.rank() == rank
    assert inverses == []
    with pytest.raises(AttributeError):  # the recorded call returns no inverse
        two.rank()
    assert len(inverses) == 1


def _guarded_matrix(f, rng):
    """Seeded rows over Q(zeta_12) whose lowest held column, 0, is held
    first by a long row and later by shorter ones: two of one shortest
    length (a tie) and others longer, all shuffled among rows that do not
    hold column 0.  Sometimes a multiple of the first row or the sum of two
    rows that miss column 0 is appended, so that the rank falls short.
    Returns the matrix and the index of the first tied row."""
    ncols = rng.randint(4, 8)
    long_len = rng.randint(3, ncols)
    short_len = rng.randint(1, long_len - 1)

    def row(length, holds_0=True):
        cols = [0] * holds_0 + rng.sample(range(1, ncols), length - holds_0)
        return {j: _nonrational(f, rng).cv for j in cols}

    rest = ([("tie", row(short_len)) for _ in range(2)]
            + [("other", row(rng.randint(short_len + 1, ncols)))
               for _ in range(rng.randint(0, 2))]
            + [("other", row(rng.randint(1, ncols - 1), holds_0=False))
               for _ in range(rng.randint(1, 4))])
    rng.shuffle(rest)
    rows = [row(long_len)] + [r for _, r in rest]
    misses = [r for r in rows if 0 not in r]
    if rng.random() < 0.3:
        rows.append({j: kernel.cv_neg(v) for j, v in rows[0].items()})
    if len(misses) > 1 and rng.random() < 0.3:
        rows.append(kernel.combine({0: _nonrational(f, rng).cv, 1: _nonrational(f, rng).cv},
                                   misses.__getitem__, f) or misses[0])
    return Matrix(f, ncols, rows), 1 + [kind for kind, _ in rest].index("tie")


def test_the_guarded_rule_pivots_on_the_shortest_held_row():
    """``kernel.rank`` pivots a column on its lowest-numbered held row,
    unless that row has more than one entry and the column another holder:
    then on the shortest held row, the lowest-numbered among equals.  On
    seeded matrices whose column 0 is held first by a long row and later by
    two rows of one shortest length, the first of the two is the only row
    that keeps column 0 once ``kernel.rank`` is done (a pivot row is never
    touched again and every other holder is cleared there), and
    ``Matrix.rank`` finds the dense reference's rank under every row order
    tried.  The rows {0: a, 1: b} and {0: c} pivot on the one-entry row and
    take no inverse."""
    f = make_field(12)
    rng = random.Random(37)
    deficient = long_ties = 0
    for _ in range(60):
        m, tie = _guarded_matrix(f, rng)
        rank, _, _ = dense_gauss_jordan(dense_rows(f, m.sparse_rows, m.ncols), m.ncols)
        rows = [dict(row) for row in m.sparse_rows]
        assert kernel.rank(rows, m.ncols, f, _inv_cv(f)) == rank == m.rank()
        assert [0 in row for row in rows] == [i == tie for i in range(m.nrows)]
        for _ in range(3):
            shuffled = rng.sample(m.sparse_rows, m.nrows)
            assert Matrix(f, m.ncols, shuffled).rank() == rank
        deficient += rank < m.nrows
        long_ties += len(m.sparse_rows[tie]) > 1
    assert deficient >= 15 and long_ties >= 20
    a, b, c = (_nonrational(f, rng).cv for _ in range(3))
    rows = [{0: a, 1: b}, {0: c}]
    with counting_row_work() as counts:
        assert kernel.rank(rows, 2, f, _inv_cv(f)) == 2
    assert rows == [{1: b}, {0: c}]
    assert counts == {"row_axpy": 0, "entries": 0, "inverses": 0}


def test_rref_and_solve_left_keep_the_first_row_pivot():
    """``kernel.rref`` keeps the first-row rule, since the I parts it
    carries are read: ``Eliminator.solve_left`` and ``kernel_rows`` read
    them, and the printed obstruction primitives depend on them.  On rows
    where the guarded rule of ``kernel.rank`` pivots column 0 on the
    one-entry row 2 instead of row 0, the echelon rows with their I parts,
    the particular solution and the left kernel are pinned to the values of
    the first-row rule; the shortest-row rule would give x = e2 for
    x * A = e0 and the kernel row negated."""
    f = make_field(12)
    one, minus = f.rational(1).cv, f.rational(-1).cv
    a = Matrix(f, 2, [{0: one, 1: one}, {1: one}, {0: one}])
    rows = [dict(row) for row in a.sparse_rows]
    assert kernel.rank(rows, 2, f, _inv_cv(f)) == 2
    assert rows == [{1: one}, {}, {0: one}]
    aug = [{**row, 2 + i: one} for i, row in enumerate(a.sparse_rows)]
    assert kernel.rref(aug, 5, 2, f, _inv_cv(f)) == (2, [0, 1])
    assert aug == [{0: one, 2: one, 3: minus}, {1: one, 3: one},
                   {2: minus, 3: one, 4: one}]
    el = Eliminator(a)
    assert (el.rank, el.pivots) == (2, [0, 1])
    assert el.solve_left({0: one}) == {0: one, 1: minus}
    assert el.solve_left({0: f.rational(2).cv, 1: f.rational(3).cv}) == {
        0: f.rational(2).cv, 1: one}
    assert el.kernel_rows() == [{0: minus, 1: one, 2: one}]


def test_rank_skips_empty_rows_and_unheld_columns(monkeypatch):
    """Seeded matrices over Q(zeta_12) with empty rows interleaved and
    ``ncols`` padded past the last held column: ``Matrix.rank`` hands only
    the nonempty rows to the kernel, finds the dense reference's rank and
    leaves its rows as they were; the echelon form over the held columns
    keeps the reference's pivots.  An all-empty matrix and one with no
    columns have rank 0."""
    from cdgalab import linalg
    f = make_field(12)
    rng = random.Random(36)
    handed = []

    def recording_rank(rows, ncols, field, inv):
        handed.append([dict(row) for row in rows])
        return kernel.rank(rows, ncols, field, inv)

    monkeypatch.setattr(linalg, "kernel",
                        types.SimpleNamespace(**{**vars(kernel), "rank": recording_rank}))
    deficient = 0
    for t in range(60):
        held = rng.randint(1, 6)
        base = (_one_entry_matrix(f, rng, rng.randint(2, 10), held) if t % 2
                else _random_matrix(f, rng, rng.randint(1, 8), held, density=0.4))
        rows = list(base.sparse_rows)
        for _ in range(rng.randint(1, 5)):
            rows.insert(rng.randint(0, len(rows)), {})
        m = Matrix(f, held + rng.randint(1, 5), rows)
        before = [dict(row) for row in rows]
        rank, pivots, _ = dense_gauss_jordan(dense_rows(f, rows, m.ncols), m.ncols)
        handed.clear()
        assert m.rank() == rank
        assert m.sparse_rows == before and all(a is b for a, b in zip(m.sparse_rows, rows))
        assert handed == [[row for row in before if row]]
        assert Subspace.from_vectors(f, m.ncols, rows).pivots == pivots
        deficient += rank < min(m.nrows, m.ncols)
    assert deficient >= 30
    for m in (Matrix(f, 7, [{}, {}, {}]), Matrix(f, 0, [{}, {}]), Matrix(f, 0, [])):
        assert m.rank() == 0


def test_scatter_equals_the_per_row_combine_and_hands_out_fresh_rows():
    """``kernel.scatter`` over seeded non-rational columns ``{i: sparse
    row}`` gives, row by row and in the same dict order, the
    ``kernel.combine`` of the coefficients with entry i of each column.
    Column 6 is column 0 negated under the same coefficient, so their
    entries cancel and no zero may be stored; column 7 is one-entry rows
    under the coefficient one, and the last row gets nothing else, so that
    it is one column entry times one.  Every row is a fresh dict, and
    mutating the rows leaves the columns and a repeat call unchanged."""
    f = make_field(12)
    rng = random.Random(36)
    one = f.one.cv
    nrows, width = 9, 7

    def entry():
        return {j: _nonrational(f, rng).cv for j in range(width) if rng.random() < 0.4}

    columns = {u: {i: e for i in range(nrows - 1) if rng.random() < 0.5 and (e := entry())}
               for u in range(6)}
    columns[6] = {i: {j: kernel.cv_neg(v) for j, v in e.items()}
                  for i, e in columns[0].items()}
    columns[7] = {i: {rng.randrange(width): _nonrational(f, rng).cv} for i in range(nrows)}
    coeffs = {u: _nonrational(f, rng).cv for u in range(7)}
    coeffs[6], coeffs[7] = coeffs[0], one
    kept = {u: {i: dict(e) for i, e in column.items()} for u, column in columns.items()}

    def by_combine(coeffs):
        entries = [{u: column[i] for u, column in columns.items() if i in column}
                   for i in range(nrows)]
        return [kernel.combine(coeffs, entries[i].get, f) for i in range(nrows)]

    rows = kernel.scatter(coeffs, columns.__getitem__, nrows, f)
    expected = by_combine(coeffs)
    assert [list(row.items()) for row in rows] == [list(row.items()) for row in expected]
    rest = {u: c for u, c in coeffs.items() if u not in (0, 6)}
    assert rows == kernel.scatter(rest, columns.__getitem__, nrows, f)
    assert columns[0]
    assert kernel.scatter({0: coeffs[0], 6: coeffs[0]}, columns.__getitem__, nrows,
                          f) == [{}] * nrows
    assert rows[-1] == columns[7][nrows - 1]
    assert sum(map(bool, rows)) == nrows
    assert not any(kernel.cv_is_zero(v) for row in rows for v in row.values())
    assert len({id(row) for row in rows}) == nrows
    assert not any(row is e for row in rows for column in columns.values()
                   for e in column.values())
    for row in rows:
        row.clear()
        row[width] = one
    assert columns == kept
    assert kernel.scatter(coeffs, columns.__getitem__, nrows, f) == expected
    assert kernel.scatter({}, columns.__getitem__, nrows, f) == [{}] * nrows


def test_subspace_matches_dense_reference_and_caches_pivots():
    f, rng, cases = _matrix_cases()
    for m in cases:
        dense = dense_rows(f, m.sparse_rows, m.ncols)
        rank, pivots, rows = dense_gauss_jordan(dense, m.ncols)
        s = Subspace.from_vectors(f, m.ncols, m.sparse_rows)
        s_rows = dense_rows(f, s.rows, m.ncols)
        assert s.dim == rank
        assert s_rows == rows[:rank]
        assert s.pivots == pivots == first_nonzero_scan(s_rows)
        v = [random_field_element(f, rng) for _ in range(m.ncols)]
        coeffs, rem = s.reduce(sparse_row(v))
        coeffs = densify(f, coeffs, s.dim)
        want = list(v)
        for i, col in enumerate(pivots):
            assert coeffs[i] == want[col]
            want = [a - coeffs[i] * p for a, p in zip(want, rows[i])]
        assert densify(f, rem, m.ncols) == want
    full = Subspace.from_vectors(f, 5, Matrix.identity(f, 5).sparse_rows)
    assert full.dim == full.ambient_dim
    assert full.pivots == first_nonzero_scan(dense_rows(f, full.rows, 5)) == list(range(5))


def test_sparse_vectors_with_bad_entries_are_rejected():
    f = make_field(12)
    one, zero = f.one.cv, f.zero.cv
    s = Subspace.from_vectors(f, 3, [{0: one}])
    el = Eliminator(Matrix.identity(f, 3))
    full = Subspace.from_vectors(f, 3, Matrix.identity(f, 3).sparse_rows)
    assert full.dim == full.ambient_dim and s.dim < s.ambient_dim

    def span(v):
        return Subspace.from_vectors(f, 3, [v])

    # a dense list is not a vector: the sparse row is the only form
    for bad in ({3: one}, {-1: one}, {"0": one}, {1: zero}, [f.one, f.zero, f.zero]):
        for call in (s.reduce, s.contains, full.contains, el.solve_left, span,
                     lambda v: Matrix(f, 3, [v]), lambda v: Eliminator(Matrix(f, 3, [v]))):
            with pytest.raises(ValueError):
                call(bad)
    # the same vectors, well formed, are accepted
    assert s.contains({0: one}) and not s.contains({1: one})
    assert el.solve_left({2: one}) == {2: one}
