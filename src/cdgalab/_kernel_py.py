"""Pure-Python arithmetic kernel: field values and sparse row reduction.

Data layout: a field value ("cv") is a tuple of ``phi + 1`` integers
``(n0, ..., n_{phi-1}, den)`` meaning the vector ``n_j / den`` in the power
basis of the cyclotomic field, with ``den > 0`` and
``gcd(n0, ..., n_{phi-1}, den) = 1``; zero is all-zero coordinates with
denominator 1.  The form is canonical, so equal values are equal tuples.

A matrix row is sparse: a dict ``{col: cv}`` that holds only the nonzero
entries.  A column absent from the dict is zero, and the row functions below
delete an entry as soon as it cancels, so ``not row`` tests for the zero row.

``red`` is the reduction table: ``red[k]`` gives the integer coordinates of
``z**(phi + k)`` in the power basis, for ``k = 0 .. phi - 2``.
"""

from math import gcd

BACKEND = "python"


def cv_normalize(nums, den):
    """Lowest terms, positive denominator; returns a tuple cv."""
    if den < 0:
        den = -den
        nums = [-v for v in nums]
    g = den
    for v in nums:
        if v:
            g = gcd(g, v)
            if g == 1:
                break
    if g > 1:
        den //= g
        nums = [v // g for v in nums]
    return tuple(nums) + (den,)


def cv_is_zero(a):
    # every coordinate is 0; the denominator never is
    return a.count(0) == len(a) - 1


def cv_neg(a):
    return tuple(-v for v in a[:-1]) + (a[-1],)


def cv_add(a, b):
    da = a[-1]
    db = b[-1]
    if da == db:
        return cv_normalize([x + y for x, y in zip(a[:-1], b[:-1])], da)
    return cv_normalize([x * db + y * da for x, y in zip(a[:-1], b[:-1])], da * db)


def cv_sub(a, b):
    da = a[-1]
    db = b[-1]
    if da == db:
        return cv_normalize([x - y for x, y in zip(a[:-1], b[:-1])], da)
    return cv_normalize([x * db - y * da for x, y in zip(a[:-1], b[:-1])], da * db)


def cv_mul(a, b, red):
    phi = len(a) - 1
    if phi == 1:
        return cv_normalize([a[0] * b[0]], a[1] * b[1])
    conv = [0] * (2 * phi - 1)
    for i in range(phi):
        ai = a[i]
        if not ai:
            continue
        for j in range(phi):
            bj = b[j]
            if bj:
                conv[i + j] += ai * bj
    # Powers z^phi .. z^(2 phi - 2) fold back via the reduction table.
    for e in range(phi, 2 * phi - 1):
        c = conv[e]
        if not c:
            continue
        row = red[e - phi]
        for j in range(phi):
            r = row[j]
            if r:
                conv[j] += c * r
    return cv_normalize(conv[:phi], a[-1] * b[-1])


# --- sparse-row helpers -----------------------------------------------------

def row_scale(row, c, red):
    """row <- c * row, entrywise (c nonzero)."""
    for j, v in row.items():
        row[j] = cv_mul(v, c, red)


def row_axpy(target, src, c, red):
    """target <- target + c * src, entrywise (c nonzero); cancelled entries
    are removed."""
    for j, v in src.items():
        p = cv_mul(v, c, red)
        t = target.get(j)
        if t is None:
            target[j] = p
        else:
            s = cv_add(t, p)
            if cv_is_zero(s):
                del target[j]
            else:
                target[j] = s


def rref(rows, ncols, limit, phi, red, inv):
    """In-place reduced row echelon form with deterministic pivoting.

    ``rows`` is a list of sparse rows of width ``ncols``.  Pivots are searched
    in column order over the first ``limit`` columns: the pivot of a column
    is the first row at or below the current pivot row with a nonzero entry
    there, swapped up into place.  Row operations act on whole rows, so
    callers may augment past ``limit``.  ``inv`` maps a nonzero cv to its
    multiplicative inverse cv.  Returns ``(rank, pivot_columns)``; the rows
    past the rank are left empty in the first ``limit`` columns.

    Each column below ``limit`` keeps the set of rows with a nonzero in it,
    so finding a pivot and clearing its column visit only those rows.  Rows
    are named by their index in the input and reordered once at the end;
    until then ``order[p]`` is the row at position ``p``.
    """
    one = (1,) + (0,) * (phi - 1) + (1,)
    nrows = len(rows)
    holders = {}
    for i, row in enumerate(rows):
        for j in row:
            if j < limit:
                holders.setdefault(j, set()).add(i)
    order = list(range(nrows))
    position = list(range(nrows))
    pivots = []
    piv = 0
    for col in range(limit):
        if piv == nrows:
            break
        held = holders.get(col)
        if not held:
            continue
        below = [position[i] for i in held if position[i] >= piv]
        if not below:
            continue
        r = min(below)
        i = order[r]
        if r != piv:
            k = order[piv]
            order[piv], order[r] = i, k
            position[i], position[k] = piv, r
        prow = rows[i]
        p = prow[col]
        if p != one:
            row_scale(prow, inv(p), red)
        pcols = [j for j in prow if j < limit]
        for i2 in held - {i}:
            target = rows[i2]
            row_axpy(target, prow, cv_neg(target[col]), red)
            for j in pcols:
                if j in target:
                    holders[j].add(i2)
                else:
                    holders[j].discard(i2)
        pivots.append(col)
        piv += 1
    rows[:] = [rows[i] for i in order]
    return piv, pivots


def reduce_against(row, rrows, pivots, ncols, phi, red):
    """Reduce the sparse ``row`` (mutated to the remainder) against rref rows.

    ``pivots`` maps each pivot column to the index of its row in ``rrows``.
    Returns the coefficients as a sparse row ``{index: cv}`` such that
    original_row = sum(coeff_i * rrows[i]) + remainder.  Each rref row is
    zero in the other rows' pivot columns, so reducing by one row leaves the
    others' coefficients alone: they are the row's entries at the pivots.
    """
    coeffs = {}
    for col in [j for j in row if j in pivots]:
        i = pivots[col]
        c = coeffs[i] = row[col]
        row_axpy(row, rrows[i], cv_neg(c), red)
    return coeffs
