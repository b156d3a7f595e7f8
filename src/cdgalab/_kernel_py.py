"""Pure-Python arithmetic kernel: field values and sparse row reduction.

Data layout: a field value ("cv") is a tuple of ``phi + 1`` integers
``(n0, ..., n_{phi-1}, den)`` meaning the vector ``n_j / den`` in the power
basis of the cyclotomic field, with ``den > 0`` and
``gcd(n0, ..., n_{phi-1}, den) = 1``; zero is all-zero coordinates with
denominator 1.  The form is canonical, so equal values are equal tuples.

A matrix row is sparse: a dict ``{col: cv}`` that holds only the nonzero
entries.  A column absent from the dict is zero, and the row functions below
delete an entry as soon as it cancels, so ``not row`` tests for the zero row.
``algebra``'s ``{word: cv}`` terms of an element follow the same rule: its
product of elements and its Leibniz step delete a word as soon as its sum
cancels.

``field`` is the per-field argument of the row functions: its ``mul(a, b)``
is the product of two cvs, and its ``addmul(t, a, b)`` and
``submul(t, a, b)`` are the fused ``t + a*b`` and ``t - a*b``, in lowest
terms, or None when the sum cancels.  Each ``CycloField`` builds the three
once from the reduction table of Phi_n, with ``straight_line_product`` and
``straight_line_fused`` over one set of convolution and reduction lines,
and builds one ``straight_line_map`` per Galois automorphism the same way.
The arithmetic is straight-line code because in pure Python its cost is the
interpreter's work per operation, not the integer arithmetic: a loop over
the phi x phi convolution, the fold of z^phi .. z^(2 phi - 2) and the zero
tests runs three to five times as long as one body that holds the
coordinates in locals and has the fold's integers written in.  For the same
reason a multiply-accumulate is one call: ``cv_add`` after ``cv_mul`` adds
three interpreted calls per entry (the sum, its lowest terms and the zero
test).  ``row_axpy``, ``reduce_against`` and ``algebra``'s product of
elements add each product to an existing entry with the fused op and make
a new entry with ``cv_mul``, so a profiler or tracer that replaces
``cv_mul`` here counts every product except the fused ones.  A plain sum
takes the fused op too, as ``addmul(t, a, one)``: the differential's
Leibniz step adds its rare collision so, and on Q(zeta_12) that is about
half the time of ``cv_add``'s generic loop, which only scalar code reads.

For the same reason five generic loops of the engine live here and
nowhere else: ``row_axpy`` is the one sum of two sparse rows (an element's
sum and difference call it with c = 1 and -1), ``combine`` the one linear
combination of many (the differential and a map on elements, a matrix
product, the coordinates of a subspace or class), ``scatter`` its
transpose, which builds many rows from columns in one pass (the cup rows
of ``CohomologyTable.product_rows``),
``power`` the one power by repeated squaring (of a field value, a map, a
matrix or a form), and ``signed_sum`` the one writer of a signed sum's text
(a scalar, an element, a generated expression).
"""

from math import gcd


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
    out = [-v for v in a]
    out[-1] = a[-1]  # the denominator stays positive
    return tuple(out)


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


def cv_mul(a, b, mul):
    """The product of two cvs; ``mul`` is their field's product."""
    return mul(a, b)


# --- sparse-row helpers -----------------------------------------------------

def row_scale(row, c, field):
    """row <- c * row, entrywise (c nonzero)."""
    mul = field.mul
    for j, v in row.items():
        row[j] = cv_mul(v, c, mul)


def row_axpy(target, src, c, field):
    """target <- target + c * src, entrywise (c nonzero); cancelled entries
    are removed."""
    mul, addmul = field.mul, field.addmul
    for j, v in src.items():
        t = target.get(j)
        if t is None:
            target[j] = cv_mul(v, c, mul)
        else:
            t = addmul(t, v, c)
            if t is None:
                del target[j]
            else:
                target[j] = t


def combine(coeffs, row_of, field):
    """The sparse row sum(c * row_of(i) for i, c in coeffs.items()), freshly
    built: ``coeffs`` is a sparse row of nonzero cvs and ``row_of`` maps an
    index to its sparse row, which is only read.  Empty rows are skipped."""
    acc = {}
    for i, c in coeffs.items():
        row = row_of(i)
        if row:
            row_axpy(acc, row, c, field)
    return acc


def scatter(coeffs, column_of, nrows, field):
    """The transpose of ``combine``: ``nrows`` fresh sparse rows, row i the
    sum of c * column_of(u)[i] over u, c in ``coeffs``.  ``column_of`` maps
    an index to a column ``{i: sparse row}`` whose entries are only read, and
    each entry is added into row i by ``row_axpy``, so row i has the entries,
    in the same dict order, of ``combine`` over entry i of each column."""
    rows = [{} for _ in range(nrows)]
    for u, c in coeffs.items():
        for i, entry in column_of(u).items():
            row_axpy(rows[i], entry, c, field)
    return rows


def power(x, k, one, mul):
    """x**k for k >= 0 by repeated squaring: ``one()`` only when k is 0, so
    a caller builds its identity only then, and x itself when k is 1.  The
    result starts at the square for the lowest set bit of k, so no product
    has the identity as a factor; there are at most
    2 * (k.bit_length() - 1) of them, each ``mul(square, result)`` or
    ``mul(square, square)``."""
    if not k:
        return one()
    while not k & 1:
        x = mul(x, x)
        k >>= 1
    result = x
    k >>= 1
    while k:
        x = mul(x, x)
        if k & 1:
            result = mul(x, result)
        k >>= 1
    return result


def signed_sum(parts):
    """The text of a sum from ``(negative, body)`` pairs, signs joined as in
    "-a + b - c"; "0" when there are none."""
    text = "".join((" - " if neg else " + ") + body for neg, body in parts)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def rref(rows, ncols, limit, field, inv):
    """In-place reduced row echelon form with deterministic pivoting.

    ``rows`` is a list of sparse rows of width ``ncols``.  Pivots are searched
    in order over the held columns below ``limit``, as in ``rank``, but
    without its shortest-row guard: the pivot of a column is always the
    first row at or below the current pivot row with a nonzero entry there,
    swapped up into place, so the echelon rows and the I parts that a caller
    augments are those of a dense elimination.  Row operations act on whole
    rows, so callers may augment past ``limit``.  ``inv`` maps a nonzero cv
    to its multiplicative inverse cv.  Returns ``(rank, pivot_columns)``; the rows
    past the rank are left empty in the first ``limit`` columns.  The
    elimination never reads ``ncols``: ``perfbench/tracer.py`` reads it, by
    position, to count ``kernel.cells``, so dropping it would change
    ``kernel.mul_per_cell``.

    Each column below ``limit`` keeps the set of rows with a nonzero in it,
    so finding a pivot and clearing its column visit only those rows.  Rows
    are named by their index in the input and reordered once at the end;
    until then ``order[p]`` is the row at position ``p``.
    """
    one = (1,) + (0,) * (field.phi - 1) + (1,)
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
    for col in sorted(holders):
        if piv == nrows:
            break
        held = holders[col]
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
            row_scale(prow, inv(p), field)
        pcols = [j for j in prow if j < limit]
        for i2 in held - {i}:
            target = rows[i2]
            row_axpy(target, prow, cv_neg(target[col]), field)
            for j in pcols:
                if j in target:
                    holders[j].add(i2)
                else:
                    holders[j].discard(i2)
        pivots.append(col)
        piv += 1
    rows[:] = [rows[i] for i in order]
    return piv, pivots


def rank(rows, ncols, field, inv):
    """Rank of the sparse rows of width ``ncols``, by forward elimination in
    place.

    The held columns are taken in order: fill-in only reaches columns that
    a pivot row holds, so no other column can get a pivot.  A column's pivot
    is the lowest-numbered row not yet used as a pivot that has a nonzero
    there, unless that row has more than one entry and another unused row
    holds the column too: then it is the shortest such row, the
    lowest-numbered among equals, so a one-entry row there clears the
    column by deletions and a longer pivot row spreads less fill (the
    guarded Markowitz rule).  The rank does not depend on the pivot order,
    and on rows whose pivots all have one entry the guard reads one row
    length per column and never evaluates the key.  ``rref`` keeps the
    first-row rule, since its echelon rows and I parts are read.  The
    column is cleared only in the other unused rows, by the multiple of
    the pivot row that cancels their entry: no back-substitution, no
    scaling of pivot rows, and for a pivot row with one entry a deletion
    of the column's other entries.  An unused row is
    zero in every column already passed, so the pivot row's other entries
    lie to its right.  ``inv`` maps a nonzero cv to its inverse; it is
    called only for a pivot row with more entries and with entries to
    clear.  The rows are left in no useful form.
    """
    holders = {}
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    found = 0
    for col in sorted(holders):
        if found == len(rows):
            break
        held = holders[col]
        if not held:
            continue
        i = min(held)
        if len(rows[i]) > 1 and len(held) > 1:
            i = min(held, key=lambda r: (len(rows[r]), r))
        prow = rows[i]
        for j in prow:
            holders[j].discard(i)
        found += 1
        if not held or len(prow) == 1:  # nothing to clear, or clearing is deleting
            for i2 in held:
                del rows[i2][col]
            continue
        pcols = [j for j in prow if j != col]
        minus_inv = cv_neg(inv(prow[col]))
        for i2 in held:
            target = rows[i2]
            row_axpy(target, prow, cv_mul(target[col], minus_inv, field.mul), field)
            for j in pcols:
                if j in target:
                    holders[j].add(i2)
                else:
                    holders[j].discard(i2)
    return found


def reduce_against(row, rrows, pivots, ncols, field):
    """Reduce the sparse ``row`` (mutated to the remainder) against rref rows.

    ``pivots`` maps each pivot column to the index of its row in ``rrows``.
    Returns the coefficients as a sparse row ``{index: cv}`` such that
    original_row = sum(coeff_i * rrows[i]) + remainder.  Each rref row is
    zero in the other rows' pivot columns, so reducing by one row leaves the
    others' coefficients alone: they are the row's entries at the pivots.
    Each step subtracts in place with the fused ``submul``, so the common
    case, an entry that is already there, needs no negated coefficient.
    The reduction never reads ``ncols``, the width of the rows:
    ``perfbench/tracer.py`` reads it, by position, to count ``kernel.cells``,
    so dropping it would change ``kernel.mul_per_cell``.
    """
    mul, submul = field.mul, field.submul
    coeffs = {}
    for col in [j for j in row if j in pivots]:
        i = pivots[col]
        c = coeffs[i] = row[col]
        for j, v in rrows[i].items():
            t = row.get(j)
            if t is None:
                row[j] = cv_neg(cv_mul(v, c, mul))
            else:
                t = submul(t, v, c)
                if t is None:
                    del row[j]
                else:
                    row[j] = t
    return coeffs


# --- per-field straight-line code -------------------------------------------
#
# The generated source holds only integers taken from the tables it is given
# and fixed identifiers.  Its filename names the field, so that profiles and
# tracebacks show which field's function ran.

def _signed_terms(pairs):
    """``coef*term`` pairs as one sum expression; "0" when there are none."""
    return signed_sum((coef < 0, term if abs(coef) == 1 else f"{abs(coef)}*{term}")
                      for coef, term in pairs if coef)


def _compile(lines, label):
    namespace = {"gcd": gcd}
    exec(compile("\n".join(lines) + "\n", f"<cdgalab {label}>", "exec"), namespace)
    return namespace["f"]


def _product_lines(phi, red):
    """The lines that unpack cvs ``a`` and ``b`` of the field of degree
    ``phi`` with reduction table ``red`` (``red[k]`` holds the integer
    coordinates of ``z**(phi + k)``) and leave the numerators of their
    product in ``c0 ..``, over the denominator ``da * db``, not reduced.

    The convolution coefficients of z^phi .. z^(2 phi - 2) go to locals
    ``t<e>``, and each output coordinate is its own convolution coefficient
    plus those locals times the table's integers."""
    a = [f"a{i}" for i in range(phi)]
    b = [f"b{j}" for j in range(phi)]

    def conv(e):
        return [(1, f"{a[i]}*{b[e - i]}")
                for i in range(max(0, e - phi + 1), min(e, phi - 1) + 1)]

    lines = [f"    {', '.join(a)}, da = a",
             f"    {', '.join(b)}, db = b"]
    for e in range(phi, 2 * phi - 1):
        lines.append(f"    t{e} = {_signed_terms(conv(e))}")
    for j in range(phi):
        fold = [(red[e - phi][j], f"t{e}") for e in range(phi, 2 * phi - 1)]
        lines.append(f"    c{j} = {_signed_terms(conv(j) + fold)}")
    return lines


def _lowest_terms(num, phi):
    """The lines that return the numerators ``<num>0 ..`` over ``d`` in
    lowest terms; a denominator of 1 needs no gcd."""
    n = ", ".join(f"{num}{j}" for j in range(phi))
    return ["    if d == 1:",
            f"        return ({n}, 1)",
            f"    g = gcd({n}, d)",
            "    if g == 1:",
            f"        return ({n}, d)",
            f"    return ({', '.join(f'{num}{j} // g' for j in range(phi))}, d // g)"]


def straight_line_product(phi, red, label):
    """The product of two cvs in the field of degree ``phi`` whose reduction
    table is ``red``, as one straight-line function (``_product_lines``),
    in lowest terms."""
    lines = (["def f(a, b):"] + _product_lines(phi, red) + ["    d = da * db"]
             + _lowest_terms("c", phi))
    return _compile(lines, label)


def straight_line_fused(phi, red, sign, label):
    """The fused ``x + a*b`` (``sign`` 1) or ``x - a*b`` (``sign`` -1) of
    three cvs, as one straight-line function over the product's lines
    (``_product_lines``): the same value as adding the product with
    ``cv_add``, in lowest terms, or None when the sum is zero.  Numerators
    over equal denominators are added directly."""
    op = "+" if sign > 0 else "-"
    x = [f"x{j}" for j in range(phi)]
    lines = (["def f(x, a, b):"] + _product_lines(phi, red)
             + [f"    {', '.join(x)}, dx = x",
                "    d = da * db",
                "    if d == dx:"]
             + [f"        n{j} = x{j} {op} c{j}" for j in range(phi)]
             + ["    else:"]
             + [f"        n{j} = x{j} * d {op} c{j} * dx" for j in range(phi)]
             + ["        d *= dx",
                f"    if not ({' or '.join(f'n{j}' for j in range(phi))}):",
                "        return None"]
             + _lowest_terms("n", phi))
    return _compile(lines, label)


def straight_line_map(matrix, label):
    """The cv map ``n -> matrix * n`` on the numerators, keeping the
    denominator, as one straight-line function (``matrix[t][j]`` is the
    coefficient of coordinate j in coordinate t).  The result is in lowest
    terms only when ``matrix`` is invertible over the integers, as the matrix
    of a Galois automorphism in the power basis is."""
    phi = len(matrix)
    a = [f"a{i}" for i in range(phi)]
    lines = ["def f(a):",
             f"    {', '.join(a)}, d = a"]
    images = [_signed_terms(zip(row, a)) for row in matrix]
    lines.append(f"    return ({', '.join(images)}, d)")
    return _compile(lines, label)
