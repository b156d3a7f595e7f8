"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is stored in the power basis ``1, z, ..., z**(phi(n)-1)`` modulo
the n-th cyclotomic polynomial, as an integer coordinate vector over a single
positive denominator, fully reduced.  The representation is canonical, so
equality is coordinate-wise and elements hash cheaply.  ``n = 1`` gives plain
rationals.

Scalars print as polynomials in ``z`` with rational coefficients in
decreasing power order (``1/2*z^3 - 2``); the zero element prints as ``0``.
Each coefficient is printed from its integer coordinate and the denominator,
reduced by their gcd.

The rationals the engine takes as scalars are ``int`` (``bool`` included) and
``fractions.Fraction``, read through their ``numerator`` and ``denominator``.
The module does not import ``fractions``, which loads ``decimal`` and
``numbers``: ``is_rational`` tests for a Fraction only once that module is
loaded, and the public ``FieldElement.coords`` imports it when it is read.
"""

from __future__ import annotations

import sys
from math import gcd

from ._backend import kernel


def is_rational(value) -> bool:
    """Whether ``value`` is an ``int`` (``bool`` included) or a
    ``fractions.Fraction``.  Before ``fractions`` is loaded no value is a
    Fraction, so the test needs no import."""
    if isinstance(value, int):
        return True
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(value, fractions.Fraction)


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of integer polynomials known to divide exactly."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1]:
            raise AssertionError("polynomial division is not exact: "
                                 f"{c} is not a multiple of {den[-1]}")
        q[k] = c // den[-1]
        if q[k]:
            for j, d in enumerate(den):
                num[k + j] -= q[k] * d
    if any(num):
        raise AssertionError("polynomial division leaves a nonzero remainder")
    return q


_cyclo_cache: dict[int, list[int]] = {}


def cyclotomic_polynomial(n: int) -> list[int]:
    """Integer coefficients of Phi_n, low power first, monic."""
    if n in _cyclo_cache:
        return _cyclo_cache[n]
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    _cyclo_cache[n] = poly
    return poly


# Largest field degree phi(n) a conductor may have.  Building a field's
# straight-line arithmetic costs about phi^2 work and memory (see
# ``CycloField``); phi(12) = 4 for the paper.
MAX_DEGREE = 64


def check_conductor(n: int) -> None:
    """Raises ValueError unless Q(zeta_n) is within the degree budget.

    Runs before anything is built.  Since phi(n) >= sqrt(n / 2), a conductor
    above 2 * MAX_DEGREE^2 is over budget without being counted; below that
    phi(n) is the number of units k in 1..n, the ones ``CycloField.units``
    lists."""
    if n < 1:
        raise ValueError(f"conductor must be >= 1, got {n}")
    if (n > 2 * MAX_DEGREE ** 2
            or sum(gcd(k, n) == 1 for k in range(1, n + 1)) > MAX_DEGREE):
        raise ValueError(f"conductor {n} is over budget: phi({n}) must be "
                         f"at most {MAX_DEGREE}")


class CycloField:
    """Descriptor of Q(zeta_n): conductor, degree, reduction tables and the
    field's arithmetic.

    The descriptor is the per-field argument of the kernel's row functions.
    ``mul`` is the product of two cvs, ``addmul(t, a, b)`` and
    ``submul(t, a, b)`` the fused t + a*b and t - a*b in lowest terms, or
    None when the sum cancels, and ``galois_maps[k % n]`` the cv map of
    z -> z**k for each unit k.  All are straight-line code generated once
    from the reduction table of Phi_n, the product and the fused ops from
    one set of convolution and reduction lines (see ``_kernel_py``)."""

    def __init__(self, n: int):
        check_conductor(n)
        self.n = n
        self.poly = tuple(cyclotomic_polynomial(n))
        self.phi = len(self.poly) - 1
        self.pow_table = self._power_table()
        # red[k] = integer coords of z^(phi+k), the rows the product folds by
        self.red = tuple(self.pow_table[(self.phi + k) % n] for k in range(self.phi - 1))
        self.units = tuple(k for k in range(1, n + 1) if gcd(k, n) == 1)
        self.mul = kernel.straight_line_product(self.phi, self.red,
                                                f"Q(zeta_{n}) product")
        self.addmul = kernel.straight_line_fused(self.phi, self.red, 1,
                                                 f"Q(zeta_{n}) x + a*b")
        self.submul = kernel.straight_line_fused(self.phi, self.red, -1,
                                                 f"Q(zeta_{n}) x - a*b")
        self.galois_maps = {k % n: kernel.straight_line_map(
            self._galois_matrix(k), f"Q(zeta_{n}) z->z^{k}") for k in self.units}
        self._zero = FieldElement(self, (0,) * self.phi + (1,))
        self._one = FieldElement(self, (1,) + (0,) * (self.phi - 1) + (1,))

    def _power_table(self):
        # row j = integer coords of z^j: multiply by z, then fold the carry
        # by z^phi = -(Phi_n without its leading term); Phi_n is monic, so
        # every row is integral
        phi = self.phi
        base = tuple(-c for c in self.poly[:phi])
        table = []
        row = (1,) + (0,) * (phi - 1)
        for _ in range(self.n):
            table.append(row)
            carry = row[-1]
            row = tuple(s + carry * b for s, b in zip((0,) + row[:-1], base))
        return tuple(table)

    def _galois_matrix(self, k: int):
        # column j is the image z^(jk) of the basis vector z^j
        cols = [self.pow_table[(j * k) % self.n] for j in range(self.phi)]
        return [[col[t] for col in cols] for t in range(self.phi)]

    # --- constructors ---

    @property
    def zero(self) -> "FieldElement":
        return self._zero

    @property
    def one(self) -> "FieldElement":
        return self._one

    def rational(self, p, q=1) -> "FieldElement":
        """The rational p / q of two ints or Fractions; anything else is a
        ``TypeError`` and q = 0 a ``ZeroDivisionError``."""
        if not (is_rational(p) and is_rational(q)):
            raise TypeError("a rational scalar needs int or Fraction parts, got "
                            f"{type(p).__name__} and {type(q).__name__}")
        num, den = p.numerator * q.denominator, p.denominator * q.numerator
        if den == 0:
            raise ZeroDivisionError(f"rational scalar {p}/{q}")
        return FieldElement(self, kernel.cv_normalize([num] + [0] * (self.phi - 1), den))

    def zeta(self, k: int = 1) -> "FieldElement":
        """The root-of-unity power z**k."""
        return FieldElement(self, self.pow_table[k % self.n] + (1,))

    def imaginary_unit(self) -> "FieldElement":
        if self.n % 4 != 0:
            raise ValueError(f"i is not available: conductor {self.n} is not divisible by 4")
        return self.zeta(self.n // 4)

    def element(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field.n != self.n:
                raise ValueError(f"conductor mismatch: {value.field.n} vs {self.n}")
            return value
        return self.rational(value)

    def __repr__(self):
        return f"CycloField(n={self.n})"

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.n == self.n

    def __hash__(self):
        return hash(("CycloField", self.n))


_field_cache: dict[int, CycloField] = {}


def make_field(n: int) -> CycloField:
    """Descriptor of Q(zeta_n) with its cyclotomic polynomial and tables."""
    if n not in _field_cache:
        _field_cache[n] = CycloField(n)
    return _field_cache[n]


class FieldElement:
    """Immutable element of Q(zeta_n) in canonical power-basis form."""

    __slots__ = ("field", "cv")

    def __init__(self, field: CycloField, cv):
        self.field = field
        self.cv = tuple(cv)

    # --- coercion ---

    def _coerce(self, other):
        try:
            return self.field.element(other)
        except TypeError:
            return None

    # --- ring operations ---

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, kernel.cv_add(self.cv, o.cv))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, kernel.cv_sub(self.cv, o.cv))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, kernel.cv_sub(o.cv, self.cv))

    def __neg__(self):
        return FieldElement(self.field, kernel.cv_neg(self.cv))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, kernel.cv_mul(self.cv, o.cv, self.field.mul))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return kernel.power(self, k, lambda: self.field.one, FieldElement.__mul__)

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        f = self.field
        a = self.cv
        if self.is_rational():
            return FieldElement(f, kernel.cv_normalize(
                [a[-1]] + [0] * (f.phi - 1), a[0]))
        # norm trick on the numerator A = den * a, all in integer tuples:
        # c = prod of the other Galois images of A, N = A * c is rational,
        # and a^-1 = den * c / N
        mul = f.mul
        num = a[:-1] + (1,)
        c = None
        for k in f.units[1:]:
            g = f.galois_maps[k](num)
            c = g if c is None else kernel.cv_mul(c, g, mul)
        nrm = kernel.cv_mul(num, c, mul)
        if any(nrm[1:-1]):
            raise AssertionError("norm of a field element must be rational")
        scale = a[-1] * nrm[-1]
        return FieldElement(f, kernel.cv_normalize(
            [scale * v for v in c[:-1]], c[-1] * nrm[0]))

    def galois(self, k: int) -> "FieldElement":
        """The automorphism z -> z**k (k coprime to the conductor).  Public
        for ``conjugate`` and for the Hermitian congruence of the signature
        (ROADMAP item 2), which conjugates scalars."""
        f = self.field
        if gcd(k, f.n) != 1:
            raise ValueError(f"{k} is not coprime to the conductor {f.n}")
        return FieldElement(f, f.galois_maps[k % f.n](self.cv))

    def conjugate(self) -> "FieldElement":
        """Complex conjugation, the automorphism z -> z**-1.  The engine
        conjugates elements on their cvs (``Conjugation``); this public form
        waits for the Hermitian congruence of the signature (ROADMAP item 2),
        which conjugates scalars."""
        if self.field.n <= 2:
            return self
        return self.galois(self.field.n - 1)

    # --- predicates and views ---

    def is_zero(self) -> bool:
        return kernel.cv_is_zero(self.cv)

    def __bool__(self):
        return not self.is_zero()

    def is_rational(self) -> bool:
        return all(v == 0 for v in self.cv[1:-1])

    @property
    def coords(self) -> tuple:
        """The power-basis coordinates as Fractions, importing ``fractions``
        when read; the engine itself reads the integer ``cv``."""
        from fractions import Fraction
        den = self.cv[-1]
        return tuple(Fraction(v, den) for v in self.cv[:-1])

    def __eq__(self, other):
        if is_rational(other):
            other = self.field.rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field.n == other.field.n and self.cv == other.cv

    def __hash__(self):
        return hash((self.field.n, self.cv))

    def prints_negative(self) -> bool:
        """Sign of the leading printed term (highest power)."""
        for v in reversed(self.cv[:-1]):
            if v:
                return v < 0
        return False

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"FieldElement(n={self.field.n}, {format_scalar(self)!r})"


def format_scalar(a: FieldElement) -> str:
    """Canonical textual form: z-polynomial, decreasing powers, no zero terms."""
    *nums, den = a.cv
    parts = []
    for power in range(len(nums) - 1, -1, -1):
        v = nums[power]
        if not v:
            continue
        g = gcd(v, den)
        mag = str(abs(v) // g) if g == den else f"{abs(v) // g}/{den // g}"
        if power == 0:
            body = mag
        else:
            zpow = "z" if power == 1 else f"z^{power}"
            body = zpow if mag == "1" else f"{mag}*{zpow}"
        parts.append((v < 0, body))
    return kernel.signed_sum(parts)
