import random
from fractions import Fraction

import pytest

import cdgalab
from cdgalab import cyclotomic_polynomial, make_field
from cdgalab._backend import kernel
from cdgalab.field import MAX_DEGREE, check_conductor, format_scalar

from conftest import random_field_element


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]       # x^4 - x^2 + 1
    assert cyclotomic_polynomial(1) == [-1, 1]                 # x - 1
    assert cyclotomic_polynomial(3) == [1, 1, 1]               # x^2 + x + 1
    assert cyclotomic_polynomial(8) == [1, 0, 0, 0, 1]


def test_make_field_descriptor():
    f12 = make_field(12)
    assert f12.n == 12 and f12.phi == 4
    assert make_field(1).phi == 1
    assert make_field(3).phi == 2
    with pytest.raises(ValueError):
        make_field(0)


def test_imaginary_unit_squares_to_minus_one():
    f = make_field(12)
    i = f.imaginary_unit()
    assert i == f.zeta(3)
    assert i * i == f.rational(-1)
    with pytest.raises(ValueError):
        make_field(3).imaginary_unit()


def test_primitive_cube_root_identity():
    f = make_field(12)
    zeta = f.zeta(4)
    assert f.one + zeta + zeta * zeta == f.zero
    assert f.zeta(1) * f.zeta(11) == f.one


def test_conjugation():
    f = make_field(12)
    i = f.zeta(3)
    assert i.conjugate() == -i
    zeta = f.zeta(4)
    assert zeta.conjugate() == zeta * zeta  # the other primitive cube root
    r = f.rational(Fraction(7, 3))
    assert r.conjugate() == r


def test_exact_multiplicative_order():
    for n in (1, 3, 4, 12):
        f = make_field(n)
        z = f.zeta(1)
        powers = [z ** k for k in range(1, n + 1)]
        assert powers[-1] == f.one
        assert all(p != f.one for p in powers[:-1])


def test_field_axioms_randomized():
    f = make_field(12)
    rng = random.Random(101)
    for _ in range(300):
        a = random_field_element(f, rng)
        b = random_field_element(f, rng)
        c = random_field_element(f, rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == f.one
            assert (b / a) * a == b


@pytest.mark.parametrize("n", [1, 3, 4, 5, 7, 8, 12, 15])
def test_inverse_over_conductors(n):
    f = make_field(n)
    rng = random.Random(100 + n)
    values = [f.rational(q) for q in (1, -1, 2, Fraction(-3, 7), Fraction(5, 2))]
    values += [f.zeta(k) for k in range(n)]
    for _ in range(60):
        a = random_field_element(f, rng) * f.rational(1, rng.randint(1, 9))
        if not a.is_zero():
            values.append(a)
    assert any(not a.is_rational() for a in values) or f.phi == 1
    for a in values:
        inv = a.inverse()
        assert a * inv == f.one
        assert inv.inverse() == a
        if a.is_rational():
            assert inv == f.rational(1 / a.coords[0])


def test_conjugate_is_an_automorphism():
    f = make_field(12)
    rng = random.Random(102)
    for _ in range(200):
        a = random_field_element(f, rng)
        b = random_field_element(f, rng)
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_conductor_mismatch_rejected():
    a = make_field(12).one
    b = make_field(3).one
    with pytest.raises(ValueError, match="conductor mismatch"):
        a + b


def test_division_by_zero():
    f = make_field(12)
    with pytest.raises(ZeroDivisionError):
        f.one / f.zero


def test_canonical_formatting():
    f = make_field(12)
    assert format_scalar(f.zero) == "0"
    assert format_scalar(f.one) == "1"
    assert format_scalar(f.rational(-24)) == "-24"
    assert format_scalar(f.zeta(3)) == "z^3"
    a = f.zeta(3) * Fraction(1, 2) - 2
    assert format_scalar(a) == "1/2*z^3 - 2"


def _fraction_scalar_text(a) -> str:
    """The scalar text built from Fraction coordinates, as ``format_scalar``
    built it before it read the integer cv."""
    den = a.cv[-1]
    parts = []
    for power in range(a.field.phi - 1, -1, -1):
        c = Fraction(a.cv[power], den)
        if c:
            mag = abs(c)
            zpow = "" if power == 0 else "z" if power == 1 else f"z^{power}"
            body = str(mag) if not zpow else zpow if mag == 1 else f"{mag}*{zpow}"
            parts.append((" - " if c < 0 else " + ") + body)
    text = "".join(parts)
    return "0" if not text else text[3:] if text[1] == "+" else "-" + text[3:]


@pytest.mark.parametrize("n", [1, 3, 4, 12])
def test_scalar_text_matches_the_fraction_formatter(n):
    """Random scalars with negative and zero coordinates and denominators
    that share factors with some coordinates and not others."""
    f = make_field(n)
    rng = random.Random(600 + n)
    samples = [f.zero, f.one, -f.one, f.rational(-7, 6)]
    for _ in range(400):
        coords = [rng.choice([0, 0, rng.randint(-40, 40)]) for _ in range(f.phi)]
        den = rng.choice([1, 2, 3, 4, 6, 12, 35, rng.randint(1, 99)])
        samples.append(sum((f.zeta(j) * Fraction(c, den) for j, c in enumerate(coords)), f.zero))
    assert any(a.is_zero() for a in samples[4:]) and any(a.cv[-1] > 1 for a in samples)
    for a in samples:
        assert format_scalar(a) == _fraction_scalar_text(a), a.cv


def test_rational_scalars_are_ints_bools_and_fractions():
    f = make_field(12)
    assert cdgalab.Rational is Fraction
    assert f.element(3) == f.rational(3) == 3 and f.element(True) == f.one
    assert f.element(Fraction(-6, 4)) == f.rational(-3, 2) == Fraction(-3, 2)
    assert f.rational(Fraction(1, 2), Fraction(-3, 4)) == f.rational(-2, 3)
    assert f.one * Fraction(1, 3) + 1 == f.rational(4, 3) and 2 * f.one == f.rational(2)
    for bad in (0.5, "1/3", None):
        with pytest.raises(TypeError):
            f.element(bad)
        with pytest.raises(TypeError):
            f.one + bad
        assert f.one != bad
    with pytest.raises(TypeError):
        f.rational(1, 2.0)
    with pytest.raises(ZeroDivisionError):
        f.rational(1, 0)


def test_coords_roundtrip():
    f = make_field(12)
    rng = random.Random(103)
    for _ in range(100):
        a = random_field_element(f, rng)
        assert sum((f.zeta(j) * c for j, c in enumerate(a.coords)), f.zero) == a


# --- references: the loop product and Galois images -------------------------
#
# The field's product and Galois maps are straight-line code generated from
# its tables, and every cross-check in the engine runs on them; these loops
# over the same tables are the independent reference.

def reference_cv_mul(a, b, red):
    phi = len(a) - 1
    if phi == 1:
        return kernel.cv_normalize([a[0] * b[0]], a[1] * b[1])
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
    return kernel.cv_normalize(conv[:phi], a[-1] * b[-1])


def reference_galois_nums(f, cv, k):
    """Numerators of the image of cv under z -> z**k, over cv's denominator."""
    nums = [0] * f.phi
    for j, a in enumerate(cv[:-1]):
        if a:
            row = f.pow_table[(j * k) % f.n]
            for t in range(f.phi):
                if row[t]:
                    nums[t] += a * row[t]
    return nums


REFERENCE_CONDUCTORS = [1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 105]


def reference_power_coords(j, poly):
    """Integer coordinates of the remainder of x^j by the monic poly, by
    long division."""
    phi = len(poly) - 1
    rem = [0] * j + [1]
    for top in range(j, phi - 1, -1):
        c = rem[top]
        if c:
            for t, p in enumerate(poly):
                rem[top - phi + t] -= c * p
    return tuple((rem + [0] * phi)[:phi])


@pytest.mark.parametrize("n", REFERENCE_CONDUCTORS)
def test_power_and_reduction_tables_are_remainders_mod_phi_n(n):
    """The tables that the product and the Galois maps are generated from:
    ``pow_table[j]`` is z^j and ``red[k]`` is z^(phi+k), each reduced
    mod Phi_n."""
    f = make_field(n)
    poly = cyclotomic_polynomial(n)
    assert f.pow_table == tuple(reference_power_coords(j, poly) for j in range(n))
    assert f.red == tuple(reference_power_coords(f.phi + k, poly)
                          for k in range(f.phi - 1))


def sample_values(f, rng):
    """Zero, rationals, signed and scaled monomials, and dense values with
    small and with large coordinates."""
    values = [f.zero, f.one, f.rational(-3, 7), f.rational(10 ** 30 + 1, 6)]
    for k in range(min(f.n, 2 * f.phi)):
        values += [f.zeta(k), f.zeta(k) * f.rational(-5, 4)]
    for span in (3, 10 ** 12):
        for _ in range(12):
            coords = [Fraction(rng.randint(-span, span), rng.randint(1, 9))
                      for _ in range(f.phi)]
            values.append(sum((f.zeta(j) * c for j, c in enumerate(coords)), f.zero))
    return values


@pytest.mark.parametrize("n", REFERENCE_CONDUCTORS)
def test_straight_line_product_matches_the_loop(n):
    f = make_field(n)
    values = sample_values(f, random.Random(500 + n))
    for a in values:
        for b in values[::len(values) // 12]:
            assert kernel.cv_mul(a.cv, b.cv, f.mul) == reference_cv_mul(a.cv, b.cv, f.red)


@pytest.mark.parametrize("n", REFERENCE_CONDUCTORS)
def test_fused_multiply_add_matches_the_add_after_the_product(n):
    """``addmul(t, a, b)`` is ``cv_add(t, cv_mul(a, b))`` and ``submul`` the
    same with -a, each None exactly where that sum is zero.  Besides sample
    values, t runs over +-a*b, where the sum cancels, and over a value whose
    denominator is da * db, where the numerators are added directly."""
    f = make_field(n)
    values = sample_values(f, random.Random(800 + n))
    ts = [t.cv for t in values[::len(values) // 4]]
    cancelled = summed = 0
    for a in values[::max(1, len(values) // 24)]:
        for b in values[::len(values) // 12]:
            a_, b_ = a.cv, b.cv
            p = kernel.cv_mul(a_, b_, f.mul)
            over_d = f.rational(-7, a_[-1] * b_[-1]).cv
            for t in ts + [p, kernel.cv_neg(p), over_d]:
                for fused, c in ((f.addmul, a_), (f.submul, kernel.cv_neg(a_))):
                    expected = kernel.cv_add(t, kernel.cv_mul(c, b_, f.mul))
                    if kernel.cv_is_zero(expected):
                        assert fused(t, a_, b_) is None
                        cancelled += 1
                    else:
                        assert fused(t, a_, b_) == expected
                        summed += 1
    assert cancelled and summed


@pytest.mark.parametrize("n", REFERENCE_CONDUCTORS)
def test_negation_is_subtraction_from_zero(n):
    """``cv_neg(a)`` is the canonical tuple ``cv_sub(0, a)``, and negating
    twice gives back the same tuple."""
    f = make_field(n)
    for a in sample_values(f, random.Random(900 + n)):
        neg = kernel.cv_neg(a.cv)
        assert type(neg) is tuple
        assert neg == kernel.cv_sub(f.zero.cv, a.cv) == (-a).cv
        assert kernel.cv_neg(neg) == a.cv


@pytest.mark.parametrize("n", REFERENCE_CONDUCTORS)
def test_straight_line_galois_maps_match_the_loop(n):
    f = make_field(n)
    values = sample_values(f, random.Random(600 + n))
    for k in f.units:
        for a in values:
            expected = kernel.cv_normalize(reference_galois_nums(f, a.cv, k), a.cv[-1])
            assert a.galois(k).cv == expected
            assert a.galois(k + f.n) == a.galois(k)
    for a in values:
        assert a.conjugate().cv == kernel.cv_normalize(
            reference_galois_nums(f, a.cv, f.n - 1), a.cv[-1])
        assert a.conjugate().conjugate() == a


@pytest.mark.parametrize("n", REFERENCE_CONDUCTORS)
def test_inverse_and_galois_group_laws(n):
    f = make_field(n)
    values = sample_values(f, random.Random(700 + n))
    for a in values[::max(1, len(values) // 24)]:
        if not a.is_zero():
            assert a * a.inverse() == f.one
    for j in f.units:
        for k in f.units:
            for a in values[-3:]:
                assert a.galois(k).galois(j) == a.galois(j * k)


def test_reference_conductors_reach_a_coefficient_of_size_two():
    # Phi_105 is the first cyclotomic polynomial with a coefficient -2, so its
    # fold multiplies by an integer of magnitude above 1
    assert -2 in cyclotomic_polynomial(105)
    assert make_field(105).phi == 48


def test_conductor_budget():
    assert MAX_DEGREE == 64
    for n in (1, 12, 105, 128, 240):  # phi = 1, 4, 48, 64, 64
        check_conductor(n)
    for n in (0, -3):
        with pytest.raises(ValueError, match="must be >= 1"):
            check_conductor(n)
    # phi(256) = 128; 8193 and 20000 are refused before any factoring
    for n in (256, 2 * MAX_DEGREE ** 2, 2 * MAX_DEGREE ** 2 + 1, 20000, 10 ** 40):
        with pytest.raises(ValueError, match=f"conductor {n} is over budget"):
            check_conductor(n)
    with pytest.raises(ValueError, match="over budget"):
        make_field(20000)
