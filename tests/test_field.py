import random
from fractions import Fraction

import pytest

from cdgalab import cyclotomic_polynomial, make_field
from cdgalab.field import format_scalar

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
            assert inv.as_fraction() == 1 / a.as_fraction()


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
    a = f.from_coords([Fraction(-2), Fraction(0), Fraction(0), Fraction(1, 2)])
    assert format_scalar(a) == "1/2*z^3 - 2"


def test_coords_roundtrip():
    f = make_field(12)
    rng = random.Random(103)
    for _ in range(100):
        a = random_field_element(f, rng)
        assert f.from_coords(a.coords) == a
