import random

import pytest

from cdgalab import dsl
from cdgalab import (Algebra, AlgebraMap, CochainComplex, CohomologyTable, Conjugation,
                     Differential, PreconditionError, apply_d, apply_map, identity_map,
                     make_field, wedge)
from cdgalab.algebra import (WORD_BUDGET, GradedElement, _WordLinear, format_element,
                             word_count)
from cdgalab.cli import main as cli_main
from cdgalab.field import FieldElement

from conftest import ROOT, letters, random_element, random_homogeneous, word_of


def test_basis_dimensions(model):
    alg = model.algebra
    assert [alg.dim(k) for k in range(9)] == [1, 8, 28, 56, 70, 56, 28, 8, 1]
    assert alg.total_dim() == 256


def test_wedge_examples(model):
    g = model.gens
    munu = g["mu"] * g["nu"]
    assert g["nu"] * g["mu"] == -munu
    assert (g["theta"] * g["theta"]).is_zero()
    i = model.field.imaginary_unit()
    lhs = wedge((g["mu"] * g["mubar"]).scale(i), (g["eta"] * g["etabar"]).scale(i))
    assert lhs == -(g["mu"] * g["mubar"] * g["eta"] * g["etabar"])


def test_apply_d_examples(model):
    d = model.differential
    g = model.gens
    assert apply_d(d, g["theta"]) == g["mu"] * g["nu"]
    assert apply_d(d, g["theta"] * g["mubar"]) == g["mu"] * g["nu"] * g["mubar"]
    assert apply_d(d, model.omega).is_zero()


def test_valid_differentials_build(model):
    alg = model.algebra
    for d in (model.differential, Differential(alg, {})):
        for gen in alg.gens:
            assert apply_d(d, apply_d(d, alg.generator(gen.name))).is_zero()


def test_random_failing_differentials_raise_with_witness():
    # random small differentials: each one either builds with d*d = 0 on
    # every generator or raises with a nonzero residue as its witness
    field = make_field(12)
    alg = Algebra(field, [(n, 1) for n in "abcuv"])
    rng = random.Random(2)
    words2 = alg.basis(2)
    found = 0
    for _ in range(200):
        assignments = {}
        for g in range(5):
            if rng.random() < 0.5:
                w = rng.choice(words2)
                c = field.rational(rng.choice([-1, 1]))
                assignments[g] = GradedElement(alg, {w: c})
        try:
            d = Differential(alg, assignments)
        except PreconditionError as e:
            found += 1
            assert not e.witness.is_zero()
            assert str(e).endswith(f"residue {e.witness}")
            continue
        for g in range(5):
            assert apply_d(d, apply_d(d, alg.word_element(alg.generator_word(g)))).is_zero()
    assert found > 0, "the randomized search must hit failing differentials"


def test_explicit_failing_differential():
    field = make_field(12)
    alg = Algebra(field, [(n, 1) for n in "abcuv"])
    a, b, c, u, v = (alg.generator(n) for n in "abcuv")
    with pytest.raises(PreconditionError,
                       match=r"^d\*d != 0 at generator a: residue c\*u\*v$") as info:
        Differential(alg, {"a": b * c, "b": u * v})
    assert info.value.witness == c * u * v


def test_apply_map_examples(model):
    g = model.gens
    z = model.field.zeta(4)
    assert apply_map(model.rho, g["theta"]) == g["theta"].scale(z * z)
    assert apply_map(model.rho, g["mu"] * g["nu"]) == (g["mu"] * g["nu"]).scale(z * z)
    assert apply_map(model.rho, model.omega) == model.omega


def test_rho_has_order_three(model):
    identity = identity_map(model.algebra).assignments
    assert model.rho.power(3).assignments == identity
    assert model.rho.power(1).assignments != identity
    assert model.rho.power(2).assignments != identity


def test_power_by_squaring_matches_repeated_composition(model):
    rho = model.rho
    step = rho.power(0)
    assert step.assignments == identity_map(model.algebra).assignments
    for k in range(1, 8):
        step = rho.compose(step)
        assert rho.power(k).assignments == step.assignments


@pytest.mark.parametrize("m", [20000, 10**9, 2**40 - 1])
def test_declared_order_costs_logarithmic_compositions(m, monkeypatch):
    """``dsl.parse`` validates f^m = id for each map; squaring keeps that to
    at most 2 * m.bit_length() compositions, whatever the order."""
    calls = []
    compose = AlgebraMap.compose

    def counting_compose(self, inner):
        calls.append(inner)
        return compose(self, inner)

    monkeypatch.setattr(AlgebraMap, "compose", counting_compose)
    text = (f"field cyclotomic 4\nalgebra A generators a:1 b:1\n"
            f"map f order {m} {{ a -> b ; b -> a }}\n")
    if m % 2:
        with pytest.raises(dsl.DslError, match=f"f\\^{m} is not the identity at a"):
            dsl.parse(text)
    else:
        dsl.parse(text)
    assert 0 < len(calls) <= 2 * m.bit_length()


def test_powers_make_no_composition_with_the_identity(model, monkeypatch):
    """``kernel.power`` starts from the square for the lowest set bit of k,
    so rho^1 is rho itself and rho^2, rho^3 and rho^4 take 1, 2 and 2
    compositions, none of them with the identity map."""
    calls = []
    compose = AlgebraMap.compose

    def counting_compose(self, inner):
        calls.append((self, inner))
        return compose(self, inner)

    monkeypatch.setattr(AlgebraMap, "compose", counting_compose)
    identity = identity_map(model.algebra).assignments
    counts = []
    for k in range(5):
        calls.clear()
        model.rho.power(k)
        counts.append(len(calls))
        assert all(f.assignments != identity for pair in calls for f in pair)
    assert counts == [0, 0, 1, 2, 2]
    assert model.rho.power(1) is model.rho


def test_graded_commutativity_randomized(model):
    rng = random.Random(3)
    alg = model.algebra
    for _ in range(300):
        p = rng.randint(0, 4)
        q = rng.randint(0, 4)
        x = random_homogeneous(alg, p, rng)
        y = random_homogeneous(alg, q, rng)
        sign = -1 if (p * q) % 2 else 1
        assert wedge(x, y) == wedge(y, x).scale(sign)


def test_associativity_randomized(model):
    rng = random.Random(4)
    alg = model.algebra
    for _ in range(200):
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        z = random_element(alg, rng)
        assert wedge(wedge(x, y), z) == wedge(x, wedge(y, z))


def test_leibniz_randomized(model):
    rng = random.Random(5)
    alg = model.algebra
    d = model.differential
    for _ in range(300):
        p = rng.randint(0, 5)
        x = random_homogeneous(alg, p, rng)
        y = random_element(alg, rng)
        lhs = apply_d(d, wedge(x, y))
        sign = -1 if p % 2 else 1
        rhs = wedge(apply_d(d, x), y) + wedge(x, apply_d(d, y)).scale(sign)
        assert lhs == rhs


def test_d_squared_on_random_elements(model):
    rng = random.Random(6)
    for _ in range(300):
        x = random_element(model.algebra, rng)
        assert apply_d(model.differential, apply_d(model.differential, x)).is_zero()


def test_rho_is_a_chain_map_on_basis_words(model):
    alg = model.algebra
    d = model.differential
    for k in range(alg.top + 1):
        for w in alg.basis(k):
            e = alg.word_element(w)
            assert apply_map(model.rho, apply_d(d, e)) == apply_d(d, apply_map(model.rho, e))


def test_rho_cubed_on_basis_words(model):
    alg = model.algebra
    rho3 = model.rho.power(3)
    for k in range(alg.top + 1):
        for w in alg.basis(k):
            e = alg.word_element(w)
            assert apply_map(rho3, e) == e


def test_truncated_even_generator_algebra():
    field = make_field(12)
    # one degree-2 polynomial generator truncated above degree 6: dims 1,0,1,0,1,0,1
    alg = Algebra(field, [("t", 2)], top=6)
    assert [alg.dim(k) for k in range(7)] == [1, 0, 1, 0, 1, 0, 1]
    t = alg.generator("t")
    t2 = t * t
    assert not t2.is_zero()
    assert (t2 * t2).is_zero()  # degree 8 exceeds the truncation
    assert t * t2 == t2 * t


def test_even_generators_require_top():
    field = make_field(12)
    with pytest.raises(ValueError, match="top degree"):
        Algebra(field, [("t", 2)])


def test_differential_degree_validation(model):
    g = model.gens
    with pytest.raises(ValueError, match="degree"):
        Differential(model.algebra, {"theta": g["mu"] * g["nu"] * g["eta"]})


def test_conjugation_is_involutive(model):
    rng = random.Random(7)
    for _ in range(100):
        x = random_element(model.algebra, rng)
        assert model.conjugation(model.conjugation(x)) == x


def test_format_element_basics(model):
    g = model.gens
    assert format_element(model.algebra.zero()) == "0"
    assert format_element(g["mu"] * g["nu"]) == "mu*nu"
    assert format_element(-(g["mu"] * g["nu"])) == "-mu*nu"
    assert format_element(g["mu"].scale(2) - g["nu"]) == "{2}*mu - nu"


def test_scalars_are_coerced_by_the_field_from_either_side():
    """A scalar factor of an element, on either side, is ``scale`` of the
    field's coercion, and a factor that is no scalar is Python's own
    ``TypeError``; a boxed scalar takes an int on its right by the same
    coercion."""
    f = make_field(12)
    a, z = Algebra(f, [("a", 1), ("b", 1)]).generator("a"), f.zeta()
    assert str(2 * a) == "{2}*a" and str(a * z) == "{z}*a"
    with pytest.raises(TypeError):
        a * "x"
    assert str(1 - z) == "-z + 1" and str(1 / z) == "-z^3 + z"


@pytest.mark.parametrize("which", ["paper", "even"])
def test_sums_and_differences_match_the_boxed_coefficients(model, which):
    """``x + y`` and ``x - y`` hold, word by word, the boxed sum and
    difference of the coefficients, with no word whose sum cancels."""
    alg = (paper_algebra(model) if which == "paper" else even_algebra())[0]
    rng = random.Random(5)
    for _ in range(100):
        x, y = random_element(alg, rng), random_element(alg, rng)
        words = set(x._terms) | set(y._terms)
        for sign, got in ((1, x + y), (-1, x - y)):
            assert got == GradedElement(
                alg, {w: x.coefficient(w) + sign * y.coefficient(w) for w in words})
        assert (x - x).is_zero() and (x + y) - y == x and (x - y) + y == x


# --- reference: the boxed arithmetic the library replaced -------------------

def ref_wedge(x, y):
    alg = x.algebra
    acc = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            m = alg.merge_words(w1, w2)
            if m is None:
                continue
            w, sign = m
            c = c1 * c2
            if sign < 0:
                c = -c
            s = acc.get(w)
            acc[w] = c if s is None else s + c
    return GradedElement(alg, acc)


def ref_apply_d(d, x):
    """Leibniz on every call: d(w1...wk) = sum (-1)^(deg prefix) w1..d(wi)..wk."""
    alg = x.algebra
    out = alg.zero()
    for w, c in x.terms.items():
        prefix_deg = 0
        seq = letters(alg, w)
        for i, g in enumerate(seq):
            dg = d.assignments.get(g)
            if dg is not None:
                term = ref_wedge(ref_wedge(alg.word_element(word_of(alg, seq[:i])), dg),
                                 alg.word_element(word_of(alg, seq[i + 1:])))
                out = out + term.scale(c if prefix_deg % 2 == 0 else -c)
            prefix_deg += alg.degrees[g]
    return out


def ref_apply_map(f, x):
    """Each word's image as a product from the unit, on every call."""
    out = f.target.zero()
    for w, c in x.terms.items():
        acc = f.target.unit()
        for g in letters(f.source, w):
            acc = ref_wedge(acc, f.assignments[g])
        out = out + acc.scale(c)
    return out


def ref_conjugate(conj, x):
    """Each word's swapped image as a product from the unit, times the
    conjugated coefficient."""
    alg = conj.algebra
    out = alg.zero()
    for w, c in x.terms.items():
        acc = alg.unit()
        for g in letters(alg, w):
            acc = ref_wedge(acc, alg.word_element(alg.generator_word(conj.pairing[g])))
        out = out + acc.scale(c.conjugate())
    return out


def even_algebra():
    """Odd c, a, b, e and even t, u, truncated above degree 8: repeated
    generators, products lost to the top, and signs from both merges of the
    Leibniz rule: d(u) = a*t crosses the prefix b in the word b*u, and
    d(c) holds a*e*t, which crosses the suffix b in the word c*b."""
    field = make_field(12)
    alg = Algebra(field, [("c", 3), ("a", 1), ("b", 1), ("e", 1), ("t", 2), ("u", 2)],
                  top=8)
    c, a, b, e, t, u = (alg.generator(n) for n in "cabetu")
    z = field.zeta(1)
    d = Differential(alg, {"b": t.scale(z), "u": a * t,
                           "c": a * e * t + (t * t).scale(z * z)})
    f = AlgebraMap(alg, alg, {"a": a.scale(2) - b, "b": b.scale(z), "e": e + a,
                              "t": t + a * b, "u": u.scale(z ** 3) + t, "c": c + a * t})
    return alg, d, [f, f.power(2)]


def ref_merge_words(alg, w1, w2):
    """The merge walk through two sorted generator sequences: a letter of w2
    placed in front of the letters of w1 still waiting adds its degree times
    theirs to the sign's exponent.  Returns (sequence, sign), or None for a
    repeated odd generator or a product past the top degree."""
    rem = sum(alg.degrees[g] for g in w1)
    if rem + sum(alg.degrees[g] for g in w2) > alg.top:
        return None
    out = []
    i, j = 0, 0
    sign_exp = 0
    while i < len(w1) and j < len(w2):
        a, b = w1[i], w2[j]
        if a < b:
            out.append(a)
            rem -= alg.degrees[a]
            i += 1
        elif a > b:
            out.append(b)
            sign_exp += alg.degrees[b] * rem
            j += 1
        else:
            if alg.odd[a]:
                return None
            out.append(a)
            rem -= alg.degrees[a]
            i += 1
    out.extend(w1[i:])
    out.extend(w2[j:])
    return tuple(out), (-1 if sign_exp % 2 else 1)


@pytest.mark.parametrize("which", ["paper", "truncated", "power-of-two top"])
def test_merge_words_matches_the_merge_walk_on_every_pair(model, which):
    """The int merge of basis words, decoded, on every ordered pair of them,
    against the walk above; and ints outside the basis (a degree field past
    the top, a set guard bit, a bit above every field, negative), whose
    products all vanish and which no element takes as a word.  At top 8 the
    degree of a product of two words, up to 16, fills its field."""
    if which == "paper":
        alg = model.algebra
        units = [alg.generator_word(g) for g in range(len(alg.gens))]
        above = 2 * (units[-1] - alg.word_degree(units[-1]))  # past etabar's bit
        # every generator with degree field 9, past the top; the bit above
        # every field, with degree field 0 and with mu
        outside = [sum(units) + 1, above, above + units[0], -1]
    elif which == "truncated":
        alg = Algebra(make_field(12), [("x", 2), ("y", 3), ("z", 1)], top=9)
        x, y, z = (alg.generator_word(g) for g in range(3))
        # x^5 and x^4*y, degree fields 10 and 11, are past the top, x^8 sets
        # x's guard bit, and 2*z holds the bit above z's, past every field
        outside = [5 * x, 4 * x + y, 8 * x, 2 * z, -1]
        assert alg.merge_words(4 * x, x) is None  # an even exponent past the top
        assert alg.merge_words(y, y) is None and alg.merge_words(x + z, z) is None
        assert alg.merge_words(x + y, x) == (2 * x + y, 1)
        assert alg.merge_words(z, y) == (y + z, -1)
    else:
        alg = Algebra(make_field(12), [("x", 2), ("y", 1), ("z", 1)], top=8)
        x, y, z = (alg.generator_word(g) for g in range(3))
        # x^4*y has degree field 9, past the top; x^8 sets x's guard bit with
        # degree field 16; 2*y is z's bit with degree field 2, not 1; and 2*z
        # holds the bit above z's, past every field
        outside = [4 * x + y, 8 * x, 2 * y, 2 * z, -1]
        assert alg.merge_words(4 * x, 4 * x) is None  # degree field 16
        assert alg.merge_words(3 * x + z, y) == (3 * x + y + z, -1)  # degree 8
    for w in outside:
        for build in (alg.word_element, lambda u: GradedElement(alg, {u: 1}),
                      alg.unit().coefficient):
            with pytest.raises(ValueError, match="not a basis word"):
                build(w)
    words = [w for k in range(alg.top + 1) for w in alg.basis(k)]
    outcomes = set()
    for w1 in words:
        for w2 in words:
            got = alg.merge_words(w1, w2)
            ref = ref_merge_words(alg, letters(alg, w1), letters(alg, w2))
            assert (got and (letters(alg, got[0]), got[1])) == ref, (w1, w2)
            if got is None:
                past_top = alg.word_degree(w1) + alg.word_degree(w2) > alg.top
                outcomes.add("past the top" if past_top else "repeated odd")
            else:
                outcomes.add(got[1])
    assert {1, -1, "repeated odd"} <= outcomes
    if which != "paper":
        assert "past the top" in outcomes
    for w1 in outside:
        for w2 in outside + words:
            assert alg.merge_words(w1, w2) is None, (w1, w2)
            assert alg.merge_words(w2, w1) is None, (w2, w1)


def paper_algebra(model):
    alg, g = model.algebra, model.gens
    z = model.field.zeta(1)
    mixing = AlgebraMap(alg, alg, {
        "mu": g["mu"] + g["nu"].scale(z), "nu": g["nu"] - g["eta"],
        "theta": g["theta"] + g["mubar"], "eta": g["eta"].scale(z * z),
        "mubar": g["mubar"], "nubar": g["nubar"] + g["mubar"].scale(3),
        "thetabar": g["thetabar"].scale(z), "etabar": g["etabar"] + g["mu"]})
    return alg, model.differential, [model.rho, model.rho.power(2), mixing]


@pytest.mark.parametrize("which", ["paper", "even"])
def test_cochain_arithmetic_matches_boxed_reference(model, which):
    alg, d, maps = paper_algebra(model) if which == "paper" else even_algebra()
    rng = random.Random(11)
    for _ in range(150):
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        assert wedge(x, y) == ref_wedge(x, y)
        assert apply_d(d, x) == ref_apply_d(d, x)
        for f in maps:
            assert apply_map(f, x) == ref_apply_map(f, x)
    for k in range(alg.top + 1):
        rows = [f.word_rows(k) for f in maps]
        for i, w in enumerate(alg.basis(k)):
            e = alg.word_element(w)
            assert apply_d(d, e) == ref_apply_d(d, e)
            for f, f_rows in zip(maps, rows):
                image = ref_apply_map(f, e)
                assert apply_map(f, e) == image
                assert f_rows[i] == image.to_row(k)


def test_returned_elements_own_their_terms():
    alg, d, (f, _) = even_algebra()
    b, c, t, u = (alg.generator(n) for n in "bctu")
    for x in (c * b, c * b + t * u):
        for op, ref in ((lambda v: apply_d(d, v), ref_apply_d(d, x)),
                        (lambda v: apply_map(f, v), ref_apply_map(f, x))):
            first = op(x)
            assert first == ref and not first.is_zero()
            first._terms.clear()
            assert op(x) == ref
            second = op(x)
            for w in list(second._terms):
                second._terms[w] = alg.field.rational(7).cv
            assert op(x) == ref


def test_a_coefficient_of_another_field_is_refused(model):
    """An element stores its coefficients' cvs as they are, so a value of
    Q(zeta_4) in a Q(zeta_12) algebra would be a malformed cv of the wrong
    length; the constructor refuses it as field arithmetic does."""
    alg = model.algebra
    mu, nu = alg.generator_word(0), alg.generator_word(1)  # words 0 and 1 of degree 1
    i4 = make_field(4).imaginary_unit()
    with pytest.raises(ValueError, match="^conductor mismatch: 4 vs 12$"):
        GradedElement(alg, {mu: i4})
    with pytest.raises(ValueError, match="^conductor mismatch: 4 vs 12$"):
        GradedElement(alg, {mu: alg.field.one, nu: i4})
    x = GradedElement(alg, {mu: alg.field.imaginary_unit(), nu: alg.field.zero})
    assert x.to_row(1) == {0: alg.field.imaginary_unit().cv}


def test_engine_paths_build_no_field_element(model, monkeypatch):
    """Products, differentials, map images, sums and class solves of
    elements built earlier work on the stored ``{word: cv}`` maps and box
    no coefficient; ``terms`` is a fresh boxed copy on every read."""
    g, table = model.gens, model.table
    x, y = model.omega, g["mu"] * g["nu"]
    r = table.representatives(2)[0]
    # the eliminators behind the class solves invert each pivot once, in
    # linalg._inv_cv, which boxes; build them first, so the test does not
    # depend on another test having built them
    table.class_coords(r, 2)
    table.class_coords(wedge(r, x), 4)
    boxes = []
    init = FieldElement.__init__

    def counting(self, *args):
        boxes.append(args)
        init(self, *args)

    monkeypatch.setattr(FieldElement, "__init__", counting)
    wedge(x, r)
    apply_d(model.differential, y)
    apply_map(model.rho, x)
    model.conjugation(x)
    assert not (x + y - x - y)
    table.class_coords(r, 2)
    table.class_coords(wedge(r, x), 4)
    assert boxes == []
    monkeypatch.undo()
    terms = x.terms
    assert terms is not x.terms and terms == x.terms
    assert all(isinstance(c, FieldElement) for c in terms.values())
    terms.clear()
    assert x.terms and not x.is_zero()


def test_words_outside_the_basis_are_refused(model):
    """A tuple of generator indices, x^4 past the top (in x's guard bit), a
    bit above every field, a negative int and a bool are refused where an
    element is built from words or a coefficient is read."""
    alg = Algebra(make_field(1), [("a", 1), ("b", 1), ("x", 2)], top=6)
    a, b, x = (alg.generator_word(g) for g in range(3))
    assert alg.basis(6)[-1] == 3 * x  # x's field: exponents 0..3, then a guard bit
    # x^4 sets x's guard bit; x's low field bit times 8 is the bit above
    # x's exponent bits and guard bit, past every field, with degree field 0
    above = 8 * (x - alg.word_degree(x))
    y = alg.word_element(a + b)
    for word in [(0, 1), 4 * x, above, -1, True]:
        with pytest.raises(ValueError, match="not a basis word"):
            alg.word_element(word)
        with pytest.raises(ValueError, match="not a basis word"):
            GradedElement(alg, {word: 1})
        with pytest.raises(ValueError, match="not a basis word"):
            y.coefficient(word)
    assert y == GradedElement(alg, {word_of(alg, (0, 1)): 1})
    assert y.coefficient(a + b) == alg.field.one and y.coefficient(a).is_zero()
    omega = model.omega
    etabar = model.algebra.generator_word(7)
    above = 2 * (etabar - model.algebra.word_degree(etabar))  # degree field 0
    for word in [(1, 0), (99,), above]:  # the bit above etabar's, past every field
        with pytest.raises(ValueError, match="not a basis word"):
            omega.coefficient(word)
    mu_mubar = word_of(model.algebra, (0, 4))
    assert omega.coefficient(mu_mubar) == model.field.imaginary_unit()


def test_a_generator_above_the_top_degree_is_refused(tmp_path, capsys):
    with pytest.raises(ValueError, match="generator b: degree 3 is above the top degree 2"):
        Algebra(make_field(1), [("a", 1), ("b", 3)], top=2)
    path = tmp_path / "s.cdga"
    path.write_text("field cyclotomic 1\nalgebra A generators a:1 b:3 top 2\n"
                    "let y = b\ntask betti A\n")
    assert cli_main(["check", str(path)]) == 2
    assert "above the top degree" in capsys.readouterr().err


def test_word_caches_belong_to_their_instance():
    alg, d1, (f1, _) = even_algebra()
    c, a, b, e, t, u = (alg.generator(n) for n in "cabetu")
    d2 = Differential(alg, {"c": u * u})
    f2 = AlgebraMap(alg, alg, {"a": b, "b": a, "e": e, "t": u, "u": t, "c": c})
    x = b * c * t
    for _ in range(2):
        for d in (d1, d2):
            assert apply_d(d, x) == ref_apply_d(d, x)
        for f in (f1, f2):
            assert apply_map(f, x) == ref_apply_map(f, x)
    assert apply_d(d1, x) != apply_d(d2, x)
    assert apply_map(f1, x) != apply_map(f2, x)


@pytest.mark.parametrize("which", ["paper", "even"])
def test_conjugation_matches_boxed_reference(model, which):
    if which == "paper":
        alg, conj = model.algebra, model.conjugation
    else:
        alg = even_algebra()[0]
        conj = Conjugation(alg, [("c", "c"), ("a", "b"), ("e", "e"), ("t", "u")])
    rng = random.Random(13)
    samples = [random_element(alg, rng) for _ in range(150)]
    samples += [alg.word_element(w) for k in range(alg.top + 1) for w in alg.basis(k)]
    for x in samples:
        y = conj(x)
        assert y == ref_conjugate(conj, x)
        assert conj(y) == x


# --- basis enumeration and the word budget ----------------------------------

LADDER = ROOT / "perfbench" / "sessions" / "ladder.cdga"


def ref_basis(alg):
    """The basis words of each degree, as generator sequences, by the
    recursive walk the engine used to take: each word, then its extensions
    by generators in order."""
    basis = [[] for _ in range(alg.top + 1)]

    def collect(start, word, deg):
        basis[deg].append(tuple(word))
        for g in range(start, len(alg.gens)):
            d2 = deg + alg.degrees[g]
            if d2 <= alg.top:
                collect(g + 1 if alg.odd[g] else g, word + [g], d2)

    collect(0, [], 0)
    return basis


def mixed_algebra():
    return Algebra(make_field(4), [("a", 1), ("x", 2), ("b", 3), ("y", 2), ("c", 1),
                                   ("w", 4)], top=14)


@pytest.mark.parametrize("which", ["paper", "ladder", "mixed", "even", "truncated"])
def test_iterative_enumeration_keeps_the_recursive_word_order(model, which):
    """The int words of each degree decode to the sequences of the recursive
    walk, in its order, which is the lexicographic order of the sequences;
    ``format_word`` names the same sequence, and each word reads back its
    degree and its index in that degree."""
    alg = {"paper": lambda: model.algebra,
           "ladder": lambda: dsl.parse(LADDER.read_text()).algebras["M"].algebra,
           "mixed": mixed_algebra,
           "even": lambda: even_algebra()[0],
           "truncated": lambda: Algebra(make_field(12), [("x", 2), ("y", 3), ("z", 1)],
                                        top=9)}[which]()
    ref = ref_basis(alg)
    decoded = [[letters(alg, w) for w in alg.basis(k)] for k in range(alg.top + 1)]
    assert decoded == ref
    assert all(seqs == sorted(seqs) for seqs in decoded)
    for k in range(alg.top + 1):
        for i, (w, seq) in enumerate(zip(alg.basis(k), decoded[k])):
            assert alg.format_word(w) == "*".join(alg.gens[g].name for g in seq)
            assert alg.word_degree(w) == k and alg.word_index(w) == i
    assert word_count(alg.degrees, alg.odd, alg.top) == alg.total_dim() == sum(map(len, ref))


def test_a_long_word_is_enumerated_and_mapped_without_recursion(tmp_path, capsys):
    """x:2 up to degree 1980 has one word per even degree, the longest 990
    letters: more than the interpreter's recursion limit allows a recursive
    walk, or a recursive prefix chain of word images."""
    path = tmp_path / "long.cdga"
    path.write_text("field cyclotomic 4\nalgebra A generators x:2 top 1980\n"
                    "map f order 2 { x -> {-1}*x }\ntask betti A\n")
    assert cli_main(["check", str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: ok (1 task(s))\n"
    alg = dsl.parse(path.read_text()).algebras["A"].algebra
    assert alg.total_dim() == 991
    assert letters(alg, alg.basis(1980)[0]) == (0,) * 990
    top_word = alg.word_element(alg.basis(1980)[0])
    neg = AlgebraMap(alg, alg, {"x": -alg.generator("x")})
    assert apply_map(neg, top_word) == top_word  # (-1)^990


def test_a_word_row_merges_only_d_of_its_prefix_and_of_its_last_generator(monkeypatch):
    """d(p*g) = d(p)*g + (-1)^|p| p*d(g): every word row of the ladder takes
    one merge per term of d(p) and of d(g), 307 in all, not one per term of
    d(letter) for every letter of every word."""
    ctx = dsl.parse(LADDER.read_text()).algebras["M"]
    merges = []
    merge = Algebra.merge_words

    def counting(self, w1, w2):
        merges.append((w1, w2))
        return merge(self, w1, w2)

    monkeypatch.setattr(Algebra, "merge_words", counting)
    for k in range(ctx.algebra.top + 1):
        ctx.differential.word_rows(k)
    assert len(merges) == 307


def mixed_degree_linear_maps():
    """x:2 y:3 z:1 up to degree 9, where the prefix of x*y has degree
    k - 3 and that of x*z degree k - 1, with d(y) = zeta * x^2 and the map
    x -> zeta * x, y -> y + x*z, z -> 2z."""
    field = make_field(12)
    alg = Algebra(field, [("x", 2), ("y", 3), ("z", 1)], top=9)
    x, y, z = (alg.generator(n) for n in "xyz")
    zeta = field.zeta(1)
    d = Differential(alg, {"y": (x * x).scale(zeta)})
    f = AlgebraMap(alg, alg, {"x": x.scale(zeta), "y": y + x * z,
                              "z": z.scale(2)})
    return alg, d, f


def boxed_word_rows(linear, k):
    """The rows of ``linear`` on the degree-k words, from the boxed
    reference on each word element."""
    alg = linear.source
    ref = ref_apply_d if isinstance(linear, Differential) else ref_apply_map
    return [ref(linear, alg.word_element(w)).to_row(k + linear.shift)
            for w in alg.basis(k)]


def counted_value_calls(monkeypatch):
    """The list of words that ``_WordLinear._value`` is called on from now."""
    calls = []
    value = _WordLinear._value
    monkeypatch.setattr(_WordLinear, "_value",
                        lambda self, w: calls.append(w) or value(self, w))
    return calls


@pytest.mark.parametrize("case", ["paper d", "paper rho", "mixed d", "mixed map"])
@pytest.mark.parametrize("order", ["top first", "in order"])
def test_word_rows_in_any_degree_order_match_the_boxed_reference(model, monkeypatch,
                                                                 case, order):
    """On fresh copies, whose only kept values are those of the d*d check,
    ``word_rows`` read from the top degree down walks from words whose
    prefix is not kept yet, and read in degree order extends every word by
    one step from its kept prefix, of degree k - deg(g), without a single
    ``_value`` call; both give the boxed reference's rows."""
    if case.startswith("paper"):
        alg = model.algebra
        fresh = (Differential(alg, model.differential.assignments) if case == "paper d"
                 else AlgebraMap(alg, alg, model.rho.assignments))
    else:
        alg, d, f = mixed_degree_linear_maps()
        fresh = d if case == "mixed d" else f
    degrees = range(alg.top + 1)
    if order == "top first":
        degrees = reversed(degrees)
    calls = counted_value_calls(monkeypatch)
    for k in degrees:
        assert fresh.word_rows(k) == boxed_word_rows(fresh, k), k
    assert bool(calls) == (order == "top first")


def test_the_ladder_table_builds_every_word_row_in_one_step(monkeypatch):
    """The full table of the ladder reads the d-matrices in degree order, so
    no word value is built by ``_value``'s prefix walk."""
    ctx = dsl.parse(LADDER.read_text()).algebras["M"]
    calls = counted_value_calls(monkeypatch)
    table = CohomologyTable(CochainComplex(ctx.differential))
    assert sum(table.betti) > 0 and calls == []


def test_word_count_refuses_past_the_budget():
    assert word_count((1,) * 18, (True,) * 18, 18) == WORD_BUDGET
    with pytest.raises(ValueError, match=f"more than {WORD_BUDGET} basis words"):
        word_count((1,) * 19, (True,) * 19, 19)
    with pytest.raises(ValueError, match=f"more than {WORD_BUDGET} basis words"):
        word_count((2, 2, 2), (False,) * 3, 2000)  # about 500^3 / 6 words
    with pytest.raises(ValueError, match=f"top degree {WORD_BUDGET + 1} is over budget"):
        Algebra(make_field(4), [("x", WORD_BUDGET + 1)])
