import random

import pytest

from cdgalab import dsl
from cdgalab import (Algebra, AlgebraMap, Conjugation, Differential, PreconditionError,
                     apply_d, apply_map, identity_map, make_field, wedge)
from cdgalab.algebra import WORD_BUDGET, GradedElement, format_element, word_count
from cdgalab.cli import main as cli_main
from cdgalab.field import FieldElement

from conftest import ROOT, random_element, random_homogeneous


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
            assert apply_d(d, apply_d(d, alg.word_element((g,)))).is_zero()
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
        for i, g in enumerate(w):
            dg = d.assignments.get(g)
            if dg is not None:
                term = ref_wedge(ref_wedge(alg.word_element(w[:i]), dg),
                                 alg.word_element(w[i + 1:]))
                out = out + term.scale(c if prefix_deg % 2 == 0 else -c)
            prefix_deg += alg.degrees[g]
    return out


def ref_apply_map(f, x):
    """Each word's image as a product from the unit, on every call."""
    out = f.target.zero()
    for w, c in x.terms.items():
        acc = f.target.unit()
        for g in w:
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
        for g in w:
            acc = ref_wedge(acc, alg.word_element((conj.pairing[g],)))
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
    """The merge walk through both sorted words: a letter of w2 placed in
    front of the letters of w1 still waiting adds its degree times theirs to
    the sign's exponent.  Returns (word, sign), or None for a repeated odd
    generator or a product past the top degree."""
    rem = alg.word_degree(w1)
    if rem + alg.word_degree(w2) > alg.top:
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


@pytest.mark.parametrize("which", ["paper", "truncated"])
def test_merge_words_matches_the_merge_walk_on_every_pair(model, which):
    """The odd-mask merge of basis words, on every ordered pair of them,
    against the walk above; and words outside the basis, which are past the
    top or repeat an odd generator, so every product with them vanishes."""
    if which == "paper":
        alg = model.algebra
        outside = [(0, 0), (1, 1), (0, 1, 1)]  # mu*mu, nu*nu, mu*nu*nu
    else:
        alg = Algebra(make_field(12), [("x", 2), ("y", 3), ("z", 1)], top=9)
        outside = [(1, 1), (2, 2), (0,) * 5, (0, 0, 0, 0, 1)]  # y*y, z*z, past the top
    words = [w for k in range(alg.top + 1) for w in alg.basis(k)]
    outcomes = set()
    for w1 in words:
        for w2 in words:
            got = alg.merge_words(w1, w2)
            assert got == ref_merge_words(alg, w1, w2), (w1, w2)
            if got is None:
                past_top = alg.word_degree(w1) + alg.word_degree(w2) > alg.top
                outcomes.add("past the top" if past_top else "repeated odd")
            else:
                outcomes.add(got[1])
    assert {1, -1, "repeated odd"} <= outcomes
    if which == "truncated":
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
    i4 = make_field(4).imaginary_unit()
    with pytest.raises(ValueError, match="^conductor mismatch: 4 vs 12$"):
        GradedElement(alg, {(0,): i4})
    with pytest.raises(ValueError, match="^conductor mismatch: 4 vs 12$"):
        GradedElement(alg, {(0,): alg.field.one, (1,): i4})
    x = GradedElement(alg, {(0,): alg.field.imaginary_unit(), (1,): alg.field.zero})
    assert x.to_row(1) == {0: alg.field.imaginary_unit().cv}


def test_engine_paths_build_no_field_element(model, monkeypatch):
    """Products, differentials, map images, sums and class solves of
    elements built earlier work on the stored ``{word: cv}`` maps and box
    no coefficient; ``terms`` is a fresh boxed copy on every read."""
    g, table = model.gens, model.table
    x, y = model.omega, g["mu"] * g["nu"]
    r = table.representatives(2)[0]
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


def test_words_outside_the_basis_are_refused():
    """An unsorted word, a repeated odd generator, an unknown generator index
    and a negative one are refused where an element is built from words."""
    alg = Algebra(make_field(1), [("a", 1), ("b", 1), ("x", 2)], top=6)
    with pytest.raises(ValueError, match="not a basis word"):
        GradedElement(alg, {(1, 0): 1})
    for word in [(0, 0), (7,), (-1,)]:
        with pytest.raises(ValueError, match="not a basis word"):
            alg.word_element(word)
        with pytest.raises(ValueError, match="not a basis word"):
            GradedElement(alg, {word: 1})
    assert alg.word_element((0, 1)) == GradedElement(alg, {(0, 1): 1})


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
    """The basis words of each degree by the recursive walk the engine used
    to take: each word, then its extensions by generators in order."""
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


@pytest.mark.parametrize("which", ["paper", "ladder", "mixed", "even"])
def test_iterative_enumeration_keeps_the_recursive_word_order(model, which):
    alg = {"paper": lambda: model.algebra,
           "ladder": lambda: dsl.parse(LADDER.read_text()).algebras["M"].algebra,
           "mixed": mixed_algebra,
           "even": lambda: even_algebra()[0]}[which]()
    ref = ref_basis(alg)
    assert [alg.basis(k) for k in range(alg.top + 1)] == ref
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


def test_word_count_refuses_past_the_budget():
    assert word_count((1,) * 18, (True,) * 18, 18) == WORD_BUDGET
    with pytest.raises(ValueError, match=f"more than {WORD_BUDGET} basis words"):
        word_count((1,) * 19, (True,) * 19, 19)
    with pytest.raises(ValueError, match=f"more than {WORD_BUDGET} basis words"):
        word_count((2, 2, 2), (False,) * 3, 2000)  # about 500^3 / 6 words
    with pytest.raises(ValueError, match=f"top degree {WORD_BUDGET + 1} is over budget"):
        Algebra(make_field(4), [("x", WORD_BUDGET + 1)])
