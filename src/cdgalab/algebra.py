"""Free graded-commutative algebras with a differential.

Basis words are tuples of generator indices sorted by declaration order; odd
generators appear at most once, even generators may repeat up to the declared
truncation degree.  The sign of a product is the parity of degree-weighted
transpositions in the merge of the two sorted words; this single convention
fixes every sign produced by the engine.

Coefficients are boxed as ``FieldElement`` only at the public boundary.
``wedge``, ``apply_d`` and ``apply_map`` accumulate ``{word: cv}`` maps of the
kernel's canonical integer tuples (see ``_kernel_py``) and build one
``GradedElement`` at the end.  Two per-word caches serve them:

- a ``Differential`` computes each word's differential once, by the Leibniz
  rule, and ``apply_d`` is the linear combination of those rows;
- an ``AlgebraMap`` keeps the image of every word it has mapped, each one
  the image of the word's prefix times the image of its last generator.

Each cache lives on its instance, so two differentials or two maps never
share one.  Nothing cached escapes: every call returns a fresh element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._backend import kernel
from .field import CycloField, FieldElement, format_scalar


@dataclass(frozen=True)
class GeneratorSpec:
    name: str
    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"generator {self.name}: degree must be >= 1")


Word = tuple  # tuple of generator indices, sorted


class Algebra:
    """Free graded-commutative algebra on named generators, truncated above
    a top degree (the default top for an all-odd generator list is the sum of
    the degrees, i.e. no truncation)."""

    def __init__(self, field: CycloField, generators, top: int | None = None):
        self.field = field
        gens = []
        for g in generators:
            if not isinstance(g, GeneratorSpec):
                g = GeneratorSpec(*g)
            gens.append(g)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        self.gens = tuple(gens)
        self.degrees = tuple(g.degree for g in gens)
        self.odd = tuple(g.degree % 2 == 1 for g in gens)
        if top is None:
            if not all(self.odd):
                raise ValueError("an algebra with even generators needs an explicit top degree")
            top = sum(self.degrees)
        self.top = top
        self._index = {g.name: i for i, g in enumerate(gens)}
        self._basis: list[list[Word]] = [[] for _ in range(top + 1)]
        self._collect_words(0, [], 0)
        self._word_pos = [
            {w: i for i, w in enumerate(words)} for words in self._basis
        ]
        self._word_degree = {w: k for k, words in enumerate(self._basis) for w in words}

    def _collect_words(self, start: int, word: list, deg: int):
        self._basis[deg].append(tuple(word))
        for g in range(start, len(self.gens)):
            d2 = deg + self.degrees[g]
            if d2 > self.top:
                continue
            word.append(g)
            self._collect_words(g + 1 if self.odd[g] else g, word, d2)
            word.pop()

    # --- basis bookkeeping ---

    def basis(self, degree: int) -> list[Word]:
        if degree < 0 or degree > self.top:
            return []
        return self._basis[degree]

    def dim(self, degree: int) -> int:
        return len(self.basis(degree))

    def total_dim(self) -> int:
        return sum(len(b) for b in self._basis)

    def word_index(self, degree: int, word: Word) -> int:
        return self._word_pos[degree][word]

    def word_degree(self, word: Word) -> int:
        deg = self._word_degree.get(word)
        if deg is None:  # a word past the truncation, or with a repeated odd generator
            return sum(self.degrees[g] for g in word)
        return deg

    def generator_index(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"unknown generator {name!r}")
        return self._index[name]

    def generator(self, name: str) -> "GradedElement":
        g = self.generator_index(name)
        return GradedElement(self, {(g,): self.field.one})

    def word_element(self, word: Word) -> "GradedElement":
        return GradedElement(self, {tuple(word): self.field.one})

    def zero(self) -> "GradedElement":
        return GradedElement(self, {})

    def scalar(self, value) -> "GradedElement":
        c = self.field.element(value) if isinstance(value, FieldElement) else self.field.rational(value)
        if c.is_zero():
            return self.zero()
        return GradedElement(self, {(): c})

    def unit(self) -> "GradedElement":
        return GradedElement(self, {(): self.field.one})

    def merge_words(self, w1: Word, w2: Word):
        """Merge two sorted words; returns (word, sign) or None when the
        product vanishes (repeated odd generator or truncation)."""
        rem = self.word_degree(w1)
        if rem + self.word_degree(w2) > self.top:
            return None
        out = []
        i, j = 0, 0
        n1, n2 = len(w1), len(w2)
        sign_exp = 0
        degrees = self.degrees
        while i < n1 and j < n2:
            a, b = w1[i], w2[j]
            if a < b:
                out.append(a)
                rem -= degrees[a]
                i += 1
            elif a > b:
                out.append(b)
                sign_exp += degrees[b] * rem
                j += 1
            else:
                if self.odd[a]:
                    return None
                out.append(a)
                rem -= degrees[a]
                i += 1
        out.extend(w1[i:])
        out.extend(w2[j:])
        return tuple(out), (-1 if sign_exp % 2 else 1)

    def format_word(self, word: Word) -> str:
        return "*".join(self.gens[g].name for g in word)

    def __repr__(self):
        gens = " ".join(f"{g.name}:{g.degree}" for g in self.gens)
        return f"Algebra({gens}; top={self.top}, n={self.field.n})"


class GradedElement:
    """Element of an Algebra as a map from basis words to nonzero scalars."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms: dict):
        self.algebra = algebra
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}

    # --- linear structure ---

    def _check(self, other: "GradedElement"):
        if other.algebra is not self.algebra:
            raise ValueError("algebra mismatch")

    def __add__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = terms.get(w)
            terms[w] = c if s is None else s + c
        return GradedElement(self.algebra, terms)

    def __sub__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = terms.get(w)
            terms[w] = -c if s is None else s - c
        return GradedElement(self.algebra, terms)

    def __neg__(self):
        return GradedElement(self.algebra, {w: -c for w, c in self.terms.items()})

    def scale(self, scalar) -> "GradedElement":
        c = self.algebra.field.element(scalar) if isinstance(scalar, FieldElement) \
            else self.algebra.field.rational(scalar)
        if c.is_zero():
            return self.algebra.zero()
        return GradedElement(self.algebra, {w: t * c for w, t in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, GradedElement):
            return wedge(self, other)
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.scale(other)
        return NotImplemented

    # --- views ---

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, word: Word) -> FieldElement:
        return self.terms.get(tuple(word), self.algebra.field.zero)

    def degree(self) -> int | None:
        """The common degree of all terms, or None for 0 or mixed elements."""
        degs = {self.algebra.word_degree(w) for w in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self, degree: int | None = None) -> bool:
        d = self.degree()
        if not self.terms:
            return True
        if degree is None:
            return d is not None
        return d == degree

    def homogeneous_part(self, degree: int) -> "GradedElement":
        alg = self.algebra
        return GradedElement(
            alg, {w: c for w, c in self.terms.items() if alg.word_degree(w) == degree})

    def sorted_terms(self):
        alg = self.algebra
        return sorted(
            self.terms.items(),
            key=lambda wc: (alg.word_degree(wc[0]), alg.word_index(alg.word_degree(wc[0]), wc[0])),
        )

    def to_coords(self, degree: int) -> list[FieldElement]:
        """Coordinates on the degree-`degree` word basis; rejects other terms."""
        alg = self.algebra
        vec = [alg.field.zero] * alg.dim(degree)
        for w, c in self.terms.items():
            if alg.word_degree(w) != degree:
                raise ValueError(f"term {alg.format_word(w)} is not of degree {degree}")
            vec[alg.word_index(degree, w)] = c
        return vec

    def to_row(self, degree: int) -> dict:
        """Sparse coordinates ``{word index: cv}`` on the degree-`degree` word
        basis; rejects other terms."""
        alg = self.algebra
        row = {}
        for w, c in self.terms.items():
            if alg.word_degree(w) != degree:
                raise ValueError(f"term {alg.format_word(w)} is not of degree {degree}")
            row[alg.word_index(degree, w)] = c.cv
        return row

    @staticmethod
    def from_row(algebra: Algebra, degree: int, row: dict) -> "GradedElement":
        words = algebra.basis(degree)
        field = algebra.field
        return GradedElement(algebra, {words[j]: FieldElement(field, cv)
                                       for j, cv in row.items()})

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"<{format_element(self)}>"


def _element(alg: Algebra, terms: dict) -> GradedElement:
    """Box ``{word: cv}``, which holds no zero, into a fresh element."""
    field = alg.field
    x = GradedElement.__new__(GradedElement)
    x.algebra = alg
    x.terms = {w: FieldElement(field, cv) for w, cv in terms.items()}
    return x


def _product(alg: Algebra, xs: dict, ys: dict) -> dict:
    """The product of ``{word: cv}`` maps, as a new one without zeros."""
    mul = alg.field.mul
    merge = alg.merge_words
    cv_mul, cv_neg, cv_add = kernel.cv_mul, kernel.cv_neg, kernel.cv_add
    acc: dict = {}
    for w1, a in xs.items():
        for w2, b in ys.items():
            m = merge(w1, w2)
            if m is None:
                continue
            w, sign = m
            c = cv_mul(a, b, mul)
            if sign < 0:
                c = cv_neg(c)
            s = acc.get(w)
            acc[w] = c if s is None else cv_add(s, c)
    return {w: c for w, c in acc.items() if not kernel.cv_is_zero(c)}


def _cvs(x: GradedElement) -> dict:
    return {w: c.cv for w, c in x.terms.items()}


def wedge(x: GradedElement, y: GradedElement) -> GradedElement:
    """Graded-commutative product."""
    if y.algebra is not x.algebra:
        raise ValueError("algebra mismatch")
    return _element(x.algebra, _product(x.algebra, _cvs(x), _cvs(y)))


def format_element(x: GradedElement) -> str:
    """Canonical expression form, round-trippable through the session parser."""
    if x.is_zero():
        return "0"
    parts = []
    one = x.algebra.field.one
    for w, c in x.sorted_terms():
        neg = c.prints_negative()
        mag = -c if neg else c
        if not w:
            body = "{%s}" % format_scalar(mag)
        elif mag == one:
            body = x.algebra.format_word(w)
        else:
            body = "{%s}*%s" % (format_scalar(mag), x.algebra.format_word(w))
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)


@dataclass
class D2Verdict:
    """Outcome of the d-squared check."""
    ok: bool
    failing_generator: str | None = None
    residue: GradedElement | None = None

    def __bool__(self):
        return self.ok


class Differential:
    """Degree +1 derivation given on generators and extended by Leibniz.

    Generators absent from the assignment map have differential zero.  The
    assignments are validated eagerly (homogeneity and d*d = 0) unless
    ``check=False`` is passed, which is only meant for the d-squared checker
    itself."""

    def __init__(self, algebra: Algebra, assignments: dict, check: bool = True):
        self.algebra = algebra
        norm: dict[int, GradedElement] = {}
        for key, val in assignments.items():
            g = algebra.generator_index(key) if isinstance(key, str) else key
            if val.algebra is not algebra:
                raise ValueError("algebra mismatch in differential assignment")
            if val.is_zero():
                continue
            want = algebra.degrees[g] + 1
            if not val.is_homogeneous(want):
                raise ValueError(
                    f"d({algebra.gens[g].name}) must be homogeneous of degree {want}")
            norm[g] = val
        self.assignments = norm
        self._gen_d = {g: _cvs(v) for g, v in norm.items()}
        self._word_d: dict = {}
        if check:
            verdict = check_d_squared(self)
            if not verdict.ok:
                raise ValueError(
                    f"d*d != 0 at generator {verdict.failing_generator}: "
                    f"residue {verdict.residue}")

    def _word_row(self, w: Word) -> dict:
        """d of the word w as ``{word: cv}``, computed on first use and kept."""
        row = self._word_d.get(w)
        if row is None:
            row = self._word_d[w] = self._leibniz(w)
        return row

    def _leibniz(self, w: Word) -> dict:
        # d(w1...wk) = sum (-1)^(deg prefix) w1..d(wi)..wk, each term merged
        # as (prefix * d(wi)) * suffix, the order in which wedge multiplies them
        alg = self.algebra
        merge = alg.merge_words
        acc: dict = {}
        prefix_deg = 0
        for i, g in enumerate(w):
            dg = self._gen_d.get(g)
            if dg is not None:
                pre, suf = w[:i], w[i + 1:]
                for t, c in dg.items():
                    m = merge(pre, t)
                    if m is None:
                        continue
                    r, s1 = m
                    m = merge(r, suf)
                    if m is None:
                        continue
                    word, s2 = m
                    if s1 * s2 * (-1 if prefix_deg % 2 else 1) < 0:
                        c = kernel.cv_neg(c)
                    s = acc.get(word)
                    acc[word] = c if s is None else kernel.cv_add(s, c)
            prefix_deg += alg.degrees[g]
        return {word: c for word, c in acc.items() if not kernel.cv_is_zero(c)}

    def __call__(self, x: GradedElement) -> GradedElement:
        return apply_d(self, x)


def apply_d(d: Differential, x: GradedElement) -> GradedElement:
    """Leibniz extension: the combination of the word differentials."""
    alg = x.algebra
    if alg is not d.algebra:
        raise ValueError("algebra mismatch")
    mul = alg.field.mul
    acc: dict = {}
    for w, c in x.terms.items():
        row = d._word_row(w)
        if row:
            kernel.row_axpy(acc, row, c.cv, mul)
    return _element(alg, acc)


def check_d_squared(d: Differential) -> D2Verdict:
    """d*d = 0 on every generator (sufficient by the Leibniz rule)."""
    alg = d.algebra
    for g in range(len(alg.gens)):
        dg = d.assignments.get(g)
        if dg is None:
            continue
        residue = apply_d(d, dg)
        if not residue.is_zero():
            return D2Verdict(False, alg.gens[g].name, residue)
    return D2Verdict(True)


class AlgebraMap:
    """Degree-preserving algebra morphism given on generators."""

    def __init__(self, source: Algebra, target: Algebra, assignments: dict):
        self.source = source
        self.target = target
        norm: dict[int, GradedElement] = {}
        for key, val in assignments.items():
            g = source.generator_index(key) if isinstance(key, str) else key
            if val.algebra is not target:
                raise ValueError("algebra mismatch in map assignment")
            if not val.is_homogeneous(source.degrees[g]):
                raise ValueError(
                    f"image of {source.gens[g].name} must be homogeneous of degree "
                    f"{source.degrees[g]}")
            norm[g] = val
        for g in range(len(source.gens)):
            if g not in norm:
                raise ValueError(f"map misses generator {source.gens[g].name}")
        if source.field != target.field:
            raise ValueError(
                f"conductor mismatch: {source.field.n} vs {target.field.n}")
        self.assignments = norm
        self._gen_images = {g: _cvs(v) for g, v in norm.items()}
        self._images: dict = {(): {(): target.field.one.cv}}

    def _word_image(self, w: Word) -> dict:
        """Image of the word w as ``{word: cv}``, the image of its prefix
        times the image of its last generator; kept for every prefix."""
        img = self._images.get(w)
        if img is None:
            img = self._images[w] = _product(self.target, self._word_image(w[:-1]),
                                             self._gen_images[w[-1]])
        return img

    def __call__(self, x: GradedElement) -> GradedElement:
        return apply_map(self, x)

    def compose(self, inner: "AlgebraMap") -> "AlgebraMap":
        """self after inner."""
        if inner.target is not self.source:
            raise ValueError("composition mismatch")
        return AlgebraMap(
            inner.source, self.target,
            {g: apply_map(self, img) for g, img in inner.assignments.items()})

    def power(self, k: int) -> "AlgebraMap":
        if self.source is not self.target:
            raise ValueError("powers need an endomorphism")
        result = identity_map(self.source)
        for _ in range(k):
            result = self.compose(result)
        return result

    def is_identity(self) -> bool:
        if self.source is not self.target:
            return False
        for g, img in self.assignments.items():
            if img != self.source.word_element((g,)):
                return False
        return True


def identity_map(algebra: Algebra) -> AlgebraMap:
    return AlgebraMap(
        algebra, algebra,
        {g: algebra.word_element((g,)) for g in range(len(algebra.gens))})


def map_terms(f: AlgebraMap, terms: dict) -> dict:
    """The image under f of a ``{word: cv}`` map, as a new one without zeros."""
    mul = f.target.field.mul
    acc: dict = {}
    for w, c in terms.items():
        img = f._word_image(w)
        if img:
            kernel.row_axpy(acc, img, c, mul)
    return acc


def apply_map(f: AlgebraMap, x: GradedElement) -> GradedElement:
    """Multiplicative-linear extension of the generator assignments."""
    if x.algebra is not f.source:
        raise ValueError("algebra mismatch")
    return _element(f.target, map_terms(f, _cvs(x)))


class Conjugation:
    """Semilinear involution pairing generators and conjugating scalars."""

    def __init__(self, algebra: Algebra, pairs):
        self.algebra = algebra
        mapping: dict[int, int] = {}
        for a, b in pairs:
            ia = algebra.generator_index(a) if isinstance(a, str) else a
            ib = algebra.generator_index(b) if isinstance(b, str) else b
            if algebra.degrees[ia] != algebra.degrees[ib]:
                raise ValueError("conjugation must pair generators of equal degree")
            mapping[ia] = ib
            mapping[ib] = ia
        for g in range(len(algebra.gens)):
            if g not in mapping:
                raise ValueError(f"conjugation misses generator {algebra.gens[g].name}")
        self.pairing = mapping
        self._swap = AlgebraMap(algebra, algebra,
                                {g: algebra.word_element((h,)) for g, h in mapping.items()})

    def __call__(self, x: GradedElement) -> GradedElement:
        if x.algebra is not self.algebra:
            raise ValueError("algebra mismatch")
        return apply_map(self._swap, GradedElement(
            self.algebra, {w: c.conjugate() for w, c in x.terms.items()}))


@dataclass(frozen=True)
class DGA:
    """An algebra together with its differential."""
    algebra: Algebra
    differential: Differential
