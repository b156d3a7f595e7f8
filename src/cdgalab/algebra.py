"""Free graded-commutative algebras with a differential.

Basis words are tuples of generator indices sorted by declaration order; odd
generators appear at most once, even generators may repeat up to the declared
truncation degree.  The sign of a product is the parity of degree-weighted
transpositions in the merge of the two sorted words; this single convention
fixes every sign produced by the engine.  Only odd generators change the sign
as they pass each other, so the enumeration keeps, beside each basis word's
degree, its odd mask: the bit set of its odd generators.  Two basis words
merge with one ``&`` test for a shared odd generator, a sign counted by
popcounts, and their sorted concatenation; a product with a word outside the
basis is zero.

A ``GradedElement`` stores its terms as one ``{word: cv}`` map, each key a
basis word and each value the kernel's canonical integer tuple of a nonzero
field value (see ``_kernel_py``).  ``wedge``, ``apply_d``, ``apply_map``,
conjugation and the linear operations read those maps and build the new one
directly, so they box no coefficient as a ``FieldElement``; ``terms`` boxes
a fresh copy for a caller that wants field elements.  Two per-word caches
serve the products and images:

- a ``Differential`` computes each word's differential once, by the Leibniz
  rule; ``apply_d`` is the linear combination of those rows, and
  ``Differential.word_rows`` hands them out in word-index coordinates, the
  rows of a d-matrix, without boxing a coefficient;
- an ``AlgebraMap`` keeps the image of every word it has mapped, each one
  the image of the word's prefix times the image of its last generator.

Each cache lives on its instance, so two differentials or two maps never
share one.  Nothing cached escapes: every call returns a fresh element with
a map of its own.
"""

from __future__ import annotations

from fractions import Fraction

from ._backend import kernel
from ._record import Frozen
from .field import CycloField, FieldElement, format_scalar


class GeneratorSpec(Frozen):
    """A generator's name and its degree, at least 1."""

    def __init__(self, name: str, degree: int):
        if degree < 1:
            raise ValueError(f"generator {name}: degree must be >= 1")
        self.__dict__.update(name=name, degree=degree)


class PreconditionError(ValueError):
    """A mathematical precondition failed.  ``witness`` holds the element
    that shows the failure, such as a nonzero residue or difference."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


Word = tuple  # tuple of generator indices, sorted

# The most basis words an algebra may have, and the highest top degree
# (there is one word list per degree).  2^18 words is 18 degree-1
# generators, whose full table took 7.4 s and 347 MB on a 2-vCPU VM.
WORD_BUDGET = 1 << 18


def word_count(degrees, odd, top: int) -> int:
    """The number of basis words of the algebra on generators of these
    degrees and parities, truncated above ``top``; raises ValueError when it
    is over ``WORD_BUDGET``.

    Counts words per degree from the degrees alone, as the coefficients of
    prod (1 + t^d) over the odd generators times prod 1/(1 - t^d) over the
    even ones, truncated at ``top``.  Every count added is at least one new
    word, so the count stops as soon as it passes the budget."""
    counts = {0: 1}  # degree -> number of words, nonzero entries only
    total = 1
    for d, is_odd in zip(degrees, odd):
        new = dict(counts)
        for k, n in counts.items():
            # the words of degree k times g (odd), or times g, g^2, ... (even)
            j = k + d
            while j <= top:
                new[j] = new.get(j, 0) + n
                total += n
                if total > WORD_BUDGET:
                    raise ValueError(f"the algebra is over budget: it has more "
                                     f"than {WORD_BUDGET} basis words")
                if is_odd:
                    break
                j += d
        counts = new
    return total


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
        if top > WORD_BUDGET:
            raise ValueError(f"top degree {top} is over budget: "
                             f"top must be at most {WORD_BUDGET}")
        for g in gens:
            if g.degree > top:
                raise ValueError(f"generator {g.name}: degree {g.degree} is above "
                                 f"the top degree {top}")
        self.top = top
        word_count(self.degrees, self.odd, top)
        self._index = {g.name: i for i, g in enumerate(gens)}
        self._word_degree: dict = {}
        self._word_mask: dict = {}
        self._basis = self._collect_words()
        self._word_pos = [
            {w: i for i, w in enumerate(words)} for words in self._basis
        ]

    def _collect_words(self) -> list[list[Word]]:
        """The basis words of each degree, in lexicographic order: a
        depth-first walk that extends a word by generators in declaration
        order, kept on an explicit stack so word length is not bounded by
        the interpreter's recursion limit.  The walk also records each
        word's degree and its odd mask, the bit set of its odd generators."""
        basis: list[list[Word]] = [[] for _ in range(self.top + 1)]
        degree_of, mask_of = self._word_degree, self._word_mask
        last = len(self.gens) - 1
        stack = [((), 0, 0, 0)]  # (word, degree, odd mask, first generator it may take)
        while stack:
            word, deg, mask, start = stack.pop()
            basis[deg].append(word)
            degree_of[word] = deg
            mask_of[word] = mask
            for g in range(last, start - 1, -1):  # pushed last-first, popped first-first
                d2 = deg + self.degrees[g]
                if d2 <= self.top:
                    if self.odd[g]:
                        stack.append((word + (g,), d2, mask | 1 << g, g + 1))
                    else:
                        stack.append((word + (g,), d2, mask, g))
        return basis

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
        return self._word_degree[word]

    def _check_word(self, word: Word) -> None:
        if word not in self._word_degree:
            raise ValueError(f"{word!r} is not a basis word of the algebra")

    def generator_index(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"unknown generator {name!r}")
        return self._index[name]

    def generator(self, name: str) -> "GradedElement":
        return self.word_element((self.generator_index(name),))

    def word_element(self, word: Word) -> "GradedElement":
        word = tuple(word)
        self._check_word(word)
        return _element(self, {word: self.field.one.cv})

    def zero(self) -> "GradedElement":
        return _element(self, {})

    def scalar(self, value) -> "GradedElement":
        return GradedElement(self, {(): value})

    def unit(self) -> "GradedElement":
        return self.word_element(())

    def merge_words(self, w1: Word, w2: Word):
        """Merge two sorted words; returns (word, sign) or None when the
        product vanishes (repeated odd generator or truncation).

        The sign is (-1)^e, e the number of pairs of odd generators a in w1
        and b in w2 with a > b: only odd generators change sign as they pass
        each other, and it is read from the words' odd masks.  A sorted word
        outside the basis is past the top or repeats an odd generator, so
        its products all vanish."""
        m1 = self._word_mask.get(w1)
        m2 = self._word_mask.get(w2)
        if (m1 is None or m2 is None or m1 & m2
                or self._word_degree[w1] + self._word_degree[w2] > self.top):
            return None
        e = 0
        while m2:
            low = m2 & -m2  # the bit of the lowest odd generator b left in w2
            e += (m1 & -(low << 1)).bit_count()  # odd generators of w1 above b
            m2 ^= low
        return tuple(sorted(w1 + w2)), (-1 if e & 1 else 1)

    def format_word(self, word: Word) -> str:
        return "*".join(self.gens[g].name for g in word)

    def __repr__(self):
        gens = " ".join(f"{g.name}:{g.degree}" for g in self.gens)
        return f"Algebra({gens}; top={self.top}, n={self.field.n})"


class GradedElement:
    """Element of an Algebra: a map from basis words to nonzero scalars,
    stored as the kernel's ``{word: cv}`` map."""

    __slots__ = ("algebra", "_terms")

    def __init__(self, algebra: Algebra, terms: dict):
        """``terms`` maps basis words to scalars: rationals or
        ``FieldElement``s of the algebra's field; a word outside the basis
        or a coefficient of another field raises ValueError."""
        element = algebra.field.element
        self.algebra = algebra
        self._terms = {}
        for w, c in terms.items():
            algebra._check_word(w)
            cv = element(c).cv
            if not kernel.cv_is_zero(cv):
                self._terms[w] = cv

    @property
    def terms(self) -> dict:
        """The terms as a new ``{word: FieldElement}`` dict."""
        field = self.algebra.field
        return {w: FieldElement(field, c) for w, c in self._terms.items()}

    # --- linear structure ---

    def _check(self, other: "GradedElement"):
        if other.algebra is not self.algebra:
            raise ValueError("algebra mismatch")

    def __add__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._check(other)
        terms = dict(self._terms)
        for w, c in other._terms.items():
            s = terms.get(w)
            if s is None:
                terms[w] = c
            else:
                s = kernel.cv_add(s, c)
                if kernel.cv_is_zero(s):
                    del terms[w]
                else:
                    terms[w] = s
        return _element(self.algebra, terms)

    def __sub__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return _element(self.algebra, {w: kernel.cv_neg(c) for w, c in self._terms.items()})

    def scale(self, scalar) -> "GradedElement":
        field = self.algebra.field
        c = field.element(scalar)
        if c.is_zero():
            return self.algebra.zero()
        return _element(self.algebra, {w: kernel.cv_mul(t, c.cv, field.mul)
                                       for w, t in self._terms.items()})

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
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def coefficient(self, word: Word) -> FieldElement:
        field = self.algebra.field
        c = self._terms.get(tuple(word))
        return field.zero if c is None else FieldElement(field, c)

    def degree(self) -> int | None:
        """The common degree of all terms, or None for 0 or mixed elements."""
        degs = {self.algebra.word_degree(w) for w in self._terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self, degree: int | None = None) -> bool:
        d = self.degree()
        if not self._terms:
            return True
        if degree is None:
            return d is not None
        return d == degree

    def sorted_terms(self):
        alg = self.algebra
        return sorted(
            self.terms.items(),
            key=lambda wc: (alg.word_degree(wc[0]), alg.word_index(alg.word_degree(wc[0]), wc[0])),
        )

    def to_row(self, degree: int) -> dict:
        """Sparse coordinates ``{word index: cv}`` on the degree-`degree` word
        basis; rejects other terms."""
        alg = self.algebra
        pos = alg._word_pos[degree] if 0 <= degree <= alg.top else {}
        row = {}
        for w, c in self._terms.items():
            j = pos.get(w)
            if j is None:
                raise ValueError(f"term {alg.format_word(w)} is not of degree {degree}")
            row[j] = c
        return row

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.algebra is other.algebra and self._terms == other._terms

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"<{format_element(self)}>"


def _element(alg: Algebra, terms: dict) -> GradedElement:
    """A fresh element of ``alg`` that stores ``terms`` itself: a
    ``{word: cv}`` map without zeros, just built by the caller and shared
    with nothing else."""
    x = GradedElement.__new__(GradedElement)
    x.algebra = alg
    x._terms = terms
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


def wedge(x: GradedElement, y: GradedElement) -> GradedElement:
    """Graded-commutative product."""
    if y.algebra is not x.algebra:
        raise ValueError("algebra mismatch")
    return _element(x.algebra, _product(x.algebra, x._terms, y._terms))


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


class Differential:
    """Degree +1 derivation given on generators and extended by Leibniz.

    Generators absent from the assignment map have differential zero.  The
    assignments are validated when built: each must be homogeneous of degree
    one more than its generator, and d*d = 0 on every generator (sufficient
    by the Leibniz rule), checked in declaration order."""

    def __init__(self, algebra: Algebra, assignments: dict):
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
        self._gen_d = {g: dict(v._terms) for g, v in norm.items()}
        self._word_d: dict = {}
        for g in sorted(norm):
            residue = apply_d(self, norm[g])
            if not residue.is_zero():
                raise PreconditionError(
                    f"d*d != 0 at generator {algebra.gens[g].name}: "
                    f"residue {residue}", residue)

    def _word_row(self, w: Word) -> dict:
        """d of the word w as ``{word: cv}``, computed on first use and kept."""
        row = self._word_d.get(w)
        if row is None:
            row = self._word_d[w] = self._leibniz(w)
        return row

    def word_rows(self, k: int) -> list[dict]:
        """d of each degree-k basis word, in basis order, as a fresh sparse
        row ``{index in degree k + 1: cv}``, read from the per-word cache."""
        alg = self.algebra
        # d of a top-degree word is zero, so degree top + 1 is never looked up
        pos = alg._word_pos[k + 1] if k < alg.top else None
        return [{pos[u]: c for u, c in self._word_row(w).items()}
                for w in alg.basis(k)]

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
    if x.algebra is not d.algebra:
        raise ValueError("algebra mismatch")
    mul = d.algebra.field.mul
    acc: dict = {}
    for w, c in x._terms.items():
        row = d._word_row(w)
        if row:
            kernel.row_axpy(acc, row, c, mul)
    return _element(x.algebra, acc)


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
        self._gen_images = {g: dict(v._terms) for g, v in norm.items()}
        self._images: dict = {(): {(): target.field.one.cv}}

    def _word_image(self, w: Word) -> dict:
        """Image of the word w as ``{word: cv}``, the image of its prefix
        times the image of its last generator; kept for every prefix."""
        images = self._images
        img = images.get(w)
        if img is None:
            n = len(w) - 1
            while w[:n] not in images:  # the longest prefix already kept
                n -= 1
            img = images[w[:n]]
            for i in range(n, len(w)):
                img = images[w[:i + 1]] = _product(self.target, img,
                                                   self._gen_images[w[i]])
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
        """self^k by repeated squaring, in at most 2 * k.bit_length()
        compositions."""
        if self.source is not self.target:
            raise ValueError("powers need an endomorphism")
        result, square = identity_map(self.source), self
        while k:
            if k & 1:
                result = square.compose(result)
            k >>= 1
            if k:
                square = square.compose(square)
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


def apply_map(f: AlgebraMap, x: GradedElement) -> GradedElement:
    """Multiplicative-linear extension of the generator assignments."""
    if x.algebra is not f.source:
        raise ValueError("algebra mismatch")
    mul = f.target.field.mul
    acc: dict = {}
    for w, c in x._terms.items():
        img = f._word_image(w)
        if img:
            kernel.row_axpy(acc, img, c, mul)
    return _element(f.target, acc)


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
        field = self.algebra.field
        conj = field.galois_maps[(field.n - 1) % field.n]  # z -> z^-1
        return apply_map(self._swap, _element(
            self.algebra, {w: conj(c) for w, c in x._terms.items()}))
