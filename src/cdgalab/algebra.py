"""Free graded-commutative algebras with a differential.

A basis word is one int: a monomial in the generators, odd ones at most
once, even ones up to the declared truncation degree.  Each odd generator
has one bit and each even generator a field that holds its exponent up to
top // degree, plus a guard bit, so two basis words without a common odd
generator add up, with no carry out of any field, to the monomial of their
product, in the basis or past the top.  The fields follow declaration order
from bit 0, so a word's highest set bit names its last generator, the word
of a product is the sum of the words, and the prefix p of a word p*g is
p*g minus the word of g.  Each degree's basis lists its words in the
lexicographic order of their generator sequences, which is not integer
order; only ``format_word`` reads a word's generators back.

The sign of a product is the parity of degree-weighted transpositions in the
merge of the two sorted generator sequences; this single convention fixes
every sign produced by the engine.  Only odd generators change the sign as
they pass each other, so it is counted by popcounts on the words' odd bits.
Two basis words merge with one ``&`` test for a shared odd generator, one
test of their degrees against the top, and that count; a product with a word
outside the basis is zero.

A ``GradedElement`` stores its terms as one ``{word: cv}`` map, each key a
basis word and each value the kernel's canonical integer tuple of a nonzero
field value (see ``_kernel_py``).  ``wedge``, ``apply_d``, ``apply_map``,
conjugation and the linear operations read those maps and build the new one
directly, so they box no coefficient as a ``FieldElement``; ``terms`` boxes
a fresh copy for a caller that wants field elements.

A ``Differential`` and an ``AlgebraMap`` are both given on generators and
extended along prefixes: the value on a word p*g is built from the value on
p by one rule, the Leibniz rule or the product, and kept per instance, so
two maps never share a cache.  ``apply_d`` and ``apply_map`` are linear
combinations of those values, and ``word_rows`` hands them out in word-index
coordinates, the rows of a d-matrix or of a map's matrix F_k, without boxing
a coefficient.  Nothing cached escapes: every call returns a fresh element.
"""

from __future__ import annotations

from ._backend import kernel
from ._record import Frozen
from .field import CycloField, FieldElement, format_scalar, is_rational


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


Word = int  # a monomial: one bit per odd generator, one exponent field per even one

# The most basis words an algebra may have, and the highest top degree
# (there is one word list per degree).  2^18 words is 18 degree-1 generators.
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
        # the word of each generator, and for each bit length of a nonempty
        # word the generator whose field holds its highest bit
        self._unit: list[Word] = []
        self._last: list[int] = [-1]
        for g, (d, is_odd) in enumerate(zip(self.degrees, self.odd)):
            self._unit.append(1 << (len(self._last) - 1))
            width = 1 if is_odd else (top // d).bit_length() + 1  # with a guard bit
            self._last += [g] * width
        self._odd_bits = sum(u for u, is_odd in zip(self._unit, self.odd) if is_odd)
        self._word_degree: dict = {}
        self._basis = self._collect_words()
        self._word_pos = [
            {w: i for i, w in enumerate(words)} for words in self._basis
        ]

    def _collect_words(self) -> list[list[Word]]:
        """The basis words of each degree, in the lexicographic order of
        their generator sequences: a depth-first walk that extends a word by
        generators in declaration order, kept on an explicit stack so word
        length is not bounded by the interpreter's recursion limit.  The
        walk also records each word's degree."""
        top, degrees, unit = self.top, self.degrees, self._unit
        basis: list[list[Word]] = [[] for _ in range(top + 1)]
        degree_of = self._word_degree
        # the first generator a word may take after g: an odd g only once
        after = [g + 1 if is_odd else g for g, is_odd in enumerate(self.odd)]
        last = len(self.gens) - 1
        stack = [(0, 0, 0)]  # (word, degree, first generator it may take)
        while stack:
            word, deg, start = stack.pop()
            basis[deg].append(word)
            degree_of[word] = deg
            for g in range(last, start - 1, -1):  # pushed last-first, popped first-first
                d2 = deg + degrees[g]
                if d2 <= top:
                    stack.append((word + unit[g], d2, after[g]))
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
        if type(word) is not int or word not in self._word_degree:
            raise ValueError(f"{word!r} is not a basis word of the algebra")

    def generator_index(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"unknown generator {name!r}")
        return self._index[name]

    def generator_word(self, g: int) -> Word:
        """The word of the generator with index g."""
        return self._unit[g]

    def generator(self, name: str) -> "GradedElement":
        return self.word_element(self.generator_word(self.generator_index(name)))

    def word_element(self, word: Word) -> "GradedElement":
        self._check_word(word)
        return _element(self, {word: self.field.one.cv})

    def zero(self) -> "GradedElement":
        return _element(self, {})

    def scalar(self, value) -> "GradedElement":
        return GradedElement(self, {0: value})

    def unit(self) -> "GradedElement":
        return self.word_element(0)

    def merge_words(self, w1: Word, w2: Word):
        """The product of two words; returns (word, sign) or None when the
        product vanishes (repeated odd generator or truncation).

        The sign is (-1)^e, e the number of pairs of odd generators a in w1
        and b in w2 with a > b: only odd generators change sign as they pass
        each other, and the bits of w1 and w2 under the odd mask are those
        generators in order.  A word outside the basis has no degree, so its
        products all vanish."""
        odd = self._odd_bits
        if w1 & w2 & odd:
            return None
        degree_of = self._word_degree
        d1 = degree_of.get(w1)
        d2 = degree_of.get(w2)
        if d1 is None or d2 is None or d1 + d2 > self.top:
            return None
        m1 = w1 & odd
        m2 = w2 & odd
        e = 0
        while m2:
            low = m2 & -m2  # the bit of the lowest odd generator b left in w2
            e += (m1 & -(low << 1)).bit_count()  # odd generators of w1 above b
            m2 ^= low
        return w1 + w2, (-1 if e & 1 else 1)

    def format_word(self, word: Word) -> str:
        """The word's generator names in declaration order, joined by
        ``*``; read from the last generator down, one prefix step each."""
        names = []
        while word:
            g = self._last[word.bit_length()]
            names.append(self.gens[g].name)
            word -= self._unit[g]
        return "*".join(reversed(names))

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
        if isinstance(other, FieldElement) or is_rational(other):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, FieldElement) or is_rational(other):
            return self.scale(other)
        return NotImplemented

    # --- views ---

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def coefficient(self, word: Word) -> FieldElement:
        """The coefficient of a basis word; a word outside the basis raises
        ValueError."""
        self.algebra._check_word(word)
        field = self.algebra.field
        c = self._terms.get(word)
        return field.zero if c is None else FieldElement(field, c)

    def degree(self) -> int | None:
        """The common degree of all terms, or None for 0 or mixed elements."""
        degs = {self.algebra.word_degree(w) for w in self._terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self, degree: int) -> bool:
        return not self._terms or self.degree() == degree

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
    """The product of ``{word: cv}`` maps, as a new one without zeros.

    A word's first term is a product, each later one is added by the
    field's fused ``addmul`` or ``submul``, and a sum that cancels is held
    as None until the end, so the words keep the order of their first
    terms."""
    field = alg.field
    mul, addmul, submul = field.mul, field.addmul, field.submul
    merge = alg.merge_words
    cv_mul, cv_neg = kernel.cv_mul, kernel.cv_neg
    acc: dict = {}
    for w1, a in xs.items():
        for w2, b in ys.items():
            m = merge(w1, w2)
            if m is None:
                continue
            w, sign = m
            s = acc.get(w)
            if s is None:
                c = cv_mul(a, b, mul)
                acc[w] = c if sign > 0 else cv_neg(c)
            else:
                acc[w] = addmul(s, a, b) if sign > 0 else submul(s, a, b)
    if None in acc.values():
        return {w: c for w, c in acc.items() if c is not None}
    return acc


def wedge(x: GradedElement, y: GradedElement) -> GradedElement:
    """Graded-commutative product."""
    if y.algebra is not x.algebra:
        raise ValueError("algebra mismatch")
    return _element(x.algebra, _product(x.algebra, x._terms, y._terms))


def format_element(x: GradedElement) -> str:
    """Canonical expression form, round-trippable through the session parser."""
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
        parts.append((neg, body))
    return kernel.signed_sum(parts)


class _WordLinear:
    """A linear map from degree k of ``source`` to degree k + ``shift`` of
    ``target``, given on generators: ``_extend(p, value on p, g)`` is the
    value on p*g.  A word's value is built from its longest kept prefix in
    a loop, so word length is not bounded by the recursion limit."""

    shift = 0

    def __init__(self, source: Algebra, target: Algebra, assignments: dict, unit: dict):
        """Checks and keeps the generator assignments; ``unit`` is the value
        on the empty word."""
        self.source = source
        self.target = target
        self.assignments: dict[int, GradedElement] = {}
        for key, val in assignments.items():
            g = source.generator_index(key) if isinstance(key, str) else key
            if val.algebra is not target:
                raise ValueError(f"algebra mismatch in {self._kind} assignment")
            want = source.degrees[g] + self.shift
            if not val.is_homogeneous(want):
                raise ValueError(f"{self._value_of.format(source.gens[g].name)} "
                                 f"must be homogeneous of degree {want}")
            self.assignments[g] = val
        self._gen_values = {g: dict(v._terms) for g, v in self.assignments.items()}
        self._values: dict = {0: unit}

    def _value(self, w: Word) -> dict:
        """The value on the word w as ``{word: cv}``, kept for every prefix."""
        values = self._values
        v = values.get(w)
        if v is None:
            last, unit = self.source._last, self.source._unit
            steps = []  # the generators stepped over, last first
            p = w
            while v is None:  # down to the longest prefix already kept
                g = last[p.bit_length()]
                p -= unit[g]
                steps.append(g)
                v = values.get(p)
            while steps:
                g = steps.pop()
                q = p + unit[g]
                v = values[q] = self._extend(p, v, g)
                p = q
        return v

    def word_rows(self, k: int) -> list[dict]:
        """The value on each degree-k word of the source, in basis order, as a
        fresh sparse row ``{index in degree k + shift of the target: cv}``;
        none outside 0..top."""
        j = k + self.shift
        pos = self.target._word_pos[j] if 0 <= j <= self.target.top else {}
        return [{pos[u]: c for u, c in v.items()} if v else {}
                for v in map(self._value, self.source.basis(k))]

    def _apply(self, x: GradedElement) -> GradedElement:
        if x.algebra is not self.source:
            raise ValueError("algebra mismatch")
        return _element(self.target, kernel.combine(x._terms, self._value,
                                                    self.target.field))


class Differential(_WordLinear):
    """Degree +1 derivation given on generators and extended by the Leibniz
    rule along prefixes: d(p*g) = d(p)*g + (-1)^|p| p*d(g).

    Generators absent from the assignment map have differential zero.  The
    assignments are validated when built: each must be homogeneous of degree
    one more than its generator, and d*d = 0 on every generator (sufficient
    by the Leibniz rule), checked in declaration order."""

    shift = 1
    _kind = "differential"
    _value_of = "d({})"

    def __init__(self, algebra: Algebra, assignments: dict):
        self.algebra = algebra
        super().__init__(algebra, algebra, assignments, {})
        self.assignments = {g: v for g, v in self.assignments.items() if v}
        for g in sorted(self.assignments):
            residue = apply_d(self, self.assignments[g])
            if not residue.is_zero():
                raise PreconditionError(
                    f"d*d != 0 at generator {algebra.gens[g].name}: "
                    f"residue {residue}", residue)

    def _extend(self, p: Word, dp: dict, g: int) -> dict:
        # the terms d(p)*g, then (-1)^|p| p*d(g), each merged in that order;
        # the words of each group are distinct, so only a word of the second
        # group can meet one of the first, and a sum that cancels is dropped
        dg = self._gen_values.get(g)
        if not (dp or dg):
            return {}
        alg = self.algebra
        merge, neg = alg.merge_words, kernel.cv_neg
        gw = alg.generator_word(g)
        acc: dict = {}
        for u, c in dp.items():
            m = merge(u, gw)
            if m is not None:
                acc[m[0]] = c if m[1] > 0 else neg(c)
        if dg:
            odd = alg.word_degree(p) & 1
            for u, c in dg.items():
                m = merge(p, u)
                if m is None:
                    continue
                w, sign = m
                if (sign < 0) != odd:
                    c = neg(c)
                s = acc.get(w)
                if s is None:
                    acc[w] = c
                else:
                    s = kernel.cv_add(s, c)
                    if kernel.cv_is_zero(s):
                        del acc[w]
                    else:
                        acc[w] = s
        return acc

    def __call__(self, x: GradedElement) -> GradedElement:
        return apply_d(self, x)


def apply_d(d: Differential, x: GradedElement) -> GradedElement:
    """Leibniz extension: the combination of the word differentials."""
    return d._apply(x)


class AlgebraMap(_WordLinear):
    """Degree-preserving algebra morphism given on generators and extended
    multiplicatively along prefixes: f(p*g) = f(p)*f(g)."""

    _kind = "map"
    _value_of = "image of {}"

    def __init__(self, source: Algebra, target: Algebra, assignments: dict):
        super().__init__(source, target, assignments, {0: target.field.one.cv})
        for g in range(len(source.gens)):
            if g not in self.assignments:
                raise ValueError(f"map misses generator {source.gens[g].name}")
        if source.field != target.field:
            raise ValueError(f"conductor mismatch: {source.field.n} vs {target.field.n}")

    def _extend(self, p: Word, fp: dict, g: int) -> dict:
        return _product(self.target, fp, self._gen_values[g])

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
        """self^k by repeated squaring (``kernel.power``).  ``power(1)`` is
        self, so it shares self's cache of word images; the only reader of a
        power is ``validate_action``, which applies it to generators."""
        if self.source is not self.target:
            raise ValueError("powers need an endomorphism")
        return kernel.power(self, k, lambda: identity_map(self.source), AlgebraMap.compose)


def identity_map(algebra: Algebra) -> AlgebraMap:
    return AlgebraMap(
        algebra, algebra,
        {g: algebra.word_element(algebra.generator_word(g))
         for g in range(len(algebra.gens))})


def apply_map(f: AlgebraMap, x: GradedElement) -> GradedElement:
    """Multiplicative-linear extension of the generator assignments."""
    return f._apply(x)


class Conjugation:
    """Semilinear involution pairing generators and conjugating scalars;
    each generator lies in exactly one pair, which may pair it with itself."""

    def __init__(self, algebra: Algebra, pairs):
        self.algebra = algebra
        mapping: dict[int, int] = {}
        for a, b in pairs:
            ia = algebra.generator_index(a) if isinstance(a, str) else a
            ib = algebra.generator_index(b) if isinstance(b, str) else b
            if algebra.degrees[ia] != algebra.degrees[ib]:
                raise ValueError("conjugation must pair generators of equal degree")
            for g in (ia, ib):
                if g in mapping:
                    raise ValueError(
                        f"conjugation pairs generator {algebra.gens[g].name} twice")
            mapping[ia] = ib
            mapping[ib] = ia
        for g in range(len(algebra.gens)):
            if g not in mapping:
                raise ValueError(f"conjugation misses generator {algebra.gens[g].name}")
        self.pairing = mapping
        self._swap = AlgebraMap(algebra, algebra,
                                {g: algebra.word_element(algebra.generator_word(h))
                                 for g, h in mapping.items()})

    def __call__(self, x: GradedElement) -> GradedElement:
        if x.algebra is not self.algebra:
            raise ValueError("algebra mismatch")
        field = self.algebra.field
        conj = field.galois_maps[(field.n - 1) % field.n]  # z -> z^-1
        return apply_map(self._swap, _element(
            self.algebra, {w: conj(c) for w, c in x._terms.items()}))
