"""Session language: parser, evaluator, task runner and report writer.

Grammar (line-oriented, ``#`` comments, identifiers ``[A-Za-z][A-Za-z0-9_]*``,
integers ``[0-9]+``; both ASCII only)::

    field cyclotomic <n>
    algebra <name> generators <g1>:<deg> <g2>:<deg> ... [top <t>]   # within the word budget
    conjugation <g> <gbar> ...            # disjoint pairs, self-paired allowed; one per algebra
    d <gen> = <expr>                      # unlisted generators have d = 0
    map <name> order <m> { <gen> -> <expr> ; ... }   # f^m = id, checked by squaring
    let <name> = <expr>
    task <taskname> <args...>

    expr   := ['-'] term (('+'|'-') term)*
    term   := scalar ['*' factor ('*' factor)*] | factor ('*' factor)*
    factor := IDENT | '(' expr ')'
    scalar := '{' polynomial in z (and i when 4 | n) with rationals '}'

``*`` between forms is the wedge product; juxtaposition is not allowed.  A
bare scalar term denotes a degree-0 element, and a scalar is parsed straight
to the kernel's cv.  Parentheses nest at most ``MAX_NESTING`` (64) deep.
Every failure is a positioned diagnostic; no input text crashes the parser.

``Parser.parse`` steps past a statement's keyword, calls ``stmt_<keyword>``
and checks the statement's end.  Algebras, generators, maps and lets share
one name table, ``Session.names``: name -> (kind, algebra context, value).  A name is reserved when its statement starts and bound once the
statement has built its value, so ``let x = x`` finds no ``x``.  Every lookup
is ``Parser.lookup``, which refuses unknown names and those of another algebra.

Tokens come from one ``findall`` pass that skips blanks and comments; a
token's kind is looked up by its first character, and a character with no kind
is unexpected.  A token is its index in the lists of kinds and texts; its line
and column are counted only for a diagnostic, by walking the matches again.

Tasks: ``betti``, ``invariant_betti``, ``obstruction``, ``massey``,
``symplectic``, ``lefschetz``, ``mv_union``, ``resolution``, ``verify_exact``.
``Parser.task_<name>`` checks a task's arguments and returns them as the
positional tuple ``Task.args``; ``run`` looks up ``_TASK_RUNNERS[name]``, the
one runner table, for each task and calls it with ``(run context, report,
*args)``.  The machine-readable report is one ``key = value`` record per line
after a header record carrying the sha256 of the session text; identical
sessions produce byte-identical reports.

A session loads only the engine modules its statements use.  This module
imports the core (``field``, ``algebra``, ``linalg``, ``homology``) and the
report header's ``sha256`` from CPython's own module (``_sha2``, or
``_sha256`` before 3.12), which ``hashlib`` itself falls back to; only an
interpreter with neither imports ``hashlib``, whose OpenSSL costs a session
about 2-3 ms.  While ``parse`` runs, ``_load`` imports, once, what the table
``_MODULES`` names: ``action`` for a ``map`` statement, and a task's own
module (``symplectic``, ``formality`` or ``topology``) for each task, so no
module is imported or compiled inside ``run``.
"""

from __future__ import annotations

import importlib
import itertools
import operator
import re

try:  # CPython's own sha256, the one hashlib falls back to; it loads no OpenSSL
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from ._backend import kernel
from ._record import Frozen
from .algebra import (Algebra, AlgebraMap, Conjugation, Differential,
                      GradedElement, PreconditionError, apply_d, format_element, wedge)
from .field import CycloField, FieldElement, format_scalar, make_field
from .homology import CochainComplex, CohomologyTable

# Statement keyword or task name -> the engine module it needs.  ``mv_union``
# and ``resolution`` also parse their ``node``/``edge`` clauses with theirs.
# Parser and runners read a loaded module as a global of this module.
_MODULES = {"map": "action", "symplectic": "symplectic", "lefschetz": "symplectic",
            "obstruction": "formality", "massey": "formality",
            "mv_union": "topology", "resolution": "topology"}
action = formality = symplectic = topology = None


def _load(keyword: str):
    """Bind the engine module that ``keyword``'s statements need, once."""
    name = _MODULES.get(keyword)
    if name is not None and globals()[name] is None:
        globals()[name] = importlib.import_module(f"{__package__}.{name}")


RESERVED = {"field", "cyclotomic", "algebra", "generators", "conjugation", "d", "map", "order",
            "let", "task", "top", "z", "i", "invariant", "full", "node", "edge", "proj", "p1b"}

_GENERATOR, _ELEMENT = ("generator",), ("generator", "let")  # kinds a lookup accepts
_UNBOUND = (None, None, None)  # the entry of a name no statement declared

class Diagnostic(Frozen):
    """A message and the line and column it points at."""

    def __init__(self, line: int, col: int, message: str):
        self.__dict__.update(line=line, col=col, message=message)

    def __str__(self):
        return f"{self.line}:{self.col}: {self.message}"


class DslError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


# --- tokens -----------------------------------------------------------------

# Each match skips blanks and a comment, then captures one token text; the
# empty capture at the end of the text is EOF.
_TOKEN = re.compile(r"[ \t\r]*(?:#[^\n]*)?(->|[0-9]+|[A-Za-z][A-Za-z0-9_]*|[^ \t\r]|\Z)")
# A token's kind by its first character; a character not in the table is BAD.
_KIND = {"": "EOF", "\n": "NEWLINE", **dict.fromkeys("0123456789", "INT"),
         **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz", "IDENT"),
         **dict.fromkeys(":={};*+-^/()", "SYM")}
MAX_NESTING = 64  # parentheses an expression may open around one factor


def tokenize(text: str) -> tuple[list[str], list[str]]:
    """The kinds and the texts of the tokens of ``text``, the last one EOF; a
    token is its index in both lists."""
    texts = _TOKEN.findall(text)
    if len(texts) > 1 and not texts[-2]:  # blanks or a comment end the text
        texts.pop()
    kinds = [_KIND.get(t[:1], "BAD") for t in texts]
    if "BAD" in kinds:
        i = kinds.index("BAD")
        raise DslError(_diagnostic(text, i, f"unexpected character {texts[i]!r}"))
    return kinds, texts


def _diagnostic(text: str, index: int, message: str) -> Diagnostic:
    """``message`` at the line and column of token ``index`` of ``text``,
    counted only now, by walking the token matches again up to that one."""
    start = next(itertools.islice(_TOKEN.finditer(text), index, None)).start(1)
    return Diagnostic(text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start), message)


# --- session model ----------------------------------------------------------

class AlgebraContext:
    def __init__(self, name: str, algebra: Algebra):
        self.name = name
        self.algebra = algebra
        self.d_assignments: dict = {}
        self.first_d_token: int | None = None
        self.conjugation: Conjugation | None = None
        self.differential: Differential | None = None  # built by finalize


class MapBinding:
    def __init__(self, token: int, ctx: AlgebraContext, order: int, map: AlgebraMap):
        self.token = token  # the map's name, where its diagnostics point
        self.ctx = ctx
        self.order = order
        self.map = map
        self.action: action.GroupAction | None = None  # built and validated by finalize


class Task:
    def __init__(self, name: str, args: tuple):
        self.name = name
        self.args = args  # what _TASK_RUNNERS[name] takes after the run context and report


class Session:
    def __init__(self, source: str):
        self.source = source
        self.field: CycloField | None = None
        self.names: dict[str, tuple] = {}  # name -> (kind, ctx, value), value None until built
        self.algebras: dict = {}  # name -> AlgebraContext, in declaration order
        self.tasks: list = []

    def sha256(self) -> str:
        return sha256(self.source.encode("utf-8")).hexdigest()

    def lookup_element(self, name: str) -> GradedElement | None:
        kind, _, value = self.names.get(name, _UNBOUND)
        return value if kind in _ELEMENT else None

    @property
    def lets(self) -> dict:
        """The let bindings by name, read from ``names``."""
        return {name: value for name, (kind, _, value) in self.names.items() if kind == "let"}


# --- parser -----------------------------------------------------------------

class Parser:
    def __init__(self, text: str, session: Session | None = None):
        self.session = Session(text) if session is None else session
        self.text = text
        self.kinds, self.texts = tokenize(text)
        self.pos = 0  # a token is its index into kinds and texts
        self.depth = 0  # parentheses open around the factor being parsed
        self.current: AlgebraContext | None = None

    # token plumbing

    def next(self) -> int:
        t = self.pos
        if self.kinds[t] != "EOF":
            self.pos = t + 1
        return t

    def fail(self, token: int, message: str):
        raise DslError(_diagnostic(self.text, token, message))

    def accept(self, text: str) -> bool:
        """Consume the next token if it is the symbol or keyword ``text``."""
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> int:
        """The next token, which must be the symbol or keyword ``text``."""
        t = self.next()
        if self.texts[t] != text:
            self.fail(t, f"expected {text!r}")
        return t

    def expect_ident(self, what: str = "identifier") -> int:
        t = self.next()
        if self.kinds[t] != "IDENT":
            self.fail(t, f"expected {what}")
        return t

    def expect_int(self, what: str = "integer") -> tuple[int, int]:
        t = self.next()
        if self.kinds[t] != "INT":
            self.fail(t, f"expected {what}")
        try:
            return int(self.texts[t]), t
        except ValueError:  # longer than the interpreter converts
            self.fail(t, f"integer literal too long: {len(self.texts[t])} digits")

    def skip_newlines(self):
        while self.kinds[self.pos] == "NEWLINE":
            self.pos += 1

    def expect_end_of_statement(self):
        t = self.pos
        if self.kinds[t] == "NEWLINE":
            self.pos = t + 1
        elif self.kinds[t] != "EOF":
            self.fail(t, f"unexpected trailing token {self.texts[t]!r}")

    def declare(self, token: int, kind: str) -> str:
        """Reserve the name ``token`` for a ``kind``; ``bind`` gives it its value."""
        name = self.texts[token]
        if name in RESERVED:
            self.fail(token, f"{name!r} is a reserved word")
        names = self.session.names
        if name in names:
            self.fail(token, f"duplicate declaration of {name!r} (already a {names[name][0]})")
        names[name] = (kind, None, None)
        return name

    def bind(self, name: str, ctx: AlgebraContext, value):
        self.session.names[name] = (self.session.names[name][0], ctx, value)
        return value

    def lookup(self, token: int, kinds: tuple, noun: str, ctx: AlgebraContext | None = None):
        """The value of the name ``token``, bound to one of ``kinds`` and,
        when ``ctx`` is given, to ``ctx``'s algebra."""
        name = self.texts[token]
        kind, owner, value = self.session.names.get(name, _UNBOUND)
        if kind not in kinds or value is None:
            self.fail(token, f"unknown {noun} {name!r}")
        if ctx is not None and owner is not ctx:
            what = f"map {name!r}" if kind == "map" else repr(name)
            self.fail(token, f"{what} belongs to another algebra")
        return value

    def require_field(self, token: int) -> CycloField:
        if self.session.field is None:
            self.fail(token, "no field declared yet")
        return self.session.field

    def require_algebra(self, token: int) -> AlgebraContext:
        if self.current is None:
            self.fail(token, "no algebra declared yet")
        return self.current

    # statements

    def parse(self) -> Session:
        while True:
            self.skip_newlines()
            t = self.pos
            kind, text = self.kinds[t], self.texts[t]
            if kind == "EOF":
                break
            if kind != "IDENT":
                self.fail(t, f"expected a statement keyword, got {text!r}")
            handler = getattr(self, f"stmt_{text}", None)
            if handler is None:
                self.fail(t, f"unknown statement {text!r}")
            _load(text)
            handler(self.next())
            self.expect_end_of_statement()
        self.finalize()
        return self.session

    def stmt_field(self, kw: int):
        if self.session.field is not None:
            self.fail(kw, "duplicate field declaration")
        t = self.expect_ident("'cyclotomic'")
        if self.texts[t] != "cyclotomic":
            self.fail(t, f"unknown field kind {self.texts[t]!r}")
        n, ntok = self.expect_int("conductor")
        try:
            self.session.field = make_field(n)
        except ValueError as e:  # conductor below 1 or over the budget
            self.fail(ntok, str(e))

    def stmt_algebra(self, kw: int):
        field = self.require_field(kw)
        name_tok = self.expect_ident("algebra name")
        name = self.declare(name_tok, "algebra")
        self.expect("generators")
        gens, top = [], None
        while self.kinds[self.pos] not in ("NEWLINE", "EOF"):
            g = self.expect_ident("generator name")
            if self.texts[g] == "top":
                top, _ = self.expect_int("top degree")
                break
            self.expect(":")
            deg, dtok = self.expect_int("generator degree")
            if deg < 1:
                self.fail(dtok, f"generator degree must be >= 1, got {deg}")
            gens.append((g, deg))
        if not gens:
            self.fail(self.pos, "an algebra needs at least one generator")
        for g, _deg in gens:
            self.declare(g, "generator")
        try:
            algebra = Algebra(field, [(self.texts[g], deg) for g, deg in gens], top=top)
        except ValueError as e:
            self.fail(name_tok, str(e))
        ctx = AlgebraContext(name, algebra)
        for g in algebra.gens:
            self.bind(g.name, ctx, algebra.generator(g.name))
        self.session.algebras[name] = self.current = self.bind(name, ctx, ctx)

    def stmt_conjugation(self, kw: int):
        ctx = self.require_algebra(kw)
        if ctx.conjugation is not None:
            self.fail(kw, f"duplicate conjugation for algebra {ctx.name!r}")
        pairs = []
        while self.kinds[self.pos] == "IDENT":
            a = self.next()
            if self.kinds[self.pos] != "IDENT":
                self.fail(a, "conjugation takes generator pairs; "
                             f"{self.texts[a]!r} has no partner")
            b = self.next()
            for t in (a, b):
                self.lookup(t, _GENERATOR, "generator", ctx)
            pairs.append((self.texts[a], self.texts[b]))
        if not pairs:
            self.fail(self.pos, "conjugation needs at least one pair")
        try:
            ctx.conjugation = Conjugation(ctx.algebra, pairs)
        except ValueError as e:
            self.fail(kw, str(e))

    def stmt_d(self, kw: int):
        ctx = self.require_algebra(kw)
        gen_tok = self.expect_ident("generator name")
        want = self.lookup(gen_tok, _GENERATOR, "generator", ctx).degree() + 1
        gen = self.texts[gen_tok]
        if gen in ctx.d_assignments:
            self.fail(gen_tok, f"duplicate differential for {gen!r}")
        self.expect("=")
        expr_tok = self.pos
        value = self.parse_expr(ctx)
        if not value.is_homogeneous(want):
            got = "mixed" if value.degree() is None else value.degree()
            self.fail(expr_tok, f"degree mismatch: d({gen}) must have degree {want}, got {got}")
        ctx.d_assignments[gen] = value
        if ctx.first_d_token is None:
            ctx.first_d_token = gen_tok

    def stmt_map(self, kw: int):
        ctx = self.require_algebra(kw)
        name_tok = self.expect_ident("map name")
        name = self.declare(name_tok, "map")
        self.expect("order")
        order, otok = self.expect_int("map order")
        if order < 1:
            self.fail(otok, f"order must be >= 1, got {order}")
        self.expect("{")
        assignments = {}
        while True:
            self.skip_newlines()
            if self.accept("}"):
                break
            gen_tok = self.expect_ident("generator name")
            want = self.lookup(gen_tok, _GENERATOR, "generator", ctx).degree()
            gen = self.texts[gen_tok]
            if gen in assignments:
                self.fail(gen_tok, f"duplicate map assignment for {gen!r}")
            self.expect("->")
            expr_tok = self.pos
            value = self.parse_expr(ctx)
            if not value.is_homogeneous(want):
                self.fail(expr_tok, f"degree mismatch: image of {gen} must have degree {want}")
            assignments[gen] = value
            self.skip_newlines()
            if not self.accept(";"):
                self.expect("}")
                break
        try:
            amap = AlgebraMap(ctx.algebra, ctx.algebra, assignments)
        except ValueError as e:
            self.fail(name_tok, str(e))
        self.bind(name, ctx, MapBinding(name_tok, ctx, order, amap))

    def stmt_let(self, kw: int):
        ctx = self.require_algebra(kw)
        name = self.declare(self.expect_ident("binding name"), "let")
        self.expect("=")
        self.bind(name, ctx, self.parse_expr(ctx))

    # expressions

    def signed_sum(self, term, neg, add, sub):
        """``['-'] term (('+'|'-') term)*``, for elements and for scalars,
        with the negation, sum and difference of their kind."""
        negate = self.accept("-")
        acc = term()
        if negate:
            acc = neg(acc)
        while True:
            op = self.texts[self.pos]
            if op != "+" and op != "-":
                return acc
            self.pos += 1
            acc = add(acc, term()) if op == "+" else sub(acc, term())

    def parse_expr(self, ctx: AlgebraContext) -> GradedElement:
        return self.signed_sum(lambda: self.parse_term(ctx),
                               operator.neg, operator.add, operator.sub)

    def parse_term(self, ctx: AlgebraContext) -> GradedElement:
        if self.texts[self.pos] == "{":
            scalar = self.parse_scalar()
            if not self.accept("*"):
                return ctx.algebra.scalar(scalar)
            acc = self.parse_factor(ctx).scale(scalar)
        else:
            acc = self.parse_factor(ctx)
        while self.accept("*"):
            acc = wedge(acc, self.parse_factor(ctx))
        return acc

    def parse_factor(self, ctx: AlgebraContext) -> GradedElement:
        t = self.next()
        if self.texts[t] == "(":
            if self.depth == MAX_NESTING:
                self.fail(t, f"expression nested deeper than {MAX_NESTING}")
            self.depth += 1
            e = self.parse_expr(ctx)
            self.depth -= 1
            self.expect(")")
            return e
        if self.kinds[t] != "IDENT":
            self.fail(t, f"expected an element, got {self.texts[t]!r}")
        return self.lookup(t, _ELEMENT, "identifier", ctx)

    def parse_scalar(self) -> FieldElement:
        field = self.require_field(self.expect("{"))
        value = self.signed_sum(lambda: self.scalar_term(field),
                                kernel.cv_neg, kernel.cv_add, kernel.cv_sub)
        t = self.next()
        if self.texts[t] != "}":
            self.fail(t, "malformed scalar: missing '}'" if self.kinds[t] in ("NEWLINE", "EOF")
                      else f"malformed scalar: unexpected {self.texts[t]!r}")
        return FieldElement(field, value)

    def scalar_term(self, field: CycloField) -> tuple:
        acc = self.scalar_factor(field)
        while self.accept("*"):
            acc = field.mul(acc, self.scalar_factor(field))
        return acc

    def scalar_factor(self, field: CycloField) -> tuple:
        """An integer, a fraction, or a power of z or i, as a cv."""
        if self.kinds[self.pos] == "INT":
            num, _ = self.expect_int()
            den = 1
            if self.accept("/"):
                den, dtok = self.expect_int("denominator")
                if den == 0:
                    self.fail(dtok, "malformed scalar: zero denominator")
            return kernel.cv_normalize([num] + [0] * (field.phi - 1), den)
        t = self.next()
        base = self.texts[t]
        if base == "i" and field.n % 4:
            self.fail(t, f"malformed scalar: 'i' needs 4 | conductor, got {field.n}")
        if base not in ("z", "i"):
            self.fail(t, f"malformed scalar: unexpected {base!r}")
        k = self.expect_int("exponent")[0] if self.accept("^") else 1
        # z^k, and i^k = z^(k n/4), from the field's table of z^0 .. z^(n-1)
        return field.pow_table[(k if base == "z" else k * (field.n // 4)) % field.n] + (1,)

    # tasks

    def stmt_task(self, kw: int):
        name_tok = self.expect_ident("task name")
        name = self.texts[name_tok]
        if name not in _TASK_RUNNERS:
            self.fail(name_tok, f"unknown task {name!r}")
        _load(name)
        args = getattr(self, f"task_{name}")(name_tok)
        self.session.tasks.append(Task(name, args))

    def arg_algebra(self) -> AlgebraContext:
        return self.lookup(self.expect_ident("algebra name"), ("algebra",), "algebra")

    def arg_map(self, ctx: AlgebraContext) -> MapBinding:
        return self.lookup(self.expect_ident("map name"), ("map",), "map", ctx)

    def arg_element(self, ctx: AlgebraContext) -> GradedElement:
        return self.lookup(self.expect_ident("element name"), _ELEMENT, "element", ctx)

    def arg_complex_mode(self, ctx: AlgebraContext) -> MapBinding | None:
        t = self.expect_ident("'invariant' or 'full'")
        if self.texts[t] == "full":
            return None
        if self.texts[t] == "invariant":
            return self.arg_map(ctx)
        self.fail(t, "expected 'invariant <map>' or 'full'")

    def task_betti(self, tok: int) -> tuple:
        return self.arg_algebra(), self.accept("reps")

    def task_invariant_betti(self, tok: int) -> tuple:
        ctx = self.arg_algebra()
        return ctx, self.arg_map(ctx), self.accept("reps")

    def task_symplectic(self, tok: int) -> tuple:
        ctx = self.arg_algebra()
        omega = self.arg_element(ctx)
        n, _ = self.expect_int("half dimension")
        vol = self.arg_element(ctx)
        if ctx.conjugation is None:
            self.fail(tok, f"algebra {ctx.name!r} has no conjugation declared")
        return ctx, omega, n, vol

    def task_obstruction(self, tok: int) -> tuple:
        ctx = self.arg_algebra()
        mode = self.arg_complex_mode(ctx)
        alpha = self.arg_element(ctx)
        betas = tuple(self.arg_element(ctx) for _ in range(3))
        return ctx, mode, alpha, betas, self.arg_element(ctx)

    def task_massey(self, tok: int) -> tuple:
        ctx = self.arg_algebra()
        return (ctx, *(self.arg_element(ctx) for _ in range(3)))

    def task_lefschetz(self, tok: int) -> tuple:
        ctx = self.arg_algebra()
        mode = self.arg_complex_mode(ctx)
        omega = self.arg_element(ctx)
        k, _ = self.expect_int("power k")
        return ctx, mode, omega, k

    def parse_space(self) -> topology.BettiVector:
        t = self.expect_ident("'proj' or 'p1b'")
        kind = self.texts[t]
        if kind not in ("proj", "p1b"):
            self.fail(t, "expected 'proj <n>' or 'p1b <n>'")
        n, ntok = self.expect_int("projective dimension" if kind == "proj"
                                  else "base projective dimension")
        dim = 2 * n if kind == "proj" else 2 * n + 2
        if dim > topology.EXCEPTIONAL_DIM:
            self.fail(ntok, f"{kind} {n} has real dimension {dim}, above the "
                            f"exceptional set's {topology.EXCEPTIONAL_DIM}")
        space = topology.betti_projective(n)
        return space if kind == "proj" else topology.betti_p1_bundle(space)

    def parse_graph(self) -> topology.IncidenceGraph:
        nodes, edges = [], []
        while True:
            if self.accept("node"):
                nodes.append(self.parse_space())
            elif self.texts[self.pos] == "edge":
                etok = self.next()
                a, atok = self.expect_int("node index")
                b, btok = self.expect_int("node index")
                inter = self.parse_space()
                for index, itok in ((a, atok), (b, btok)):
                    if not 0 <= index < len(nodes):
                        self.fail(itok, f"node index {index} out of range")
                edge = topology.Edge(a, b, inter)
                try:
                    topology.check_edge(nodes, edge)
                except ValueError as e:
                    self.fail(etok, str(e))
                edges.append(edge)
            else:
                break
        if not nodes:
            self.fail(self.pos, "expected at least one 'node' clause")
        return topology.IncidenceGraph(nodes, edges)

    def task_mv_union(self, tok: int) -> tuple:
        return (self.parse_graph(),)

    def task_resolution(self, tok: int) -> tuple:
        ctx = self.arg_algebra()
        binding = self.arg_map(ctx)
        s, _ = self.expect_int("number of resolved points")
        return ctx, binding, s, self.parse_graph()

    def task_verify_exact(self, tok: int) -> tuple:
        t = self.expect_ident("element name")  # the lhs, looked up session-wide
        lhs = self.lookup(t, _ELEMENT, "element")
        ctx = self.session.names[self.texts[t]][1]
        return ctx, lhs, self.arg_element(ctx)

    # finalization: build and validate differentials and declared actions

    def finalize(self):
        for ctx in self.session.algebras.values():
            try:
                ctx.differential = Differential(ctx.algebra, dict(ctx.d_assignments))
            except ValueError as e:
                self.fail(ctx.first_d_token, str(e))
        for binding in [v for kind, _, v in self.session.names.values() if kind == "map"]:
            try:
                binding.action = action.GroupAction(binding.map, binding.order,
                                             binding.ctx.differential)
            except ValueError as e:
                self.fail(binding.token, f"map {self.texts[binding.token]!r} is not a "
                                         f"valid order-{binding.order} action: {e}")


def parse(text: str) -> Session:
    """Parse and statically check a session; raises DslError with a
    positioned diagnostic on the first failure."""
    return Parser(text).parse()


def eval_expr(text: str, session: Session, algebra_name: str | None = None) -> GradedElement:
    """Evaluate one expression against the bindings of a parsed session."""
    parser = Parser(text, session)
    if algebra_name is None:
        if not session.algebras:
            raise DslError(Diagnostic(1, 1, "no algebra declared"))
        algebra_name = next(reversed(session.algebras))
    elif algebra_name not in session.algebras:
        raise DslError(Diagnostic(1, 1, f"unknown algebra {algebra_name!r}"))
    value = parser.parse_expr(session.algebras[algebra_name])
    parser.skip_newlines()
    parser.expect_end_of_statement()
    return value


# --- execution --------------------------------------------------------------

class Report:
    def __init__(self, session_sha256: str):
        self.session_sha256 = session_sha256
        self.records: list = []
        self.failed = 0

    def add(self, key: str, value):
        self.records.append((key, str(value)))

    @property
    def ok(self) -> bool:
        return not self.failed

    def machine_text(self) -> str:
        return self._text(f"session_sha256 = {self.session_sha256}")

    def human_text(self) -> str:
        status = "ok" if self.ok else f"{self.failed} task(s) failed"
        return self._text(f"# session {self.session_sha256[:12]}   [{status}]")

    def _text(self, header: str) -> str:
        return "\n".join([header, *(f"{k} = {v}" for k, v in self.records)]) + "\n"


class _RunContext:
    """Per-run cache so repeated tasks share cohomology tables."""

    def __init__(self):
        self._tables: dict[tuple, CohomologyTable] = {}

    def table(self, ctx: AlgebraContext, binding: MapBinding | None) -> CohomologyTable:
        """The table of the full complex of ``ctx``, or the checked table of
        ``binding``'s invariant complex; each is built (and checked) once."""
        key = (ctx.name, binding)  # one binding per map name
        if key not in self._tables:
            self._tables[key] = (
                CohomologyTable(CochainComplex(ctx.differential)) if binding is None
                else action.invariant_cohomology(binding.action, self.table(ctx, None)))
        return self._tables[key]


def run(session: Session) -> Report:
    """Execute the session's tasks in order; a task whose mathematical
    precondition fails is carried in the report, never dropped.  An
    ``AssertionError``, a violated internal invariant such as a failed
    cross-check, is an engine fault and propagates."""
    report = Report(session.sha256())
    rc = _RunContext()
    for task in session.tasks:
        try:
            _TASK_RUNNERS[task.name](rc, report, *task.args)
        except (ValueError, ZeroDivisionError) as e:
            report.failed += 1
            report.add(f"{task.name}_error", e)
    return report


def _dump_representatives(table, key: str, report: Report):
    for k in range(table.top + 1):
        for j, r in enumerate(table.representatives(k)):
            report.add(f"{key}[{k}.{j}]", format_element(r))


def _run_betti(rc: _RunContext, report: Report, ctx: AlgebraContext, reps: bool):
    table = rc.table(ctx, None)
    for k, b in enumerate(table.betti):
        report.add(f"betti[{k}]", b)
    if reps:
        _dump_representatives(table, "betti_rep", report)


def _run_invariant_betti(rc: _RunContext, report: Report, ctx: AlgebraContext,
                         binding: MapBinding, reps: bool):
    table = rc.table(ctx, binding)
    cx = table.complex
    for k in range(cx.top + 1):
        report.add(f"invariant_dim[{k}]", cx.dim(k))
    for k, b in enumerate(table.betti):
        report.add(f"invariant_betti[{k}]", b)
    report.add("invariant_consistency", "ok")
    if reps:
        _dump_representatives(table, "invariant_betti_rep", report)


def _run_symplectic(rc: _RunContext, report: Report, ctx: AlgebraContext,
                    omega: GradedElement, n: int, vol: GradedElement):
    verdict = symplectic.is_symplectic(omega, n, ctx.conjugation, ctx.differential, vol)
    report.add("symplectic", "yes" if verdict.ok else "no")
    report.add("symplectic_closed", "yes" if verdict.closed else "no")
    report.add("symplectic_real", "yes" if verdict.real else "no")
    report.add("omega_power_scalar", format_scalar(verdict.power_scalar))


def _run_obstruction(rc: _RunContext, report: Report, ctx: AlgebraContext,
                     binding: MapBinding | None, alpha: GradedElement, betas: tuple,
                     vol: GradedElement):
    table = rc.table(ctx, binding)
    result = formality.obstruction(formality.ObstructionInput(alpha, betas, vol), table)
    for i, xi in enumerate(result.primitives):
        report.add(f"obstruction_xi[{i + 1}]", format_element(xi))
    report.add("obstruction_scalar", format_scalar(result.scalar))
    report.add("obstruction_class", format_element(result.representative))
    report.add("h3_dim", result.h3_dim)
    report.add("nonformal_certificate",
               "yes" if result.certifies_nonformality() else "inconclusive")


def _run_massey(rc: _RunContext, report: Report, ctx: AlgebraContext,
                x: GradedElement, y: GradedElement, z: GradedElement):
    table = rc.table(ctx, None)
    result = formality.massey_triple(table.class_of(x), table.class_of(y), table.class_of(z))
    report.add("massey_class", format_element(result.representative))
    report.add("massey_class_is_zero", "yes" if not result.class_coords else "no")
    report.add("massey_indeterminacy_dim", result.indeterminacy.dim)


def _run_lefschetz(rc: _RunContext, report: Report, ctx: AlgebraContext,
                   binding: MapBinding | None, omega: GradedElement, k: int):
    result = symplectic.lefschetz(rc.table(ctx, binding).class_of(omega, 2), k)
    report.add(f"lefschetz_rank[{k}]", result.rank)
    report.add(f"lefschetz_kernel_dim[{k}]", result.kernel_dim)


def _run_mv_union(rc: _RunContext, report: Report, graph: topology.IncidenceGraph):
    for j, b in enumerate(topology.betti_union(graph)):
        report.add(f"mv_betti[{j}]", b)


def _run_resolution(rc: _RunContext, report: Report, ctx: AlgebraContext,
                    binding: MapBinding, s: int, graph: topology.IncidenceGraph):
    bhat = topology.BettiVector(tuple(rc.table(ctx, binding).betti))
    v = topology.betti_resolution(bhat, topology.betti_union(graph), s)
    report.add("resolution_s", s)
    for j, b in enumerate(v):
        report.add(f"betti_resolution[{j}]", b)
    report.add("resolution_duality_closure", "b0=b8=1, b7=b1")


def _run_verify_exact(rc: _RunContext, report: Report, ctx: AlgebraContext,
                      lhs: GradedElement, prim: GradedElement):
    diff = lhs - apply_d(ctx.differential, prim)
    if not diff.is_zero():
        raise PreconditionError(
            f"verify_exact failed: difference is {format_element(diff)}", diff)
    report.add("verify_exact", "ok")


_TASK_RUNNERS = {
    "betti": _run_betti,
    "invariant_betti": _run_invariant_betti,
    "symplectic": _run_symplectic,
    "obstruction": _run_obstruction,
    "massey": _run_massey,
    "lefschetz": _run_lefschetz,
    "mv_union": _run_mv_union,
    "resolution": _run_resolution,
    "verify_exact": _run_verify_exact,
}
