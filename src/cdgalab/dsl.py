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
bare scalar term denotes a degree-0 element.  Every failure is a positioned
diagnostic; no input text crashes the parser.

Tasks: ``betti``, ``invariant_betti``, ``obstruction``, ``massey``,
``symplectic``, ``lefschetz``, ``mv_union``, ``resolution``, ``verify_exact``.
``Parser.task_<name>`` checks a task's arguments and returns them as the
positional tuple ``Task.args``; ``run`` looks up ``_TASK_RUNNERS[name]``, the
one runner table, for each task and calls it with ``(run context, report,
*args)``.  The machine-readable report is one ``key = value`` record per line
after a header record carrying the sha256 of the session text; identical
sessions produce byte-identical reports.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction

from ._record import Frozen
from .algebra import (Algebra, AlgebraMap, Conjugation, Differential,
                      GradedElement, PreconditionError, apply_d, format_element, wedge)
from .action import GroupAction, invariant_cohomology
from .field import CycloField, FieldElement, format_scalar, make_field
from .formality import ObstructionInput, massey_triple, obstruction
from .homology import CochainComplex, CohomologyTable
from .symplectic import is_symplectic, lefschetz
from .topology import EXCEPTIONAL_DIM, BettiVector, Edge, IncidenceGraph, betti_p1_bundle, \
    betti_projective, betti_resolution, betti_union, check_edge

RESERVED = {
    "field", "cyclotomic", "algebra", "generators", "conjugation", "d", "map",
    "order", "let", "task", "top", "z", "i", "invariant", "full", "node",
    "edge", "proj", "p1b",
}

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

# One alternative per token kind; blanks and comments match no named group
# and are skipped, and any other character is BAD.
_TOKEN = re.compile(r"(?P<NEWLINE>\n)|[ \t\r]+|#[^\n]*|(?P<INT>[0-9]+)"
                    r"|(?P<IDENT>[A-Za-z][A-Za-z0-9_]*)"
                    r"|(?P<SYM>->|[:={};*+\-^/()])|(?P<BAD>.)")


class Token:
    """One token and the line and column where it starts.  A plain class
    with slots, because a session builds one object per token."""

    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # IDENT, INT, SYM, NEWLINE, EOF
        self.text = text
        self.line = line
        self.col = col


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        col = m.start() - line_start + 1
        if kind == "BAD":
            raise DslError(Diagnostic(line, col, f"unexpected character {m.group()!r}"))
        tokens.append(Token(kind, m.group(), line, col))
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


# --- session model ----------------------------------------------------------

class AlgebraContext:
    def __init__(self, name: str, algebra: Algebra):
        self.name = name
        self.algebra = algebra
        self.d_assignments: dict = {}
        self.first_d_token: Token | None = None
        self.conjugation: Conjugation | None = None
        self.differential: Differential | None = None  # built by finalize
        self.gen_degrees = {g.name: g.degree for g in algebra.gens}  # name -> degree


class MapBinding:
    def __init__(self, token: Token, ctx: AlgebraContext, order: int, map: AlgebraMap):
        self.token = token  # the map's name, where its diagnostics point
        self.ctx = ctx
        self.order = order
        self.map = map
        self.action: GroupAction | None = None  # built and validated by finalize


class Task:
    def __init__(self, name: str, args: tuple):
        self.name = name
        self.args = args  # what _TASK_RUNNERS[name] takes after the run context and report


class Session:
    def __init__(self, source: str):
        self.source = source
        self.field: CycloField | None = None
        self.algebras: dict = {}
        self.maps: dict = {}
        self.lets: dict = {}
        self.tasks: list = []

    def sha256(self) -> str:
        return hashlib.sha256(self.source.encode("utf-8")).hexdigest()

    def lookup_element(self, name: str) -> GradedElement | None:
        if name in self.lets:
            return self.lets[name]
        for ctx in self.algebras.values():
            if name in ctx.gen_degrees:
                return ctx.algebra.generator(name)
        return None


# --- parser -----------------------------------------------------------------

class Parser:
    def __init__(self, text: str, session: Session | None = None):
        self.session = Session(text) if session is None else session
        self.tokens = tokenize(text)
        self.pos = 0
        self.current: AlgebraContext | None = None
        self.names: dict[str, str] = {}  # global namespace -> kind

    # token plumbing

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def fail(self, token: Token, message: str):
        raise DslError(Diagnostic(token.line, token.col, message))

    def accept(self, text: str, kind: str = "SYM") -> Token | None:
        t = self.peek()
        if t.kind == kind and t.text == text:
            return self.next()
        return None

    def expect(self, text: str, kind: str = "SYM") -> Token:
        """The next token, which must be the symbol (or, with kind IDENT,
        the keyword) ``text``."""
        t = self.next()
        if t.kind != kind or t.text != text:
            self.fail(t, f"expected {text!r}")
        return t

    def expect_ident(self, what: str = "identifier") -> Token:
        t = self.next()
        if t.kind != "IDENT":
            self.fail(t, f"expected {what}")
        return t

    def expect_int(self, what: str = "integer") -> tuple[int, Token]:
        t = self.next()
        if t.kind != "INT":
            self.fail(t, f"expected {what}")
        try:
            return int(t.text), t
        except ValueError:  # longer than the interpreter converts
            self.fail(t, f"integer literal too long: {len(t.text)} digits")

    def skip_newlines(self):
        while self.peek().kind == "NEWLINE":
            self.next()

    def expect_end_of_statement(self):
        t = self.peek()
        if t.kind in ("NEWLINE", "EOF"):
            if t.kind == "NEWLINE":
                self.next()
            return
        self.fail(t, f"unexpected trailing token {t.text!r}")

    def declare(self, token: Token, kind: str):
        name = token.text
        if name in RESERVED:
            self.fail(token, f"{name!r} is a reserved word")
        if name in self.names:
            self.fail(token, f"duplicate declaration of {name!r} (already a {self.names[name]})")
        self.names[name] = kind

    def require_field(self, token: Token) -> CycloField:
        if self.session.field is None:
            self.fail(token, "no field declared yet")
        return self.session.field

    def require_algebra(self, token: Token) -> AlgebraContext:
        if self.current is None:
            self.fail(token, "no algebra declared yet")
        return self.current

    def known_generator(self, ctx: AlgebraContext, t: Token) -> Token:
        if t.text not in ctx.gen_degrees:
            self.fail(t, f"unknown generator {t.text!r}")
        return t

    def resolve_element(self, ctx: AlgebraContext, t: Token, noun: str) -> GradedElement:
        """The generator or ``let`` of ``ctx``'s algebra that ``t`` names."""
        if t.text in ctx.gen_degrees:
            return ctx.algebra.generator(t.text)
        value = self.session.lets.get(t.text)
        if value is None:
            self.fail(t, f"unknown {noun} {t.text!r}")
        if value.algebra is not ctx.algebra:
            self.fail(t, f"{t.text!r} belongs to another algebra")
        return value

    # statements

    def parse(self) -> Session:
        while True:
            self.skip_newlines()
            t = self.peek()
            if t.kind == "EOF":
                break
            if t.kind != "IDENT":
                self.fail(t, f"expected a statement keyword, got {t.text!r}")
            handler = getattr(self, f"stmt_{t.text}", None)
            if handler is None:
                self.fail(t, f"unknown statement {t.text!r}")
            handler()
        self.finalize()
        return self.session

    def stmt_field(self):
        kw = self.next()
        if self.session.field is not None:
            self.fail(kw, "duplicate field declaration")
        t = self.expect_ident("'cyclotomic'")
        if t.text != "cyclotomic":
            self.fail(t, f"unknown field kind {t.text!r}")
        n, ntok = self.expect_int("conductor")
        try:
            self.session.field = make_field(n)
        except ValueError as e:  # conductor below 1 or over the budget
            self.fail(ntok, str(e))
        self.expect_end_of_statement()

    def stmt_algebra(self):
        kw = self.next()
        field = self.require_field(kw)
        name_tok = self.expect_ident("algebra name")
        self.declare(name_tok, "algebra")
        self.expect("generators", "IDENT")
        gens = []
        top = None
        while self.peek().kind not in ("NEWLINE", "EOF"):
            g = self.expect_ident("generator name")
            if g.text == "top":
                top, _ = self.expect_int("top degree")
                break
            self.expect(":")
            deg, dtok = self.expect_int("generator degree")
            if deg < 1:
                self.fail(dtok, f"generator degree must be >= 1, got {deg}")
            gens.append((g, deg))
        if not gens:
            self.fail(self.peek(), "an algebra needs at least one generator")
        for g, _deg in gens:
            self.declare(g, "generator")
        try:
            algebra = Algebra(field, [(g.text, deg) for g, deg in gens], top=top)
        except ValueError as e:
            self.fail(name_tok, str(e))
        ctx = AlgebraContext(name_tok.text, algebra)
        self.session.algebras[name_tok.text] = ctx
        self.current = ctx
        self.expect_end_of_statement()

    def stmt_conjugation(self):
        kw = self.next()
        ctx = self.require_algebra(kw)
        if ctx.conjugation is not None:
            self.fail(kw, f"duplicate conjugation for algebra {ctx.name!r}")
        pairs = []
        while self.peek().kind == "IDENT":
            a = self.next()
            if self.peek().kind != "IDENT":
                self.fail(a, f"conjugation takes generator pairs; {a.text!r} has no partner")
            b = self.next()
            pairs.append((self.known_generator(ctx, a).text, self.known_generator(ctx, b).text))
        if not pairs:
            self.fail(self.peek(), "conjugation needs at least one pair")
        try:
            ctx.conjugation = Conjugation(ctx.algebra, pairs)
        except ValueError as e:
            self.fail(kw, str(e))
        self.expect_end_of_statement()

    def stmt_d(self):
        kw = self.next()
        ctx = self.require_algebra(kw)
        gen_tok = self.known_generator(ctx, self.expect_ident("generator name"))
        if gen_tok.text in ctx.d_assignments:
            self.fail(gen_tok, f"duplicate differential for {gen_tok.text!r}")
        self.expect("=")
        expr_tok = self.peek()
        value = self.parse_expr(ctx)
        want = ctx.gen_degrees[gen_tok.text] + 1
        if not value.is_zero() and value.degree() != want:
            got = value.degree()
            shown = got if got is not None else "mixed"
            self.fail(expr_tok,
                      f"degree mismatch: d({gen_tok.text}) must have degree {want}, got {shown}")
        ctx.d_assignments[gen_tok.text] = value
        if ctx.first_d_token is None:
            ctx.first_d_token = gen_tok
        self.expect_end_of_statement()

    def stmt_map(self):
        kw = self.next()
        ctx = self.require_algebra(kw)
        name_tok = self.expect_ident("map name")
        self.declare(name_tok, "map")
        self.expect("order", "IDENT")
        order, otok = self.expect_int("map order")
        if order < 1:
            self.fail(otok, f"order must be >= 1, got {order}")
        self.expect("{")
        assignments = {}
        while True:
            self.skip_newlines()
            if self.accept("}"):
                break
            gen_tok = self.known_generator(ctx, self.expect_ident("generator name"))
            if gen_tok.text in assignments:
                self.fail(gen_tok, f"duplicate map assignment for {gen_tok.text!r}")
            self.expect("->")
            expr_tok = self.peek()
            value = self.parse_expr(ctx)
            want = ctx.gen_degrees[gen_tok.text]
            if not value.is_zero() and value.degree() != want:
                self.fail(expr_tok,
                          f"degree mismatch: image of {gen_tok.text} must have degree {want}")
            assignments[gen_tok.text] = value
            self.skip_newlines()
            if not self.accept(";"):
                self.skip_newlines()
                self.expect("}")
                break
        try:
            amap = AlgebraMap(ctx.algebra, ctx.algebra, assignments)
        except ValueError as e:
            self.fail(name_tok, str(e))
        self.session.maps[name_tok.text] = MapBinding(name_tok, ctx, order, amap)
        self.expect_end_of_statement()

    def stmt_let(self):
        kw = self.next()
        ctx = self.require_algebra(kw)
        name_tok = self.expect_ident("binding name")
        self.declare(name_tok, "let")
        self.expect("=")
        value = self.parse_expr(ctx)
        self.session.lets[name_tok.text] = value
        self.expect_end_of_statement()

    # expressions

    def signed_sum(self, term):
        """``['-'] term (('+'|'-') term)*``, for elements and for scalars."""
        negate = self.accept("-")
        acc = term()
        if negate:
            acc = -acc
        while True:
            t = self.peek()
            if t.kind != "SYM" or t.text not in ("+", "-"):
                return acc
            self.next()
            acc = acc + term() if t.text == "+" else acc - term()

    def parse_expr(self, ctx: AlgebraContext) -> GradedElement:
        return self.signed_sum(lambda: self.parse_term(ctx))

    def parse_term(self, ctx: AlgebraContext) -> GradedElement:
        t = self.peek()
        if t.kind == "SYM" and t.text == "{":
            scalar = self.parse_scalar(ctx)
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
        if t.kind == "SYM" and t.text == "(":
            e = self.parse_expr(ctx)
            self.expect(")")
            return e
        if t.kind != "IDENT":
            self.fail(t, f"expected an element, got {t.text!r}")
        return self.resolve_element(ctx, t, "identifier")

    def parse_scalar(self, ctx: AlgebraContext) -> FieldElement:
        open_tok = self.expect("{")
        field = self.require_field(open_tok)
        value = self.signed_sum(lambda: self.scalar_term(field))
        t = self.next()
        if t.kind in ("NEWLINE", "EOF"):
            self.fail(t, "malformed scalar: missing '}'")
        if t.kind != "SYM" or t.text != "}":
            self.fail(t, f"malformed scalar: unexpected {t.text!r}")
        return value

    def scalar_term(self, field: CycloField) -> FieldElement:
        acc = self.scalar_factor(field)
        while self.accept("*"):
            acc = acc * self.scalar_factor(field)
        return acc

    def scalar_factor(self, field: CycloField) -> FieldElement:
        t = self.peek()
        if t.kind == "INT":
            num, _ = self.expect_int()
            if self.accept("/"):
                den, dtok = self.expect_int("denominator")
                if den == 0:
                    self.fail(dtok, "malformed scalar: zero denominator")
                return field.rational(Fraction(num, den))
            return field.rational(num)
        self.next()
        if t.kind == "IDENT" and t.text in ("z", "i"):
            if t.text == "i":
                if field.n % 4 != 0:
                    self.fail(t, f"malformed scalar: 'i' needs 4 | conductor, got {field.n}")
                base = field.imaginary_unit()
            else:
                base = field.zeta(1)
            if self.accept("^"):
                k, _ = self.expect_int("exponent")
                return base ** k
            return base
        self.fail(t, f"malformed scalar: unexpected {t.text!r}")

    # tasks

    def stmt_task(self):
        self.next()
        name_tok = self.expect_ident("task name")
        name = name_tok.text
        if name not in _TASK_RUNNERS:
            self.fail(name_tok, f"unknown task {name!r}")
        args = getattr(self, f"task_{name}")(name_tok)
        self.session.tasks.append(Task(name, args))
        self.expect_end_of_statement()

    def arg_algebra(self) -> AlgebraContext:
        t = self.expect_ident("algebra name")
        ctx = self.session.algebras.get(t.text)
        if ctx is None:
            self.fail(t, f"unknown algebra {t.text!r}")
        return ctx

    def arg_map(self, ctx: AlgebraContext) -> MapBinding:
        t = self.expect_ident("map name")
        binding = self.session.maps.get(t.text)
        if binding is None:
            self.fail(t, f"unknown map {t.text!r}")
        if binding.ctx is not ctx:
            self.fail(t, f"map {t.text!r} belongs to another algebra")
        return binding

    def arg_element(self, ctx: AlgebraContext) -> GradedElement:
        return self.resolve_element(ctx, self.expect_ident("element name"), "element")

    def arg_complex_mode(self, ctx: AlgebraContext) -> MapBinding | None:
        t = self.expect_ident("'invariant' or 'full'")
        if t.text == "full":
            return None
        if t.text == "invariant":
            return self.arg_map(ctx)
        self.fail(t, "expected 'invariant <map>' or 'full'")

    def task_betti(self, tok: Token) -> tuple:
        return self.arg_algebra(), self.accept("reps", "IDENT") is not None

    def task_invariant_betti(self, tok: Token) -> tuple:
        ctx = self.arg_algebra()
        return ctx, self.arg_map(ctx), self.accept("reps", "IDENT") is not None

    def task_symplectic(self, tok: Token) -> tuple:
        ctx = self.arg_algebra()
        omega = self.arg_element(ctx)
        n, _ = self.expect_int("half dimension")
        vol = self.arg_element(ctx)
        if ctx.conjugation is None:
            self.fail(tok, f"algebra {ctx.name!r} has no conjugation declared")
        return ctx, omega, n, vol

    def task_obstruction(self, tok: Token) -> tuple:
        ctx = self.arg_algebra()
        mode = self.arg_complex_mode(ctx)
        alpha = self.arg_element(ctx)
        betas = tuple(self.arg_element(ctx) for _ in range(3))
        return ctx, mode, alpha, betas, self.arg_element(ctx)

    def task_massey(self, tok: Token) -> tuple:
        ctx = self.arg_algebra()
        return (ctx, *(self.arg_element(ctx) for _ in range(3)))

    def task_lefschetz(self, tok: Token) -> tuple:
        ctx = self.arg_algebra()
        mode = self.arg_complex_mode(ctx)
        omega = self.arg_element(ctx)
        k, _ = self.expect_int("power k")
        return ctx, mode, omega, k

    def parse_space(self) -> BettiVector:
        t = self.expect_ident("'proj' or 'p1b'")
        if t.text not in ("proj", "p1b"):
            self.fail(t, "expected 'proj <n>' or 'p1b <n>'")
        n, ntok = self.expect_int("projective dimension" if t.text == "proj"
                                  else "base projective dimension")
        dim = 2 * n if t.text == "proj" else 2 * n + 2
        if dim > EXCEPTIONAL_DIM:
            self.fail(ntok, f"{t.text} {n} has real dimension {dim}, above the "
                            f"exceptional set's {EXCEPTIONAL_DIM}")
        space = betti_projective(n)
        return space if t.text == "proj" else betti_p1_bundle(space)

    def parse_graph(self) -> IncidenceGraph:
        nodes = []
        edges = []
        while True:
            if self.accept("node", "IDENT"):
                nodes.append(self.parse_space())
            elif etok := self.accept("edge", "IDENT"):
                a, atok = self.expect_int("node index")
                b, btok = self.expect_int("node index")
                inter = self.parse_space()
                for index, itok in ((a, atok), (b, btok)):
                    if not 0 <= index < len(nodes):
                        self.fail(itok, f"node index {index} out of range")
                edge = Edge(a, b, inter)
                try:
                    check_edge(nodes, edge)
                except ValueError as e:
                    self.fail(etok, str(e))
                edges.append(edge)
            else:
                break
        if not nodes:
            self.fail(self.peek(), "expected at least one 'node' clause")
        return IncidenceGraph(nodes, edges)

    def task_mv_union(self, tok: Token) -> tuple:
        return (self.parse_graph(),)

    def task_resolution(self, tok: Token) -> tuple:
        ctx = self.arg_algebra()
        binding = self.arg_map(ctx)
        s, _ = self.expect_int("number of resolved points")
        return ctx, binding, s, self.parse_graph()

    def task_verify_exact(self, tok: Token) -> tuple:
        values = []
        for _ in range(2):  # lhs, then the primitive, looked up session-wide
            t = self.expect_ident("element name")
            value = self.session.lookup_element(t.text)
            if value is None:
                self.fail(t, f"unknown element {t.text!r}")
            values.append(value)
        lhs, prim = values
        if prim.algebra is not lhs.algebra:
            self.fail(t, f"{t.text!r} belongs to another algebra")
        ctx = next(c for c in self.session.algebras.values() if c.algebra is lhs.algebra)
        return ctx, lhs, prim

    # finalization: build and validate differentials and declared actions

    def finalize(self):
        for ctx in self.session.algebras.values():
            try:
                ctx.differential = Differential(ctx.algebra, dict(ctx.d_assignments))
            except ValueError as e:
                self.fail(ctx.first_d_token, str(e))
        for binding in self.session.maps.values():
            try:
                binding.action = GroupAction(binding.map, binding.order,
                                             binding.ctx.differential)
            except ValueError as e:
                self.fail(binding.token,
                          f"map {binding.token.text!r} is not a valid "
                          f"order-{binding.order} action: {e}")


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
    value = parser.parse_expr(session.algebras[algebra_name])
    parser.expect_end_of_statement()
    return value


# --- execution --------------------------------------------------------------

class Report:
    def __init__(self, session_sha256: str):
        self.session_sha256 = session_sha256
        self.records: list = []
        self.failures: list = []

    def add(self, key: str, value):
        self.records.append((key, str(value)))

    def fail_task(self, index: int, name: str, message: str):
        self.failures.append((index, name, message))
        self.records.append((f"{name}_error", message))

    @property
    def ok(self) -> bool:
        return not self.failures

    def machine_text(self) -> str:
        lines = [f"session_sha256 = {self.session_sha256}"]
        lines.extend(f"{k} = {v}" for k, v in self.records)
        return "\n".join(lines) + "\n"

    def human_text(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} task(s) failed"
        lines = [f"# session {self.session_sha256[:12]}   [{status}]"]
        lines.extend(f"{k} = {v}" for k, v in self.records)
        return "\n".join(lines) + "\n"


class _RunContext:
    """Per-run cache so repeated tasks share cohomology tables."""

    def __init__(self):
        self._tables: dict[tuple, CohomologyTable] = {}

    def table(self, ctx: AlgebraContext, binding: MapBinding | None) -> CohomologyTable:
        """The table of the full complex of ``ctx``, or the checked table of
        ``binding``'s invariant complex; each is built (and checked) once."""
        key = (ctx.name, binding.token.text if binding else None)
        if key not in self._tables:
            self._tables[key] = (
                CohomologyTable(CochainComplex(ctx.differential)) if binding is None
                else invariant_cohomology(binding.action, self.table(ctx, None)))
        return self._tables[key]


def run(session: Session) -> Report:
    """Execute the session's tasks in order; a task whose mathematical
    precondition fails is carried in the report, never dropped.  An
    ``AssertionError``, a violated internal invariant such as a failed
    cross-check, is an engine fault and propagates."""
    report = Report(session.sha256())
    rc = _RunContext()
    for index, task in enumerate(session.tasks):
        try:
            _TASK_RUNNERS[task.name](rc, report, *task.args)
        except (ValueError, ZeroDivisionError) as e:
            report.fail_task(index, task.name, str(e))
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
    verdict = is_symplectic(omega, n, ctx.conjugation, ctx.differential, vol)
    report.add("symplectic", "yes" if verdict.ok else "no")
    report.add("symplectic_closed", "yes" if verdict.closed else "no")
    report.add("symplectic_real", "yes" if verdict.real else "no")
    report.add("omega_power_scalar", format_scalar(verdict.power_scalar))


def _run_obstruction(rc: _RunContext, report: Report, ctx: AlgebraContext,
                     binding: MapBinding | None, alpha: GradedElement, betas: tuple,
                     vol: GradedElement):
    table = rc.table(ctx, binding)
    result = obstruction(ObstructionInput(alpha, betas, vol), table)
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
    result = massey_triple(table.class_of(x), table.class_of(y), table.class_of(z))
    report.add("massey_class", format_element(result.representative))
    report.add("massey_class_is_zero", "yes" if not result.class_coords else "no")
    report.add("massey_indeterminacy_dim", result.indeterminacy.dim)


def _run_lefschetz(rc: _RunContext, report: Report, ctx: AlgebraContext,
                   binding: MapBinding | None, omega: GradedElement, k: int):
    result = lefschetz(rc.table(ctx, binding).class_of(omega, 2), k)
    report.add(f"lefschetz_rank[{k}]", result.rank)
    report.add(f"lefschetz_kernel_dim[{k}]", result.kernel_dim)


def _run_mv_union(rc: _RunContext, report: Report, graph: IncidenceGraph):
    for j, b in enumerate(betti_union(graph)):
        report.add(f"mv_betti[{j}]", b)


def _run_resolution(rc: _RunContext, report: Report, ctx: AlgebraContext,
                    binding: MapBinding, s: int, graph: IncidenceGraph):
    bhat = BettiVector(tuple(rc.table(ctx, binding).betti))
    v = betti_resolution(bhat, betti_union(graph), s)
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
