"""Session language: parser, evaluator, task runner and report writer.

Grammar (line-oriented, ``#`` comments, identifiers ``[A-Za-z][A-Za-z0-9_]*``)::

    field cyclotomic <n>
    algebra <name> generators <g1>:<deg> <g2>:<deg> ... [top <t>]
    conjugation <g> <gbar> ...            # pairs; self-paired allowed
    d <gen> = <expr>                      # unlisted generators have d = 0
    map <name> order <m> { <gen> -> <expr> ; ... }
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
The machine-readable report is one ``key = value`` record per line after a
header record carrying the sha256 of the session text; identical sessions
produce byte-identical reports.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional

from .algebra import (Algebra, AlgebraMap, Conjugation, DGA, Differential,
                      GradedElement, format_element, wedge)
from .action import GroupAction, check_fixed_part, invariant_complex
from .field import CycloField, FieldElement, format_scalar, make_field
from .formality import ObstructionInput, ObstructionInputError, massey_triple, obstruction
from .homology import CochainComplex, CohomologyClass, CohomologyTable, cohomology
from .symplectic import SymplecticCandidate, exactness_witness_check, is_symplectic, lefschetz
from .topology import BettiVector, Edge, IncidenceGraph, betti_p1_bundle, betti_projective, \
    betti_resolution, betti_union, check_edge

RESERVED = {
    "field", "cyclotomic", "algebra", "generators", "conjugation", "d", "map",
    "order", "let", "task", "top", "z", "i", "invariant", "full", "node",
    "edge", "proj", "p1b",
}

TASK_NAMES = (
    "betti", "invariant_betti", "obstruction", "massey", "symplectic",
    "lefschetz", "mv_union", "resolution", "verify_exact",
)


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str

    def __str__(self):
        return f"{self.line}:{self.col}: {self.message}"


class DslError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


# --- tokens -----------------------------------------------------------------

_SYMBOLS = ("->", ":", "=", "{", "}", ";", "*", "+", "-", "^", "/", "(", ")")
_ONE_CHAR_SYMBOLS = frozenset(s for s in _SYMBOLS if len(s) == 1)


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, INT, SYM, NEWLINE, EOF
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            tokens.append(Token("NEWLINE", "\n", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if ch.isdigit():
            start = i
            startcol = col
            while i < n and text[i].isdigit():
                i += 1
                col += 1
            tokens.append(Token("INT", text[start:i], line, startcol))
            continue
        if ch.isalpha():
            start = i
            startcol = col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(Token("IDENT", text[start:i], line, startcol))
            continue
        two = text[i:i + 2]
        if two == "->":
            tokens.append(Token("SYM", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR_SYMBOLS:
            tokens.append(Token("SYM", ch, line, col))
            i += 1
            col += 1
            continue
        raise DslError(Diagnostic(line, col, f"unexpected character {ch!r}"))
    tokens.append(Token("EOF", "", line, col))
    return tokens


# --- session model ----------------------------------------------------------

@dataclass
class AlgebraContext:
    name: str
    algebra: Algebra
    d_assignments: dict = dc_field(default_factory=dict)
    first_d_token: Optional[Token] = None
    conjugation: Optional[Conjugation] = None
    differential: Optional[Differential] = None

    def require_differential(self) -> Differential:
        if self.differential is None:
            raise AssertionError(f"algebra {self.name} has no differential")
        return self.differential


@dataclass
class MapBinding:
    name: str
    ctx: AlgebraContext
    order: int
    map: AlgebraMap
    action: Optional[GroupAction] = None  # built and validated by finalize


@dataclass
class Task:
    name: str
    token: Token
    payload: dict


@dataclass
class Session:
    source: str
    field: Optional[CycloField] = None
    algebras: dict = dc_field(default_factory=dict)
    maps: dict = dc_field(default_factory=dict)
    lets: dict = dc_field(default_factory=dict)
    tasks: list = dc_field(default_factory=list)

    def sha256(self) -> str:
        return hashlib.sha256(self.source.encode("utf-8")).hexdigest()

    def lookup_element(self, name: str) -> Optional[GradedElement]:
        if name in self.lets:
            return self.lets[name]
        for ctx in self.algebras.values():
            if name in {g.name for g in ctx.algebra.gens}:
                return ctx.algebra.generator(name)
        return None


# --- parser -----------------------------------------------------------------

class Parser:
    def __init__(self, text: str):
        self.session = Session(text)
        self.tokens = tokenize(text)
        self.pos = 0
        self.current: Optional[AlgebraContext] = None
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

    def accept_sym(self, sym: str) -> bool:
        t = self.peek()
        if t.kind == "SYM" and t.text == sym:
            self.next()
            return True
        return False

    def expect_sym(self, sym: str) -> Token:
        t = self.next()
        if t.kind != "SYM" or t.text != sym:
            self.fail(t, f"expected {sym!r}")
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
        return int(t.text), t

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

    # statements

    def parse(self) -> Session:
        while True:
            self.skip_newlines()
            t = self.peek()
            if t.kind == "EOF":
                break
            if t.kind != "IDENT":
                self.fail(t, f"expected a statement keyword, got {t.text!r}")
            handler = {
                "field": self.stmt_field,
                "algebra": self.stmt_algebra,
                "conjugation": self.stmt_conjugation,
                "d": self.stmt_d,
                "map": self.stmt_map,
                "let": self.stmt_let,
                "task": self.stmt_task,
            }.get(t.text)
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
        t = self.expect_ident("'generators'")
        if t.text != "generators":
            self.fail(t, "expected 'generators'")
        gens = []
        top = None
        while True:
            t = self.peek()
            if t.kind in ("NEWLINE", "EOF"):
                break
            g = self.expect_ident("generator name")
            if g.text == "top":
                top, _ = self.expect_int("top degree")
                break
            self.expect_sym(":")
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
        pairs = []
        while self.peek().kind == "IDENT":
            a = self.next()
            if self.peek().kind != "IDENT":
                self.fail(a, f"conjugation takes generator pairs; {a.text!r} has no partner")
            b = self.next()
            for t in (a, b):
                if t.text not in {g.name for g in ctx.algebra.gens}:
                    self.fail(t, f"unknown generator {t.text!r}")
            pairs.append((a.text, b.text))
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
        gen_tok = self.expect_ident("generator name")
        names = {g.name for g in ctx.algebra.gens}
        if gen_tok.text not in names:
            self.fail(gen_tok, f"unknown generator {gen_tok.text!r}")
        if gen_tok.text in ctx.d_assignments:
            self.fail(gen_tok, f"duplicate differential for {gen_tok.text!r}")
        self.expect_sym("=")
        expr_tok = self.peek()
        value = self.parse_expr(ctx)
        gdeg = ctx.algebra.degrees[ctx.algebra.generator_index(gen_tok.text)]
        want = gdeg + 1
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
        t = self.expect_ident("'order'")
        if t.text != "order":
            self.fail(t, "expected 'order'")
        order, otok = self.expect_int("map order")
        if order < 1:
            self.fail(otok, f"order must be >= 1, got {order}")
        self.expect_sym("{")
        assignments = {}
        while True:
            self.skip_newlines()
            if self.accept_sym("}"):
                break
            gen_tok = self.expect_ident("generator name")
            if gen_tok.text not in {g.name for g in ctx.algebra.gens}:
                self.fail(gen_tok, f"unknown generator {gen_tok.text!r}")
            if gen_tok.text in assignments:
                self.fail(gen_tok, f"duplicate map assignment for {gen_tok.text!r}")
            self.expect_sym("->")
            expr_tok = self.peek()
            value = self.parse_expr(ctx)
            want = ctx.algebra.degrees[ctx.algebra.generator_index(gen_tok.text)]
            if not value.is_zero() and value.degree() != want:
                self.fail(expr_tok,
                          f"degree mismatch: image of {gen_tok.text} must have degree {want}")
            assignments[gen_tok.text] = value
            self.skip_newlines()
            if not self.accept_sym(";"):
                self.skip_newlines()
                self.expect_sym("}")
                break
        try:
            amap = AlgebraMap(ctx.algebra, ctx.algebra, assignments)
        except ValueError as e:
            self.fail(name_tok, str(e))
        self.session.maps[name_tok.text] = MapBinding(name_tok.text, ctx, order, amap)
        self.expect_end_of_statement()

    def stmt_let(self):
        kw = self.next()
        ctx = self.require_algebra(kw)
        name_tok = self.expect_ident("binding name")
        self.declare(name_tok, "let")
        self.expect_sym("=")
        value = self.parse_expr(ctx)
        self.session.lets[name_tok.text] = value
        self.expect_end_of_statement()

    # expressions

    def parse_expr(self, ctx: AlgebraContext) -> GradedElement:
        negate = self.accept_sym("-")
        acc = self.parse_term(ctx)
        if negate:
            acc = -acc
        while True:
            t = self.peek()
            if t.kind == "SYM" and t.text in ("+", "-"):
                self.next()
                rhs = self.parse_term(ctx)
                acc = acc + rhs if t.text == "+" else acc - rhs
            else:
                break
        return acc

    def parse_term(self, ctx: AlgebraContext) -> GradedElement:
        t = self.peek()
        if t.kind == "SYM" and t.text == "{":
            scalar = self.parse_scalar(ctx)
            if self.accept_sym("*"):
                acc = self.parse_factor(ctx).scale(scalar)
                while self.accept_sym("*"):
                    acc = wedge(acc, self.parse_factor(ctx))
                return acc
            return ctx.algebra.scalar(scalar)
        acc = self.parse_factor(ctx)
        while self.accept_sym("*"):
            acc = wedge(acc, self.parse_factor(ctx))
        return acc

    def parse_factor(self, ctx: AlgebraContext) -> GradedElement:
        t = self.next()
        if t.kind == "SYM" and t.text == "(":
            e = self.parse_expr(ctx)
            self.expect_sym(")")
            return e
        if t.kind != "IDENT":
            self.fail(t, f"expected an element, got {t.text!r}")
        name = t.text
        if name in {g.name for g in ctx.algebra.gens}:
            return ctx.algebra.generator(name)
        if name in self.session.lets:
            value = self.session.lets[name]
            if value.algebra is not ctx.algebra:
                self.fail(t, f"{name!r} belongs to another algebra")
            return value
        self.fail(t, f"unknown identifier {name!r}")

    def parse_scalar(self, ctx: AlgebraContext) -> FieldElement:
        open_tok = self.expect_sym("{")
        field = self.require_field(open_tok)
        value = self.scalar_sum(field, open_tok)
        self.expect_sym("}")
        return value

    def scalar_sum(self, field: CycloField, open_tok: Token) -> FieldElement:
        negate = self.accept_sym("-")
        acc = self.scalar_term(field)
        if negate:
            acc = -acc
        while True:
            t = self.peek()
            if t.kind == "SYM" and t.text in ("+", "-"):
                self.next()
                rhs = self.scalar_term(field)
                acc = acc + rhs if t.text == "+" else acc - rhs
            elif t.kind == "SYM" and t.text == "}":
                return acc
            elif t.kind in ("NEWLINE", "EOF"):
                self.fail(t, "malformed scalar: missing '}'")
            else:
                self.fail(t, f"malformed scalar: unexpected {t.text!r}")

    def scalar_term(self, field: CycloField) -> FieldElement:
        acc = self.scalar_factor(field)
        while self.accept_sym("*"):
            acc = acc * self.scalar_factor(field)
        return acc

    def scalar_factor(self, field: CycloField) -> FieldElement:
        t = self.next()
        if t.kind == "INT":
            num = int(t.text)
            if self.accept_sym("/"):
                den, dtok = self.expect_int("denominator")
                if den == 0:
                    self.fail(dtok, "malformed scalar: zero denominator")
                return field.rational(Fraction(num, den))
            return field.rational(num)
        if t.kind == "IDENT" and t.text in ("z", "i"):
            if t.text == "i":
                if field.n % 4 != 0:
                    self.fail(t, f"malformed scalar: 'i' needs 4 | conductor, got {field.n}")
                base = field.imaginary_unit()
            else:
                base = field.zeta(1)
            if self.accept_sym("^"):
                k, _ = self.expect_int("exponent")
                return base ** k
            return base
        self.fail(t, f"malformed scalar: unexpected {t.text!r}")

    # tasks

    def stmt_task(self):
        kw = self.next()
        name_tok = self.expect_ident("task name")
        name = name_tok.text
        if name not in TASK_NAMES:
            self.fail(name_tok, f"unknown task {name!r}")
        payload = getattr(self, f"task_{name}")(name_tok)
        self.session.tasks.append(Task(name, name_tok, payload))
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
        t = self.expect_ident("element name")
        names = {g.name for g in ctx.algebra.gens}
        if t.text in names:
            return ctx.algebra.generator(t.text)
        value = self.session.lets.get(t.text)
        if value is None:
            self.fail(t, f"unknown element {t.text!r}")
        if value.algebra is not ctx.algebra:
            self.fail(t, f"{t.text!r} belongs to another algebra")
        return value

    def arg_complex_mode(self, ctx: AlgebraContext):
        t = self.expect_ident("'invariant' or 'full'")
        if t.text == "full":
            return None
        if t.text == "invariant":
            return self.arg_map(ctx)
        self.fail(t, "expected 'invariant <map>' or 'full'")

    def accept_reps_flag(self) -> bool:
        t = self.peek()
        if t.kind == "IDENT" and t.text == "reps":
            self.next()
            return True
        return False

    def task_betti(self, tok: Token) -> dict:
        return {"ctx": self.arg_algebra(), "reps": self.accept_reps_flag()}

    def task_invariant_betti(self, tok: Token) -> dict:
        ctx = self.arg_algebra()
        return {"ctx": ctx, "map": self.arg_map(ctx), "reps": self.accept_reps_flag()}

    def task_symplectic(self, tok: Token) -> dict:
        ctx = self.arg_algebra()
        omega = self.arg_element(ctx)
        n, _ = self.expect_int("half dimension")
        vol = self.arg_element(ctx)
        if ctx.conjugation is None:
            self.fail(tok, f"algebra {ctx.name!r} has no conjugation declared")
        return {"ctx": ctx, "omega": omega, "n": n, "vol": vol}

    def task_obstruction(self, tok: Token) -> dict:
        ctx = self.arg_algebra()
        mode = self.arg_complex_mode(ctx)
        alpha = self.arg_element(ctx)
        betas = tuple(self.arg_element(ctx) for _ in range(3))
        vol = self.arg_element(ctx)
        return {"ctx": ctx, "map": mode, "alpha": alpha, "betas": betas, "vol": vol}

    def task_massey(self, tok: Token) -> dict:
        ctx = self.arg_algebra()
        return {"ctx": ctx, "elements": tuple(self.arg_element(ctx) for _ in range(3))}

    def task_lefschetz(self, tok: Token) -> dict:
        ctx = self.arg_algebra()
        mode = self.arg_complex_mode(ctx)
        omega = self.arg_element(ctx)
        k, _ = self.expect_int("power k")
        return {"ctx": ctx, "map": mode, "omega": omega, "k": k}

    def parse_space(self) -> BettiVector:
        t = self.expect_ident("'proj' or 'p1b'")
        if t.text == "proj":
            n, ntok = self.expect_int("projective dimension")
            try:
                return betti_projective(n)
            except ValueError as e:
                self.fail(ntok, str(e))
        if t.text == "p1b":
            n, ntok = self.expect_int("base projective dimension")
            try:
                return betti_p1_bundle(betti_projective(n))
            except ValueError as e:
                self.fail(ntok, str(e))
        self.fail(t, "expected 'proj <n>' or 'p1b <n>'")

    def parse_graph(self) -> IncidenceGraph:
        nodes = []
        edges = []
        while True:
            t = self.peek()
            if t.kind == "IDENT" and t.text == "node":
                self.next()
                nodes.append(self.parse_space())
            elif t.kind == "IDENT" and t.text == "edge":
                etok = self.next()
                a, atok = self.expect_int("node index")
                b, btok = self.expect_int("node index")
                inter = self.parse_space()
                if not (0 <= a < len(nodes)):
                    self.fail(atok, f"node index {a} out of range")
                if not (0 <= b < len(nodes)):
                    self.fail(btok, f"node index {b} out of range")
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

    def task_mv_union(self, tok: Token) -> dict:
        return {"graph": self.parse_graph()}

    def task_resolution(self, tok: Token) -> dict:
        ctx = self.arg_algebra()
        binding = self.arg_map(ctx)
        s, stok = self.expect_int("number of resolved points")
        graph = self.parse_graph()
        return {"ctx": ctx, "map": binding, "s": s, "stok": stok, "graph": graph}

    def task_verify_exact(self, tok: Token) -> dict:
        lhs_tok = self.peek()
        lhs_name = self.expect_ident("element name").text
        lhs = self.session.lookup_element(lhs_name)
        if lhs is None:
            self.fail(lhs_tok, f"unknown element {lhs_name!r}")
        prim_tok = self.peek()
        prim_name = self.expect_ident("element name").text
        prim = self.session.lookup_element(prim_name)
        if prim is None:
            self.fail(prim_tok, f"unknown element {prim_name!r}")
        if prim.algebra is not lhs.algebra:
            self.fail(prim_tok, f"{prim_name!r} belongs to another algebra")
        ctx = None
        for c in self.session.algebras.values():
            if c.algebra is lhs.algebra:
                ctx = c
        return {"ctx": ctx, "lhs": lhs, "prim": prim}

    # finalization: build and validate differentials and declared actions

    def finalize(self):
        for ctx in self.session.algebras.values():
            where = ctx.first_d_token
            try:
                ctx.differential = Differential(ctx.algebra, dict(ctx.d_assignments))
            except ValueError as e:
                tok = where if where is not None else self.tokens[-1]
                self.fail(tok, str(e))
        for binding in self.session.maps.values():
            try:
                binding.action = GroupAction(binding.map, binding.order,
                                             binding.ctx.require_differential())
            except ValueError as e:
                self.fail(self.tokens[-1],
                          f"map {binding.name!r} is not a valid order-{binding.order} "
                          f"action: {e}")


def parse(text: str) -> Session:
    """Parse and statically check a session; raises DslError with a
    positioned diagnostic on the first failure."""
    return Parser(text).parse()


def eval_expr(text: str, session: Session, algebra_name: Optional[str] = None) -> GradedElement:
    """Evaluate one expression against the bindings of a parsed session."""
    parser = Parser("")
    parser.session = session
    parser.tokens = tokenize(text)
    parser.pos = 0
    if algebra_name is None:
        if not session.algebras:
            raise DslError(Diagnostic(1, 1, "no algebra declared"))
        algebra_name = next(reversed(session.algebras))
    ctx = session.algebras[algebra_name]
    value = parser.parse_expr(ctx)
    t = parser.peek()
    if t.kind not in ("NEWLINE", "EOF"):
        parser.fail(t, f"unexpected trailing token {t.text!r}")
    return value


# --- execution --------------------------------------------------------------

@dataclass
class Report:
    session_sha256: str
    records: list = dc_field(default_factory=list)
    failures: list = dc_field(default_factory=list)

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
    """Per-run caches so repeated tasks share cohomology tables."""

    def __init__(self, session: Session):
        self.session = session
        self._dgas: dict[str, DGA] = {}
        self._tables: dict[tuple, CohomologyTable] = {}
        self._complexes: dict[tuple, CochainComplex] = {}

    def dga(self, ctx: AlgebraContext) -> DGA:
        if ctx.name not in self._dgas:
            self._dgas[ctx.name] = DGA(ctx.algebra, ctx.require_differential())
        return self._dgas[ctx.name]

    def complex(self, ctx: AlgebraContext, binding: Optional[MapBinding]) -> CochainComplex:
        key = (ctx.name, binding.name if binding else None)
        if key not in self._complexes:
            dga = self.dga(ctx)
            if binding is None:
                self._complexes[key] = CochainComplex(dga)
            else:
                self._complexes[key] = invariant_complex(dga, binding.action)
        return self._complexes[key]

    def table(self, ctx: AlgebraContext, binding: Optional[MapBinding]) -> CohomologyTable:
        key = (ctx.name, binding.name if binding else None)
        if key not in self._tables:
            self._tables[key] = cohomology(self.complex(ctx, binding))
        return self._tables[key]


def run(session: Session) -> Report:
    """Execute the session's tasks in order; a task whose mathematical
    precondition fails is carried in the report, never dropped.  An
    ``AssertionError``, a violated internal invariant such as a failed
    cross-check, is an engine fault and propagates."""
    report = Report(session.sha256())
    rc = _RunContext(session)
    for index, task in enumerate(session.tasks):
        try:
            _TASK_RUNNERS[task.name](rc, task.payload, report)
        except (ObstructionInputError, ValueError, ZeroDivisionError) as e:
            report.fail_task(index, task.name, str(e))
    return report


def _dump_representatives(table, key: str, report: Report):
    for k in range(table.top + 1):
        for j, r in enumerate(table.representatives(k)):
            report.add(f"{key}[{k}.{j}]", format_element(r))


def _run_betti(rc: _RunContext, p: dict, report: Report):
    table = rc.table(p["ctx"], None)
    for k, b in enumerate(table.betti):
        report.add(f"betti[{k}]", b)
    if p.get("reps"):
        _dump_representatives(table, "betti_rep", report)


def _run_invariant_betti(rc: _RunContext, p: dict, report: Report):
    ctx, binding = p["ctx"], p["map"]
    cx = rc.complex(ctx, binding)
    table = rc.table(ctx, binding)
    check_fixed_part(table, rc.table(ctx, None), binding.action)
    for k in range(cx.top + 1):
        report.add(f"invariant_dim[{k}]", cx.dim(k))
    for k, b in enumerate(table.betti):
        report.add(f"invariant_betti[{k}]", b)
    report.add("invariant_consistency", "ok")
    if p.get("reps"):
        _dump_representatives(table, "invariant_betti_rep", report)


def _run_symplectic(rc: _RunContext, p: dict, report: Report):
    ctx = p["ctx"]
    candidate = SymplecticCandidate(p["omega"], p["n"], ctx.conjugation)
    verdict = is_symplectic(candidate, ctx.require_differential(), p["vol"])
    report.add("symplectic", "yes" if verdict.ok else "no")
    report.add("symplectic_closed", "yes" if verdict.closed else "no")
    report.add("symplectic_real", "yes" if verdict.real else "no")
    report.add("omega_power_scalar", format_scalar(verdict.power_scalar))


def _run_obstruction(rc: _RunContext, p: dict, report: Report):
    ctx, binding = p["ctx"], p["map"]
    cx = rc.complex(ctx, binding)
    table = rc.table(ctx, binding)
    result = obstruction(
        ObstructionInput(cx, p["alpha"], p["betas"], p["vol"]), table)
    for i, xi in enumerate(result.primitives):
        report.add(f"obstruction_xi[{i + 1}]", format_element(xi))
    report.add("obstruction_scalar", format_scalar(result.scalar))
    rep = CohomologyClass(table, cx.top, result.class_coords).representative()
    report.add("obstruction_class", format_element(rep))
    report.add("h3_dim", result.h3_dim)
    report.add("nonformal_certificate",
               "yes" if result.certifies_nonformality() else "inconclusive")


def _run_massey(rc: _RunContext, p: dict, report: Report):
    ctx = p["ctx"]
    table = rc.table(ctx, None)
    x, y, z = (table.class_of(e) for e in p["elements"])
    result = massey_triple(table, x, y, z)
    report.add("massey_class", format_element(result.representative))
    report.add("massey_class_is_zero",
               "yes" if all(c.is_zero() for c in result.class_coords) else "no")
    report.add("massey_indeterminacy_dim", result.indeterminacy.dim)


def _run_lefschetz(rc: _RunContext, p: dict, report: Report):
    ctx, binding = p["ctx"], p["map"]
    table = rc.table(ctx, binding)
    omega_class = table.class_of(p["omega"], 2)
    result = lefschetz(table, omega_class, p["k"])
    report.add(f"lefschetz_rank[{p['k']}]", result.rank)
    report.add(f"lefschetz_kernel_dim[{p['k']}]", result.kernel_dim)


def _run_mv_union(rc: _RunContext, p: dict, report: Report):
    v = betti_union(p["graph"])
    for j, b in enumerate(v):
        report.add(f"mv_betti[{j}]", b)


def _run_resolution(rc: _RunContext, p: dict, report: Report):
    ctx, binding = p["ctx"], p["map"]
    table = rc.table(ctx, binding)
    bhat = BettiVector(tuple(table.betti))
    exceptional = betti_union(p["graph"])
    v = betti_resolution(bhat, exceptional, p["s"])
    report.add("resolution_s", p["s"])
    for j, b in enumerate(v):
        report.add(f"betti_resolution[{j}]", b)
    report.add("resolution_duality_closure", "b0=b8=1, b7=b1")


def _run_verify_exact(rc: _RunContext, p: dict, report: Report):
    ctx = p["ctx"]
    verdict = exactness_witness_check(p["lhs"], p["prim"], ctx.require_differential())
    if not verdict.ok:
        raise ValueError(
            f"verify_exact failed: difference is {format_element(verdict.difference)}")
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
