import functools
import itertools
import operator
import os
import random
import re
import string
import subprocess
import sys
import types
from pathlib import Path

import pytest

from cdgalab import dsl
from cdgalab.algebra import Algebra, PreconditionError, apply_d, format_element, wedge
from cdgalab.cli import main as cli_main
from cdgalab.homology import CochainComplex, CohomologyTable
from cdgalab.linalg import Matrix

from conftest import (EVEN_SESSION, ROOT, load_workloads, random_element,
                      refuse_to_build_fields)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden" / "paper.report"
PAPER_SESSION = ROOT / "paper.cdga"

EXPECTED_DIAGNOSTICS = [
    ("bad_conductor.cdga", 1, 18, "conductor must be >= 1, got 0"),
    ("bad_conductor_budget.cdga", 1, 18,
     "conductor 20000 is over budget: phi(20000) must be at most 64"),
    ("bad_conjugation_odd.cdga", 3, 19,
     "conjugation takes generator pairs; 'eta' has no partner"),
    ("bad_d_squared.cdga", 3, 3, "d*d != 0 at generator a: residue c*u*v"),
    ("bad_degree_mismatch_d.cdga", 3, 11,
     "degree mismatch: d(theta) must have degree 2, got 3"),
    ("bad_duplicate_decl.cdga", 4, 5, "duplicate declaration of 'x' (already a let)"),
    ("bad_malformed_scalar.cdga", 3, 14, "malformed scalar: unexpected '*'"),
    ("bad_map_degree.cdga", 3, 23, "degree mismatch: image of mu must have degree 1"),
    ("bad_map_action_order.cdga", 3, 5,
     "map 'rho' is not a valid order-2 action: f^2 is not the identity at mu"),
    ("bad_map_action_d.cdga", 4, 5,
     "map 'rho' is not a valid order-2 action: f does not commute with d at theta"),
    ("bad_task_arity.cdga", 6, 25, "expected half dimension"),
    ("bad_task_name.cdga", 3, 6, "unknown task 'frobnicate'"),
    ("bad_unknown_ident.cdga", 3, 14, "unknown identifier 'qqq'"),
    # Token classes are ASCII: '²' is not a digit.
    ("bad_nonascii_digit.cdga", 1, 18, "unexpected character '²'"),
    # Integer literals longer than the interpreter converts to int.
    ("bad_long_conductor.cdga", 1, 18, "integer literal too long: 5000 digits"),
    ("bad_long_exponent.cdga", 3, 12, "integer literal too long: 5000 digits"),
]
# Fixtures whose field must be refused before any of it is built.
REFUSED_CONDUCTORS = ("bad_conductor.cdga", "bad_conductor_budget.cdga")

_F = "field cyclotomic 12\n"
_M = _F + "algebra M generators mu:1 nu:1\n"
_AB = (_F + "algebra A generators a:1\nlet x = a\nmap f order 1 { a -> a }\n"
       "algebra B generators b:1\n")
# Algebras over the word budget: a top degree past it (two words, but one
# word list per degree), and 20 generators (2^20 words).
BUDGET_BREACHES = [
    (_F + "algebra A generators x:1000001\n", 2, 9,
     "top degree 1000001 is over budget: top must be at most 262144"),
    (_F + "algebra A generators " + " ".join(f"g{i}:1" for i in range(20)) + "\n", 2, 9,
     "the algebra is over budget: it has more than 262144 basis words"),
]
# One minimal session for each diagnostic the parser can give:
# (session text, line, col, message).
PINNED_DIAGNOSTICS = [
    ("field cyclotomic 12 @\n", 1, 21, "unexpected character '@'"),
    ("{\n", 1, 1, "expected a statement keyword, got '{'"),
    ("foo\n", 1, 1, "unknown statement 'foo'"),
    ("field 12\n", 1, 7, "expected 'cyclotomic'"),
    ("field real 12\n", 1, 7, "unknown field kind 'real'"),
    ("field cyclotomic x\n", 1, 18, "expected conductor"),
    ("field cyclotomic 12 13\n", 1, 21, "unexpected trailing token '13'"),
    (_F + "field cyclotomic 12\n", 2, 1, "duplicate field declaration"),
    ("algebra M generators a:1\n", 1, 1, "no field declared yet"),
    (_F + "let x = {1}\n", 2, 1, "no algebra declared yet"),
    (_F + "algebra 1 generators a:1\n", 2, 9, "expected algebra name"),
    (_F + "algebra top generators a:1\n", 2, 9, "'top' is a reserved word"),
    (_F + "algebra M gens a:1\n", 2, 11, "expected 'generators'"),
    (_F + "algebra M 1\n", 2, 11, "expected 'generators'"),
    (_F + "algebra M generators 1\n", 2, 22, "expected generator name"),
    (_F + "algebra M generators a 1\n", 2, 24, "expected ':'"),
    (_F + "algebra M generators a:x\n", 2, 24, "expected generator degree"),
    (_F + "algebra M generators a:0\n", 2, 24, "generator degree must be >= 1, got 0"),
    (_F + "algebra M generators a:2 top x\n", 2, 30, "expected top degree"),
    (_F + "algebra M generators\n", 2, 21, "an algebra needs at least one generator"),
    (_F + "algebra M generators a:2\n",
     2, 9, "an algebra with even generators needs an explicit top degree"),
    (_M + "conjugation mu xx\n", 3, 16, "unknown generator 'xx'"),
    (_AB + "conjugation a b\n", 6, 13, "'a' belongs to another algebra"),
    (_M + "conjugation\n", 3, 12, "conjugation needs at least one pair"),
    (_F + "algebra M generators a:1 b:3\nconjugation a b\n",
     3, 1, "conjugation must pair generators of equal degree"),
    (_F + "algebra M generators a:1 b:1 c:1 e:1\nconjugation a b a c e e\n",
     3, 1, "conjugation pairs generator a twice"),
    (_F + "algebra M generators a:1 b:1\nconjugation a b\nconjugation a a b b\n",
     4, 1, "duplicate conjugation for algebra 'M'"),
    (_M + "d xx = mu\n", 3, 3, "unknown generator 'xx'"),
    (_AB + "d a = b\n", 6, 3, "'a' belongs to another algebra"),
    (_M + "d mu mu\n", 3, 6, "expected '='"),
    (_F + "algebra M generators a:1 b:1 c:1\nd c = a*b\nd c = a*b\n",
     4, 3, "duplicate differential for 'c'"),
    (_F + "algebra M generators a:1 b:1 c:1\nd c = a + a*b\n",
     3, 7, "degree mismatch: d(c) must have degree 2, got mixed"),
    (_M + "map f ord 2 { mu -> mu }\n", 3, 7, "expected 'order'"),
    (_M + "map f order 0 { }\n", 3, 13, "order must be >= 1, got 0"),
    (_M + "map f order 1 ( }\n", 3, 15, "expected '{'"),
    (_M + "map f order 1 { xx -> mu }\n", 3, 17, "unknown generator 'xx'"),
    (_AB + "map g order 1 { a -> b }\n", 6, 17, "'a' belongs to another algebra"),
    (_M + "map f order 1 { mu nu }\n", 3, 20, "expected '->'"),
    (_M + "map f order 1 { mu -> mu ; mu -> nu }\n", 3, 28, "duplicate map assignment for 'mu'"),
    (_M + "map f order 1 { mu -> mu ; nu -> nu\n", 4, 1, "expected '}'"),
    (_M + "map f order 1 { mu -> mu }\n", 3, 5, "map misses generator nu"),
    (_M + "map f order 1 { mu -> mu ;\n}\n", 3, 5, "map misses generator nu"),
    (_M + "let 1 = mu\n", 3, 5, "expected binding name"),
    (_M + "let x = mu * +\n", 3, 14, "expected an element, got '+'"),
    (_M + "let x = (mu + nu\n", 3, 17, "expected ')'"),
    (_AB + "let y = x\n", 6, 9, "'x' belongs to another algebra"),
    (_AB + "let y = a\n", 6, 9, "'a' belongs to another algebra"),
    (_M + "let x = {1\n", 3, 11, "malformed scalar: missing '}'"),
    (_M + "let x = {1/0}\n", 3, 12, "malformed scalar: zero denominator"),
    (_M + "let x = {1/y}\n", 3, 12, "expected denominator"),
    ("field cyclotomic 3\nalgebra M generators mu:1\nlet x = {i}\n",
     3, 10, "malformed scalar: 'i' needs 4 | conductor, got 3"),
    (_M + "let x = {+}\n", 3, 10, "malformed scalar: unexpected '+'"),
    (_M + "let x = {z^y}\n", 3, 12, "expected exponent"),
    (_M + "task 1\n", 3, 6, "expected task name"),
    (_M + "task betti X\n", 3, 12, "unknown algebra 'X'"),
    (_M + "task betti 1\n", 3, 12, "expected algebra name"),
    (_M + "task betti M extra\n", 3, 14, "unexpected trailing token 'extra'"),
    (_M + "task invariant_betti M nosuch\n", 3, 24, "unknown map 'nosuch'"),
    (_M + "task invariant_betti M 1\n", 3, 24, "expected map name"),
    (_AB + "task invariant_betti B f\n", 6, 24, "map 'f' belongs to another algebra"),
    (_M + "task massey M mu nu qq\n", 3, 21, "unknown element 'qq'"),
    (_M + "task massey M mu nu 1\n", 3, 21, "expected element name"),
    (_AB + "task massey B b b x\n", 6, 19, "'x' belongs to another algebra"),
    (_AB + "task massey B b b a\n", 6, 19, "'a' belongs to another algebra"),
    (_M + "task lefschetz M partial mu 1\n", 3, 18, "expected 'invariant <map>' or 'full'"),
    (_M + "task lefschetz M full mu x\n", 3, 26, "expected power k"),
    (_M + "task symplectic M mu 1 mu\n", 3, 6, "algebra 'M' has no conjugation declared"),
    (_F + "task mv_union node foo 1\n", 2, 20, "expected 'proj <n>' or 'p1b <n>'"),
    (_F + "task mv_union node proj x\n", 2, 25, "expected projective dimension"),
    (_F + "task mv_union node p1b x\n", 2, 24, "expected base projective dimension"),
    (_F + "task mv_union node proj 1 edge 5 0 proj 0\n", 2, 32, "node index 5 out of range"),
    (_F + "task mv_union node proj 1 edge 0 5 proj 0\n", 2, 34, "node index 5 out of range"),
    (_F + "task mv_union node proj 1 edge x 0 proj 0\n", 2, 32, "expected node index"),
    (_F + "task mv_union\n", 2, 14, "expected at least one 'node' clause"),
    (_F + "task mv_union node proj 4\n", 2, 25,
     "proj 4 has real dimension 8, above the exceptional set's 6"),
    (_F + "task mv_union node p1b 1000000000\n", 2, 24,
     "p1b 1000000000 has real dimension 2000000002, above the exceptional set's 6"),
    (_F + "task mv_union node proj 1 edge 0 0 p1b 3\n", 2, 40,
     "p1b 3 has real dimension 8, above the exceptional set's 6"),
    (_M + "map f order 1 { mu -> mu ; nu -> nu }\ntask resolution M f x node proj 1\n",
     4, 21, "expected number of resolved points"),
    (_M + "task verify_exact qq mu\n", 3, 19, "unknown element 'qq'"),
    (_M + "task verify_exact mu qq\n", 3, 22, "unknown element 'qq'"),
    (_M + "task verify_exact 1 mu\n", 3, 19, "expected element name"),
    (_AB + "task verify_exact x b\n", 6, 21, "'b' belongs to another algebra"),
    *BUDGET_BREACHES,
]


@pytest.fixture(scope="module")
def paper_session():
    return dsl.parse(PAPER_SESSION.read_text())


def _paper_with(*tasks):
    """The text of the paper's session with its tasks replaced by ``tasks``."""
    text = PAPER_SESSION.read_text()
    return text[:text.index("\ntask ") + 1] + "".join(f"task {t}\n" for t in tasks)


def test_paper_session_parses_cleanly(paper_session):
    assert len(paper_session.tasks) == 9
    assert paper_session.field.n == 12
    assert set(paper_session.algebras) == {"M"}
    assert [n for n, (kind, *_) in paper_session.names.items() if kind == "map"] == ["rho"]


@pytest.mark.parametrize("name,line,col,message", EXPECTED_DIAGNOSTICS)
def test_corrupted_fixture_diagnostics(name, line, col, message, monkeypatch):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    if name in REFUSED_CONDUCTORS:
        refuse_to_build_fields(monkeypatch)
    with pytest.raises(dsl.DslError) as err:
        dsl.parse(text)
    d = err.value.diagnostic
    assert (d.line, d.col) == (line, col)
    assert d.message == message


@pytest.mark.parametrize("text,line,col,message", PINNED_DIAGNOSTICS)
def test_pinned_parser_diagnostics(text, line, col, message):
    with pytest.raises(dsl.DslError) as err:
        dsl.parse(text)
    d = err.value.diagnostic
    assert (d.line, d.col, d.message) == (line, col, message)


def test_conductor_budget_fails_before_anything_is_built(monkeypatch, capsys):
    """An over-budget conductor is refused before the cyclotomic polynomial,
    the tables or the straight-line arithmetic would be built."""
    refuse_to_build_fields(monkeypatch)
    path = FIXTURES / "bad_conductor_budget.cdga"
    assert cli_main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"{path}:1:18: conductor 20000 is over budget: phi(20000) must be at most 64\n")


@pytest.mark.parametrize("text,line,col,message", BUDGET_BREACHES)
def test_word_budget_fails_before_enumeration(text, line, col, message, tmp_path,
                                              monkeypatch, capsys):
    """An algebra over the word budget is refused from its degrees alone,
    before a single basis word is enumerated."""
    def refuse(self):
        raise RuntimeError("basis words were enumerated before the budget check")

    monkeypatch.setattr(Algebra, "_collect_words", refuse)
    path = tmp_path / "big.cdga"
    path.write_text(text)
    assert cli_main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"{path}:{line}:{col}: {message}\n"


def test_mu_wedge_mu_is_legal_and_zero():
    session = dsl.parse(
        "field cyclotomic 12\n"
        "algebra M generators mu:1 nu:1\n"
        "let x = mu * mu\n")
    assert session.lookup_element("x").is_zero()


def test_omega_expression_evaluates(paper_session, model):
    omega = paper_session.lookup_element("omega")
    expected = dsl.eval_expr(
        "{i}*mu*mubar + nu*theta + nubar*thetabar + {i}*eta*etabar",
        paper_session, "M")
    assert omega == expected
    # match the programmatic model coefficient-wise
    assert {paper_session.algebras["M"].algebra.format_word(w) for w in omega.terms} \
        == {model.algebra.format_word(w) for w in model.omega.terms}


def test_cube_root_scalar_collapses(paper_session):
    x = dsl.eval_expr("{1+z^4+z^8}*mu", paper_session, "M")
    assert x.is_zero()


def test_negated_word_expression(paper_session):
    xi = dsl.eval_expr("-(theta*mubar*nubar)", paper_session, "M")
    alg = paper_session.algebras["M"].algebra
    direct = -(alg.generator("theta") * alg.generator("mubar") * alg.generator("nubar"))
    assert xi == direct


def test_element_print_parse_roundtrip(paper_session):
    alg = paper_session.algebras["M"].algebra
    rng = random.Random(81)
    for _ in range(60):
        x = random_element(alg, rng)
        text = format_element(x)
        back = dsl.eval_expr(text, paper_session, "M")
        assert back == x


def test_scalar_print_parse_roundtrip(paper_session):
    field = paper_session.field
    rng = random.Random(82)
    from cdgalab.field import format_scalar
    from conftest import random_field_element
    for _ in range(60):
        c = random_field_element(field, rng)
        x = dsl.eval_expr("{%s}" % format_scalar(c), paper_session, "M")
        assert x.coefficient(0) == c  # the empty word


def test_run_report_matches_golden(tmp_path):
    out = tmp_path / "report.txt"
    rc = cli_main(["run", str(PAPER_SESSION), "--report", str(out)])
    assert rc == 0
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_run_report_matches_golden_under_optimize(tmp_path):
    """The engine's invariant checks are explicit raises, not asserts, so the
    session runs the same under ``python -O``."""
    out = tmp_path / "report.txt"
    r = subprocess.run([sys.executable, "-O", "-m", "cdgalab", "run",
                        str(PAPER_SESSION), "--report", str(out)],
                       capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert r.returncode == 0, r.stderr
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_paper_run_builds_each_table_once(monkeypatch, paper_session):
    """The invariant_betti cross-check reuses the run's tables: one full and
    one invariant table, built on the run's only two complexes, one of them
    invariant."""
    from cdgalab import action, homology
    built = []
    init = homology.CohomologyTable.__init__

    def counting_init(self, complex_):
        built.append("full" if complex_.is_full() else "invariant")
        init(self, complex_)

    cochain_complexes = []
    init_complex = homology.CochainComplex.__init__

    def counting_init_complex(self, *args):
        cochain_complexes.append(args)
        init_complex(self, *args)

    complexes = []
    make_complex = action.invariant_complex

    def counting_complex(*args):
        complexes.append(args)
        return make_complex(*args)

    monkeypatch.setattr(homology.CohomologyTable, "__init__", counting_init)
    monkeypatch.setattr(homology.CochainComplex, "__init__", counting_init_complex)
    monkeypatch.setattr(action, "invariant_complex", counting_complex)
    assert dsl.run(paper_session).ok
    assert sorted(built) == ["full", "invariant"]
    assert len(complexes) == 1
    assert len(cochain_complexes) == 2


def test_paper_run_builds_and_validates_the_action_once(monkeypatch):
    """The parser builds the map's action, which validates itself once, and
    the run's invariant complex and cross-check reuse that one action."""
    from cdgalab import action
    validated, built = [], []
    validate = action.validate_action
    init = action.GroupAction.__init__

    def counting_validate(*args):
        validated.append(args)
        return validate(*args)

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    for name, module in list(sys.modules.items()):
        if name.startswith("cdgalab") and getattr(module, "validate_action", None) is validate:
            monkeypatch.setattr(module, "validate_action", counting_validate)
    monkeypatch.setattr(action.GroupAction, "__init__", counting_init)
    assert dsl.run(dsl.parse(PAPER_SESSION.read_text())).ok
    assert len(validated) == 1
    assert len(built) == 1


def test_report_is_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert cli_main(["run", str(PAPER_SESSION), "--report", str(a)]) == 0
    assert cli_main(["run", str(PAPER_SESSION), "--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_contains_headline_values():
    session = dsl.parse(PAPER_SESSION.read_text())
    report = dsl.run(session)
    records = dict(report.records)
    assert records["betti[3]"] == "30"
    assert records["invariant_betti[3]"] == "0"
    assert records["obstruction_scalar"] == "2"
    assert records["symplectic"] == "yes"
    assert records["nonformal_certificate"] == "yes"
    assert int(records["lefschetz_kernel_dim[2]"]) >= 1
    assert records["verify_exact"] == "ok"
    assert report.ok


def test_betti_task_representative_dumps(paper_session, model):
    text = PAPER_SESSION.read_text().split("task betti M\n")[0] + "task betti M reps\n"
    session = dsl.parse(text)
    report = dsl.run(session)
    assert report.ok
    records = dict(report.records)
    assert records["betti_rep[0.0]"] == "{1}"
    assert records["betti_rep[1.0]"] == "mu"
    # every dumped representative round-trips to a nonzero closed element
    reps = [(k, v) for k, v in report.records if k.startswith("betti_rep[")]
    assert len(reps) == sum(model.table.betti)
    d = session.algebras["M"].differential
    for _, v in reps[:20]:
        x = dsl.eval_expr(v, session, "M")
        assert not x.is_zero()
        assert d(x).is_zero()


# The first ten hex digits of the sha256 of the machine report of the
# benchmark's ladder session and of its scan sessions for five seeds.
BENCHMARK_REPORT_DIGESTS = [("ladder", "c591ddfbba"), (1, "302f46d216"), (2, "f94791b7b2"),
                            (7, "05efbbf43d"), (13, "22f76c4a8b"), (42, "502937a508")]


@pytest.mark.parametrize("session, digest", BENCHMARK_REPORT_DIGESTS,
                         ids=[f"scan{s}" if isinstance(s, int) else s
                              for s, _ in BENCHMARK_REPORT_DIGESTS])
def test_benchmark_reports_keep_their_bytes(session, digest):
    """The ladder session and the scan sessions of seeds 1, 2, 7, 13 and 42
    give the same report bytes as before: a change to the engine that moves
    a Betti number, a rank, a scalar or a record's text moves the digest."""
    import hashlib

    workloads = load_workloads()
    text = (workloads.LADDER.read_text(encoding="utf-8") if session == "ladder"
            else workloads.scan_session(session))
    machine = dsl.run(dsl.parse(text)).machine_text()
    assert hashlib.sha256(machine.encode("utf-8")).hexdigest()[:10] == digest


def test_empty_task_list_is_success():
    session = dsl.parse("field cyclotomic 12\nalgebra M generators mu:1\n")
    report = dsl.run(session)
    assert report.ok
    assert report.records == []
    assert report.machine_text().startswith("session_sha256 = ")


@pytest.mark.parametrize("text", [
    "",
    PAPER_SESSION.read_text(encoding="utf-8"),
    "# été ω∧ω → ℤ/3 \U0001d4dc\nfield cyclotomic 12\n",
    "let x = mu*nu  # ω\n" * 50_000,
], ids=["empty", "paper", "non_ascii", "one_megabyte"])
def test_session_digest_is_hashlib_sha256_of_the_utf8_text(text):
    import hashlib

    assert dsl.Session(text).sha256() == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_session_digest_falls_back_to_hashlib_without_the_builtin_module():
    """With CPython's own sha256 modules blocked, ``dsl`` takes ``sha256``
    from ``hashlib``, and the digest of ``paper.cdga`` is unchanged."""
    code = ("import sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import hashlib\n"
            "from cdgalab import dsl\n"
            "assert dsl.sha256 is hashlib.sha256, dsl.sha256\n"
            "print(dsl.Session(open(sys.argv[1], encoding='utf-8').read()).sha256())\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, "-c", code, str(PAPER_SESSION)], cwd=ROOT, env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr[-3000:]
    assert r.stdout.strip() == dsl.Session(PAPER_SESSION.read_text(encoding="utf-8")).sha256()


def test_obstruction_task_error_is_carried_in_report(tmp_path):
    text = (
        "field cyclotomic 12\n"
        "algebra T generators a:1 b:1 c:1 e:1 f:1 g:1 h:1 k:1\n"
        "let al = a*b\n"
        "let be = c*e\n"
        "let vol8 = a*b*c*e*f*g*h*k\n"
        "task obstruction T full al be be be vol8\n")
    session = dsl.parse(text)
    report = dsl.run(session)
    assert not report.ok
    records = dict(report.records)
    assert "obstruction_error" in records
    assert "not exact" in records["obstruction_error"]
    f = tmp_path / "bad.cdga"
    f.write_text(text)
    assert cli_main(["run", str(f)]) == 1


def test_verify_exact_failure_is_carried_in_report(tmp_path):
    text = (
        "field cyclotomic 12\n"
        "algebra M generators mu:1 nu:1 theta:1\n"
        "d theta = mu*nu\n"
        "let lhs = mu*nu\n"
        "let prim = -theta\n"
        "task verify_exact lhs prim\n")
    session = dsl.parse(text)
    report = dsl.run(session)
    assert not report.ok
    assert report.records == [
        ("verify_exact_error", "verify_exact failed: difference is {2}*mu*nu")]
    # the failure carries the difference lhs - d(prim) as its witness
    with pytest.raises(PreconditionError) as info:
        dsl._TASK_RUNNERS["verify_exact"](None, report, *session.tasks[0].args)
    assert info.value.witness == dsl.eval_expr("{2}*mu*nu", session)
    f = tmp_path / "bad.cdga"
    f.write_text(text)
    assert cli_main(["run", str(f)]) == 1


@pytest.mark.parametrize("tasks", [
    ("lefschetz M invariant rho omega 2",
     "obstruction M invariant rho alpha beta1 beta2 beta3 vol",
     "resolution M rho 1 node proj 3"),
    ("invariant_betti M rho", "invariant_betti M rho"),
])
def test_each_invariant_table_is_cross_checked_once(tasks, monkeypatch):
    """Every invariant table a run reads is checked against the fixed part
    of H* once, whichever task reads it first and however many read it."""
    from cdgalab import action
    calls = []
    fixed_dims = action.induced_action_fixed_dims

    def counting(full, act):
        calls.append(full)
        return fixed_dims(full, act)

    monkeypatch.setattr(action, "induced_action_fixed_dims", counting)
    assert dsl.run(dsl.parse(_paper_with(*tasks))).ok
    assert len(calls) == 1 and calls[0].complex.is_full()


def test_an_invariant_read_alone_exits_3_on_a_broken_cross_check(tmp_path, monkeypatch,
                                                                 capsys):
    """A lefschetz query on the invariant table, with no invariant_betti task
    in the session, still runs the cross-check: with the -I dropped from the
    cross-check's rows the two sides disagree, and the run is an engine fault."""
    from cdgalab import action
    broken = types.SimpleNamespace(**{**vars(action.kernel),
                                      "row_axpy": lambda target, src, c, field: None})
    monkeypatch.setattr(action, "kernel", broken)
    f = tmp_path / "lefschetz.cdga"
    f.write_text(_paper_with("lefschetz M invariant rho omega 2"))
    assert cli_main(["run", str(f)]) == 3
    assert "invariant cohomology mismatch" in capsys.readouterr().err


def test_paper_run_makes_no_product_with_an_identity(monkeypatch, paper_session):
    """Powers start from the square for the lowest set bit of k: the paper
    run makes 18 matrix products, and neither the symplectic check nor the
    Lefschetz query wedges with the unit."""
    from cdgalab import symplectic
    products, unit_wedges = [], []
    matmul, wedge = Matrix.matmul, symplectic.wedge

    def counting_matmul(self, other):
        products.append(self)
        return matmul(self, other)

    def counting_wedge(x, y):
        unit = x.algebra.unit()
        if x == unit or y == unit:
            unit_wedges.append((x, y))
        return wedge(x, y)

    monkeypatch.setattr(Matrix, "matmul", counting_matmul)
    monkeypatch.setattr(symplectic, "wedge", counting_wedge)
    assert dsl.run(paper_session).ok
    assert len(products) == 18
    assert unit_wedges == []


def test_powers_build_an_identity_only_for_the_zeroth_power(monkeypatch):
    """``kernel.power`` calls its ``one`` only for k = 0: a paper run builds
    one identity matrix per degree, for the check A_k^3 = I, and none in
    ``Matrix.power``; validating the action builds no identity map, and the
    Lefschetz queries build no unit."""
    from cdgalab import algebra
    built = []
    identity, identity_map, unit = Matrix.identity.__func__, algebra.identity_map, Algebra.unit

    def counting(name, fn):
        def wrapper(*args):
            built.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Matrix, "identity", classmethod(counting("matrix", identity)))
    monkeypatch.setattr(algebra, "identity_map", counting("map", identity_map))
    monkeypatch.setattr(Algebra, "unit", counting("unit", unit))
    session = dsl.parse(PAPER_SESSION.read_text())
    assert built == []
    assert dsl.run(session).ok
    assert built == ["matrix"] * (session.algebras["M"].algebra.top + 1)


def test_cli_run_exits_3_on_a_violated_invariant(tmp_path, monkeypatch, capsys):
    from cdgalab import action

    def broken(full, _action):
        return [0] * (full.top + 1)

    monkeypatch.setattr(action, "induced_action_fixed_dims", broken)
    out = tmp_path / "out.report"
    assert cli_main(["run", str(PAPER_SESSION), "--report", str(out)]) == 3
    assert "invariant cohomology mismatch" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_exits_3_when_an_engine_built_element_fails_a_check(monkeypatch, capsys):
    """With d-matrices that drop column 0 of every row, the tables are wrong,
    and the images and products of their representatives that the engine
    solves for fail the closedness check: an engine fault, not a failed
    precondition."""
    d_matrix = CochainComplex.d_matrix

    def drop_column_0(self, k):
        m = d_matrix(self, k)
        return Matrix(m.field, m.ncols, [{j: c for j, c in row.items() if j}
                                         for row in m.sparse_rows])

    monkeypatch.setattr(CochainComplex, "d_matrix", drop_column_0)
    assert cli_main(["run", str(PAPER_SESSION)]) == 3
    assert "engine-built element: element is not closed" in capsys.readouterr().err


def test_a_table_whose_coboundaries_are_not_cocycles_is_an_engine_fault(
        paper_session, monkeypatch, capsys):
    """A d-matrix that sends 1 to theta puts the open theta among the
    coboundaries.  Differential checks d∘d = 0, so only an engine fault
    can do that; the quotient step of the first read of degree 1 raises
    AssertionError (exit 3), not a task error (exit 1)."""
    d_matrix = CochainComplex.d_matrix

    def one_to_theta(self, k):
        m = d_matrix(self, k)
        if k or not self.is_full():
            return m
        return Matrix(m.field, m.ncols, [self.algebra.generator("theta").to_row(1)])

    monkeypatch.setattr(CochainComplex, "d_matrix", one_to_theta)
    model = paper_session.algebras["M"]
    table = dsl._RunContext().table(model, None)
    with pytest.raises(AssertionError, match="engine-built table: small subspace "
                                             "is not contained in the big one"):
        table.representatives(1)
    assert cli_main(["run", str(PAPER_SESSION)]) == 3
    assert "engine-built table: small subspace" in capsys.readouterr().err


def test_a_rank_that_disagrees_with_its_quotient_is_an_engine_fault(monkeypatch, capsys):
    """With one rank too few for D_2 of the paper's full complex, the only
    d-matrix of 28 rows and 56 columns, the Betti numbers of degrees 2 and 3
    each exceed the dimension of their quotient: the first read of degree 2
    exits 3 with the dimension on stderr."""
    from cdgalab import linalg
    rank = linalg.Matrix.rank

    def short_rank(m):
        r = rank(m)
        return r - 1 if (m.nrows, m.ncols) == (28, 56) else r

    monkeypatch.setattr(linalg.Matrix, "rank", short_rank)
    assert cli_main(["run", str(PAPER_SESSION)]) == 3
    assert ("engine-built table: the quotient of degree 2 has dimension 17, "
            "the ranks give b_2 = 18") in capsys.readouterr().err


def test_class_solve_on_user_input_is_a_failed_precondition(tmp_path, paper_session):
    """The check that is an engine fault on engine-built elements stays a
    failed precondition (exit 1) on an element the session names."""
    text = PAPER_SESSION.read_text().split("task ")[0] + (
        "let open_form = theta*eta\n"
        "task lefschetz M full open_form 1\n")
    report = dsl.run(dsl.parse(text))
    assert report.records == [("lefschetz_error", "element is not closed: d(x) = mu*nu*eta")]
    f = tmp_path / "open.cdga"
    f.write_text(text)
    assert cli_main(["run", str(f)]) == 1
    table = dsl._RunContext().table(paper_session.algebras["M"], None)
    with pytest.raises(PreconditionError) as info:
        table.class_coords(dsl.eval_expr("theta*eta", paper_session), 2)
    assert info.value.witness == dsl.eval_expr("mu*nu*eta", paper_session)


@pytest.mark.parametrize("name", ["vol", "mu", "lef_lhs"])
@pytest.mark.parametrize("table", ["full", "invariant rho"])
def test_a_lefschetz_form_of_another_degree_is_a_failed_precondition(tmp_path, name,
                                                                    table):
    """A closed element of degree 8, 1 or 6 lies in the complex but is no
    2-form: the failed precondition is its degree (exit 1), on the full and
    on the invariant table."""
    text = PAPER_SESSION.read_text().split("task ")[0] + (
        f"task lefschetz M {table} {name} 1\n")
    report = dsl.run(dsl.parse(text))
    assert report.records == [("lefschetz_error", "element is not of degree 2")]
    f = tmp_path / "degree.cdga"
    f.write_text(text)
    assert cli_main(["run", str(f)]) == 1


def test_a_value_error_inside_product_rows_exits_3(monkeypatch, capsys):
    """A normal form that fails inside ``product_rows`` fails on a product
    the engine built: the paper run is an engine fault (exit 3), with the
    message of a failed class solve there.  Only ``product_rows`` reads the
    normal forms, so the patched ``_normal_form`` fails nowhere else."""
    def refusing(self, w, degree):
        raise ValueError("refused")

    monkeypatch.setattr(CohomologyTable, "_normal_form", refusing)
    assert cli_main(["run", str(PAPER_SESSION)]) == 3
    assert "engine-built element: refused" in capsys.readouterr().err


def test_a_failed_class_solve_of_the_obstruction_element_exits_3(tmp_path, monkeypatch,
                                                                  capsys):
    """The obstruction's degree-8 element is built by the engine from its
    own primitives, so a check that fails in its one class solve, in the
    top degree, is an engine fault (exit 3), not a task error.  The session
    runs the obstruction alone, on the full table, so no other task solves
    a top-degree class."""
    f = tmp_path / "obstruction.cdga"
    f.write_text(PAPER_SESSION.read_text().split("task ")[0]
                 + "task obstruction M full alpha beta1 beta2 beta3 vol\n")
    assert cli_main(["run", str(f)]) == 0
    class_coords = CohomologyTable.class_coords

    def refusing(self, x, degree):
        if degree == self.top:
            raise PreconditionError("element is not closed: d(x) = mu", x)
        return class_coords(self, x, degree)

    monkeypatch.setattr(CohomologyTable, "class_coords", refusing)
    capsys.readouterr()
    assert cli_main(["run", str(f)]) == 3
    assert "engine-built element: element is not closed: d(x) = mu" in capsys.readouterr().err


def test_a_paper_run_makes_16_wedges_162_apply_d_and_150_class_solves(paper_session,
                                                                       monkeypatch):
    """Frozen counts, in every module that binds ``wedge`` or ``apply_d``:
    the product loop makes its 43 products without ``wedge`` and solves
    none of them, checking each x closed once per call instead, the Massey
    task's exactness solves decide its preconditions, with no cup product
    solved ahead of them, the Massey task <alpha, beta1, alpha> reads its
    one indeterminacy row set once, the symplectic check builds omega^4 by
    two squarings, and the obstruction closes its degree-8 element once, in
    its class solve."""
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name, module in list(sys.modules.items()):
        for fn in (wedge, apply_d):
            if name.startswith("cdgalab.") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counting(fn.__name__, fn))
    monkeypatch.setattr(CohomologyTable, "class_coords",
                        counting("class_coords", CohomologyTable.class_coords))
    report = dsl.run(paper_session)
    assert report.machine_text() == GOLDEN.read_text()
    assert (calls.count("wedge"), calls.count("apply_d"),
            calls.count("class_coords")) == (16, 162, 150)


@pytest.mark.parametrize("task", ["symplectic M zero 4 {vol}", "symplectic M omega 4 {vol}",
                                  "obstruction M invariant rho zero zero zero zero {vol}",
                                  "obstruction M invariant rho alpha beta1 beta2 beta3 {vol}"])
@pytest.mark.parametrize("vol, k", [("alpha", 2), ("seven", 7)])
def test_a_volume_of_another_degree_is_refused(tmp_path, task, vol, k):
    """The volume's degree is checked before the scalar is read, so a zero
    power or obstruction class no longer reads 0 against a 2-form, and a
    nonzero one no longer reports a degree mismatch against the volume's
    degree."""
    name = task.split()[0]
    text = PAPER_SESSION.read_text().split("task ")[0] + (
        "let zero = {0}*mu*nu\n"
        "let seven = theta*mu*nu*eta*thetabar*mubar*nubar\n"
        f"task {task.format(vol=vol)}\n")
    report = dsl.run(dsl.parse(text))
    assert report.records == [(f"{name}_error", f"volume must be of the top degree 8, got {k}")]
    f = tmp_path / "volume.cdga"
    f.write_text(text)
    assert cli_main(["run", str(f)]) == 1


def test_eval_expr_refuses_an_unknown_algebra(paper_session):
    with pytest.raises(dsl.DslError, match="^1:1: unknown algebra 'nope'$"):
        dsl.eval_expr("mu", paper_session, "nope")
    with pytest.raises(dsl.DslError, match="^1:1: no algebra declared$"):
        dsl.eval_expr("mu", dsl.parse("field cyclotomic 12\n"))


@pytest.mark.parametrize("text,error", [("mu\nnu", "2:1: unexpected trailing token 'nu'"),
                                        ("mu\n+", "2:1: unexpected trailing token '+'"),
                                        ("mu\n", None), ("mu # c\n\n", None)])
def test_eval_expr_reads_to_the_end_of_the_text(paper_session, text, error):
    """Blank lines and comments may follow the expression; any other token
    after it is refused, on its own line too."""
    if error is None:
        assert dsl.eval_expr(text, paper_session) == dsl.eval_expr("mu", paper_session)
    else:
        with pytest.raises(dsl.DslError, match=f"^{re.escape(error)}$"):
            dsl.eval_expr(text, paper_session)


def test_cli_check_exit_codes(tmp_path, capsys):
    assert cli_main(["check", str(PAPER_SESSION)]) == 0
    bad = FIXTURES / "bad_unknown_ident.cdga"
    assert cli_main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "3:14: unknown identifier 'qqq'" in err


def test_cli_non_utf8_session_exits_2_with_one_line(tmp_path, capsys):
    f = tmp_path / "latin1.cdga"
    f.write_bytes(b"field cyclotomic 12\n\xff\n")
    assert cli_main(["check", str(f)]) == 2
    assert capsys.readouterr().err == (
        f"{f}: 'utf-8' codec can't decode byte 0xff in position 20: invalid start byte\n")


def test_cli_unwritable_report_exits_2_with_one_line(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "out.report"
    assert cli_main(["run", str(PAPER_SESSION), "--report", str(out)]) == 2
    assert capsys.readouterr().err == f"{out}: No such file or directory\n"


def test_cli_dump(capsys):
    assert cli_main(["dump", str(PAPER_SESSION), "alpha"]) == 0
    assert capsys.readouterr().out.strip() == "mu*mubar"
    assert cli_main(["dump", str(PAPER_SESSION), "nosuch"]) == 2


def test_cli_subprocess_entry_point():
    r = subprocess.run([sys.executable, "-m", "cdgalab", "check", str(PAPER_SESSION)],
                       capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert r.returncode == 0


def test_parser_totality_on_garbage():
    rng = random.Random(83)
    alphabet = string.ascii_letters + string.digits + " \n\t#{}()*+-^/:;=<>@$%&!²é１٣"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 120)))
        try:
            dsl.parse(text)
        except dsl.DslError:
            pass  # positioned diagnostics only, never a crash


def test_mutated_paper_sessions_never_crash():
    base = PAPER_SESSION.read_text()
    rng = random.Random(84)
    for _ in range(120):
        chars = list(base)
        for _ in range(rng.randint(1, 4)):
            pos = rng.randrange(len(chars))
            op = rng.random()
            if op < 0.4:
                del chars[pos]
            elif op < 0.8:
                chars[pos] = rng.choice("abz*+-{}()=:;0123456789 \n²é")
            else:
                chars.insert(pos, rng.choice("abz*+-{}()=:;0123456789 \n²é"))
        try:
            dsl.parse("".join(chars))
        except dsl.DslError:
            pass


# Element names of the paper session, of degrees 1 to 8, closed and not,
# exact and not; each task below is run over all of them.
TOTALITY_NAMES = ("mu", "theta", "omega", "alpha", "beta2", "vol", "lef_lhs", "lef_prim")


def _totality_sessions(names=TOTALITY_NAMES, alg="M", rho="rho",
                       paper_args=("alpha", "beta1", "beta2", "beta3", "vol")) -> list[list[str]]:
    modes = ("full", f"invariant {rho}")
    return [
        [f"massey {alg} {x} {y} {z}" for x, y, z in itertools.product(names, repeat=3)],
        [f"lefschetz {alg} {m} {w} {k}" for m in modes for w in names for k in range(6)],
        # each name in each argument slot of the paper's obstruction task
        [f"obstruction {alg} {m} " + " ".join(paper_args[:i] + (w,) + paper_args[i + 1:])
         for m in modes for i in range(len(paper_args)) for w in names],
        [f"symplectic {alg} {w} {n} {v}" for w in names for n in (0, 1, 4, 5) for v in names],
        [f"verify_exact {x} {y}" for x, y in itertools.product(names, repeat=2)],
    ]


def test_every_task_over_the_paper_bindings_runs_to_a_record():
    """Run-level totality: every task over the paper's bindings either
    reports or fails with a ``<task>_error`` record; ``dsl.run`` never lets
    an exception escape.  One session per task kind, so that its tables are
    built once."""
    bindings = PAPER_SESSION.read_text().split("task ")[0]
    for tasks in _totality_sessions():
        session = dsl.parse(bindings + "".join(f"task {t}\n" for t in tasks))
        report = dsl.run(session)
        errors = [k for k, _ in report.records if k.endswith("_error")]
        assert report.failed == len(errors) < len(tasks)
        assert set(errors) <= {f"{t.name}_error" for t in session.tasks}


def test_every_task_over_even_generators_runs_to_a_record():
    """Run-level totality on an algebra with even generators, a nonzero d,
    truncation and an order-3 map: every task kind, the table tasks among
    them, reports or fails with a ``<task>_error`` record."""
    names = ("a", "x", "y", "ax", "xx", "ab", "ay", "w", "vol", "mixed")
    graph = "node proj 3 node p1b 2 edge 0 1 proj 2"
    sessions = _totality_sessions(names, "E", "f", ("w", "x", "x", "x", "vol"))
    sessions.append(["betti E reps", "invariant_betti E f reps", f"mv_union {graph}",
                     *(f"resolution E f {s} {graph}" for s in (0, 1, 2))])
    # the obstruction is a class of degree 8, so on E, of top degree 10,
    # every obstruction task fails that precondition; they run on E
    # truncated above degree 8, with a volume of that degree
    obstructions = "".join(f"task {t}\n" for t in sessions[2])
    report = dsl.run(dsl.parse(EVEN_SESSION + obstructions))
    assert {v for k, v in report.records if k.endswith("_error")} == {
        "the obstruction needs an algebra of top degree 8, got top degree 10"}
    assert report.failed == len(sessions[2])
    top8 = EVEN_SESSION.replace("top 10", "top 8").replace("a*b*x*x*y*y", "a*b*x*x*y")
    for tasks in sessions:
        text = top8 if tasks is sessions[2] else EVEN_SESSION
        session = dsl.parse(text + "".join(f"task {t}\n" for t in tasks))
        report = dsl.run(session)
        errors = [k for k, _ in report.records if k.endswith("_error")]
        assert report.failed == len(errors) < len(tasks)
        assert set(errors) <= {f"{t.name}_error" for t in session.tasks}


def test_massey_product_above_the_top_degree_is_zero():
    """<alpha, vol, alpha> lies in H^9 = 0 of the 8-dimensional algebra: a
    zero class with no indeterminacy, not an error."""
    bindings = PAPER_SESSION.read_text().split("task ")[0]
    report = dsl.run(dsl.parse(bindings + "task massey M alpha vol alpha\n"))
    assert report.records == [("massey_class", "0"), ("massey_class_is_zero", "yes"),
                              ("massey_indeterminacy_dim", "0")]


@pytest.mark.parametrize("value, message", [
    ("{0}*mu*nu", "the zero element needs an explicit degree"),
    ("mu + alpha", "class_coords needs a homogeneous element"),
])
def test_massey_of_a_zero_or_mixed_element_is_refused(paper_session, value, message):
    """``class_of`` is the one entry that infers a degree, from a nonzero
    homogeneous element; the Massey task hands it the session's elements,
    so a zero and a mixed one are refused with their own messages."""
    bindings = PAPER_SESSION.read_text().split("task ")[0]
    text = bindings + f"let probe = {value}\ntask massey M alpha probe alpha\n"
    report = dsl.run(dsl.parse(text))
    assert report.records == [("massey_error", message)]
    table = dsl._RunContext().table(paper_session.algebras["M"], None)
    with pytest.raises(ValueError, match=f"^{message}$"):
        table.class_of(dsl.eval_expr(value, paper_session))


def test_task_tables_agree():
    """Each task has a runner, a ``Parser.task_<name>``, a place in the module
    docstring's ``Tasks:`` list and a row in the README task table."""
    runners = set(dsl._TASK_RUNNERS)
    methods = {name[len("task_"):] for name in vars(dsl.Parser) if name.startswith("task_")}
    doc_list = re.search(r"^Tasks: (.*?)\.$", dsl.__doc__, re.M | re.S).group(1)
    documented = set(re.findall(r"``(\w+)``", doc_list))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("| task | arguments |"):].split("\n\n")[0]
    rows = set(re.findall(r"^\| `(\w+)` \|", table, re.M))
    assert runners == methods == documented == rows
    assert len(runners) == 9


def test_task_args_validated_at_parse():
    with pytest.raises(dsl.DslError, match="unknown algebra"):
        dsl.parse("field cyclotomic 12\nalgebra M generators mu:1\ntask betti X\n")
    with pytest.raises(dsl.DslError, match="unknown map"):
        dsl.parse("field cyclotomic 12\nalgebra M generators mu:1\n"
                  "task invariant_betti M nosuchmap\n")


def test_map_order_validated_at_parse():
    text = (
        "field cyclotomic 12\n"
        "algebra M generators mu:1 nu:1\n"
        "map f order 2 { mu -> {z^4}*mu ; nu -> nu }\n")
    with pytest.raises(dsl.DslError, match="order-2"):
        dsl.parse(text)


@pytest.mark.parametrize("edge,message", [
    ("edge 0 0 proj 2", "bad edge (0, 0)"),
    ("edge 0 1 proj 3", "intersections must have strictly smaller top degree"),
])
def test_graph_edge_errors_point_at_the_edge(edge, message):
    text = ("field cyclotomic 12\n"
            f"task mv_union node proj 3 node proj 3 {edge} node proj 1\n")
    with pytest.raises(dsl.DslError) as err:
        dsl.parse(text)
    d = err.value.diagnostic
    assert (d.line, d.col, d.message) == (2, 39, message)


# Diagnostics whose line and column are counted from the failing token only:
# blanks, CRLF line ends, comments and a text without a final newline before it.
POSITION_DIAGNOSTICS = [
    (_F + "algebra M\t@ generators a:1\n", 2, 11, "unexpected character '@'"),
    ("field cyclotomic 12\r\nalgebra M generators a:1\r\n@\r\n", 3, 1,
     "unexpected character '@'"),
    ("# a comment may hold @ and é\n" + _F + "  # and so may this: $\n  $\n", 4, 3,
     "unexpected character '$'"),
    (_F + "algebra M generators _x:1\n", 2, 22, "unexpected character '_'"),
    (_M + "map f order 1 { mu > mu }\n", 3, 20, "unexpected character '>'"),
    (_M + "let é = mu\n", 3, 5, "unexpected character 'é'"),
    ("field cyclotomic 12\r\nalgebra M generators mu:1\r\nlet x = {1/\t0}", 3, 13,
     "malformed scalar: zero denominator"),
    (_M + "let x = {1 + z", 3, 15, "malformed scalar: missing '}'"),
    (_M + "let x = {1 + z   ", 3, 18, "malformed scalar: missing '}'"),
    (_M + "let x = {1 + z # no final newline", 3, 34, "malformed scalar: missing '}'"),
    # The tokenizer reads the whole text first: its error wins over an earlier
    # parse error.
    ("field 12\nalgebra M generators mu:1\nlet x = mu @\n", 3, 12,
     "unexpected character '@'"),
]


@pytest.mark.parametrize("text,line,col,message", POSITION_DIAGNOSTICS)
def test_diagnostic_positions_are_counted_at_the_failing_token(text, line, col, message):
    with pytest.raises(dsl.DslError) as err:
        dsl.parse(text)
    d = err.value.diagnostic
    assert (d.line, d.col, d.message) == (line, col, message)


def _nested(depth: int) -> str:
    return "(" * depth + "mu" + ")" * depth


@pytest.mark.parametrize("depth", [dsl.MAX_NESTING, dsl.MAX_NESTING + 1, 400])
def test_deep_parentheses_are_a_diagnostic_not_a_crash(depth, paper_session):
    """Up to ``MAX_NESTING`` parentheses parse; one more is a diagnostic at
    the first parenthesis past the bound, in a session and in ``eval_expr``,
    long before the interpreter's recursion limit."""
    session_text = _M + "let x = " + _nested(depth) + "\n"
    if depth <= dsl.MAX_NESTING:
        session = dsl.parse(session_text)
        assert session.lookup_element("x") == session.algebras["M"].algebra.generator("mu")
        mu = paper_session.algebras["M"].algebra.generator("mu")
        assert dsl.eval_expr(_nested(depth), paper_session, "M") == mu
        return
    message = f"expression nested deeper than {dsl.MAX_NESTING}"
    with pytest.raises(dsl.DslError) as err:
        dsl.parse(session_text)
    d = err.value.diagnostic
    assert (d.line, d.col, d.message) == (3, len("let x = ") + dsl.MAX_NESTING + 1, message)
    with pytest.raises(dsl.DslError) as err:
        dsl.eval_expr(_nested(depth), paper_session, "M")
    d = err.value.diagnostic
    assert (d.line, d.col, d.message) == (1, dsl.MAX_NESTING + 1, message)


def test_expressions_match_the_elements_built_through_the_api(paper_session):
    """``eval_expr`` parses scalars straight to cvs; the same elements built
    with ``wedge``, ``scale``, ``+`` and ``FieldElement`` arithmetic agree."""
    alg = paper_session.algebras["M"].algebra
    f = alg.field
    mu, nu, theta = (alg.generator(n) for n in ("mu", "nu", "theta"))
    z, i = f.zeta(1), f.imaginary_unit()
    cases = {
        "{0}*mu": alg.zero(),
        "{z^25}*mu": mu.scale(z ** 25),
        "{z^0}*nu": nu,
        "{i^3}*nu": nu.scale(i ** 3),
        "{i}*nu": nu.scale(i),
        "{-1/2*z^2*i}*theta": theta.scale(f.rational(-1, 2) * z ** 2 * i),
        "{3/4 - z + 6/8*z^13}": alg.scalar(f.rational(3, 4) - z + f.rational(6, 8) * z ** 13),
        "-(mu*nu) + {3}": -wedge(mu, nu) + alg.scalar(f.rational(3)),
        "(mu + nu)*(mu - nu)": wedge(mu + nu, mu - nu),
        "mu*theta*mu": wedge(wedge(mu, theta), mu),
    }
    for text, expected in cases.items():
        assert dsl.eval_expr(text, paper_session, "M") == expected, text
    assert cases["mu*theta*mu"].is_zero() and not cases["(mu + nu)*(mu - nu)"].is_zero()


def _api_product(alg, word: str):
    return functools.reduce(wedge, (alg.generator(n) for n in word.split("*")))


def test_paper_lets_match_the_elements_built_through_the_api(paper_session):
    alg = paper_session.algebras["M"].algebra
    i = alg.field.imaginary_unit()
    p = functools.partial(_api_product, alg)
    omega = (p("mu*mubar").scale(i) + p("nu*theta") + p("nubar*thetabar")
             + p("eta*etabar").scale(i))
    expected = {
        "omega": omega,
        "alpha": p("mu*mubar"), "beta1": p("nu*nubar"),
        "beta2": p("nu*etabar"), "beta3": p("nubar*eta"),
        "vol": p("theta*mu*nu*eta*thetabar*mubar*nubar*etabar"),
        "lef_lhs": wedge(wedge(omega, omega), p("nu*nubar")),
        "lef_prim": -p("theta*mubar*etabar*eta*nubar").scale(alg.field.rational(2)),
    }
    assert paper_session.lets == expected


def test_scan_lets_match_the_elements_built_through_the_api():
    """Every form of the seed-1 scan session, from the coefficients its
    generator drew: ``(rational + c*z^e) * word`` summed over the words."""
    workloads = load_workloads()
    session = dsl.parse(workloads.scan_session(1))
    alg = session.algebras["M"].algebra
    f = alg.field
    expected = {"vol": _api_product(alg, "theta*mu*nu*eta*thetabar*mubar*nubar*etabar")}
    for n, (coeffs, _k) in enumerate(workloads.scan_forms(1)):
        for name, cs in ((f"w{n}", coeffs), (f"w{n}c", workloads.galois_conjugate(coeffs))):
            terms = [_api_product(alg, w).scale(f.rational(r) + f.zeta(e) * c)
                     for w, (r, c, e) in cs]
            expected[name] = functools.reduce(operator.add, terms)
    assert len(expected) == 121
    assert session.lets == expected
