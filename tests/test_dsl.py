import random
import string
import subprocess
import sys
from pathlib import Path

import pytest

from cdgalab import dsl
from cdgalab.algebra import format_element
from cdgalab.cli import main as cli_main

from conftest import ROOT, random_element, refuse_to_build_fields

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
    ("bad_map_action_order.cdga", 4, 1,
     "map 'rho' is not a valid order-2 action: f^2 is not the identity at mu"),
    ("bad_map_action_d.cdga", 5, 1,
     "map 'rho' is not a valid order-2 action: f does not commute with d at theta"),
    ("bad_task_arity.cdga", 6, 25, "expected half dimension"),
    ("bad_task_name.cdga", 3, 6, "unknown task 'frobnicate'"),
    ("bad_unknown_ident.cdga", 3, 14, "unknown identifier 'qqq'"),
]
# Fixtures whose field must be refused before any of it is built.
REFUSED_CONDUCTORS = ("bad_conductor.cdga", "bad_conductor_budget.cdga")


@pytest.fixture(scope="module")
def paper_session():
    return dsl.parse(PAPER_SESSION.read_text())


def test_paper_session_parses_cleanly(paper_session):
    assert len(paper_session.tasks) == 9
    assert paper_session.field.n == 12
    assert set(paper_session.algebras) == {"M"}
    assert set(paper_session.maps) == {"rho"}


@pytest.mark.parametrize("name,line,col,message", EXPECTED_DIAGNOSTICS)
def test_corrupted_fixture_diagnostics(name, line, col, message, monkeypatch):
    text = (FIXTURES / name).read_text()
    if name in REFUSED_CONDUCTORS:
        refuse_to_build_fields(monkeypatch)
    with pytest.raises(dsl.DslError) as err:
        dsl.parse(text)
    d = err.value.diagnostic
    assert (d.line, d.col) == (line, col)
    assert d.message == message


def test_conductor_budget_fails_before_anything_is_built(monkeypatch, capsys):
    """An over-budget conductor is refused before the cyclotomic polynomial,
    the tables or the straight-line arithmetic would be built."""
    refuse_to_build_fields(monkeypatch)
    path = FIXTURES / "bad_conductor_budget.cdga"
    assert cli_main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"{path}:1:18: conductor 20000 is over budget: phi(20000) must be at most 64\n")


def test_mu_wedge_mu_is_legal_and_zero():
    session = dsl.parse(
        "field cyclotomic 12\n"
        "algebra M generators mu:1 nu:1\n"
        "let x = mu * mu\n")
    assert session.lets["x"].is_zero()


def test_omega_expression_evaluates(paper_session, model):
    omega = paper_session.lets["omega"]
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
        assert x.coefficient(()) == c


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
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_paper_run_builds_each_table_once(monkeypatch, paper_session):
    """The invariant_betti cross-check reuses the run's tables: one full and
    one invariant table, one invariant complex."""
    from cdgalab import homology
    built = []
    init = homology.CohomologyTable.__init__

    def counting_init(self, complex_):
        built.append("full" if complex_.is_full() else "invariant")
        init(self, complex_)

    complexes = []
    make_complex = dsl.invariant_complex

    def counting_complex(*args):
        complexes.append(args)
        return make_complex(*args)

    monkeypatch.setattr(homology.CohomologyTable, "__init__", counting_init)
    monkeypatch.setattr(dsl, "invariant_complex", counting_complex)
    assert dsl.run(paper_session).ok
    assert sorted(built) == ["full", "invariant"]
    assert len(complexes) == 1


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


def test_empty_task_list_is_success():
    session = dsl.parse("field cyclotomic 12\nalgebra M generators mu:1\n")
    report = dsl.run(session)
    assert report.ok
    assert report.records == []
    assert report.machine_text().startswith("session_sha256 = ")


def test_obstruction_task_error_is_carried_in_report(tmp_path):
    text = (
        "field cyclotomic 12\n"
        "algebra T generators a:1 b:1 c:1 e:1\n"
        "let al = a*b\n"
        "let be = c*e\n"
        "let vol4 = a*b*c*e\n"
        "task obstruction T full al be be be vol4\n")
    session = dsl.parse(text)
    report = dsl.run(session)
    assert not report.ok
    records = dict(report.records)
    assert "obstruction_error" in records
    assert "not exact" in records["obstruction_error"]
    f = tmp_path / "bad.cdga"
    f.write_text(text)
    assert cli_main(["run", str(f)]) == 1


def test_cli_run_exits_3_on_a_violated_invariant(tmp_path, monkeypatch, capsys):
    def broken(table, full, action):
        raise AssertionError("invariant cohomology mismatch")

    monkeypatch.setattr(dsl, "check_fixed_part", broken)
    out = tmp_path / "out.report"
    assert cli_main(["run", str(PAPER_SESSION), "--report", str(out)]) == 3
    assert "invariant cohomology mismatch" in capsys.readouterr().err
    assert not out.exists()


def test_cli_check_exit_codes(tmp_path, capsys):
    assert cli_main(["check", str(PAPER_SESSION)]) == 0
    bad = FIXTURES / "bad_unknown_ident.cdga"
    assert cli_main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "3:14: unknown identifier 'qqq'" in err


def test_cli_dump(capsys):
    assert cli_main(["dump", str(PAPER_SESSION), "alpha"]) == 0
    assert capsys.readouterr().out.strip() == "mu*mubar"
    assert cli_main(["dump", str(PAPER_SESSION), "nosuch"]) == 2


def test_cli_subprocess_entry_point():
    r = subprocess.run([sys.executable, "-m", "cdgalab", "check", str(PAPER_SESSION)],
                       capture_output=True, text=True)
    assert r.returncode == 0


def test_parser_totality_on_garbage():
    rng = random.Random(83)
    alphabet = string.ascii_letters + string.digits + " \n\t#{}()*+-^/:;=<>@$%&!"
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
                chars[pos] = rng.choice("abz*+-{}()=:;0123456789 \n")
            else:
                chars.insert(pos, rng.choice("abz*+-{}()=:;0123456789 \n"))
        try:
            dsl.parse("".join(chars))
        except dsl.DslError:
            pass


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
