import ast
import importlib.util
import os
import re
from collections import Counter
import subprocess
import sys
from pathlib import Path

import pytest

import cdgalab
from cdgalab.dsl import Diagnostic
from cdgalab.topology import Edge

from conftest import ROOT

SRC = Path(cdgalab.__file__).resolve().parent


def test_library_has_no_assert_statements():
    """``python -O`` strips ``assert``; the library's invariant checks raise
    explicitly so that they still run."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert SRC.name == "cdgalab" and list(SRC.glob("*.py"))
    assert not found, f"assert statements in the library: {found}"


def _optimize_reads(path: Path) -> list[str]:
    """``path:line`` of each read of ``__debug__`` or ``sys.flags`` in
    ``path``, by name, attribute or ``from sys import flags``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Name) and node.id == "__debug__"
                or isinstance(node, ast.Attribute) and node.attr == "flags"
                and isinstance(node.value, ast.Name) and node.value.id == "sys"
                or isinstance(node, ast.ImportFrom) and node.module == "sys"
                and any(alias.name == "flags" for alias in node.names)):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_library_reads_no_optimize_flag(tmp_path):
    """Besides stripping ``assert``, ``python -O`` sets ``__debug__`` to
    False and ``sys.flags.optimize`` to 1; no library module reads either,
    so with no assert statements the library runs the same checks under
    ``-O``, in code that no test reaches too.  Each form of read, written
    into a module, is caught."""
    found = [entry for path in sorted(SRC.glob("*.py")) for entry in _optimize_reads(path)]
    assert not found, f"reads of __debug__ or sys.flags in the library: {found}"
    probe = tmp_path / "probe.py"
    probe.write_text("import sys\n"
                     "from sys import flags\n"
                     "if __debug__:\n"
                     "    level = sys.flags.optimize\n")
    assert _optimize_reads(probe) == ["probe.py:2", "probe.py:3", "probe.py:4"]


def test_every_exported_name_resolves_and_star_import_works():
    """A name left in ``__all__`` after its import is deleted breaks only
    ``from cdgalab import *``; check the names and the star import itself."""
    missing = [name for name in cdgalab.__all__ if not hasattr(cdgalab, name)]
    assert not missing, f"names in cdgalab.__all__ that do not resolve: {missing}"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    r = subprocess.run([sys.executable, "-c", "from cdgalab import *"],
                       cwd=ROOT, env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr[-3000:]


def _unused_imports(path: Path) -> list[str]:
    """Names that ``path`` imports but never reads as a name and does not
    list in a literal ``__all__``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in used]


def test_no_unused_imports():
    """No linter runs on this repository, so check the one lint rule that
    deletions keep breaking: every imported name is used."""
    paths = [p for d in (SRC, ROOT / "tests") for p in sorted(d.glob("*.py"))]
    assert len(paths) > 20
    found = [entry for p in paths for entry in _unused_imports(p)]
    assert not found, f"unused imports: {found}"


def _generic_loops(path: Path) -> list[tuple[str, str]]:
    """``(owner, what)`` for each reference to ``row_axpy`` and each
    ``while k:`` loop in ``path``; the owner is the module and the qualified
    name of the enclosing class and function."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}"
        elif (isinstance(node, ast.Attribute) and node.attr == "row_axpy"
              or isinstance(node, ast.Name) and node.id == "row_axpy"):
            found.append((owner, "row_axpy"))
        elif (isinstance(node, ast.While) and isinstance(node.test, ast.Name)
              and node.test.id == "k"):
            found.append((owner, "while k"))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def test_generic_loops_live_in_the_kernel():
    """The sparse-row combination, its transpose and the power by squaring
    live in the kernel, ``kernel.combine``, ``kernel.scatter`` and
    ``kernel.power``: outside the kernel no function squares in a
    ``while k:`` loop, and ``row_axpy`` is used only where the action's
    fixed part subtracts the identity in its own code."""
    found = [entry for path in sorted(SRC.glob("*.py")) if path.name != "_kernel_py.py"
             for entry in _generic_loops(path)]
    assert found == [("action.induced_action_fixed_dims", "row_axpy")], found


def _qualified_nodes(path: Path):
    """``(owner, node)`` for every AST node of ``path``; the owner is the
    module and the qualified name of the enclosing class and function."""
    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}"
        yield owner, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    yield from visit(ast.parse(path.read_text(), filename=str(path)), path.stem)


def _product_solves(path: Path) -> list[str]:
    """The owner of each ``class_coords`` or ``class_of`` call in ``path``
    whose first argument is a ``wedge(...)`` call."""
    def name(func):
        return (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)

    return [owner for owner, node in _qualified_nodes(path)
            if isinstance(node, ast.Call) and name(node.func) in ("class_coords", "class_of")
            and node.args and isinstance(node.args[0], ast.Call)
            and name(node.args[0].func) == "wedge"]


def test_products_of_representatives_are_solved_in_product_rows_only(tmp_path):
    """The class rows of products r * x have one loop,
    ``CohomologyTable.product_rows``, and no other function of the library
    solves a product.  The old Lefschetz comprehension, written back into a
    module, is caught."""
    found = [owner for path in sorted(SRC.glob("*.py")) for owner in _product_solves(path)]
    assert found == ["homology.CohomologyTable.product_rows"], found
    old = tmp_path / "symplectic.py"
    old.write_text("def lefschetz(table, omega_k, src, dst):\n"
                   "    return [table.class_coords(wedge(r, omega_k), dst)\n"
                   "            for r in table.representatives(src)]\n")
    assert _product_solves(old) == ["symplectic.lefschetz"]


def _coboundary_reductions(path: Path) -> list[str]:
    """The owner of each call, in ``path``, of a method of an entry of a
    ``_coboundaries`` dict: ``self._coboundaries[k].reduce_owned(row)``."""
    return [owner for owner, node in _qualified_nodes(path)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Subscript)
            and isinstance(node.func.value.value, ast.Attribute)
            and node.func.value.value.attr == "_coboundaries"]


def test_rows_are_reduced_by_the_coboundaries_in_one_function(tmp_path):
    """The class solve and the normal forms of words share one reduction,
    so exactly one function of the library reduces by the coboundaries.
    The old ``class_coords`` body, written back into a module, is caught."""
    found = [owner for path in sorted(SRC.glob("*.py"))
             for owner in _coboundary_reductions(path)]
    assert found == ["homology.CohomologyTable._reduce"], found
    old = tmp_path / "homology.py"
    old.write_text("class CohomologyTable:\n"
                   "    def class_coords(self, x, degree):\n"
                   "        rem = self._closed_row(x, degree)\n"
                   "        q = self.quotient(degree)\n"
                   "        self._coboundaries[degree].reduce_owned(rem)\n"
                   "        coords = q.reduce_owned(rem)\n"
                   "        if rem:\n"
                   "            raise AssertionError('closed element must reduce')\n"
                   "        return coords\n")
    assert _coboundary_reductions(old) == ["homology.CohomologyTable.class_coords"]


def _subspace_reads(path: Path) -> list[str]:
    """The owner of each read of a ``.subspaces`` attribute in ``path``."""
    return [owner for owner, node in _qualified_nodes(path)
            if isinstance(node, ast.Attribute) and node.attr == "subspaces"
            and isinstance(node.ctx, ast.Load)]


def test_only_the_complex_reads_its_subspaces(tmp_path):
    """An ambient row reaches a subspace complex's coordinates by one split,
    ``CochainComplex._split``, so no code outside ``CochainComplex`` reads
    ``.subspaces``, and one method, ``_coords``, refuses a row outside the
    complex.  The old ``CohomologyTable._reduce`` body, written back into a
    module, is caught."""
    paths = sorted(SRC.glob("*.py"))
    found = [owner for path in paths for owner in _subspace_reads(path)]
    assert found and all(o.startswith("homology.CochainComplex.") for o in found), found
    refusals = [owner for path in paths
                for owner in _strings_containing(path, "does not lie in the complex")]
    assert refusals == ["homology.CochainComplex._coords"], refusals
    old = tmp_path / "homology.py"
    old.write_text("class CohomologyTable:\n"
                   "    def _reduce(self, row, degree):\n"
                   "        cx, q = self.complex, self.quotient(degree)\n"
                   "        amb = {}\n"
                   "        if cx.subspaces is not None:\n"
                   "            row, amb = cx.subspaces[degree].reduce_owned(row), row\n"
                   "        self._coboundaries[degree].reduce_owned(row)\n"
                   "        out = q.reduce_owned(row)\n"
                   "        for j, v in row.items():\n"
                   "            out[-1 - j] = v\n"
                   "        for j, v in amb.items():\n"
                   "            out[-1 - cx.dim(degree) - j] = v\n"
                   "        return out\n")
    assert _subspace_reads(old) == ["homology.CohomologyTable._reduce"] * 2


def _strings_containing(path: Path, phrase: str) -> list[str]:
    """The owner of each string constant of ``path``, the literal parts of
    f-strings included, that contains ``phrase``."""
    return [owner for owner, node in _qualified_nodes(path)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and phrase in node.value]


def test_names_of_another_algebra_are_refused_in_lookup_only(tmp_path):
    """Session names have one resolver, ``Parser.lookup``, so it alone says
    that a name belongs to another algebra.  The old element resolver,
    written back into a module, is caught."""
    phrase = "belongs to another algebra"
    assert _strings_containing(SRC / "dsl.py", phrase) == ["dsl.Parser.lookup"]
    old = tmp_path / "dsl.py"
    old.write_text("class Parser:\n"
                   "    def resolve_element(self, ctx, t, noun):\n"
                   "        name = self.texts[t]\n"
                   "        if name in ctx.gen_degrees:\n"
                   "            return ctx.algebra.generator(name)\n"
                   "        value = self.session.lets.get(name)\n"
                   "        if value is None:\n"
                   "            self.fail(t, f\"unknown {noun} {name!r}\")\n"
                   "        if value.algebra is not ctx.algebra:\n"
                   "            self.fail(t, f\"{name!r} belongs to another algebra\")\n"
                   "        return value\n")
    assert _strings_containing(old, phrase) == ["dsl.Parser.resolve_element"]


def test_products_are_added_by_the_fused_op_only():
    """A product that is added to an entry is added by the field's fused
    ``addmul`` or ``submul``, read in exactly the three accumulation loops,
    and no loop of the library adds with ``cv_add`` a product (``cv_mul``
    or ``mul``) made in the same loop."""
    readers, adders = set(), []
    for path in sorted(SRC.glob("*.py")):
        for owner, node in _qualified_nodes(path):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in ("addmul", "submul") and isinstance(node.ctx, ast.Load):
                readers.add(owner)
            if isinstance(node, (ast.For, ast.While)):
                called = {c.func.id if isinstance(c.func, ast.Name) else c.func.attr
                          for c in ast.walk(node) if isinstance(c, ast.Call)
                          and isinstance(c.func, (ast.Name, ast.Attribute))}
                if "cv_add" in called and called & {"cv_mul", "mul"}:
                    adders.append(f"{owner}:{node.lineno}")
    assert sorted(readers) == ["_kernel_py.reduce_against", "_kernel_py.row_axpy",
                               "algebra._product"], sorted(readers)
    assert not adders, f"loops that add a product by cv_add: {adders}"


# Functions and methods of the library that nothing in src/ or perfbench/*.py
# references, with the reason each stays.
ALLOWED = {
    "dsl.Session.lets": "the benchmark's tests read the scan session's forms through it",
    "dsl.eval_expr": "public: evaluates one expression against a parsed session",
    "field.CycloField.imaginary_unit": "public: the field's i; the parser reads i^k off pow_table",
    "field.FieldElement.conjugate": "public; the signature's Hermitian congruence will read it",
    "topology.BettiVector.euler": "waits for the duality task",
    "topology.BettiVector.is_poincare_symmetric": "waits for the duality task",
}


def _references(tree) -> Counter:
    """How often each name is read as an AST ``Name`` or ``Attribute``."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _definitions(path: Path):
    """``(qualified name, def node)`` for every function and method in
    ``path``, qualified by the module and the enclosing classes and
    functions."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{owner}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    yield name, child
                yield from visit(child, name)
            else:
                yield from visit(child, owner)

    yield from visit(ast.parse(path.read_text(), filename=str(path)), path.stem)


def test_every_library_function_has_a_reader():
    """Each function and method of the library is referenced somewhere in
    the library or the benchmark harness, not counting its own body, or is
    listed in ``ALLOWED`` with its reason.  Dunders and the parser's
    ``stmt_*`` and ``task_*`` methods, which it dispatches through
    ``getattr``, are exempt."""
    readers = [p for d in (SRC, ROOT / "perfbench") for p in sorted(d.glob("*.py"))]
    total = Counter()
    for path in readers:
        total += _references(ast.parse(path.read_text(), filename=str(path)))
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for qualified, node in _definitions(path):
            name = node.name
            if (name.startswith("__") and name.endswith("__")
                    or name.startswith(("stmt_", "task_"))):
                continue
            if total[name] - _references(node)[name] <= 0:
                unread.append(qualified)
    assert len(readers) > 20
    assert sorted(unread) == sorted(ALLOWED), \
        f"unread: {sorted(set(unread) - set(ALLOWED))}, " \
        f"allowed but read or gone: {sorted(set(ALLOWED) - set(unread))}"


# A repository path in backticks: ``dir/file`` with one of these suffixes.
PATH_REFERENCE = re.compile(r"`+([\w.-]+(?:/[\w.-]+)+\.(?:py|cdga|md|json|report))`+")


def test_named_repository_paths_exist():
    """Every repository path that README.md or a library docstring names in
    backticks exists, so deleting or moving a file cannot leave prose that
    points at it."""
    texts = [(ROOT / "README.md").read_text()]
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                texts.append(ast.get_docstring(node, clean=False) or "")
    named = [ref for text in texts for ref in PATH_REFERENCE.findall(text)]
    missing = [ref for ref in named if not (ROOT / ref).is_file()]
    assert named and not missing, f"named paths that do not exist: {missing}"
    assert PATH_REFERENCE.findall("see `a/b.py`, ``c/d/e.report``, `f.py` and `g/h.txt`") \
        == ["a/b.py", "c/d/e.report"]


def test_import_loads_no_inspect_machinery():
    """``import cdgalab, cdgalab.cli`` loads none of ``dataclasses``,
    ``inspect``, ``ast``, ``dis`` or ``tokenize``, which cost about a quarter
    of the import.  The check compares ``sys.modules`` before and after the
    import in a fresh interpreter, because pytest itself loads these."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import cdgalab, cdgalab.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    r = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr[-3000:]
    new = set(r.stdout.split())
    assert "cdgalab.dsl" in new
    loaded = new & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert not loaded, f"import cdgalab loads {sorted(loaded)}"


# Modules a Betti-only session never needs: the rationals' module with the two
# it loads, ``string``, and the engine modules that only maps and tasks use.
_LAZY_STDLIB = {"fractions", "decimal", "numbers", "string"}
_TASK_MODULES = {"cdgalab.action", "cdgalab.formality", "cdgalab.symplectic",
                 "cdgalab.topology"}
# No session needs OpenSSL when the interpreter has its own sha256 module.
_OPENSSL = {"hashlib", "_hashlib"}
_BUILTIN_SHA256 = any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256"))
# Prints the modules that each step loads, one line per step: the import and
# the parse of session argv[1], the parse of argv[2], and its run.
_LOAD_STEPS = """
import sys
before, steps = set(sys.modules), []

def step():
    steps.append(set(sys.modules) - before - set().union(*steps))

import cdgalab, cdgalab.cli
from cdgalab import dsl
dsl.parse(open(sys.argv[1]).read())
step()
session = dsl.parse(open(sys.argv[2]).read())
step()
dsl.run(session)
step()
print("\\n".join(" ".join(sorted(names)) for names in steps))
"""


def test_sessions_load_only_the_modules_their_statements_use():
    """In a fresh interpreter, ``import cdgalab, cdgalab.cli`` and the parse
    of the ladder session load no module of ``_LAZY_STDLIB`` or
    ``_TASK_MODULES``; the parse of the paper session loads the four task
    modules, and its run loads nothing more, so no module is compiled
    inside the run.  Where the interpreter has its own sha256 module, no
    step loads ``hashlib`` or OpenSSL's ``_hashlib``."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    sessions = [str(ROOT / "perfbench/sessions/ladder.cdga"), str(ROOT / "paper.cdga")]
    r = subprocess.run([sys.executable, "-c", _LOAD_STEPS, *sessions], cwd=ROOT, env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr[-3000:]
    ladder, paper_parse, paper_run = (set(line.split()) for line in r.stdout.split("\n")[:3])
    assert {"cdgalab.dsl", "cdgalab.homology"} <= ladder
    loaded = ladder & (_LAZY_STDLIB | _TASK_MODULES)
    assert not loaded, f"a ladder session loads {sorted(loaded)}"
    assert _TASK_MODULES <= paper_parse, sorted(paper_parse)
    assert not paper_run, f"the paper run loads {sorted(paper_run)}"
    if _BUILTIN_SHA256:
        openssl = (ladder | paper_parse) & _OPENSSL
        assert not openssl, f"the sessions load {sorted(openssl)}"


def test_hashlib_is_imported_only_as_the_sha256_fallback():
    """One line of the library imports ``hashlib``: the fallback for
    ``dsl.sha256`` when neither ``_sha2`` nor ``_sha256`` exists."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "hashlib" in names:
                sites.append((path.name, ast.unparse(node)))
    assert sites == [("dsl.py", "from hashlib import sha256")], sites


@pytest.mark.parametrize("make", [
    lambda: cdgalab.GeneratorSpec("mu", 1),
    lambda: cdgalab.BettiVector([1, 0, 1]),
    lambda: Edge(0, 1, cdgalab.BettiVector((1,))),
    lambda: Diagnostic(3, 7, "unexpected character '!'"),
])
def test_frozen_records_compare_by_value_and_refuse_assignment(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != object()
    field = next(iter(vars(a)))
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(a, field, None)
    assert a == b
