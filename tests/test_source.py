import ast
import os
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


def test_acceptance_suite_passes_under_optimize():
    """The acceptance criteria, the d*d and action checks, the fixture
    diagnostics, the checks at the linear-algebra entry points, the
    Lefschetz path, the formality and homology paths with their
    ``PreconditionError`` witnesses, and the topology and field checks hold
    with the library's asserts stripped;
    pytest rewrites the tests' own asserts, so those still run."""
    r = subprocess.run([sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        "tests/test_acceptance.py", "tests/test_algebra.py",
                        "tests/test_action.py", "tests/test_dsl.py",
                        "tests/test_symplectic.py", "tests/test_linalg.py",
                        "tests/test_formality.py", "tests/test_homology.py",
                        "tests/test_topology.py", "tests/test_field.py"],
                       cwd=ROOT, capture_output=True, text=True)
    assert r.returncode == 0, r.stdout[-3000:] + r.stderr[-3000:]


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
    list in ``__all__``."""
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
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in used]


def test_no_unused_imports():
    """No linter runs on this repository, so check the one lint rule that
    deletions keep breaking: every imported name is used."""
    paths = [p for d in (SRC, ROOT / "tests", ROOT / "benchmarks")
             for p in sorted(d.glob("*.py"))]
    assert len(paths) > 20
    found = [entry for p in paths for entry in _unused_imports(p)]
    assert not found, f"unused imports: {found}"


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
