import ast
import os
import subprocess
import sys
from pathlib import Path

import cdgalab

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
    """The acceptance criteria hold with the library's asserts stripped;
    pytest rewrites the tests' own asserts, so those still run."""
    r = subprocess.run([sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        "tests/test_acceptance.py"], cwd=ROOT, capture_output=True, text=True)
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
