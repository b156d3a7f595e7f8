"""The benchmark (``perfbench/``) times the engine by wrapping its functions
by name, and its sessions read a few more names.  Every one of them must
still exist: a traced run would only list a lost one under missing hooks."""

import importlib.util

import cdgalab
from cdgalab import dsl

from conftest import ROOT


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    tracer = load_tracer()
    for _, module, path in tracer.SPAN_HOOKS + tracer.COUNT_HOOKS:
        tracer._resolve(module, path)  # raises AttributeError for a lost name


def test_task_runners_and_backend_name_exist():
    assert isinstance(dsl._TASK_RUNNERS, dict) and dsl._TASK_RUNNERS
    assert isinstance(cdgalab.backend_name(), str)


def test_tracer_counts_read_real_engine_objects(model):
    """The tracer's after-call hooks read engine attributes on every traced
    run (``Algebra.total_dim``, ``Matrix.entries``, ``Eliminator.rank``,
    ``Subspace.dim`` ...); call each on the paper's own objects."""
    t = load_tracer().Tracer("t")
    cx = model.complex
    m = cx.d_matrix(3)
    el = cx.d_eliminator(3)
    t._after_basis((model.algebra,), None)
    t._after_d_matrix((cx, 3), m)
    t._after_d_matrix((cx, 3), m)  # a cached matrix is counted once
    t._after_d_eliminator((cx, 3), el)
    t._after_eliminate((el, m), None)
    t._after_reduce((el.image, {}), None)
    assert t.counts["algebra.basis_words"] == 256
    assert t.counts["homology.d_cells"] == 56 * 70
    assert t.counts["homology.d_nnz"] == 20
    assert t.ranks == [[0, 3, 17]]
    assert t.counts["linalg.eliminate_cells"] == 56 * (70 + 56)
    assert t.counts["linalg.reduce_cells"] == 17 * 70
