"""Span tracer for one session, installed from outside the engine.

Every hook replaces a name that the engine looks up at call time.  A
module-level function is replaced in every ``cdgalab`` module that binds it:
``from .algebra import apply_d`` makes ``homology.apply_d`` a binding of its
own, and patching only ``algebra.apply_d`` would miss those calls.  A method
is replaced on its class.  Kernel functions are replaced on the live kernel
module (``cdgalab._backend.kernel``), where the kernel's own calls between
its functions also find them.

A span is ``[name, parent, start, end, end_with_bookkeeping]``.  Counting
done by a hook after the call (``d_nnz`` walks the new matrix) runs between
``end`` and ``end_with_bookkeeping``: it is charged to neither the span nor its
parent, and is reported as ``trace.bookkeeping_s``.  All spans of a session
stay in memory until ``write_spans`` runs at the end.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import weakref
from collections import Counter

# (span name, module under cdgalab, attribute path).  Several hooks may share
# one span name; the layer metric then sums them.
SPAN_HOOKS = (
    ("dsl.parse", "dsl", "parse"),
    ("dsl.run", "dsl", "run"),
    ("dsl.report", "dsl", "Report.machine_text"),
    ("field.setup", "field", "CycloField.__init__"),
    ("algebra.basis", "algebra", "Algebra.__init__"),
    ("algebra.apply_d", "algebra", "apply_d"),
    ("algebra.apply_map", "algebra", "apply_map"),
    ("algebra.wedge", "algebra", "wedge"),
    ("homology.d_matrix", "homology", "CochainComplex.d_matrix"),
    ("homology.d_eliminator", "homology", "CochainComplex.d_eliminator"),
    ("homology.table", "homology", "CohomologyTable.__init__"),
    ("homology.class_coords", "homology", "CohomologyTable.class_coords"),
    ("homology.is_exact", "homology", "CohomologyTable.is_exact"),
    ("linalg.eliminate", "linalg", "Eliminator.__init__"),
    ("linalg.solve_left", "linalg", "Eliminator.solve_left"),
    ("linalg.subspace", "linalg", "Subspace.from_vectors"),
    ("linalg.reduce", "linalg", "Subspace.reduce"),
    ("linalg.quotient", "linalg", "quotient_basis"),
    ("kernel.rref", "_backend", "kernel.rref"),
    ("kernel.reduce_against", "_backend", "kernel.reduce_against"),
    ("action.validate", "action", "validate_action"),
    ("action.projector", "action", "invariant_subspaces"),
    ("action.crosscheck", "action", "induced_action_fixed_dims"),
    ("action.invariant_complex", "action", "invariant_complex"),
    ("formality.obstruction", "formality", "obstruction"),
    ("formality.massey", "formality", "massey_triple"),
    ("symplectic.lefschetz", "symplectic", "lefschetz"),
    ("symplectic.is_symplectic", "symplectic", "is_symplectic"),
    ("topology.betti", "topology", "betti_projective"),
    ("topology.betti", "topology", "betti_p1_bundle"),
    ("topology.betti", "topology", "betti_union"),
    ("topology.betti", "topology", "betti_resolution"),
)

# Hot leaf calls that are counted, not timed: a span each would cost more
# than the call.  Their time stays in the enclosing span.
COUNT_HOOKS = (
    ("kernel.cv_mul", "_backend", "kernel.cv_mul"),
    ("field.inverse", "field", "FieldElement.inverse"),
)


def _resolve(module: str, path: str):
    """(owner object, attribute name) for ``cdgalab.<module>.<path>``."""
    owner = importlib.import_module(f"cdgalab.{module}")
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    if attr not in vars(owner):
        raise AttributeError(f"cdgalab.{module}.{path}")
    return owner, attr


def _replace(owner, attr: str, make_wrapper) -> None:
    """Install ``make_wrapper(original)`` at ``owner.attr`` and, for a
    module-level function, at every other cdgalab binding of it."""
    original = vars(owner)[attr]
    if isinstance(original, classmethod):
        setattr(owner, attr, classmethod(make_wrapper(original.__func__)))
        return
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for name, mod in list(sys.modules.items()):
        if name == "cdgalab" or name.startswith("cdgalab."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


class Tracer:
    """Spans and counters of one traced session."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.ranks: list[list[int]] = []  # [complex index, degree, rank]
        self.missing: list[str] = []
        self.tasks: list[str] = []
        self._calls: dict[str, list[int]] = {}
        self._complexes: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._next_complex = 0
        self._built: set = set()
        self._after = {
            "algebra.basis": self._after_basis,
            "homology.d_matrix": self._after_d_matrix,
            "homology.d_eliminator": self._after_d_eliminator,
            "homology.table": self._after_table,
            "linalg.eliminate": self._after_eliminate,
            "linalg.reduce": self._after_reduce,
            "kernel.rref": self._after_kernel_rref,
            "kernel.reduce_against": self._after_kernel_reduce,
        }

    # --- installation ---

    def install(self) -> None:
        """Wrap every hook that exists; record the ones that do not, so a
        renamed engine function shows as missing instead of as zero time."""
        for name, module, path in SPAN_HOOKS:
            self._install(module, path, lambda fn, n=name: self._span(n, fn), name)
        for name, module, path in COUNT_HOOKS:
            self._install(module, path, lambda fn, n=name: self._count(n, fn), name)
        from cdgalab import dsl
        runners = getattr(dsl, "_TASK_RUNNERS", None)
        if runners is None:
            self.missing.append("dsl._TASK_RUNNERS")
            return
        for task, fn in list(runners.items()):
            runners[task] = self._span(f"dsl.task.{task}", fn)
            self.tasks.append(task)

    def _install(self, module: str, path: str, make_wrapper, name: str) -> None:
        try:
            owner, attr = _resolve(module, path)
        except (ImportError, AttributeError):
            self.missing.append(f"{name} ({module}.{path})")
            return
        _replace(owner, attr, make_wrapper)

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        after = self._after.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = rec[4] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
                rec[4] = clock()
            return result

        return wrapper

    def _count(self, name: str, fn):
        cell = self._calls.setdefault(f"{name}_calls", [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- counts taken after a call ---

    def _after_basis(self, args, result):
        self.counts["algebra.basis_words"] += args[0].total_dim()

    def _complex_index(self, cx) -> int:
        """Index of a complex in order of first use.  Weak keys, because the
        engine drops some complexes mid-run and their ids can be reused."""
        if cx not in self._complexes:
            self._complexes[cx] = self._next_complex
            self._next_complex += 1
        return self._complexes[cx]

    def _first_build(self, kind: str, cx, k: int) -> bool:
        """The engine caches d-matrices and eliminators per complex and
        degree; only the call that builds one is counted."""
        key = (kind, self._complex_index(cx), k)
        if key in self._built:
            return False
        self._built.add(key)
        return True

    def _after_d_matrix(self, args, m):
        if self._first_build("d_matrix", args[0], args[1]):
            self.counts["homology.d_cells"] += m.nrows * m.ncols
            self.counts["homology.d_nnz"] += sum(
                1 for e in m.entries if not e.is_zero())

    def _after_d_eliminator(self, args, el):
        cx, k = args[0], args[1]
        if self._first_build("d_eliminator", cx, k):
            self.ranks.append([self._complex_index(cx), k, el.rank])

    def _after_table(self, args, result):
        self.counts["homology.tables_built"] += 1

    def _after_eliminate(self, args, result):
        a = args[1]
        self.counts["linalg.eliminate_cells"] += a.nrows * (a.ncols + a.nrows)

    def _after_reduce(self, args, result):
        s = args[0]
        self.counts["linalg.reduce_cells"] += s.dim * s.ambient_dim

    def _after_kernel_rref(self, args, result):
        self.counts["kernel.cells"] += len(args[0]) * args[1]

    def _after_kernel_reduce(self, args, result):
        self.counts["kernel.cells"] += len(args[1]) * args[3]

    # --- results ---

    def layer_metrics(self) -> dict:
        """The per-layer metrics of ``metrics.PER_LAYER``, except
        ``trace.overhead_s``, which needs an untraced run as well."""
        n = len(self.spans)
        child = [0.0] * n
        in_run = [False] * n
        for i, (name, parent, t0, t1, t2) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += t2 - t0
                in_run[i] = in_run[parent] or self.spans[parent][0] == "dsl.run"
        self_s: Counter = Counter()
        calls: Counter = Counter()
        bookkeeping = covered = run_s = 0.0
        for i, (name, parent, t0, t1, t2) in enumerate(self.spans):
            own = (t1 - t0) - child[i]
            self_s[name] += own
            calls[name] += 1
            bookkeeping += t2 - t1
            if in_run[i]:
                covered += own
            if name == "dsl.run":
                run_s += t1 - t0
        c = self.counts
        for key, cell in self._calls.items():
            c[key] = cell[0]
        m = {
            "dsl.parse_s": self_s["dsl.parse"],
            "dsl.report_s": self_s["dsl.report"],
            "algebra.basis_words": c["algebra.basis_words"],
            "field.setup_s": self_s["field.setup"],
            "field.inverse_calls": c["field.inverse_calls"],
            "kernel.cv_mul_calls": c["kernel.cv_mul_calls"],
            "kernel.mul_per_cell": (c["kernel.cv_mul_calls"] / c["kernel.cells"]
                                    if c["kernel.cells"] else 0.0),
            "homology.d_cells": c["homology.d_cells"],
            "homology.d_nnz": c["homology.d_nnz"],
            "homology.d_density": (c["homology.d_nnz"] / c["homology.d_cells"]
                                   if c["homology.d_cells"] else 0.0),
            "homology.tables_built": c["homology.tables_built"],
            "homology.is_exact_calls": calls["homology.is_exact"],
            "linalg.eliminate_cells": c["linalg.eliminate_cells"],
            "linalg.reduce_cells": c["linalg.reduce_cells"],
            "action.complexes_built": calls["action.invariant_complex"],
        }
        for task in self.tasks:
            m[f"dsl.task_s.{task}"] = self_s[f"dsl.task.{task}"]
        for span in ("algebra.apply_d", "algebra.apply_map", "algebra.wedge",
                     "homology.class_coords", "linalg.eliminate", "linalg.subspace",
                     "linalg.reduce", "linalg.solve_left", "kernel.rref",
                     "kernel.reduce_against"):
            m[f"{span}_s"] = self_s[span]
            m[f"{span}_calls"] = calls[span]
        for span in ("homology.d_matrix", "homology.table", "linalg.quotient",
                     "action.validate", "action.projector", "action.crosscheck",
                     "formality.obstruction", "formality.massey",
                     "symplectic.lefschetz", "symplectic.is_symplectic",
                     "topology.betti"):
            m[f"{span}_s"] = self_s[span]
        m["trace.unattributed_s"] = self_s["dsl.run"]
        m["trace.bookkeeping_s"] = bookkeeping
        m["trace.coverage"] = covered / run_s if run_s else 0.0
        return m

    def write_spans(self, path: str) -> None:
        """One JSON line per span: id, name, parent id, start, end (seconds
        on the session's perf_counter clock), all tagged with the run id."""
        with open(path, "w") as f:
            f.write(json.dumps({"run_id": self.run_id, "spans": len(self.spans),
                                "missing_hooks": self.missing}) + "\n")
            for i, (name, parent, t0, t1, _) in enumerate(self.spans):
                f.write(json.dumps([i, name, parent, t0, t1]) + "\n")
