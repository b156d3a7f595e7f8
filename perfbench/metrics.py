"""Every metric the benchmark reports, with its unit, its direction, and the
end-to-end metric and workload it is expected to move.  A per-layer metric's
name starts with its layer: the ``cdgalab`` module it measures (``kernel`` is
the live arithmetic lane), or ``trace`` for the tracer itself.

``BENCHMARK.json`` repeats name, unit, direction and (end to end) bound; a
test keeps the two in step.  ``exact`` marks a count that repeats exactly
between two runs of one commit, so that a later change may cite it as a count.
Layer counts cover the whole traced session: parse, run and report.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str
    exact: bool = False
    bound: Optional[float] = None


# Every end-to-end time is scaled to a host of fixed speed by the CPU time of
# the reference units its session timed (see reference.py), after the units'
# own time is taken out of it.  The unscaled values are in the record.
END_TO_END = (
    Metric("setup_s", "s", "lower",
           "fresh interpreter: import cdgalab, read the session, dsl.parse "
           "(field, basis enumeration, d-squared check); median of the run's "
           "set-ups, each scaled by the units timed right after it", bound=0.25),
    Metric("run_s", "s", "lower",
           "wall time of dsl.run, untraced; median over the run's sessions, "
           "scaled", bound=0.24),
    Metric("run_cpu_s", "s", "lower",
           "process CPU time over dsl.run, scaled; exposes CPU traded for "
           "wall time", bound=0.24),
    Metric("query_p50_ms", "ms", "lower",
           "median latency of a query task, pooled over the run's sessions, "
           "scaled; the query tasks of each workload are workloads.QUERY_TASKS",
           bound=0.24),
    Metric("query_p90_ms", "ms", "lower",
           "90th percentile of the same samples, scaled", bound=0.24),
    Metric("peak_rss_mb", "MB", "lower",
           "peak resident memory of a session process; median over sessions",
           bound=0.1),
)

LADDER_RUN = "run_s and peak_rss_mb on ladder"
PAPER_RUN = "run_s on paper"
SCAN_QUERY = "query_p50_ms on scan"

PER_LAYER = (
    Metric("dsl.parse_s", "s", "lower", "setup_s on all; largest on scan"),
    *(Metric(f"dsl.task_s.{t}", "s", "lower", PAPER_RUN)
      for t in ("betti", "invariant_betti", "symplectic", "obstruction", "massey",
                "lefschetz", "mv_union", "resolution", "verify_exact")),
    Metric("dsl.report_s", "s", "lower", "guard: report writing"),
    Metric("algebra.basis_words", "count", "lower",
           "setup_s; peak_rss_mb on ladder", exact=True),
    Metric("algebra.apply_d_s", "s", "lower", "run_s on ladder"),
    Metric("algebra.apply_d_calls", "count", "lower", "run_s on ladder",
           exact=True),
    Metric("algebra.apply_map_s", "s", "lower", PAPER_RUN),
    Metric("algebra.apply_map_calls", "count", "lower",
           "run_s on paper; 0 elsewhere", exact=True),
    Metric("algebra.wedge_s", "s", "lower", SCAN_QUERY),
    Metric("algebra.wedge_calls", "count", "lower", SCAN_QUERY, exact=True),
    Metric("homology.d_matrix_s", "s", "lower", LADDER_RUN),
    Metric("homology.d_cells", "count", "lower", LADDER_RUN, exact=True),
    Metric("homology.d_nnz", "count", "lower", LADDER_RUN, exact=True),
    Metric("homology.d_density", "ratio", "higher",
           "nnz per dense cell, the useful fraction; " + LADDER_RUN, exact=True),
    Metric("homology.table_s", "s", "lower", PAPER_RUN),
    Metric("homology.tables_built", "count", "lower", PAPER_RUN, exact=True),
    Metric("homology.class_coords_s", "s", "lower",
           "query_p50_ms and query_p90_ms on scan"),
    Metric("homology.class_coords_calls", "count", "lower",
           "query_p50_ms and query_p90_ms on scan", exact=True),
    Metric("homology.is_exact_calls", "count", "lower",
           "query_p50_ms and query_p90_ms on scan", exact=True),
    Metric("linalg.eliminate_s", "s", "lower", LADDER_RUN),
    Metric("linalg.eliminate_calls", "count", "lower", LADDER_RUN, exact=True),
    Metric("linalg.eliminate_cells", "count", "lower",
           "cells of the augmented [A | I]; " + LADDER_RUN, exact=True),
    Metric("linalg.subspace_s", "s", "lower", "run_s on ladder"),
    Metric("linalg.subspace_calls", "count", "lower", "run_s on ladder",
           exact=True),
    Metric("linalg.quotient_s", "s", "lower", "run_s on ladder"),
    Metric("linalg.reduce_s", "s", "lower",
           "run_s on ladder; on paper through the invariant to_coords"),
    Metric("linalg.reduce_calls", "count", "lower",
           "run_s on ladder and paper", exact=True),
    Metric("linalg.reduce_cells", "count", "lower",
           "basis rows x ambient dim per reduce; run_s on ladder and paper",
           exact=True),
    Metric("linalg.solve_left_s", "s", "lower", SCAN_QUERY),
    Metric("linalg.solve_left_calls", "count", "lower", SCAN_QUERY,
           exact=True),
    Metric("kernel.rref_s", "s", "lower", "run_s on ladder"),
    Metric("kernel.rref_calls", "count", "lower", "run_s on ladder",
           exact=True),
    Metric("kernel.reduce_against_s", "s", "lower", "run_s on ladder"),
    Metric("kernel.reduce_against_calls", "count", "lower",
           "run_s on ladder", exact=True),
    Metric("kernel.cv_mul_calls", "count", "lower",
           "every field product of the session; run_s on ladder", exact=True),
    Metric("kernel.mul_per_cell", "ratio", "higher",
           "cv_mul calls per dense cell handed to rref or reduce_against; "
           "run_s on ladder", exact=True),
    Metric("field.setup_s", "s", "lower", "setup_s"),
    Metric("field.inverse_calls", "count", "lower",
           "run_s on ladder and scan", exact=True),
    Metric("action.validate_s", "s", "lower", PAPER_RUN + "; 0 elsewhere"),
    Metric("action.projector_s", "s", "lower", PAPER_RUN + "; 0 elsewhere"),
    Metric("action.crosscheck_s", "s", "lower", PAPER_RUN + "; 0 elsewhere"),
    Metric("action.complexes_built", "count", "lower",
           PAPER_RUN + "; 0 elsewhere", exact=True),
    Metric("formality.obstruction_s", "s", "lower", PAPER_RUN),
    Metric("formality.massey_s", "s", "lower", PAPER_RUN),
    Metric("symplectic.lefschetz_s", "s", "lower",
           "query_p50_ms on scan; run_s on paper"),
    Metric("symplectic.is_symplectic_s", "s", "lower",
           "query_p50_ms on scan; run_s on paper"),
    Metric("topology.betti_s", "s", "lower", "guard on paper"),
    Metric("trace.overhead_s", "s", "lower",
           "median traced run_s minus median untraced run_s of the same run"),
    Metric("trace.unattributed_s", "s", "lower",
           "run_s not inside any layer span (self time of dsl.run)"),
    Metric("trace.bookkeeping_s", "s", "lower",
           "time the tracer spends counting after calls, charged to no layer"),
    Metric("trace.coverage", "ratio", "higher",
           "sum of layer self times inside dsl.run over traced run_s"),
)
