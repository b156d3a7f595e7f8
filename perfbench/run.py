"""The cdgalab benchmark: one workload, one closed loop, checked outputs.

    python3 perfbench/run.py --workload {paper,ladder,scan} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  One client runs one session after another,
each in a fresh interpreter (``child.py``), for S seconds and always at least
once (see ``closed_loop``).  With ``--trace 0`` it first times several set-ups
alone, and prints the end-to-end metrics, each session's times scaled to a
host of fixed speed by the reference computation the session times along
with them (``reference.py``).  With ``--trace 1`` the first half
of the time runs untraced sessions and the second half traced ones, and it
prints the per-layer metrics (medians over the traced sessions) plus the
tracing overhead.

Every session's report is checked (see ``checks.py``) and must equal the first
session's report byte for byte, so a traced report is compared with an
untraced one.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
metadata.  A full record, with per-session values, exact counts and per-degree
ranks, goes to ``perfbench/out/``, and traced sessions write their spans
there.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import checks
import metrics
import reference
import workloads
from workloads import GOLDEN, HERE, LADDER, PAPER, ROOT

OUT = HERE / "out"
SRC = ROOT / "src"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170


class SessionError(RuntimeError):
    pass


def run_child(session_path, *extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "child.py"), str(session_path), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise SessionError(f"session exceeded {CHILD_TIMEOUT_S} s") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SessionError(f"session exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def closed_loop(deadline: float, session) -> list[dict]:
    """Run ``session(0)``, ``session(1)``, ... one after another.  Start another
    only while it would likely end less than half a session past the deadline,
    so that a run of long sessions does not overrun by a whole one."""
    done: list[dict] = []
    last_s = 0.0
    while not done or time.perf_counter() + last_s / 2 < deadline:
        t0 = time.perf_counter()
        done.append(session(len(done)))
        last_s = time.perf_counter() - t0
    return done


def session_file(workload: str, seed: int):
    if workload == "paper":
        return PAPER
    if workload == "ladder":
        return LADDER
    path = OUT / f"scan-seed{seed}.cdga"
    path.write_text(workloads.scan_session(seed), encoding="utf-8")
    return path


def check_report(workload: str, report: str, session: str, golden: bytes,
                 tally: checks.Tally) -> None:
    if workload == "paper":
        checks.check_paper(report, golden, tally)
    elif workload == "ladder":
        checks.check_ladder(report, golden, tally)
    else:
        checks.check_scan(report, session, tally)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, by ``statistics.quantiles`` (inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def source_stats() -> tuple[int, str]:
    """Lines of hand-written engine source (``*.py``, ``*.pyx`` under
    ``src/cdgalab``; the generated ``_kernel.c`` is excluded) and a sha256
    over those files, which identifies the code where no git commit is
    available."""
    lines = 0
    digest = hashlib.sha256()
    files = sorted(p for pat in ("*.py", "*.pyx") for p in (SRC / "cdgalab").rglob(pat))
    for p in files:
        data = p.read_bytes()
        lines += data.count(b"\n")
        digest.update(str(p.relative_to(SRC)).encode() + b"\0" + data)
    return lines, digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def end_to_end(workload: str, setups: list[dict], sessions: list[dict]) -> tuple[dict, dict, int]:
    """The end-to-end metrics with every time scaled by its own session's
    reference, the same unscaled, and the number of query samples."""
    query = workloads.QUERY_TASKS[workload]

    def metrics_of(scale, setup_scale):
        samples = [1000 * t * scale(s) for s in sessions for name, t in s["tasks"]
                   if name in query]
        return {
            "setup_s": statistics.median(s["setup_s"] * setup_scale(s)
                                         for s in setups + sessions),
            "run_s": statistics.median(s["run_s"] * scale(s) for s in sessions),
            "run_cpu_s": statistics.median(s["run_cpu_s"] * scale(s) for s in sessions),
            "query_p50_ms": statistics.median(samples),
            "query_p90_ms": percentile(samples, 90),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
        }, len(samples)

    values, n = metrics_of(lambda s: reference.REFERENCE_S / s["reference_cpu_s"],
                           lambda s: reference.REFERENCE_S / s["setup_reference_cpu_s"])
    raw, _ = metrics_of(lambda s: 1.0, lambda s: 1.0)
    return values, raw, n


def per_layer(sessions: list[dict], traced: list[dict]) -> dict:
    values = {name: statistics.median(t["layers"][name] for t in traced)
              for name in traced[0]["layers"]}
    values["trace.overhead_s"] = (statistics.median(t["run_s"] for t in traced)
                                  - statistics.median(s["run_s"] for s in sessions))
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = (SRC / "cdgalab" / "__init__.py", PAPER, GOLDEN)
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"not a cdgalab checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    path = session_file(args.workload, args.seed)
    session = path.read_text(encoding="utf-8")
    golden = GOLDEN.read_bytes()

    start = time.perf_counter()
    setups: list[dict] = []
    traced: list[dict] = []
    try:
        if args.trace:
            sessions = closed_loop(start + args.seconds / 2, lambda i: run_child(path))
            traced = closed_loop(start + args.seconds, lambda i: run_child(
                path, "--trace", f"{tag}-traced{i}", str(OUT / f"{tag}-spans{i}.jsonl")))
        else:
            setups = [run_child(path, "--setup-only") for _ in range(SETUP_PROBES)]
            sessions = closed_loop(start + args.seconds, lambda i: run_child(path))
    except SessionError as e:
        print(f"{tag}: {e}", file=sys.stderr)
        return 1
    wall_s = time.perf_counter() - start

    tally = checks.Tally()
    first = sessions[0]["report"]
    for i, s in enumerate(sessions + traced):
        check_report(args.workload, s["report"], session, golden, tally)
        kind = "traced" if i >= len(sessions) else "untraced"
        tally.check(s["report"] == first,
                    f"{kind} session {i} report differs from session 0")

    if args.trace:
        values = per_layer(sessions, traced)
        specs = metrics.PER_LAYER
        raw = query_samples = None
    else:
        values, raw, query_samples = end_to_end(args.workload, setups, sessions)
        specs = metrics.END_TO_END
    src_lines, src_sha = source_stats()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": src_sha,
        "src_lines": src_lines,
        "python": platform.python_version(),
        "backend": sessions[0]["backend"],
        "nproc": os.cpu_count(),
        "session_sha256": hashlib.sha256(session.encode("utf-8")).hexdigest(),
        "sessions": len(sessions),
        "traced_sessions": len(traced),
        "setup_probes": len(setups),
        "query_samples": query_samples,
        "reference_cpu_median_s": statistics.median(s["reference_cpu_s"] for s in sessions),
        "wall_s": wall_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ratio": tally.failed / tally.attempted,
        "missing_hooks": traced[0]["missing_hooks"] if traced else None,
    }
    record = {
        "meta": meta,
        "metrics": values,
        "unscaled_metrics": raw,
        "exact_counts": {m.name: values[m.name] for m in specs if m.exact},
        "ranks": traced[0]["ranks"] if traced else None,
        "failures": tally.failures,
        "setup_probes": setups,
        "sessions": [{k: v for k, v in s.items() if k != "report"}
                     for s in sessions + traced],
    }
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for msg in tally.failures:
        print(f"FAILED {msg}", file=sys.stderr)
    for m in specs:
        unscaled = f" (unscaled {raw[m.name]:.6g})" if raw else ""
        print(f"{m.name} = {values[m.name]:.6g} {m.unit}{unscaled}")
    print(f"failed_ratio = {meta['failed_ratio']:.6g} ({tally.failed}/{tally.attempted})")
    print("meta = " + json.dumps(meta))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in specs},
    }))
    return 0 if not tally.failures else 1


if __name__ == "__main__":
    sys.exit(main())
