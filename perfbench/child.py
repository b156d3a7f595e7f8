"""Run one session in this fresh interpreter and print one JSON object.

    python3 perfbench/child.py SESSION [--setup-only] [--trace RUN_ID SPANS_PATH]

The engine is imported from ``src`` of the checkout (the caller sets
``PYTHONPATH``).  Set-up is timed from before ``import cdgalab`` to the end of
``dsl.parse``; the run is ``dsl.run``; each task is timed through the
session's task table.  With ``--trace`` the tracer is installed right after the
import, so parsing, the run and the report are traced, and the spans are
written to SPANS_PATH.

The child times units of the reference computation
(``reference.py``) so that the caller can scale this session's times by the
host's speed at the moment they were taken: ``SETUP_UNITS`` of them right
after the set-up, and then, untraced, one on every tick of a timer during the
run.  The units' own time is taken out of the run's and the tasks' times.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402  (imported after the clock starts on purpose)

SETUP_UNITS = 4


def main(argv: list[str]) -> dict:
    path = argv[0]
    trace = argv[argv.index("--trace") + 1:][:2] if "--trace" in argv else None

    import cdgalab
    from cdgalab import dsl

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(trace[0])
        tracer.install()
    with open(path, encoding="utf-8") as f:
        text = f.read()
    session = dsl.parse(text)
    setup_s = time.perf_counter() - T0
    import reference

    after_setup = reference.Sampler()
    for _ in range(SETUP_UNITS):
        after_setup.sample()
    setup_reference_cpu_s = after_setup.result()["reference_cpu_s"]
    if "--setup-only" in argv:
        return {"setup_s": setup_s, "setup_reference_cpu_s": setup_reference_cpu_s}

    task_times = []
    runners = getattr(dsl, "_TASK_RUNNERS", None)
    if runners is None:
        raise SystemExit("cdgalab.dsl has no _TASK_RUNNERS table to time tasks by")

    import resource

    sampler = reference.Sampler()
    for name, fn in list(runners.items()):
        runners[name] = _timed(name, fn, task_times, sampler)
    if tracer is None:
        sampler.start()
    c0 = time.process_time()
    r0 = time.perf_counter()
    report = dsl.run(session)
    sampler.stop()
    run_s = time.perf_counter() - r0 - sampler.wall_s
    run_cpu_s = time.process_time() - c0 - sampler.cpu_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    machine = report.machine_text()
    out = {
        "setup_s": setup_s,
        "setup_reference_cpu_s": setup_reference_cpu_s,
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "tasks": task_times,
        "report": machine,
        "backend": cdgalab.backend_name(),
    }
    if tracer is None:
        out.update(sampler.result())
    else:
        out["layers"] = tracer.layer_metrics()
        out["ranks"] = tracer.ranks
        out["missing_hooks"] = tracer.missing
        tracer.write_spans(trace[1])
    return out


def _timed(name, fn, sink, sampler):
    clock = time.perf_counter

    def runner(*args):
        t0 = clock()
        s0 = sampler.wall_s
        try:
            return fn(*args)
        finally:
            sink.append((name, clock() - t0 - (sampler.wall_s - s0)))

    return runner


if __name__ == "__main__":
    import json

    result = main(sys.argv[1:])
    sys.stdout.write(json.dumps(result) + "\n")
