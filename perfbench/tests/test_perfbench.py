"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import metrics  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from cdgalab import dsl  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_scan_generator_is_deterministic_per_seed_and_parses():
    text = workloads.scan_session(7)
    assert text == workloads.scan_session(7)
    assert text != workloads.scan_session(8)
    session = dsl.parse(text)
    names = [t.name for t in session.tasks]
    assert names[0] == "betti"
    assert names.count("lefschetz") == 2 * workloads.SCAN_BASE_FORMS
    assert names.count("symplectic") == 2 * workloads.SCAN_BASE_FORMS


def test_scan_conjugate_is_the_galois_image_of_the_form():
    text = workloads.scan_session(3)
    session = dsl.parse(text)
    for i in range(workloads.SCAN_BASE_FORMS):
        form, conj = session.lets[f"w{i}"], session.lets[f"w{i}c"]
        assert not form.is_zero()
        assert conj.terms == {w: c.galois(workloads.GALOIS_EXPONENT)
                              for w, c in form.terms.items()}
        assert any(not c.is_rational() for c in form.terms.values())


def test_kuenneth_reference_reproduces_the_ladder_vector():
    betti = workloads.golden_betti(workloads.GOLDEN.read_text())
    assert workloads.kuenneth_torus2(betti) == [1, 8, 30, 70, 113, 132, 113, 70, 30, 8, 1]


def test_one_changed_byte_in_the_paper_report_fails_the_check():
    golden = workloads.GOLDEN.read_bytes()
    good = checks.Tally()
    checks.check_paper(golden.decode(), golden, good)
    assert (good.attempted, good.failed) == (1, 0)
    text = golden.decode()
    i = text.index("obstruction_scalar = 2") + len("obstruction_scalar = ")
    bad = checks.Tally()
    checks.check_paper(text[:i] + "3" + text[i + 1:], golden, bad)
    assert (bad.attempted, bad.failed) == (1, 1)


def test_scan_check_catches_a_conjugate_with_another_rank():
    text = workloads.scan_session(1)
    report = dsl.run(dsl.parse(text)).machine_text()
    good = checks.Tally()
    checks.check_scan(report, text, good)
    assert good.failed == 0
    n = workloads.SCAN_BASE_FORMS
    assert good.attempted == (4 * n + 1) + 1 + 2 * n + n
    key = "lefschetz_rank["
    i = report.index(key)
    j = report.index("\n", i)
    k, rank = report[i + len(key):j].split("] = ")
    bad_line = f"{key}{k}] = {int(rank) + 1}"
    bad = checks.Tally()
    checks.check_scan(report[:i] + bad_line + report[j:], text, bad)
    assert bad.failed == 2  # its rank + kernel sum, and the pair's ranks


def test_traced_report_is_byte_identical_and_exact_counts_repeat(tmp_path):
    plain = run.run_child(workloads.PAPER)
    traced = [run.run_child(workloads.PAPER, "--trace", f"t{i}", str(tmp_path / f"s{i}"))
              for i in range(2)]
    golden = workloads.GOLDEN.read_text()
    assert plain["report"] == golden
    assert plain["reference_units"] >= 1
    for t in traced:
        assert t["report"] == golden
        assert t["missing_hooks"] == []
        names = {m.name for m in metrics.PER_LAYER} - {"trace.overhead_s"}
        assert set(t["layers"]) == names
        assert t["layers"]["trace.coverage"] >= 0.9
    exact = [m.name for m in metrics.PER_LAYER if m.exact]
    assert [traced[0]["layers"][n] for n in exact] == [traced[1]["layers"][n] for n in exact]
    assert traced[0]["ranks"] == traced[1]["ranks"]
    header = json.loads((tmp_path / "s0").read_text().splitlines()[0])
    assert header["run_id"] == "t0"


def test_a_span_that_raises_is_closed_inside_its_parent():
    t = Tracer("x")

    def fail():
        raise ValueError("no")

    inner = t._span("inner", fail)

    def body():
        try:
            inner()
        except ValueError:
            pass

    t._span("dsl.run", body)()
    (_, _, r0, r1, _), (_, parent, t0, t1, t2) = t.spans
    assert parent == 0 and r0 <= t0 <= t1 <= t2 <= r1
    m = t.layer_metrics()
    assert 0 <= m["trace.unattributed_s"] <= r1 - r0
    assert 0 < m["trace.coverage"] <= 1


def test_reference_unit_is_exact():
    assert reference.unit() == reference.SIZE
    one = [1, 0, 0, 0, 1]
    for a in ([3, 1, 0, -2, 5], [0, 0, 0, 1, 1], [-7, 2, 2, 0, 3]):
        assert reference._mul(a, reference._inverse(a)) == one


def test_sampler_adds_up_the_time_of_its_units():
    sampler = reference.Sampler()
    sampler.sample()
    sampler.sample()
    assert sampler.result()["reference_units"] == 2
    assert sampler.cpu_s == sum(sampler.cpu) > 0 and sampler.wall_s > 0


def test_each_session_is_scaled_by_its_own_reference():
    ref = reference.REFERENCE_S

    def session(speed):  # a host running `speed` times slower than the reference's
        return {"setup_s": 0.1 * speed, "run_s": speed, "run_cpu_s": speed,
                "peak_rss_mb": 30.0, "tasks": [("lefschetz", 0.01 * speed)],
                "reference_cpu_s": ref * speed, "setup_reference_cpu_s": ref * speed}

    sessions = [session(1.0), session(1.5), session(2.0)]
    values, raw, n = run.end_to_end("scan", [session(3.0)], sessions)
    assert n == 3
    assert values["run_s"] == values["run_cpu_s"] == 1.0
    assert abs(values["setup_s"] - 0.1) < 1e-12
    assert abs(values["query_p90_ms"] - 10.0) < 1e-9
    assert raw["run_s"] == 1.5 and raw["peak_rss_mb"] == values["peak_rss_mb"]


def test_benchmark_json_matches_the_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
