"""Correctness checks on session reports.

Every check adds one to ``attempted``; a failed one also adds its message to
``failures``.  ``failed_ratio`` is ``len(failures) / attempted``.
"""

from __future__ import annotations

from workloads import GALOIS_EXPONENT, golden_betti, kuenneth_torus2


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    @property
    def failed(self) -> int:
        return len(self.failures)


def records(report: str) -> list[tuple[str, str]]:
    return [tuple(line.split(" = ", 1)) for line in report.splitlines()
            if " = " in line]


def check_paper(report: str, golden: bytes, tally: Tally) -> None:
    """The machine report is byte-identical to the golden."""
    tally.check(report.encode("utf-8") == golden,
                "paper: report differs from tests/golden/paper.report")


def check_ladder(report: str, golden: bytes, tally: Tally) -> None:
    """The Betti vector is the golden paper vector times (1 + t)^2."""
    expected = kuenneth_torus2(golden_betti(golden.decode("utf-8")))
    try:
        got = golden_betti(report)
    except ValueError as e:
        got = str(e)
    tally.check(got == expected,
                f"ladder: betti {got} != Kuenneth reference {expected}")


def check_scan(report: str, session: str, tally: Tally) -> None:
    """No task failed; every lefschetz rank plus kernel dimension is the
    source Betti number; each form and its conjugate under z -> z^5 give the
    same rank (the session lists each form's lefschetz task right before its
    conjugate's)."""
    tasks = [line.split()[1] for line in session.splitlines()
             if line.startswith("task ")]
    recs = records(report)
    tally.attempted += len(tasks)
    tally.failures += [f"scan: task failed: {k} = {v}" for k, v in recs
                       if k.endswith("_error")]
    try:
        betti = golden_betti(report)
    except ValueError as e:
        tally.check(False, f"scan: {e}")
        return
    n = (len(betti) - 1) // 2
    lef = []
    for key, value in recs:
        if key.startswith("lefschetz_rank["):
            lef.append([int(key[len("lefschetz_rank["):-1]), int(value), None])
        elif key.startswith("lefschetz_kernel_dim["):
            lef[-1][2] = int(value)
    want = tasks.count("lefschetz")
    tally.check(len(lef) == want, f"scan: {len(lef)} lefschetz results, expected {want}")
    for k, rank, kdim in lef:
        tally.check(kdim is not None and rank + kdim == betti[n - k],
                    f"scan: lefschetz k={k}: rank {rank} + kernel {kdim} "
                    f"!= betti[{n - k}] = {betti[n - k]}")
    for j in range(0, len(lef) - 1, 2):
        tally.check(lef[j][1] == lef[j + 1][1],
                    f"scan: form {j // 2} has lefschetz rank {lef[j][1]} but its "
                    f"z -> z^{GALOIS_EXPONENT} conjugate has {lef[j + 1][1]}")
