"""Session texts of the three workloads and the references their checks use.

``paper`` is the bundled session, checked against its golden report.
``ladder`` is a fixed session (``sessions/ladder.cdga``) whose Betti vector
is checked against a Kuenneth product computed here from the golden report.
``scan`` is generated from a seed: the paper's algebra, one ``betti`` task,
then candidate symplectic forms and their Galois conjugates, each checked with
``symplectic`` and ``lefschetz`` tasks.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PAPER = ROOT / "paper.cdga"
GOLDEN = ROOT / "tests" / "golden" / "paper.report"
LADDER = HERE / "sessions" / "ladder.cdga"

WORKLOADS = ("paper", "ladder", "scan")

# Tasks whose latencies make up query_p50_ms and query_p90_ms: questions put
# to a cohomology table (class coordinates, exactness solves), which is what a
# scan user waits on.  Ladder asks none; its one betti task stands in, so there
# the query metrics repeat run_s.  Pooling every task instead would put a
# percentile on the boundary between task kinds whose latencies differ tenfold.
QUERY_TASKS = {"paper": ("obstruction", "massey", "lefschetz"), "ladder": ("betti",),
               "scan": ("lefschetz",)}

# Number of seeded base forms in a scan session.  Each base form is emitted
# together with its conjugate under z -> z^5, so a session holds twice as many
# candidate forms and lefschetz queries.
SCAN_BASE_FORMS = 60
# Base forms asked for hard Lefschetz at k = 1 (H^3 -> H^5, about 20 ms); the
# rest ask k = 2 (H^2 -> H^6, about 5 ms).  The split is fixed so that every
# seed has the same mix.  Five sixths puts the median at the 40th percentile of
# the k = 1 latencies and the 90th percentile at their 88th, both inside their
# bulk: at two thirds the median sat at their 25th percentile, near the few
# cheap k = 1 forms whose number varies from seed to seed, and it spread twice
# as far between seeds as the 90th percentile did.
SCAN_K1_FORMS = 50
# Words per form.  Query latency grows with the number of words (about 15 ms
# at 3 and 23 ms at 6 for k = 1), so a fixed count keeps seeds comparable.
SCAN_WORDS = 4
GALOIS_EXPONENT = 5
CONDUCTOR = 12

SCAN_HEADER = """\
# Lefschetz-form scan over the paper's algebra (generated; seed {seed}).
field cyclotomic 12

algebra M generators mu:1 nu:1 theta:1 eta:1 mubar:1 nubar:1 thetabar:1 etabar:1
conjugation mu mubar nu nubar theta thetabar eta etabar
d theta = mu*nu
d thetabar = mubar*nubar

let vol = theta*mu*nu*eta*thetabar*mubar*nubar*etabar

task betti M
"""

# Closed 2-words: any product of two of the six closed 1-forms, plus the four
# products whose differential vanishes because it repeats a generator
# (d(mu*theta) = -mu*mu*nu = 0, and so on).
_CLOSED_1 = ("mu", "nu", "eta", "mubar", "nubar", "etabar")
CLOSED_2_WORDS = tuple(
    f"{a}*{b}" for i, a in enumerate(_CLOSED_1) for b in _CLOSED_1[i + 1:]
) + ("mu*theta", "nu*theta", "mubar*thetabar", "nubar*thetabar")


def _scalar(rational: Fraction, c: int, e: int) -> str:
    """``{rational + c*z^e}`` in session syntax."""
    term = f"z^{e}" if abs(c) == 1 else f"{abs(c)}*z^{e}"
    if not rational:
        return "{%s%s}" % ("-" if c < 0 else "", term)
    return "{%s %s %s}" % (rational, "-" if c < 0 else "+", term)


def _form(coeffs) -> str:
    return " + ".join(f"{_scalar(*c)}*{w}" for w, c in coeffs)


def scan_forms(seed: int) -> list[tuple[list, int]]:
    """The seeded base forms: ``[(coefficients, k), ...]`` where the
    coefficients are ``(word, (rational, c, e))`` meaning
    ``(rational + c*z^e) * word`` with ``c != 0`` and ``z^e`` not rational."""
    rng = random.Random(seed)
    exponents = [e for e in range(1, CONDUCTOR) if e != CONDUCTOR // 2]
    ks = [1] * SCAN_K1_FORMS + [2] * (SCAN_BASE_FORMS - SCAN_K1_FORMS)
    rng.shuffle(ks)
    forms = []
    for k in ks:
        words = rng.sample(CLOSED_2_WORDS, SCAN_WORDS)
        coeffs = []
        for w in words:
            rational = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            coeffs.append((w, (rational, c, rng.choice(exponents))))
        forms.append((coeffs, k))
    return forms


def galois_conjugate(coeffs, k: int = GALOIS_EXPONENT) -> list:
    """Apply z -> z^k to every coefficient."""
    return [(w, (r, c, (e * k) % CONDUCTOR)) for w, (r, c, e) in coeffs]


def scan_session(seed: int) -> str:
    """A scan session: per base form ``w<i>`` and its conjugate ``w<i>c``,
    one ``symplectic`` task each and one ``lefschetz`` task each with the
    base form's power k.  The lefschetz records of ``w<i>`` and ``w<i>c``
    therefore come out as consecutive pairs in the report."""
    lines = [SCAN_HEADER.format(seed=seed)]
    for i, (coeffs, k) in enumerate(scan_forms(seed)):
        for name, cs in ((f"w{i}", coeffs), (f"w{i}c", galois_conjugate(coeffs))):
            lines.append(f"let {name} = {_form(cs)}\n")
            lines.append(f"task symplectic M {name} 4 vol\n")
            lines.append(f"task lefschetz M full {name} {k}\n")
    return "".join(lines)


def golden_betti(report: str) -> list[int]:
    """The ``betti[k]`` records of a report, in order."""
    out = []
    for line in report.splitlines():
        key, _, value = line.partition(" = ")
        if key.startswith("betti[") and key.endswith("]"):
            if int(key[6:-1]) != len(out):
                raise ValueError(f"betti records out of order at {key}")
            out.append(int(value))
    if not out:
        raise ValueError("report has no betti records")
    return out


def kuenneth_torus2(betti: list[int]) -> list[int]:
    """Betti vector of X x T^2 from that of X: the product with (1 + t)^2."""
    torus = (1, 2, 1)
    out = [0] * (len(betti) + len(torus) - 1)
    for i, b in enumerate(betti):
        for j, t in enumerate(torus):
            out[i + j] += b * t
    return out
