"""Stress ceilings: verdicts and work counts of small members of the
input families that blow up.

Each input is a few lines of the extension language, run once,
in-process, through ``icckit.cli.run``, while spies count the work that
grows with the family's size parameter.  A pair of sizes per family pins
the growth ratio.  The counts do not depend on timing, so a change that
makes a family blow up faster fails here even on a noisy machine, and a
change that tames it shows as a lower count.  A change that lowers a
count tightens its ceiling in the same change; one that must raise a
ceiling, or that flips a verdict, says why in CHANGES.md.

The families:

- growth: ``t -> (a -> b, b -> c, c -> d W^n, d -> a^-1)`` on F_4 under
  Z, with W a commutator product written out n times; true verdict icc.
- blocks: Z^k acting on Z^2k, generator i by ``[[2,1],[1,1]]`` on block
  i; true verdict icc.
- dihedral: ``free(s, t)`` on Z^2m, s = ``[[0, A], [A^-1, 0]]`` and
  t = ``[[0, I], [I, 0]]``, A a companion matrix of mod-3 period 3^m - 1.
- S_7 permuting the basis of Z^7 or the letters of F_7.
- the IA pair ``c -> c [a, b]``, ``c -> [a, b] c`` on F_3 under Z^2;
  true verdict icc.
- ``b -> b a^1000000`` on F_2 under Z; true verdict icc.
"""

import contextlib
import io
import json
import random

import pytest

from icckit import analyzer, extension
from icckit.cli import run
from icckit.intlinalg import IntMatrix
from icckit.matgroup import _mod3_period
from icckit.words import FreeAut
from tests.helpers import block_diag, count_applier_calls, count_calls

H = IntMatrix.from_rows([[2, 1], [1, 1]])
S7 = "finite perm((1 2); (1 2 3 4 5 6 7))"
LETTERS = "abcdefg"


def growth(n):
    w = " ".join(["b c b^-1 c^-1 a b a^-1 b^-1"] * n)
    return ["kernel: free(a, b, c, d)", "quotient: Z",
            f"action t -> (a -> b, b -> c, c -> d {w}, d -> a^-1)"]


def blocks(k):
    i2 = IntMatrix.identity(2)
    return [f"kernel: Z^{2 * k}", f"quotient: Z^{k}"] + [
        f"action t{i} -> {block_diag(*(H if j == i else i2 for j in range(k)))}"
        for i in range(k)]


def dihedral(m):
    """A is the first seeded unimodular companion matrix with entries in
    {-1, 0, 1} whose mod-3 period is 3^m - 1, the most an m x m matrix
    over Z/3 can have."""
    rng = random.Random(f"dihedral:{m}")
    while True:
        coeffs = [rng.choice((1, -1))] + [rng.choice((-1, 0, 1)) for _ in range(m - 1)]
        a = IntMatrix.from_rows([[int(i == j + 1) for j in range(m - 1)] + [-coeffs[i]] for i in range(m)])
        if _mod3_period(a, 3 ** m) == 3 ** m - 1:
            break
    zero, eye = IntMatrix.from_rows([[0] * m] * m), IntMatrix.identity(m)

    def square(nw, ne, sw, se):
        return IntMatrix.from_rows([list(x) + list(y) for x, y in zip(nw.rows, ne.rows)]
                                   + [list(x) + list(y) for x, y in zip(sw.rows, se.rows)])

    s, t = square(zero, a, a.inverse_unimodular(), zero), square(zero, eye, eye, zero)
    return [f"kernel: Z^{2 * m}", "quotient: free(s, t)",
            f"action s -> {s}", f"action t -> {t}"]


def s7_on_lattice():
    def perm(p):
        return IntMatrix.from_rows([[int(p[j] == i) for j in range(7)] for i in range(7)])

    swap, cycle = perm((1, 0, 2, 3, 4, 5, 6)), perm((1, 2, 3, 4, 5, 6, 0))
    return ["kernel: Z^7", f"quotient: {S7}",
            f"action s -> {swap}", f"action c -> {cycle}"]


def s7_on_free():
    def images(p):
        return "(" + ", ".join(f"{x} -> {LETTERS[p[i]]}" for i, x in enumerate(LETTERS)) + ")"

    return [f"kernel: free({', '.join(LETTERS)})", f"quotient: {S7}",
            f"action s -> {images((1, 0, 2, 3, 4, 5, 6))}", f"action c -> {images((1, 2, 3, 4, 5, 6, 0))}"]


IA_PAIR = ["kernel: free(a, b, c)", "quotient: Z^2",
           "action u -> (a -> a, b -> b, c -> c a b a^-1 b^-1)",
           "action v -> (a -> a, b -> b, c -> a b a^-1 b^-1 c)"]
LONG_POWER = ["kernel: free(a, b)", "quotient: Z", "action t -> (a -> a, b -> b a^1000000)"]

# case -> (input lines, verdict, ceiling per counter).  The counters:
# letters in the images that ``FreeAut.compose`` returns, calls of the
# row appliers that ``matgroup`` compiles, vectors that
# ``analyzer._box_walk`` yields, and calls of ``IntMatrix.@``,
# ``FreeAut.compose`` and ``is_inner`` (where ``Theta.trivial`` looks it
# up).
CASES = {
    "growth-1": (growth(1), "unknown", {"letters": 78_036, "@": 3, "compose": 7, "is_inner": 1}),
    "growth-2": (growth(2), "unknown", {"letters": 2_374_134, "@": 3, "compose": 7, "is_inner": 1}),
    "blocks-4": (blocks(4), "unknown", {"box_walk": 624, "@": 208}),
    "blocks-5": (blocks(5), "unknown", {"box_walk": 3_124, "@": 780}),
    "dihedral-5": (dihedral(5), "icc", {"appliers": 19_310, "@": 3}),
    "dihedral-6": (dihedral(6), "icc", {"appliers": 69_828, "@": 3}),
    "s7-lattice": (s7_on_lattice(), "not_icc", {"appliers": 182, "@": 10_085}),
    "s7-free": (s7_on_free(), "icc", {"letters": 70_560, "compose": 10_080}),
    "ia-pair": (IA_PAIR, "unknown",
                {"letters": 10_662, "box_walk": 288, "@": 28, "compose": 290, "is_inner": 288}),
    "long-power": (LONG_POWER, "unknown", {"@": 2}),
}
COUNTERS = ("letters", "appliers", "box_walk", "@", "compose", "is_inner")


def spy(monkeypatch) -> dict:
    """Installs every counter for the rest of the test; returns counter ->
    list with one entry per call, or per yielded vector, except that
    ``letters`` gains one letter count per composition."""
    counts = {name: [] for name in COUNTERS}
    compose = FreeAut.compose

    def composed(self, other):
        out = compose(self, other)
        counts["letters"].append(sum(map(len, out.images)))
        counts["compose"].append(None)
        return out

    box_walk = analyzer._box_walk

    def walked(*args):
        for x in box_walk(*args):
            counts["box_walk"].append(None)
            yield x

    monkeypatch.setattr(FreeAut, "compose", composed)
    monkeypatch.setattr(analyzer, "_box_walk", walked)
    counts["appliers"] = count_applier_calls(monkeypatch)
    counts["@"] = count_calls(monkeypatch, IntMatrix, "__matmul__")
    counts["is_inner"] = count_calls(monkeypatch, extension, "is_inner")
    return counts


@pytest.mark.parametrize("case", CASES)
def test_verdict_and_work_stay_under_ceilings(case, tmp_path, monkeypatch):
    lines, verdict, ceilings = CASES[case]
    path = tmp_path / f"{case}.ext"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    counts = spy(monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        run(["check", str(path), "--format", "json"])
    monkeypatch.undo()
    assert json.loads(out.getvalue())["verdict"] == verdict
    got = {name: len(units) for name, units in counts.items()}
    got["letters"] = sum(counts["letters"])
    assert {name: n for name, n in got.items() if n > ceilings.get(name, 0)} == {}, got

