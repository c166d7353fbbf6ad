"""Deterministic work ceilings: call counts of one pass over each
workload's seed-3 benchmark corpus.

Each case runs once, in-process, through ``icckit.cli.run`` with the
options its manifest gives, while spies count the calls of the hot
primitives of every layer.  The counts do not depend on timing, so a
change that makes a layer do more work fails here even on a noisy
machine.  A change that lowers a count tightens its ceiling in the same
change; one that must raise a ceiling says why in CHANGES.md.
"""

import builtins
import contextlib
import io

import pytest

from icckit import extension, intlinalg, matgroup, words
from icckit.cli import run
from icckit.intlinalg import IntMatrix, Lattice
from icckit.oracle import ConcreteGroup
from icckit.words import FreeAut
from tests.helpers import count_calls

# counter -> (owner, attribute).  ``is_inner`` is counted where
# ``Theta.trivial`` looks it up, ``eval`` is the builtin that
# matgroup's compiled row appliers run, and ``_mod3_period`` is the
# period walk, which each matrix object runs at most once.
# ``free_basis_inverse`` is the labelled fold, which only
# ``FreeAut.inverse`` runs.
COUNTERS = {
    "IntMatrix.@": (IntMatrix, "__matmul__"),
    "hnf": (intlinalg, "hnf"),
    "det": (IntMatrix, "det"),
    "inverse_unimodular": (IntMatrix, "inverse_unimodular"),
    "FreeAut.compose": (FreeAut, "compose"),
    "free_basis_inverse": (words, "free_basis_inverse"),
    "single_finite_orbit_space": (matgroup, "single_finite_orbit_space"),
    "is_inner": (extension, "is_inner"),
    "eval": (matgroup, "eval"),
    "_mod3_period": (matgroup, "_mod3_period"),
    "Lattice.coordinates": (Lattice, "coordinates"),
    "conjugate": (ConcreteGroup, "conjugate"),
}

CEILINGS = {
    "lattice": {"IntMatrix.@": 328, "hnf": 79, "det": 162, "inverse_unimodular": 12,
                "FreeAut.compose": 0, "free_basis_inverse": 0, "single_finite_orbit_space": 153,
                "is_inner": 0, "eval": 79, "_mod3_period": 153, "Lattice.coordinates": 76,
                "conjugate": 0},
    "outer": {"IntMatrix.@": 132, "hnf": 18, "det": 0, "inverse_unimodular": 18,
              "FreeAut.compose": 114, "free_basis_inverse": 7, "single_finite_orbit_space": 0,
              "is_inner": 76, "eval": 0, "_mod3_period": 68, "Lattice.coordinates": 0,
              "conjugate": 0},
    "relations": {"IntMatrix.@": 2091, "hnf": 298, "det": 242, "inverse_unimodular": 135,
                  "FreeAut.compose": 0, "free_basis_inverse": 0, "single_finite_orbit_space": 133,
                  "is_inner": 0, "eval": 0, "_mod3_period": 133, "Lattice.coordinates": 20,
                  "conjugate": 0},
    "crosscheck": {"IntMatrix.@": 280, "hnf": 89, "det": 74, "inverse_unimodular": 60,
                   "FreeAut.compose": 64, "free_basis_inverse": 14, "single_finite_orbit_space": 58,
                   "is_inner": 22, "eval": 54, "_mod3_period": 77, "Lattice.coordinates": 24,
                   "conjugate": 7446},
}


def one_pass_counts(directory, manifest, monkeypatch) -> dict:
    """Calls per counter over one pass of the corpus."""
    monkeypatch.setattr(matgroup, "eval", builtins.eval, raising=False)
    calls = {name: count_calls(monkeypatch, *where) for name, where in COUNTERS.items()}
    for case in manifest["cases"]:
        argv = ["check", str(directory / case["file"]), "--format", "json", *case["args"]]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            run(argv)
    return {name: len(c) for name, c in calls.items()}


@pytest.mark.parametrize("workload", CEILINGS)
def test_one_pass_stays_under_its_ceilings(workload, seed3_corpus, monkeypatch):
    counts = one_pass_counts(*seed3_corpus(workload), monkeypatch)
    ceilings = CEILINGS[workload]
    assert {name: n for name, n in counts.items() if n > ceilings[name]} == {}, counts
