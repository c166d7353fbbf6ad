"""Differential test: analyzer verdicts against independent checks.

Reads the seed-3 benchmark corpora (cases whose outcome is known by
construction), which ``conftest.py`` writes once per session, runs
every case through the CLI with the options the corpus gives it, and
has the benchmark's independent checker judge each report.  The checker
re-verifies every negative witness with plain tuple arithmetic, so a
verdict or a witness that disagrees with the construction fails here.

``crosscheck`` adds the oracle cross-check at radius 4, and the checker
requires it to be ``consistent``, so a ball that disagrees with the
materialized group fails too.  A D_4 orbit of 8 vectors is reached in 3
conjugation rounds, and one more round certifies that it is closed.  The
cross-check compares that witness's ball with its exact orbit, so it is
already ``consistent`` at radius 3; at radius 4 the ball's closure
certificate is exercised as well.

``relations`` and ``outer`` exercise the finite-class injectivity search
over abelian and product quotients, with matrix and free-automorphism
actions: every relation the mod-3 screen lets through is re-verified,
and every relation inside ``--relation-bound`` must be found.
"""

import contextlib
import io

import checker  # bench/, on the path through conftest.py
import pytest

from icckit.cli import run


def check_corpus(workload, seed3_corpus):
    """The corpus manifest, and the checker's problems by case id."""
    directory, m = seed3_corpus(workload)
    failures = {}
    for case in m["cases"]:
        out, err = io.StringIO(), io.StringIO()
        argv = ["check", str(directory / case["file"]), "--format", "json", *case["args"]]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        problems = checker.check(case, code, out.getvalue(), err.getvalue())
        if problems:
            failures[case["id"]] = problems
    return m, failures


def test_every_crosscheck_case_passes_the_checker(seed3_corpus):
    m, failures = check_corpus("crosscheck", seed3_corpus)
    assert len(m["cases"]) > 100
    assert failures == {}


@pytest.mark.parametrize("workload", ["relations", "outer"])
def test_every_fc_search_case_passes_the_checker(workload, seed3_corpus):
    m, failures = check_corpus(workload, seed3_corpus)
    assert len(m["cases"]) > 100
    assert failures == {}
