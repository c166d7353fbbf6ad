"""Differential test: analyzer verdicts against the brute-force oracle.

Builds the benchmark's ``crosscheck`` corpus for one seed (cases whose
outcome is known by construction), runs every case through the CLI with
the options the corpus gives it (the oracle cross-check at radius 4),
and has the benchmark's independent checker judge each report.  The
checker requires the cross-check to be ``consistent`` and re-verifies
every negative witness with plain tuple arithmetic, so a verdict, a
witness or a ball that disagrees with the materialized group fails
here.

Radius 4 is the corpus's own: a D_4 orbit of 8 vectors is reached in 3
conjugation rounds, and one more round certifies that it is closed.  The
cross-check compares that witness's ball with its exact orbit, so it is
already ``consistent`` at radius 3; at radius 4 the ball's closure
certificate is exercised as well.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import checker  # noqa: E402
import corpus  # noqa: E402

from icckit.cli import run  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("crosscheck")
    return out, corpus.write("crosscheck", SEED, str(out), str(ROOT))


def test_every_crosscheck_case_passes_the_checker(manifest):
    directory, m = manifest
    failures = {}
    for case in m["cases"]:
        out, err = io.StringIO(), io.StringIO()
        argv = ["check", str(directory / case["file"]), "--format", "json", *case["args"]]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        problems = checker.check(case, code, out.getvalue(), err.getvalue())
        if problems:
            failures[case["id"]] = problems
    assert len(m["cases"]) > 100
    assert failures == {}
