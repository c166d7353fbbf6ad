"""The demos under ``demos/``, run as a user runs them: each in a fresh
interpreter with ``PYTHONPATH=src``, compared byte for byte (exit code and
stdout) with ``tests/golden/demo_NN.txt``.

Regenerate (only when a demo's output change is intended) with
``PYTHONPATH=src python demos/NN_name.py > tests/golden/demo_NN.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_every_demo_has_a_golden():
    goldens = sorted(g.stem[len("demo_"):] for g in GOLDEN.glob("demo_*.txt"))
    assert DEMOS and [d.name[:2] for d in DEMOS] == goldens


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == (GOLDEN / f"demo_{demo.name[:2]}.txt").read_text()
