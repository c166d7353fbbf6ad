"""``bench/tracer.py`` still finds what it patches.

The tracer wraps package functions and methods by name, so a rename
would silently empty ``bench/run.py --trace 1``.  It runs in a fresh
interpreter: its patches must not leak into the other tests.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SPEC = (
    "kernel: Z^2\n"
    "quotient: Z^2\n"
    "action u -> [[2,1],[1,1]]\n"
    "action v -> [[5,3],[3,2]]\n"
)
# A free kernel: the outer order of the swap is read off its
# abelianization (matrix_order), and its square is tested for innerness.
FREE_SPEC = (
    "kernel: free(a, b)\n"
    "quotient: Z\n"
    "action t -> (a -> b, b -> a)\n"
)

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/bench"]
from tracer import Tracer
from icckit.cli import run
tracer = Tracer().install()
tracer.enabled = True
with contextlib.redirect_stdout(io.StringIO()):
    code = run(["check", sys.argv[2], "--format", "json", *sys.argv[3:]])
print(json.dumps({"code": code, "calls": tracer.calls, "values": tracer.values}))
"""


def traced_check(spec_text, tmp_path, *args):
    spec = tmp_path / "spec.ext"
    spec.write_text(spec_text)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), str(spec), *args],
        capture_output=True, text=True, check=True, timeout=120,
    )
    result = json.loads(out.stdout)
    assert result["code"] == 0
    return result


def test_traced_check_counts_fc_search(tmp_path):
    result = traced_check(SPEC, tmp_path)
    assert result["calls"]["analyzer.theta_fc_injective"] > 0
    assert result["values"]["analyzer.fc_candidates"] > 0


def test_traced_check_counts_free_kernel_work(tmp_path):
    result = traced_check(FREE_SPEC, tmp_path)
    assert result["calls"]["words.is_inner"] > 0
    assert result["calls"]["words.freeaut_compose"] > 0
    assert result["values"]["analyzer.fc_candidates"] > 0


def test_traced_check_counts_oracle_conjugations(tmp_path):
    result = traced_check(SPEC, tmp_path, "--oracle-radius", "2")
    assert result["calls"]["oracle.conjugations"] > 0
