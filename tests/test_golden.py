"""Golden reports: ``icckit check --format json`` output, byte for byte.

The shipped ``extensions/*.ext`` plus inline specs that exercise the
finite-orbit sublattice: finite permutation actions, a signed
permutation action, an infinite group whose finite-orbit sublattice is
found only after a Schreier witness cuts the rank, a finite quotient and
a hyperbolic block beside a finite-order one.

Regenerate (only when a report change is intended) with
``PYTHONPATH=src python -m tests.test_golden``.
"""

import contextlib
import io
from pathlib import Path

import pytest

from icckit.cli import main

ROOT = Path(__file__).resolve().parent.parent
EXTENSIONS = ROOT / "extensions"
GOLDEN = Path(__file__).resolve().parent / "golden"

INLINE = {
    "s5_free": (
        "kernel: Z^5\n"
        "quotient: free(p, s)\n"
        "action p -> [[0,0,0,0,1],[1,0,0,0,0],[0,1,0,0,0],[0,0,1,0,0],[0,0,0,1,0]]\n"
        "action s -> [[0,1,0,0,0],[1,0,0,0,0],[0,0,1,0,0],[0,0,0,1,0],[0,0,0,0,1]]\n"
    ),
    "s6_free": (
        "kernel: Z^6\n"
        "quotient: free(p, s)\n"
        "action p -> [[0,0,0,0,0,1],[1,0,0,0,0,0],[0,1,0,0,0,0],[0,0,1,0,0,0],"
        "[0,0,0,1,0,0],[0,0,0,0,1,0]]\n"
        "action s -> [[0,1,0,0,0,0],[1,0,0,0,0,0],[0,0,1,0,0,0],[0,0,0,1,0,0],"
        "[0,0,0,0,1,0],[0,0,0,0,0,1]]\n"
    ),
    "signed_s4_free": (
        "kernel: Z^4\n"
        "quotient: free(p, s)\n"
        "action p -> [[0,0,0,-1],[1,0,0,0],[0,1,0,0],[0,0,1,0]]\n"
        "action s -> [[0,1,0,0],[1,0,0,0],[0,0,1,0],[0,0,0,1]]\n"
    ),
    # SL(2,Z) by its order-4 and order-6 generators, beside a +-1 block:
    # both generators have finite order, so only a congruence-kernel
    # witness cuts the candidate down to the last coordinate.
    "sl2z_finite_block": (
        "kernel: Z^3\n"
        "quotient: free(a, b)\n"
        "action a -> [[0,-1,0],[1,0,0],[0,0,-1]]\n"
        "action b -> [[0,-1,0],[1,1,0],[0,0,1]]\n"
    ),
    "d4_signed_perm": (
        "kernel: Z^2\n"
        "quotient: finite perm((1 2 3 4); (1 3))\n"
        "action r -> [[0,-1],[1,0]]\n"
        "action f -> [[1,0],[0,-1]]\n"
    ),
    # [[2,1],[1,1]] (+) the order-4 rotation, in a non-standard basis.
    "hyp_rot4_block": (
        "kernel: Z^4\n"
        "quotient: Z\n"
        "action t -> [[2,1,-2,0],[1,1,0,-1],[0,0,1,-2],[0,0,1,-1]]\n"
    ),
}
SHIPPED = ("f2xz", "klein", "sol", "swap")
BAD_DIAGNOSTIC = "bad.ext:3:12: [validation] non-unimodular matrix, det=4\n"


def check_json(path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path), "--format", "json"])
    return code, out.getvalue(), err.getvalue()


def spec_path(name, directory: Path) -> Path:
    if name in INLINE:
        path = directory / f"{name}.ext"
        path.write_text(INLINE[name])
        return path
    return EXTENSIONS / f"{name}.ext"


@pytest.mark.parametrize("name", SHIPPED + tuple(INLINE))
def test_report_matches_golden(name, tmp_path):
    code, out, err = check_json(spec_path(name, tmp_path))
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_bad_extension_diagnostic(monkeypatch):
    monkeypatch.chdir(EXTENSIONS)
    assert check_json("bad.ext") == (2, "", BAD_DIAGNOSTIC)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name in SHIPPED + tuple(INLINE):
            code, out, _ = check_json(spec_path(name, Path(scratch)))
            assert code == 0, name
            (GOLDEN / f"{name}.json").write_text(out)
