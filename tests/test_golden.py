"""Golden reports: ``icckit check --format json`` output, byte for byte.

The shipped ``extensions/*.ext`` plus inline specs that exercise the
finite-orbit sublattice: finite permutation actions, a signed
permutation action, an infinite group whose finite-orbit sublattice is
found only after a Schreier witness cuts the rank, a finite quotient and
a hyperbolic block beside a finite-order one.  A second group of inline
specs pins the finite-class injectivity search: which candidate it
reports first, and which obstruction it names when it gives up, for
finite, abelian and product quotients acting on abelian and free
kernels.  A third group runs the oracle cross-check at radius 4 on the
shipped examples and on inline specs covering abelian (with torsion),
free and finite kernels and product quotients, and pins the growth
curves ``--emit-growth`` writes for one growing and one closed class.
``ARGS`` holds extra command-line options per spec.

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
    # Finite-class injectivity search.  C_6 acting through a rotation of
    # order 3: t^3 is the first element (in element-word order) acting
    # trivially.
    "fc_finite_c6": (
        "kernel: Z^2\n"
        "quotient: finite perm((1 2 3 4 5 6))\n"
        "action t -> [[0,-1],[1,-1]]\n"
    ),
    "fc_torsion_z2_z4": (
        "kernel: Z^2\n"
        "quotient: Z/2 + Z/4\n"
        "action s -> [[-1,0],[0,-1]]\n"
        "action r -> [[0,-1],[1,0]]\n"
    ),
    # v acts by the inverse of u's hyperbolic matrix: the relation
    # u^-1 v^-1 is the first in (max-norm, lex) order.
    "fc_z2_inverse_pair": (
        "kernel: Z^2\n"
        "quotient: Z^2\n"
        "action u -> [[2,1],[1,1]]\n"
        "action v -> [[1,-1],[-1,2]]\n"
    ),
    # The first relation, t^-6 q^-2 r, lies just outside the box of
    # --relation-bound 5.
    "fc_z3_on_z4_past_bound": (
        "kernel: Z^4\n"
        "quotient: Z^3\n"
        "action t -> [[3,-1,0,0],[1,0,0,0],[-1,1,1,0],[2,-2,0,1]]\n"
        "action q -> [[1,0,0,0],[0,1,0,0],[0,1,0,-1],[0,-3,1,3]]\n"
        "action r -> [[377,-144,0,0],[144,-55,0,0],[-144,60,-1,-3],[288,-123,3,8]]\n"
    ),
    "fc_z_c2_torsion": (
        "kernel: Z^2\n"
        "quotient: Z + Z/2\n"
        "action t -> [[0,-1],[1,0]]\n"
        "action s -> [[-1,0],[0,-1]]\n"
    ),
    # Neither factor acts trivially alone before t^-2 c does.
    "fc_product_z_c2_cancel": (
        "kernel: Z^2\n"
        "quotient: product(Z, finite perm((1 2)))\n"
        "action t -> [[0,-1],[1,0]]\n"
        "action c -> [[-1,0],[0,-1]]\n"
    ),
    # The free factor has trivial FC, so only the Z factor is searched,
    # by its exact matrix order.
    "fc_product_free_z": (
        "kernel: Z^2\n"
        "quotient: product(free(u, v), Z)\n"
        "action u -> [[2,1],[1,1]]\n"
        "action v -> [[5,3],[3,2]]\n"
        "action t -> [[-1,0],[0,-1]]\n"
    ),
    # The same deferral on a free kernel: t^2 is inner, by a b, so the
    # Z factor's witness is shifted past u and v.
    "fc_product_free_z_free_kernel": (
        "kernel: free(a, b)\n"
        "quotient: product(free(u, v), Z)\n"
        "action u -> (a -> a, b -> b)\n"
        "action v -> (a -> a, b -> b)\n"
        "action t -> (a -> a b a^-1, b -> a)\n"
    ),
    "fc_product_too_large": (
        "kernel: Z^2\n"
        "quotient: product(Z^2, Z^2, Z^2)\n"
        "action t -> [[11,15],[-3,-4]]\n"
        "action q -> [[-11,-40],[8,29]]\n"
        "action s -> [[4,5],[-1,-1]]\n"
        "action w -> [[-4,-15],[3,11]]\n"
        "action v -> [[29,40],[-8,-11]]\n"
        "action r -> [[-1,-5],[1,4]]\n"
    ),
    "fc_product_relation_bound": (
        "kernel: Z^2\n"
        "quotient: product(Z, finite perm((1 2)))\n"
        "action r -> [[-1,5],[-1,4]]\n"
        "action t -> [[-1,0],[0,-1]]\n"
    ),
    # u = p^2 followed by conjugation by h, which p fixes: p^-2 u is inner.
    "fc_free_z2_conjugator": (
        "kernel: free(g, h)\n"
        "quotient: Z^2\n"
        "action p -> (g -> g h, h -> h)\n"
        "action u -> (g -> h g h, h -> h)\n"
    ),
    "fc_free_c4_swap": (
        "kernel: free(c, y)\n"
        "quotient: finite perm((1 2 3 4))\n"
        "action t -> (c -> y, y -> c)\n"
    ),
    "fc_free_s3_perm": (
        "kernel: free(f, e, a)\n"
        "quotient: finite perm((1 2); (1 2 3))\n"
        "action v -> (f -> e, e -> f, a -> a)\n"
        "action u -> (f -> e, e -> a, a -> f)\n"
    ),
    "fc_free_outer_cycle3": (
        "kernel: free(y, z, a)\n"
        "quotient: Z\n"
        "action u -> (y -> y z y^-1, z -> y a y^-1, a -> y)\n"
    ),
    "fc_free_out_unbounded": (
        "kernel: free(x, c)\n"
        "quotient: Z\n"
        "action t -> (x -> x c, c -> c)\n"
    ),
    # Conjugation by a^400: the conjugator is read off in one pass.
    "inner_e400": (
        "kernel: free(a, b)\n"
        "quotient: Z\n"
        "action t -> (a -> a, b -> a^400 b a^-400)\n"
    ),
    # Two automorphisms that greedy length-reducing Nielsen moves fail to
    # certify: c_c after the IA automorphism c -> c [a, b], whose third
    # power stalls them, and a product of four elementary moves.  Both
    # have infinite outer order, so the search ends at the cap.
    "fc_free_commutator_twist": (
        "kernel: free(a, b, c)\n"
        "quotient: Z\n"
        "action t -> (a -> c a c^-1, b -> c b c^-1, c -> c^2 a b a^-1 b^-1 c^-1)\n"
    ),
    "fc_free_four_moves": (
        "kernel: free(a, b, c)\n"
        "quotient: Z\n"
        "action t -> (a -> a c^-1, b -> b a b, c -> c b)\n"
    ),
    # The IA pair c -> c [a, b] and c -> [a, b] c: both act as I on the
    # abelianization, so every candidate passes the matrix comparison and
    # none is inner.  The search ends at the relation bound.
    "fc_free_ia_pair": (
        "kernel: free(a, b, c)\n"
        "quotient: Z^2\n"
        "action u -> (a -> a, b -> b, c -> c a b a^-1 b^-1)\n"
        "action v -> (a -> a, b -> b, c -> a b a^-1 b^-1 c)\n"
    ),
    # Oracle cross-checks.  SL(2, Z) by its order-4 and order-6
    # generators through a free quotient: with --oracle-cap 100 some
    # sample balls stop at the cap, the others run the full radius.
    "oracle_sl2_free": (
        "kernel: Z^2\n"
        "quotient: free(r, u)\n"
        "action r -> [[0,-1],[1,0]]\n"
        "action u -> [[0,-1],[1,1]]\n"
    ),
    "oracle_permfree_s3": (
        "kernel: free(f, h, c)\n"
        "quotient: finite perm((1 2); (1 2 3))\n"
        "action v -> (f -> h, h -> f, c -> c)\n"
        "action w -> (f -> h, h -> c, c -> f)\n"
    ),
    "oracle_torsion_kernel": (
        "kernel: Z^2 + Z/2\n"
        "quotient: Z\n"
        "action t -> [[2,1],[1,1]]\n"
    ),
    "oracle_finite_kernel": (
        "kernel: finite perm((1 2); (1 2 3))\n"
        "quotient: free(u, v)\n"
    ),
    "oracle_torsion_quotient": (
        "kernel: Z^2\n"
        "quotient: Z/2 + Z/4\n"
        "action s -> [[-1,0],[0,-1]]\n"
        "action r -> [[0,-1],[1,0]]\n"
    ),
    "oracle_free_z2": (
        "kernel: free(g, h)\n"
        "quotient: Z^2\n"
        "action p -> (g -> g h, h -> h)\n"
        "action u -> (g -> h g h, h -> h)\n"
    ),
    "oracle_product_samples": (
        "kernel: Z^2\n"
        "quotient: product(free(u, v), finite perm((1 2)))\n"
        "action u -> [[2,1],[1,1]]\n"
        "action v -> [[1,1],[1,2]]\n"
        "action c -> [[-1,0],[0,-1]]\n"
    ),
    "oracle_product_vector": (
        "kernel: Z^2\n"
        "quotient: product(free(u, v), finite perm((1 2)))\n"
        "action u -> [[0,1],[1,0]]\n"
        "action v -> [[-1,0],[0,-1]]\n"
        "action c -> [[0,1],[1,0]]\n"
    ),
}
SHIPPED = ("f2xz", "klein", "sol", "swap")
ORACLE = ("--oracle-radius", "4")
# Cross-checks of the shipped examples: golden name -> example.
ORACLE_SHIPPED = {f"oracle_{name}": name for name in SHIPPED}
ARGS = {
    "fc_z3_on_z4_past_bound": ("--relation-bound", "5"),
    **{name: ORACLE for name in (*INLINE, *ORACLE_SHIPPED) if name.startswith("oracle_")},
    "oracle_sl2_free": (*ORACLE, "--oracle-cap", "100"),
}
NAMES = SHIPPED + tuple(ORACLE_SHIPPED) + tuple(INLINE)
GROWTH = ("sol", "klein")  # sol's first sample keeps growing; klein's witness closes
BAD_DIAGNOSTIC = "bad.ext:3:12: [validation] non-unimodular matrix, det=4\n"


def check_json(path, args=()) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path), "--format", "json", *args])
    return code, out.getvalue(), err.getvalue()


def spec_path(name, directory: Path) -> Path:
    if name in INLINE:
        path = directory / f"{name}.ext"
        path.write_text(INLINE[name])
        return path
    return EXTENSIONS / f"{ORACLE_SHIPPED.get(name, name)}.ext"


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_golden(name, tmp_path):
    code, out, err = check_json(spec_path(name, tmp_path), ARGS.get(name, ()))
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}.json").read_text()


def growth_csv(name, directory: Path) -> str:
    path = directory / f"{name}_growth.csv"
    code, _, err = check_json(EXTENSIONS / f"{name}.ext", (*ORACLE, "--emit-growth", str(path)))
    assert (code, err) == (0, "")
    return path.read_text()


@pytest.mark.parametrize("name", GROWTH)
def test_growth_curve_matches_golden(name, tmp_path):
    assert growth_csv(name, tmp_path) == (GOLDEN / f"{name}_growth.csv").read_text()


def test_bad_extension_diagnostic(monkeypatch):
    monkeypatch.chdir(EXTENSIONS)
    assert check_json("bad.ext") == (2, "", BAD_DIAGNOSTIC)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name in NAMES:
            code, out, _ = check_json(spec_path(name, Path(scratch)), ARGS.get(name, ()))
            assert code == 0, name
            (GOLDEN / f"{name}.json").write_text(out)
        for name in GROWTH:
            (GOLDEN / f"{name}_growth.csv").write_text(growth_csv(name, Path(scratch)))
