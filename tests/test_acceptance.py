"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All tolerances and caps are pinned here, not configured elsewhere.
"""

import json
import math
import random
from math import gcd
from pathlib import Path

import pytest

from icckit.analyzer import (
    KernelTorsionWitness,
    KernelVectorWitness,
    QuotientLiftWitness,
    analyze,
)
from icckit.catalog import FgAbelianDesc, FiniteGroupDesc, FreeDesc
from icckit.cli import main, witness_json
from icckit.extension import make_extension
from icckit.intlinalg import IntMatrix, Lattice
from icckit.matgroup import (
    BasisOrbits,
    FiniteOrbit,
    GroupInfinite,
    MatGroupGens,
    OrbitCapExceeded,
    basis_orbits,
    matrix_order,
    finite_orbit_sublattice,
    orbit_bfs,
)
from icckit.oracle import conjugacy_ball, crosscheck, exact_abelian_class, materialize
from icckit.words import FreeAut, free_basis_inverse, is_inner, word_inverse, word_mul
from tests.helpers import conjugation, random_unimodular, reference_schreier_certificate, word_matrix
from tests.test_matgroup import brute_force_closure
from tests.test_words import random_basis_aut

ROOT = Path(__file__).resolve().parent.parent
EXTENSIONS = ROOT / "extensions"

Z = FgAbelianDesc(1, (), ("t",))
HYPER = IntMatrix.from_rows([[2, 1], [1, 1]])
ROT4 = IntMatrix.from_rows([[0, -1], [1, 0]])


def report_pass(num, text):
    print(f"ACCEPTANCE {num:>2} PASS: {text}")


def test_criterion_01_sol_icc_with_oracle():
    spec = make_extension(FgAbelianDesc(2), Z, [HYPER])
    report = analyze(spec)
    assert report.verdict == "icc"
    assert report.theorem_path == "theorem-1"
    summary, _ = crosscheck(spec, report, radius=6, cap=5000, samples=20)
    assert summary["samples_checked"] == 20
    assert summary["finite_classes_found"] == 0
    assert summary["consistent"]
    report_pass(1, "Z^2 x| Z (hyperbolic) is icc; 20 sampled classes keep growing")


def test_criterion_02_klein_bottle_kernel_vector():
    spec = make_extension(FgAbelianDesc(1), Z, [IntMatrix.from_rows([[-1]])])
    report = analyze(spec)
    assert report.verdict == "not_icc"
    assert isinstance(report.witness, KernelVectorWitness)
    assert set(report.witness.orbit) == {(1,), (-1,)}
    group = materialize(spec)
    curve = conjugacy_ball(group, group.kernel_element((1,)), 4, cap=5000)
    assert curve.closed_at == 1
    assert curve.final_size == 2
    report_pass(2, "Klein bottle witness class is exactly {+1,-1}, closed at radius 1")


def test_criterion_03_torsion_shortcut_skips_action_data():
    captured = []
    original = finite_orbit_sublattice

    import icckit.analyzer as analyzer_mod

    def spy(group):
        captured.append(group)
        return original(group)

    analyzer_mod.finite_orbit_sublattice = spy
    try:
        spec = make_extension(FgAbelianDesc(2, (2,)), Z, [HYPER])
        report = analyze(spec)
    finally:
        analyzer_mod.finite_orbit_sublattice = original
    assert report.verdict == "not_icc"
    assert isinstance(report.witness, KernelTorsionWitness)
    assert not captured  # the action matrices were never consulted
    report_pass(3, "torsion kernel Z^2 + Z/2 refused without consulting the action")


def test_criterion_04_order_four_action_gives_lift_witness():
    spec = make_extension(FgAbelianDesc(2), FgAbelianDesc(1, (), ("q",)), [ROT4])
    report = analyze(spec)
    assert report.verdict == "not_icc"
    assert isinstance(report.witness, QuotientLiftWitness)
    assert witness_json(report.witness, spec)["element"] == "q^4"
    assert report.witness.action_order == 4
    assert ROT4 ** 4 == IntMatrix.identity(2)  # the explicit power identity
    assert all(ROT4 ** d != IntMatrix.identity(2) for d in (1, 2, 3))
    report_pass(4, "Z^2 x| Z with the order-4 rotation yields quotient-lift witness q^4")


def test_criterion_05_swap_extension_icc():
    c2 = FiniteGroupDesc.from_generators(2, [(1, 0)], ("q",))
    swap = FreeAut(2, ((2,), (1,)))
    assert not swap.abelianization().is_identity
    assert is_inner(swap) is None
    spec = make_extension(FreeDesc(2, ("a", "b")), c2, [swap])
    report = analyze(spec)
    assert report.verdict == "icc"
    assert report.theorem_path == "theorem-3"
    summary, _ = crosscheck(spec, report, radius=6, cap=5000, samples=20)
    assert summary["finite_classes_found"] == 0
    assert summary["consistent"]
    report_pass(5, "F2 x| C2 (swap) is icc; no sampled class closes within radius 6")


def test_criterion_06_f2_times_z_central_witness():
    spec = make_extension(FreeDesc(2, ("a", "b")), Z, [FreeAut.identity(2)])
    report = analyze(spec)
    assert report.verdict == "not_icc"
    assert isinstance(report.witness, QuotientLiftWitness)
    summary, curve = crosscheck(spec, report, radius=4)
    assert summary["consistent"]
    assert curve.final_size == 1  # the lift is central
    report_pass(6, "F2 x Z witness lift has class of size 1 (central)")


def test_criterion_07_finite_kernel_rule():
    for gens, order in [([(1, 2, 0)], 3), ([(1, 0, 3, 2), (2, 3, 0, 1)], 4)]:
        k = FiniteGroupDesc.from_generators(len(gens[0]), gens)
        spec = make_extension(k, Z)
        report = analyze(spec)
        assert report.verdict == "not_icc"
        assert report.theorem_path == "theorem-2(i)"
        assert isinstance(report.witness, KernelTorsionWitness)
        summary, curve = crosscheck(spec, report, radius=4)
        assert summary["consistent"]
        assert curve.is_closed
        assert curve.final_size <= k.order
    report_pass(7, "nontrivial finite kernels refute the property with a bounded class")


def _random_generator_sets(count):
    rng = random.Random(8080)
    sets = []
    while len(sets) < count:
        r = rng.choice((1, 2, 2, 2, 3, 3, 4))
        ngens = rng.randint(1, 3)
        gens = tuple(
            random_unimodular(rng, r, steps=rng.randint(1, 7), entry_bound=3)
            for _ in range(ngens)
        )
        sets.append((MatGroupGens(r, gens), rng))
    return sets


def _random_f_vector(rng, lattice):
    while True:
        coords = tuple(rng.randint(-3, 3) for _ in range(lattice.rank))
        if any(coords):
            return lattice.member_from_coords(coords)


def _random_primitive_outside(rng, lattice, rank):
    while True:
        v = tuple(rng.randint(-3, 3) for _ in range(rank))
        if not any(v):
            continue
        g = 0
        for x in v:
            g = gcd(g, x)
        v = tuple(x // g for x in v)
        if v not in lattice:
            return v


def test_criterion_08_finite_orbit_sublattice_suite():
    rng = random.Random(8080)
    failures = 0
    checked = 0
    for _ in range(200):
        r = rng.choice((1, 2, 2, 2, 3, 3, 4))
        ngens = rng.randint(1, 3)
        gens = tuple(
            random_unimodular(rng, r, steps=rng.randint(1, 7), entry_bound=3)
            for _ in range(ngens)
        )
        group = MatGroupGens(r, gens)
        cert = finite_orbit_sublattice(group)
        lat = cert.lattice
        checked += 1

        for g in gens:
            assert lat.image_under(g) == lat, "invariance failed"
        cap = reference_schreier_certificate(MatGroupGens(lat.rank, cert.induced_gens)) + 1
        vectors = list(lat.basis)
        for _ in range(10):
            if lat.rank:
                vectors.append(_random_f_vector(rng, lat))
        for v in vectors:
            assert isinstance(orbit_bfs(group, v, cap), FiniteOrbit), "finite orbit failed"
        if lat.rank < r:
            for _ in range(10):
                v = _random_primitive_outside(rng, lat, r)
                assert isinstance(orbit_bfs(group, v, 10_000), OrbitCapExceeded), (
                    "non-member vector had a small orbit"
                )
        extra = gens[rng.randrange(ngens)] @ gens[rng.randrange(ngens)]
        augmented = MatGroupGens(r, gens + (extra,))
        assert finite_orbit_sublattice(augmented).lattice == lat, "augmentation moved F"
    assert failures == 0
    report_pass(8, f"finite-orbit sublattice verified on {checked} random generator sets")


def test_criterion_09_infinite_dihedral_benchmark():
    gens = MatGroupGens(
        2,
        (IntMatrix.from_rows([[1, 1], [0, -1]]), IntMatrix.from_rows([[1, 0], [0, -1]])),
    )
    cert = finite_orbit_sublattice(gens)
    assert cert.lattice == Lattice.from_rows(2, [(1, 0)])
    report_pass(9, "infinite-dihedral generators give F = span{(1,0)} exactly")


def test_criterion_10_group_finiteness_certificates():
    s3_cycle = IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    s3_swap = IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    neg_first = IntMatrix.from_rows([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    finite_cases = [
        ((IntMatrix.identity(2),), 1),
        ((IntMatrix.from_rows([[-1, 0], [0, -1]]),), 2),
        ((IntMatrix.from_rows([[0, -1], [1, -1]]),), 3),
        ((ROT4,), 4),
        ((s3_cycle, s3_swap), 6),
        ((ROT4, IntMatrix.from_rows([[1, 0], [0, -1]])), 8),
        ((IntMatrix.from_rows([[1, -1], [1, 0]]),), 6),
        ((IntMatrix.from_rows([[0, -1], [1, 0]]), IntMatrix.from_rows([[-1, 0], [0, -1]])), 4),
        ((s3_cycle, s3_swap, neg_first), 48),
    ]
    for gens, expected in finite_cases:
        rank = gens[0].nrows
        group = MatGroupGens(rank, gens)
        cert = basis_orbits(group)
        assert isinstance(cert, BasisOrbits), f"expected order {expected}"
        assert reference_schreier_certificate(group) == expected
        assert expected <= math.prod(len(orbit) for orbit in cert.orbits)
        assert brute_force_closure(gens, 4 * expected) == expected
    infinite_cases = [
        (IntMatrix.from_rows([[1, 1], [0, 1]]),),
        (HYPER,),
        (IntMatrix.from_rows([[1, 1], [0, -1]]), IntMatrix.from_rows([[1, 0], [0, -1]])),
        (IntMatrix.from_rows([[1, 0, 1], [0, 1, 0], [0, 0, 1]]), s3_cycle),
    ]
    for gens in infinite_cases:
        rank = gens[0].nrows
        group = MatGroupGens(rank, gens)
        cert = basis_orbits(group)
        assert isinstance(cert, GroupInfinite)
        assert cert == reference_schreier_certificate(group)
        assert matrix_order(cert.witness_matrix) is None
        assert word_matrix(group, cert.witness_word) == cert.witness_matrix
    report_pass(10, f"finiteness certificates verified on orders 1..48 and infinite witnesses")


def test_criterion_11_free_group_algorithm_suite():
    rng = random.Random(1111)
    for _ in range(50):
        rank = rng.choice((2, 2, 3))
        w = tuple(
            rng.choice([x for x in range(-rank, rank + 1) if x])
            for _ in range(rng.randint(0, 6))
        )
        phi = conjugation(rank, w)
        got = is_inner(phi)
        assert got is not None
        for i in range(1, rank + 1):
            assert word_mul(got, (i,), word_inverse(got)) == phi.images[i - 1]
    rejected = 0
    while rejected < 20:
        rank = rng.choice((2, 3))
        aut = random_basis_aut(rank, rng.randint(1, 8), rng)
        if aut.abelianization().is_identity:
            continue
        assert is_inner(aut) is None
        rejected += 1
    for _ in range(50):
        rank = rng.choice((2, 2, 3))
        aut = random_basis_aut(rank, rng.randint(1, 10), rng)
        assert free_basis_inverse(aut.images, rank) is not None
    assert free_basis_inverse(((1, 1), (2,)), 2) is None
    report_pass(11, "inner recovery (50), non-inner rejection (20), basis certification (50)")


def test_criterion_12_verdict_invariance_under_conjugation():
    rng = random.Random(1212)
    cases = 0
    while cases < 50:
        r = rng.choice((2, 2, 3))
        style = rng.randrange(3)
        if style == 0:
            m = random_unimodular(rng, r, steps=rng.randint(2, 8))
        elif style == 1:
            m = (IntMatrix.identity(r) if rng.random() < 0.5 else IntMatrix.identity(r).scale(-1))
        else:
            m = IntMatrix.identity(r)
            if r == 2:
                m = ROT4 if rng.random() < 0.5 else IntMatrix.from_rows([[0, -1], [1, -1]])
        spec = make_extension(FgAbelianDesc(r), Z, [m])
        base = analyze(spec)
        p = random_unimodular(rng, r, steps=10)
        conj = p @ m @ p.inverse_unimodular()
        other = analyze(make_extension(FgAbelianDesc(r), Z, [conj]))
        assert base.verdict == other.verdict
        assert base.theorem_path == other.theorem_path
        if isinstance(base.witness, KernelVectorWitness):
            assert isinstance(other.witness, KernelVectorWitness)
            assert len(base.witness.orbit) == len(other.witness.orbit)
        if isinstance(base.witness, QuotientLiftWitness):
            assert isinstance(other.witness, QuotientLiftWitness)
            assert base.witness.word == other.witness.word
        cases += 1
    report_pass(12, "50 conjugated specs keep verdict, path, and witness class size")


def test_criterion_13_cli_contract(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((ROOT / "src" / "icckit" / "report.schema.json").read_text())

    outputs = {}
    for name, expected_code in (("klein.ext", 0), ("sol.ext", 0), ("bad.ext", 2)):
        code1, out1, err1 = run("check", str(EXTENSIONS / name), "--format", "json")
        code2, out2, _ = run("check", str(EXTENSIONS / name), "--format", "json")
        assert code1 == code2 == expected_code, name
        assert out1.encode() == out2.encode(), "non-deterministic output"
        outputs[name] = out1
        if expected_code == 0:
            jsonschema.validate(json.loads(out1), schema)
        else:
            assert not out1 and err1
    assert json.loads(outputs["klein.ext"])["verdict"] == "not_icc"
    assert json.loads(outputs["sol.ext"])["verdict"] == "icc"
    report_pass(13, "klein/sol/bad run with exits 0/0/2 and schema-valid deterministic JSON")
