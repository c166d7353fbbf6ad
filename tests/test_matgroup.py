import math
import random
from collections import deque

import pytest

from icckit.intlinalg import IntMatrix, Lattice, random_unimodular
from icckit.matgroup import (
    BasisOrbits,
    FiniteOrbit,
    GroupFinite,
    GroupInfinite,
    MatGroupGens,
    OrbitCapExceeded,
    _shrink_to_invariant,
    basis_orbits,
    finite_orbit_sublattice,
    group_is_finite,
    matrix_order,
    orbit_bfs,
    restrict_to_lattice,
    single_finite_orbit_space,
)

ROT4 = IntMatrix.from_rows([[0, -1], [1, 0]])
SHEAR = IntMatrix.from_rows([[1, 1], [0, 1]])
HYPER = IntMatrix.from_rows([[2, 1], [1, 1]])
NEG_I = IntMatrix.from_rows([[-1, 0], [0, -1]])


def brute_force_closure(gens, cap):
    """Independent finiteness oracle: BFS closure over Z, no congruence
    tricks.  Returns the element count or None once past the cap."""
    n = gens[0].nrows
    identity = IntMatrix.identity(n)
    seen = {identity.rows}
    queue = deque([identity])
    inverses = [g.inverse_unimodular() for g in gens]
    while queue:
        m = queue.popleft()
        for g in list(gens) + inverses:
            p = g @ m
            if p.rows not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(p.rows)
                queue.append(p)
    return len(seen)


def reference_finite_orbit_sublattice(group):
    """The finite-orbit sublattice with every induced action decided by
    the full mod-3 enumeration of group_is_finite; an independent route
    to the lattice that finite_orbit_sublattice certifies by basis
    orbits."""
    r = group.rank
    cand = Lattice.full(r)
    for g in group.gens:
        cand = cand.intersect(single_finite_orbit_space(g))
    while True:
        cand = _shrink_to_invariant(cand, group)
        if cand.rank == 0:
            return cand
        induced = tuple(restrict_to_lattice(g, cand) for g in group.gens)
        cert = group_is_finite(MatGroupGens(cand.rank, induced))
        if isinstance(cert, GroupFinite):
            return cand
        fixed = single_finite_orbit_space(cert.witness_matrix)
        cand = Lattice.from_rows(r, [cand.member_from_coords(c) for c in fixed.basis])


def random_generator_sets(seed, count):
    """Seeded generator sets drawn like acceptance criterion 08's:
    ranks 1-4, 1-3 generators with small entries."""
    rng = random.Random(seed)
    for _ in range(count):
        r = rng.choice((1, 2, 2, 2, 3, 3, 4))
        yield MatGroupGens(r, tuple(
            random_unimodular(rng, r, steps=rng.randint(1, 7), entry_bound=3)
            for _ in range(rng.randint(1, 3))
        ))


def assert_closed(group, orbit):
    for g in group.gens:
        for m in (g, g.inverse_unimodular()):
            assert {m.apply(v) for v in orbit} == orbit


class TestMatrixOrder:
    def test_identity(self):
        assert matrix_order(IntMatrix.identity(3)) == 1

    def test_rotation(self):
        assert matrix_order(ROT4) == 4
        assert ROT4 ** 4 == IntMatrix.identity(2)

    def test_unipotent_is_infinite(self):
        # cyclotomic charpoly (x-1)^2 but not semisimple
        assert matrix_order(SHEAR) is None

    def test_hyperbolic_is_infinite(self):
        assert matrix_order(HYPER) is None

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            matrix_order(IntMatrix.from_rows([[2, 0], [0, 2]]))

    @pytest.mark.parametrize(
        "matrix,order",
        [
            (NEG_I, 2),
            (IntMatrix.from_rows([[0, -1], [1, -1]]), 3),
            (IntMatrix.from_rows([[1, -1], [1, 0]]), 6),
            (IntMatrix.from_rows([[0, 1], [1, 0]]), 2),
        ],
    )
    def test_minimality(self, matrix, order):
        assert matrix_order(matrix) == order
        assert matrix ** order == IntMatrix.identity(2)
        for d in range(1, order):
            if order % d == 0:
                assert matrix ** d != IntMatrix.identity(2)


class TestGroupIsFinite:
    def test_trivial(self):
        cert = group_is_finite(MatGroupGens(2, (IntMatrix.identity(2),)))
        assert cert == GroupFinite(1)

    def test_rotation_c4(self):
        cert = group_is_finite(MatGroupGens(2, (ROT4,)))
        assert cert == GroupFinite(4)

    def test_shear_infinite_with_witness(self):
        cert = group_is_finite(MatGroupGens(2, (SHEAR,)))
        assert isinstance(cert, GroupInfinite)
        w = cert.witness_matrix
        assert w == SHEAR ** 3  # m mod 3 has order 3, so the cube closes first
        assert not w.is_identity
        assert w.mod(3) == IntMatrix.identity(2).mod(3)
        assert matrix_order(w) is None
        g = MatGroupGens(2, (SHEAR,))
        assert g.word_to_matrix(cert.witness_word) == w

    def test_finite_dihedral(self):
        refl = IntMatrix.from_rows([[1, 0], [0, -1]])
        cert = group_is_finite(MatGroupGens(2, (ROT4, refl)))
        assert cert == GroupFinite(8)

    def test_closure_oracle_agreement(self):
        s3_cycle = IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        s3_swap = IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        neg = IntMatrix.from_rows([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
        cases = [
            ((IntMatrix.identity(2),), 1),
            ((NEG_I,), 2),
            ((ROT4,), 4),
            ((s3_cycle, s3_swap), 6),
            ((ROT4, IntMatrix.from_rows([[1, 0], [0, -1]])), 8),
            ((s3_cycle, s3_swap, neg), 48),
        ]
        for gens, expected in cases:
            rank = gens[0].nrows
            cert = group_is_finite(MatGroupGens(rank, gens))
            assert cert == GroupFinite(expected)
            assert brute_force_closure(gens, 4 * expected) == expected

    def test_infinite_witness_properties(self):
        rng = random.Random(9)
        found = 0
        while found < 5:
            gens = tuple(
                random_unimodular(rng, 2, steps=8) for _ in range(rng.randint(1, 2))
            )
            group = MatGroupGens(2, gens)
            cert = group_is_finite(group)
            if isinstance(cert, GroupInfinite):
                found += 1
                assert not cert.witness_matrix.is_identity
                assert cert.witness_matrix.mod(3) == IntMatrix.identity(2).mod(3)
                assert matrix_order(cert.witness_matrix) is None
                assert group.word_to_matrix(cert.witness_word) == cert.witness_matrix


class TestBasisOrbits:
    def test_agrees_with_group_is_finite(self):
        kinds = {BasisOrbits: 0, GroupInfinite: 0}
        for group in random_generator_sets(3003, 200):
            cert = basis_orbits(group)
            exact = group_is_finite(group)
            kinds[type(cert)] += 1
            if isinstance(exact, GroupInfinite):
                assert cert == exact  # the same word and matrix
                assert group.word_to_matrix(cert.witness_word) == cert.witness_matrix
                continue
            assert isinstance(cert, BasisOrbits)
            assert exact.order <= math.prod(len(orbit) for orbit in cert.orbits)
            for e, orbit in zip(IntMatrix.identity(group.rank).rows, cert.orbits, strict=True):
                assert e in orbit
                assert_closed(group, orbit)
        assert min(kinds.values()) >= 40, kinds

    def test_orbit_sizes_of_permutation_groups(self):
        s3 = (
            IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
            IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        )
        cert = basis_orbits(MatGroupGens(3, s3))
        assert [len(o) for o in cert.orbits] == [3, 3, 3]
        cert = basis_orbits(MatGroupGens(2, (ROT4,)))
        assert cert.orbits[0] == frozenset({(1, 0), (0, 1), (-1, 0), (0, -1)})

    def test_sublattice_matches_mod3_reference(self):
        for group in random_generator_sets(3004, 150):
            cert = finite_orbit_sublattice(group)
            assert cert.lattice == reference_finite_orbit_sublattice(group)
            for b, orbit in zip(cert.lattice.basis, cert.basis_orbits, strict=True):
                assert b in orbit
                assert_closed(group, orbit)

    def test_exact_order_is_lazy(self, monkeypatch):
        import icckit.matgroup as matgroup_mod

        calls = []
        original = matgroup_mod.group_is_finite
        monkeypatch.setattr(
            matgroup_mod, "group_is_finite", lambda g: calls.append(g) or original(g)
        )
        cert = finite_orbit_sublattice(MatGroupGens(2, (ROT4,)))
        assert not calls
        assert cert.induced_finiteness == GroupFinite(4)
        assert cert.induced_finiteness == GroupFinite(4)
        assert len(calls) == 1


class TestSingleFiniteOrbitSpace:
    def test_identity_full(self):
        assert single_finite_orbit_space(IntMatrix.identity(2)) == Lattice.full(2)

    def test_hyperbolic_trivial(self):
        assert single_finite_orbit_space(HYPER).rank == 0

    def test_involution_conjugate_full(self):
        m = IntMatrix.from_rows([[1, 1], [0, -1]])
        assert m ** 2 == IntMatrix.identity(2)
        assert single_finite_orbit_space(m) == Lattice.full(2)

    def test_unipotent_fixed_line(self):
        assert single_finite_orbit_space(SHEAR).basis == ((1, 0),)

    def test_mixed_block(self):
        m = IntMatrix.from_rows([[2, 1, 0], [1, 1, 0], [0, 0, -1]])
        space = single_finite_orbit_space(m)
        assert space.basis == ((0, 0, 1),)


class TestOrbitBfs:
    def test_zero_vector(self):
        res = orbit_bfs(MatGroupGens(2, (HYPER,)), (0, 0), 10)
        assert res == FiniteOrbit(frozenset({(0, 0)}))

    def test_negation_orbit(self):
        res = orbit_bfs(MatGroupGens(2, (NEG_I,)), (3, 5), 10)
        assert res == FiniteOrbit(frozenset({(3, 5), (-3, -5)}))

    def test_hyperbolic_exceeds(self):
        res = orbit_bfs(MatGroupGens(2, (HYPER,)), (1, 0), 1000)
        assert res == OrbitCapExceeded(1000)

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            orbit_bfs(MatGroupGens(2, (NEG_I,)), (1, 0), 0)

    def test_exact_orbit_contents(self):
        res = orbit_bfs(MatGroupGens(2, (ROT4,)), (2, 1), 10)
        assert res == FiniteOrbit(frozenset({(2, 1), (-1, 2), (-2, -1), (1, -2)}))


class TestFiniteOrbitSublattice:
    def test_hyperbolic_rank_zero(self):
        cert = finite_orbit_sublattice(MatGroupGens(2, (HYPER,)))
        assert cert.lattice.rank == 0

    def test_negation_full(self):
        cert = finite_orbit_sublattice(MatGroupGens(2, (NEG_I,)))
        assert cert.lattice == Lattice.full(2)
        assert cert.induced_finiteness.order == 2

    def test_infinite_dihedral_line(self):
        gens = MatGroupGens(
            2,
            (IntMatrix.from_rows([[1, 1], [0, -1]]), IntMatrix.from_rows([[1, 0], [0, -1]])),
        )
        cert = finite_orbit_sublattice(gens)
        assert cert.lattice.basis == ((1, 0),)
        assert cert.infinite_order_witnesses  # a unipotent product was found
        assert orbit_bfs(gens, (1, 0), 5) == FiniteOrbit(frozenset({(1, 0)}))
        assert orbit_bfs(gens, (0, 1), 1000) == OrbitCapExceeded(1000)

    def test_agrees_with_single_generator_space(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 3)
            m = random_unimodular(rng, n, steps=rng.randint(1, 8))
            cert = finite_orbit_sublattice(MatGroupGens(n, (m,)))
            assert cert.lattice == single_finite_orbit_space(m)

    def test_invariance_and_orbit_split(self):
        rng = random.Random(12)
        for _ in range(20):
            n = rng.randint(1, 3)
            gens = tuple(
                random_unimodular(rng, n, steps=rng.randint(1, 6), entry_bound=4)
                for _ in range(rng.randint(1, 2))
            )
            group = MatGroupGens(n, gens)
            cert = finite_orbit_sublattice(group)
            lat = cert.lattice
            for g in gens:
                assert lat.image_under(g) == lat
            cap = cert.induced_finiteness.order + 1
            for b in lat.basis:
                assert isinstance(orbit_bfs(group, b, cap), FiniteOrbit)
            if lat.rank < n:
                for _ in range(4):
                    v = tuple(rng.randint(-3, 3) for _ in range(n))
                    if any(v) and v not in lat:
                        assert isinstance(orbit_bfs(group, v, 10_000), OrbitCapExceeded)

    def test_generating_set_invariance(self):
        rng = random.Random(13)
        for _ in range(10):
            n = rng.randint(2, 3)
            gens = [random_unimodular(rng, n, steps=4) for _ in range(2)]
            group = MatGroupGens(n, tuple(gens))
            base = finite_orbit_sublattice(group).lattice
            extra = gens[0] @ gens[1]
            augmented = MatGroupGens(n, tuple(gens) + (extra,))
            assert finite_orbit_sublattice(augmented).lattice == base


class TestRestrictToLattice:
    def test_restriction_reproduces_ambient_action(self):
        lat = Lattice.from_rows(2, [(1, 0)])
        m = IntMatrix.from_rows([[1, 1], [0, -1]])
        a = restrict_to_lattice(m, lat)
        assert a == IntMatrix.identity(1)

    def test_non_invariant_returns_none(self):
        lat = Lattice.from_rows(2, [(1, 0)])
        assert restrict_to_lattice(ROT4, lat) is None
