import builtins
import collections
import itertools
import math
import random
import re
from collections import deque
from pathlib import Path

import pytest

import icckit
import icckit.intlinalg as intlinalg_mod
import icckit.matgroup as matgroup_mod
from icckit.intlinalg import (
    IntMatrix,
    IntPoly,
    Lattice,
    _divisors,
    charpoly,
    cyclotomic_orders,
    cyclotomic_polynomial,
    kernel_lattice,
    lcm_all,
)
from icckit.matgroup import (
    BasisOrbits,
    FiniteOrbit,
    GroupInfinite,
    MatGroupGens,
    OrbitCapExceeded,
    _mod3_period,
    _row_applier,
    _shrink_to_invariant,
    basis_orbits,
    finite_orbit_sublattice,
    matrix_order,
    mod3,
    mod3_screen,
    orbit_bfs,
    restrict_to_lattice,
    single_finite_orbit_space,
)
from tests.helpers import (
    block_diag,
    conjugated,
    count_calls,
    random_unimodular,
    reference_schreier_certificate,
    word_matrix,
)

ROT4 = IntMatrix.from_rows([[0, -1], [1, 0]])
SHEAR = IntMatrix.from_rows([[1, 1], [0, 1]])
HYPER = IntMatrix.from_rows([[2, 1], [1, 1]])
NEG_I = IntMatrix.from_rows([[-1, 0], [0, -1]])
# Finite-order blocks: rotations of order 4, 3 and 6, a swap, and -1.
ROTATIONS = (ROT4, IntMatrix.from_rows([[0, -1], [1, -1]]), IntMatrix.from_rows([[1, -1], [1, 0]]),
             IntMatrix.from_rows([[0, 1], [1, 0]]), IntMatrix.from_rows([[-1]]))


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


def reference_shrink(lat, group):
    """The largest invariant sublattice by intersecting with images under
    every generator and inverse until nothing moves: the shrink with no
    shortcut, kept here as the reference for :func:`_shrink_to_invariant`."""
    pairs = [(g, g.inverse_unimodular()) for g in group.gens]
    while True:
        nxt = lat
        for g, ginv in pairs:
            if nxt.rank == 0:
                return nxt
            nxt = nxt.intersect(nxt.image_under(g)).intersect(nxt.image_under(ginv))
        if nxt == lat:
            return nxt
        lat = nxt


def reference_finite_orbit_sublattice(group):
    """The finite-orbit sublattice with every candidate shrunk by
    :func:`reference_shrink` and every induced action decided by the full
    mod-3 enumeration of :func:`reference_schreier_certificate`, each
    finite-orbit space taken by :func:`cyclotomic_reference`; an
    independent route to the lattice that finite_orbit_sublattice
    certifies by restrictions and basis orbits."""
    r = group.rank
    cand = Lattice.full(r)
    for g in group.gens:
        cand = cand.intersect(cyclotomic_reference(g)[1])
    while True:
        cand = reference_shrink(cand, group)
        if cand.rank == 0:
            return cand
        induced = tuple(restrict_to_lattice(g, cand) for g in group.gens)
        cert = reference_schreier_certificate(MatGroupGens(cand.rank, induced))
        if not isinstance(cert, GroupInfinite):
            return cand
        fixed = cyclotomic_reference(cert.witness_matrix)[1]
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


def permutation_matrix(p):
    """The matrix sending e_j to e_p(j)."""
    n = len(p)
    return IntMatrix.from_rows([[int(p[j] == i) for j in range(n)] for i in range(n)])


def symmetric_group(n):
    """S_n permuting a basis of Z^n, by a transposition and an n-cycle."""
    swap = permutation_matrix((1, 0) + tuple(range(2, n)))
    cycle = permutation_matrix(tuple(range(1, n)) + (0,))
    return MatGroupGens(n, (swap, cycle))


def signed_permutations(n):
    """The signed permutation matrices of Z^n, of order 2^n n!."""
    flip = IntMatrix.from_rows([[(-1 if i == 0 else 1) if i == j else 0 for j in range(n)]
                                for i in range(n)])
    return MatGroupGens(n, symmetric_group(n).gens + (flip,))


def random_signed_permutation(rng, n):
    """A seeded signed permutation matrix of Z^n: one +-1 in every row
    and column."""
    p = list(range(n))
    rng.shuffle(p)
    return IntMatrix.from_rows([[rng.choice((1, -1)) * (p[i] == j) for j in range(n)] for i in range(n)])


def random_lattice(rng, r):
    """A sublattice of Z^r spanned by 1 to r small random vectors, often
    not pure."""
    return Lattice.from_rows(r, [tuple(rng.randint(-3, 3) for _ in range(r))
                                 for _ in range(rng.randint(1, r))])


def assert_closed(group, orbit):
    for g in group.gens:
        for m in (g, g.inverse_unimodular()):
            assert {m.apply(v) for v in orbit} == orbit


def reference_orbit(group, start, cap):
    """The orbit of ``start`` by breadth-first closure under every
    generator and its inverse, or None once it passes ``cap`` vectors."""
    steps = [m for g in group.gens for m in (g, g.inverse_unimodular())]
    seen, queue = {start}, deque([start])
    while queue:
        v = queue.popleft()
        for m in steps:
            w = m.apply(v)
            if w not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


class TestMatrixOrder:
    def test_identity(self):
        assert matrix_order(IntMatrix.identity(3)) == 1

    def test_rank_zero(self):
        assert matrix_order(IntMatrix.identity(0)) == 1

    def test_identity_takes_no_charpoly(self, monkeypatch):
        """Trivial actions are common, and a charpoly costs n - 1 products
        of n x n matrices: the identity, of mod-3 period 1, is answered
        without one, and so is a rotation of period 4."""
        calls = count_calls(monkeypatch, matgroup_mod, "charpoly")
        for n in (1, 2, 5, 12):
            assert matrix_order(IntMatrix.identity(n)) == 1
            assert single_finite_orbit_space(IntMatrix.identity(n)) == Lattice.full(n)
        assert calls == []
        assert matrix_order(ROT4) == 4 and len(calls) == 0

    def test_rotation(self):
        assert matrix_order(ROT4) == 4
        assert ROT4 ** 4 == IntMatrix.identity(2)

    def test_unipotent_is_infinite(self):
        # cyclotomic charpoly (x-1)^2 but not semisimple
        assert matrix_order(SHEAR) is None

    def test_hyperbolic_is_infinite(self):
        assert matrix_order(HYPER) is None

    def test_non_unimodular_rejected(self):
        """M^n = I forces det M = +-1, so a matrix outside GL(r, Z) has
        no finite order: None is the exact answer, with no det check."""
        assert matrix_order(IntMatrix.from_rows([[2, 0], [0, 2]])) is None
        assert matrix_order(IntMatrix.from_rows([[2, 0], [0, -1]])) is None

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


def brute_force_order(m, limit=60):
    """The least n <= limit with M^n = I, or None."""
    power = m
    for n in range(1, limit + 1):
        if power.is_identity:
            return n
        power = power @ m
    return None


def mod3_period(m, limit):
    """The least k <= limit with M^k = I mod 3, by exact powers, or None."""
    power = m
    for k in range(1, limit + 1):
        if all((x - (i == j)) % 3 == 0 for i, row in enumerate(power.rows) for j, x in enumerate(row)):
            return k
        power = power @ m
    return None


def cyclotomic_reference(m):
    """(order or None, finite-orbit space) by the cyclotomic route alone:
    L the lcm of the cyclotomic orders dividing charpoly(M), the space
    ker(M^L - I), and the order the least divisor n of L with M^n = I."""
    big = lcm_all(cyclotomic_orders(charpoly(m), m.nrows).orders | {1})
    power = m ** big
    order = next((d for d in _divisors(big) if (m ** d).is_identity), None)
    return order, kernel_lattice(power - IntMatrix.identity(m.nrows))


def companion(coeffs):
    """The companion matrix of x^r + c_{r-1} x^{r-1} + ... + c_0, for
    ``coeffs`` = (c_0, ..., c_{r-1})."""
    r = len(coeffs)
    return IntMatrix.from_rows([[int(i == j + 1) for j in range(r - 1)] + [-coeffs[i]] for i in range(r)])


# Finite orders past the walk: the companions of Phi_5 Phi_6 (rank 6,
# order 30), Phi_8 Phi_5 Phi_3 (rank 10, order 120) and Phi_7 Phi_9
# (rank 12, order 63).
PAST_THE_WALK_ORDERS = (((5, 6), 30), ((8, 5, 3), 120), ((7, 9), 63))


def cyclotomic_companion(factors):
    """The companion matrix of the product of Phi_n over ``factors``."""
    poly = IntPoly((1,))
    for n in factors:
        poly = poly * cyclotomic_polynomial(n)
    return companion(poly.coeffs[:-1])


def rotation_jordan_block(rng):
    """[[R, I], [0, R]] for a rotation R: cyclotomic, not semisimple."""
    r = rng.choice(ROTATIONS[:3])
    zero, one = IntMatrix.from_rows([[0, 0], [0, 0]]), IntMatrix.identity(2)
    return IntMatrix.from_rows([a + b for a, b in zip(r.rows, one.rows)]
                               + [a + b for a, b in zip(zero.rows, r.rows)])


class TestMatrixOrderMixedSpectra:
    """Conjugated block diagonals against the least n <= 60 with M^n = I.

    ``hyperbolic``: rotation blocks beside a hyperbolic one, so charpoly
    is only partly cyclotomic.  ``shear``: rotation blocks beside a shear
    or a rotation Jordan block, so charpoly is cyclotomic but M is not
    semisimple.  ``finite``: rotation blocks only."""

    @staticmethod
    def draw(rng, kind, most=2):
        """1 to ``most`` rotation blocks, beside the kind's block."""
        blocks = [rng.choice(ROTATIONS) ** rng.randint(-3, 3) for _ in range(rng.randint(1, most))]
        if kind == "hyperbolic":
            blocks.append(rng.choice((HYPER, HYPER.inverse_unimodular(), HYPER.scale(-1))))
        elif kind == "shear":
            blocks.append(rng.choice((SHEAR, SHEAR.scale(-1), rotation_jordan_block(rng))))
        rng.shuffle(blocks)
        return conjugated(rng, [block_diag(*blocks)])[0]

    @pytest.mark.parametrize("kind", ["finite", "hyperbolic", "shear"])
    def test_order_is_least_power_to_identity(self, kind):
        rng = random.Random(f"matrix-order:{kind}")
        for _ in range(40):
            m = self.draw(rng, kind)
            factors = cyclotomic_orders(charpoly(m), m.nrows)
            assert factors.all_cyclotomic == (kind != "hyperbolic")
            assert factors.orders  # every draw has a rotation block
            order = matrix_order(m)
            assert order == brute_force_order(m)
            assert (order is None) == (kind != "finite")


class TestPeriodWalk:
    """``matrix_order`` and ``single_finite_orbit_space`` read the order
    and the finite-orbit space off the mod-3 period when it is at most
    3r + 1 (``CATALOG_AXIOMS.md`` §6), and fall back to the cyclotomic
    route past it; both agree with that route and with brute force."""

    @staticmethod
    def assert_agrees(m, limit=60):
        order, space = cyclotomic_reference(m)
        assert matrix_order(m) == order == brute_force_order(m, limit)
        assert single_finite_orbit_space(m) == space

    @pytest.mark.parametrize("kind", ["finite", "hyperbolic", "shear"])
    def test_mixed_spectra_agree_with_cyclotomic_route(self, kind, monkeypatch):
        calls = count_calls(monkeypatch, matgroup_mod, "charpoly")
        rng = random.Random(f"period-walk:{kind}")
        ranks = set()
        for _ in range(100):
            m = TestMatrixOrderMixedSpectra.draw(rng, kind, most=4)
            if not 2 <= m.nrows <= 6:
                continue
            ranks.add(m.nrows)
            calls.clear()
            self.assert_agrees(m)
            if kind == "finite" and m.nrows <= 5:
                assert calls == [], "every finite order in GL(r, Z), r <= 5, is within the walk"
        assert {3, 4, 5, 6} <= ranks  # a hyperbolic or shear block comes beside a rotation

    @staticmethod
    def seeded_companions():
        """Twelve seeded companion matrices of ranks 6 to 12 whose mod-3
        period exceeds 3r + 1."""
        rng = random.Random("period-walk:companion")
        mats = []
        while len(mats) < 12:
            r = rng.randint(6, 12)
            m = companion([rng.choice((1, -1))] + [rng.randint(-2, 2) for _ in range(r - 1)])
            if mod3_period(m, 3 * r + 1) is None:
                mats.append(m)
        return mats

    def test_companions_past_the_walk_take_the_fallback(self, monkeypatch):
        """The seeded companions, and the finite orders past the walk of
        ``PAST_THE_WALK_ORDERS``."""
        calls = count_calls(monkeypatch, matgroup_mod, "charpoly")
        mats = self.seeded_companions()
        for factors, order in PAST_THE_WALK_ORDERS:
            m = cyclotomic_companion(factors)
            assert mod3_period(m, 3 * m.nrows + 1) is None
            assert matrix_order(m) == order
            mats.append(m)
        for m in mats:
            self.assert_agrees(m, limit=120)
        # one per object: every matrix took the fallback, and the memo of
        # ``_period_power`` shares it between the two functions
        assert collections.Counter(id(args[0]) for args, _ in calls) == collections.Counter(map(id, mats))

    def test_row_periods_combine_by_lcm(self, monkeypatch):
        """The mod-3 period is the lcm of the rows' periods.  Every row of
        these block diagonals returns within 3r + 1 steps, and the lcm
        alone decides between the walk and the fallback."""
        calls = count_calls(monkeypatch, matgroup_mod, "charpoly")
        fib = IntMatrix.from_rows([[1, 1], [1, 0]])
        phi5 = companion(cyclotomic_polynomial(5).coeffs[:-1])
        for blocks, order, fallback in (
            ((ROT4, ROTATIONS[1]), 12, False),  # periods 4 and 3: lcm 12 <= 13
            ((fib, SHEAR), None, True),  # periods 8 and 3: lcm 24 > 13
            ((phi5, ROT4), 20, True),  # periods 5 and 4: lcm 20 > 19
        ):
            m = block_diag(*blocks)
            assert (mod3_period(m, 3 * m.nrows + 1) is None) == fallback
            calls.clear()
            self.assert_agrees(m)
            assert matrix_order(m) == order
            # one per object on the fallback: the memo of ``_period_power``
            # shares it between assert_agrees and the line above
            assert len(calls) == (1 if fallback else 0)
        calls.clear()
        assert matrix_order(IntMatrix.identity(0)) == 1 and calls == []  # no rows, period 1

    def test_row_walk_matches_whole_matrix_powers(self):
        """``_mod3_period`` steps one row at a time and skips a start row
        met on an earlier row's walk; at every cap up to 3r + 1 it gives
        the least k <= cap with M^k = I mod 3 by whole-matrix powers, or
        None.  Ranks 0 to 8: signed permutations with several cycles,
        block diagonals whose rows have different periods, and the seeded
        companions, whose period exceeds every cap."""
        rng = random.Random("period-walk:rows")
        blocks = ROTATIONS + (SHEAR, HYPER, NEG_I)
        mats = [IntMatrix(())]
        mats += [random_signed_permutation(rng, rng.randint(1, 8)) for _ in range(60)]
        mats += [block_diag(*rng.choices(blocks, k=rng.randint(1, 4))) for _ in range(60)]
        mats += self.seeded_companions()
        ranks, capped = set(), 0
        for m in mats:
            cap = 3 * m.nrows + 1
            period = mod3_period(m, cap)
            ranks.add(m.nrows)
            for k in range(1, cap + 1):
                expected = period if period is not None and period <= k else None
                assert _mod3_period(m, k) == expected
                capped += period is not None and expected is None
        assert set(range(9)) <= ranks
        assert capped >= 100, capped

    def test_walk_and_power_are_kept_on_the_matrix_object(self, monkeypatch):
        """``single_finite_orbit_space`` then ``matrix_order`` of one matrix
        walk and power once; an equal but distinct matrix walks again, so
        the memo lives on the object, not on its value."""
        walks = count_calls(monkeypatch, matgroup_mod, "_mod3_period")
        powers = count_calls(monkeypatch, IntMatrix, "__pow__")
        m = block_diag(ROT4, ROTATIONS[1], SHEAR)
        assert single_finite_orbit_space(m) == Lattice.from_rows(6, IntMatrix.identity(6).rows[:5])
        assert matrix_order(m) is None
        assert len(walks) == len(powers) == 1
        twin = IntMatrix.from_rows(m.rows)
        assert twin == m and twin is not m
        assert matrix_order(twin) is None
        assert len(walks) == len(powers) == 2

    def test_order_takes_one_power(self, monkeypatch):
        """``matrix_order`` takes the one power M^L on both routes, since L
        is the order whenever M^L = I (``CATALOG_AXIOMS.md`` §6 and its
        cyclotomic-route addendum): on mixed-spectrum draws within the
        walk, on the seeded companions past it, and on the finite orders
        past it, where a search over the divisors of L took 9, 17 and 7
        powers."""
        rng = random.Random("period-walk:one-power")
        walked = [TestMatrixOrderMixedSpectra.draw(rng, kind)
                  for kind in ("finite", "hyperbolic", "shear") for _ in range(10)]
        finite = [cyclotomic_companion(factors) for factors, _ in PAST_THE_WALK_ORDERS]
        charpolys = count_calls(monkeypatch, matgroup_mod, "charpoly")
        powers = count_calls(monkeypatch, IntMatrix, "__pow__")
        routes = collections.Counter()
        for m in walked + self.seeded_companions() + finite:
            charpolys.clear()
            powers.clear()
            order = matrix_order(m)
            assert len(powers) == 1
            routes["fallback" if charpolys else "walk", order is not None] += 1
            assert order == cyclotomic_reference(m)[0]
        assert routes["fallback", True] == 3
        assert routes["walk", True] and routes["walk", False] and routes["fallback", False]

    def test_non_unimodular_and_non_square(self):
        for rows in ([[2, 0], [0, 2]], [[2, 0], [0, -1]], [[3, 0], [0, 1]], [[1, 1], [1, -2]], [[0]]):
            m = IntMatrix.from_rows(rows)
            assert matrix_order(m) is None
            assert matrix_order(m) == cyclotomic_reference(m)[0]
        for f in (matrix_order, single_finite_orbit_space):
            with pytest.raises(ValueError):
                f(IntMatrix.from_rows([[1, 2]]))


class TestRowApplier:
    """``_row_applier`` picks entries by index for a signed permutation
    matrix and compiles every other matrix; both agree with
    ``IntMatrix.apply``."""

    @staticmethod
    def spy_eval(monkeypatch):
        monkeypatch.setattr(matgroup_mod, "eval", builtins.eval, raising=False)
        return count_calls(monkeypatch, matgroup_mod, "eval")

    @staticmethod
    def assert_applies(m, rng):
        apply_m = _row_applier(m)
        for _ in range(5):
            v = tuple(rng.randint(-9, 9) for _ in range(m.nrows))
            assert apply_m(v) == m.apply(v)

    def test_signed_permutations_are_applied_by_index(self, monkeypatch):
        evals = self.spy_eval(monkeypatch)
        rng = random.Random("row-applier:signed")
        mats = [IntMatrix(()), IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[-1]])]
        mats += [random_signed_permutation(rng, r) for r in range(7) for _ in range(10)]
        for m in mats:
            self.assert_applies(m, rng)
        assert evals == []

    @pytest.mark.parametrize("rows", [
        [[1, 0], [1, 0]],  # one +-1 per row, a repeated column
        [[0, -1], [0, 1]],
        [[0, -2], [1, 0]],  # a +-2 entry
        [[2]],
        [[1, 0, 0], [0, 0, 1], [0, 1, 1]],
    ])
    def test_other_matrices_are_compiled(self, rows, monkeypatch):
        evals = self.spy_eval(monkeypatch)
        self.assert_applies(IntMatrix.from_rows(rows), random.Random("row-applier:compiled"))
        assert len(evals) == 1


class TestGroupIsFinite:
    """Finiteness decided by :func:`basis_orbits`, with the image order
    of the reference search: closed orbits bound that order, and an
    infinite group gets the reference's witness."""

    @staticmethod
    def assert_finite(gens, order):
        group = MatGroupGens(gens[0].nrows, gens)
        cert = basis_orbits(group)
        assert isinstance(cert, BasisOrbits)
        assert reference_schreier_certificate(group) == order
        assert order <= math.prod(len(orbit) for orbit in cert.orbits)

    def test_trivial(self):
        self.assert_finite((IntMatrix.identity(2),), 1)

    def test_rotation_c4(self):
        self.assert_finite((ROT4,), 4)

    def test_shear_infinite_with_witness(self):
        g = MatGroupGens(2, (SHEAR,))
        cert = basis_orbits(g)
        assert isinstance(cert, GroupInfinite)
        w = cert.witness_matrix
        assert w == SHEAR ** 3  # m mod 3 has order 3, so the cube closes first
        assert not w.is_identity
        assert mod3(w) == mod3(IntMatrix.identity(2))
        assert matrix_order(w) is None
        assert word_matrix(g, cert.witness_word) == w

    def test_finite_dihedral(self):
        self.assert_finite((ROT4, IntMatrix.from_rows([[1, 0], [0, -1]])), 8)

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
            self.assert_finite(gens, expected)
            assert brute_force_closure(gens, 4 * expected) == expected

    def test_infinite_witness_properties(self):
        rng = random.Random(9)
        found = 0
        while found < 5:
            gens = tuple(
                random_unimodular(rng, 2, steps=8) for _ in range(rng.randint(1, 2))
            )
            group = MatGroupGens(2, gens)
            cert = basis_orbits(group)
            if isinstance(cert, GroupInfinite):
                found += 1
                assert not cert.witness_matrix.is_identity
                assert mod3(cert.witness_matrix) == mod3(IntMatrix.identity(2))
                assert matrix_order(cert.witness_matrix) is None
                assert word_matrix(group, cert.witness_word) == cert.witness_matrix


class TestBasisOrbits:
    def test_agrees_with_the_reference_search(self):
        kinds = {BasisOrbits: 0, GroupInfinite: 0}
        for group in random_generator_sets(3003, 200):
            cert = basis_orbits(group)
            exact = reference_schreier_certificate(group)
            kinds[type(cert)] += 1
            if isinstance(exact, GroupInfinite):
                assert cert == exact  # the same word and matrix
                assert word_matrix(group, cert.witness_word) == cert.witness_matrix
                continue
            assert isinstance(cert, BasisOrbits)
            assert exact <= math.prod(len(orbit) for orbit in cert.orbits)
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


class TestSchreierSearch:
    """The compiled column-wise search of :func:`basis_orbits` decides as
    the whole-matrix reference does: closed orbits for a finite image
    order, or the same witness."""

    @staticmethod
    def assert_same_certificate(group):
        ref = reference_schreier_certificate(group)
        cert = basis_orbits(group)
        if isinstance(ref, GroupInfinite):
            assert cert == ref
        else:
            assert isinstance(cert, BasisOrbits)
        return ref

    @pytest.mark.parametrize("seed", [3003, 4004])
    def test_random_generator_sets(self, seed):
        kinds = {int: 0, GroupInfinite: 0}
        for group in random_generator_sets(seed, 150):
            kinds[type(self.assert_same_certificate(group))] += 1
        assert min(kinds.values()) >= 30, kinds

    @pytest.mark.parametrize(
        "group,order",
        [(symmetric_group(n), math.factorial(n)) for n in range(3, 7)]
        + [(signed_permutations(n), 2 ** n * math.factorial(n)) for n in (2, 3, 4)]
        + [(MatGroupGens(1, (IntMatrix.from_rows([[-1]]),)), 2)],
    )
    def test_finite_groups(self, group, order):
        assert self.assert_same_certificate(group) == order

    def test_inverses_change_no_decision(self):
        """CATALOG_AXIOMS §6 addendum: positive words reach all of a finite
        image, and Schreier's lemma needs only the generators, so the
        search with inverses decides the same finiteness and order."""
        kinds = {int: 0, GroupInfinite: 0}
        for group in random_generator_sets(3003, 150):
            cert = reference_schreier_certificate(group)
            with_inverses = reference_schreier_certificate(group, with_inverses=True)
            assert type(cert) is type(with_inverses)
            if not isinstance(cert, GroupInfinite):
                assert cert == with_inverses
            kinds[type(cert)] += 1
        assert min(kinds.values()) >= 30, kinds


class TestNoInverseInAWalk:
    """Every walk closes under the generators alone: finite groups, whose
    orbits and images close, cost no ``inverse_unimodular`` call."""

    @pytest.mark.parametrize("group", [symmetric_group(6), signed_permutations(4)])
    def test_finite_groups_take_no_inverse(self, monkeypatch, group):
        calls = count_calls(monkeypatch, IntMatrix, "inverse_unimodular")
        assert isinstance(basis_orbits(group), BasisOrbits)
        start = tuple(range(1, group.rank + 1))
        assert isinstance(orbit_bfs(group, start), FiniteOrbit)
        cert = finite_orbit_sublattice(group)
        assert cert.lattice == Lattice.full(group.rank)
        assert calls == []

    def test_orbit_bfs_matches_closure_with_inverses(self):
        """CATALOG_AXIOMS §9 addendum: a finite closure under the
        generators is the orbit, and an infinite orbit passes any cap, so
        orbit_bfs agrees with the closure under generators and inverses,
        cap included, on every nonzero vector of the box {-1, 0, 1}^r."""
        cap = 60
        finite = capped = 0
        for group in random_generator_sets(3008, 40):
            for v in itertools.product((-1, 0, 1), repeat=group.rank):
                if not any(v):
                    continue
                expected = reference_orbit(group, v, cap)
                result = orbit_bfs(group, v, cap)
                if expected is None:
                    assert result == OrbitCapExceeded(cap)
                    capped += 1
                else:
                    assert result == FiniteOrbit(expected)
                    finite += 1
        assert finite >= 100 and capped >= 100, (finite, capped)


class TestShrinkToInvariant:
    """The restriction test with the intersect fallback against the
    intersect-until-stable reference."""

    SWAP = MatGroupGens(2, (IntMatrix.from_rows([[0, 1], [1, 0]]),))

    @staticmethod
    def assert_matches_reference(lat, group):
        shrunk, induced = _shrink_to_invariant(lat, group)
        assert shrunk == reference_shrink(lat, group)
        assert induced == tuple(restrict_to_lattice(g, shrunk) for g in group.gens)
        assert all(a.det() in (1, -1) for a in induced)
        return shrunk

    def test_moved_line_shrinks_to_zero(self):
        line = Lattice.from_rows(2, [(1, 0)])
        assert self.assert_matches_reference(line, self.SWAP) == Lattice.zero(2)

    def test_invariant_non_pure_lattice_is_kept(self):
        lat = Lattice.from_rows(2, [(2, 0), (0, 1)])
        group = MatGroupGens(2, (IntMatrix.from_rows([[1, 2], [0, -1]]),))
        assert self.assert_matches_reference(lat, group) == lat

    def test_non_pure_lattice_shrinks_to_index_four(self):
        lat = Lattice.from_rows(2, [(2, 0), (0, 1)])
        assert self.assert_matches_reference(lat, MatGroupGens(2, (SHEAR,))) == Lattice.from_rows(
            2, [(2, 0), (0, 2)]
        )

    def test_seeded_pairs(self):
        rng = random.Random(3005)
        moved = 0
        for group in random_generator_sets(3006, 120):
            lat = random_lattice(rng, group.rank)
            moved += _shrink_to_invariant(lat, group)[0] != lat
            shrunk = self.assert_matches_reference(lat, group)
            doubled = Lattice.from_rows(group.rank, [tuple(2 * x for x in b) for b in shrunk.basis])
            assert self.assert_matches_reference(doubled, group) == doubled
        assert moved >= 30

    def test_mapped_into_itself_means_mapped_onto_itself(self):
        """CATALOG_AXIOMS section 12: for g in GL(r, Z), g(L) in L gives g(L) = L."""
        rng = random.Random(3007)
        inside = 0
        for _ in range(400):
            r = rng.randint(1, 4)
            g = random_unimodular(rng, r, steps=rng.randint(1, 8), entry_bound=3)
            lat = random_lattice(rng, r)
            lat = rng.choice((lat, reference_shrink(lat, MatGroupGens(r, (g,)))))
            a = restrict_to_lattice(g, lat)
            if a is None:
                continue
            inside += 1
            assert lat.image_under(g) == lat
            assert lat.image_under(g.inverse_unimodular()) == lat
            assert a.det() in (1, -1)
        assert inside >= 100


# HYPER beside a rotation, then a swap of the finite block.
HYPER_BESIDE_ROTATION = MatGroupGens(4, (
    IntMatrix.from_rows([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]),
    IntMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
))
ROTATION_BLOCK = Lattice.from_rows(4, [(0, 0, 1, 0), (0, 0, 0, 1)])


class TestHnfBudget:
    """Invariant candidates cost no HNF, and the walks take no inverse:
    what remains is the finite-orbit spaces of infinite-order generators."""

    @staticmethod
    def count_hnf_calls(monkeypatch, group, lattice):
        calls = count_calls(monkeypatch, intlinalg_mod, "hnf")
        assert finite_orbit_sublattice(group).lattice == lattice
        return len(calls)

    @pytest.mark.parametrize(
        "group,lattice,ceiling",
        [
            (symmetric_group(6), Lattice.full(6), 2),
            (HYPER_BESIDE_ROTATION, ROTATION_BLOCK, 4),
        ],
    )
    def test_hnf_calls_stay_few(self, monkeypatch, group, lattice, ceiling):
        """At most one HNF per generator's inverse and one per
        finite-orbit space of an infinite-order generator."""
        assert self.count_hnf_calls(monkeypatch, group, lattice) <= ceiling

    @pytest.mark.parametrize(
        "group,lattice,ceiling",
        [
            (symmetric_group(6), Lattice.full(6), 0),
            (HYPER_BESIDE_ROTATION, ROTATION_BLOCK, 1),
        ],
    )
    def test_walks_cost_no_hnf(self, monkeypatch, group, lattice, ceiling):
        """No inverse is formed, so only the finite-orbit spaces of the
        infinite-order generators cost an HNF, one each: a kernel is read
        off a single HNF."""
        assert self.count_hnf_calls(monkeypatch, group, lattice) <= ceiling


class TestSingleFiniteOrbitSpace:
    def test_identity_full(self):
        assert single_finite_orbit_space(IntMatrix.identity(2)) == Lattice.full(2)

    def test_rank_zero(self):
        assert single_finite_orbit_space(IntMatrix.identity(0)) == Lattice.zero(0)

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


class TestMod3:
    def test_screen_and_schreier_search_count_the_same_image(self):
        """Commuting finite families, each generator a signed power of one
        signed permutation or rotation per block, all conjugated: the
        screen's subgroup chain and the reference Schreier search
        enumerate the same mod-3 image through one reducer."""
        rng = random.Random(16)
        bases = ROTATIONS[:3] + tuple(
            permutation_matrix(tuple(range(1, k)) + (0,)).scale(sign) for k in (1, 2, 3) for sign in (1, -1))
        orders = set()
        for _ in range(40):
            blocks = [rng.choice(bases) for _ in range(rng.randint(1, 3))]
            gens = [block_diag(*((b ** rng.randint(0, 5)).scale(rng.choice((1, -1))) for b in blocks))
                    for _ in range(rng.randint(1, 3))]
            gens = conjugated(rng, gens)
            n = gens[0].nrows
            screen = mod3_screen(gens, IntMatrix.identity(n), 10 ** 6)
            order = reference_schreier_certificate(MatGroupGens(n, tuple(gens)))
            assert len(screen.elements) == order
            orders.add(order)
        assert len(orders) >= 6, orders

    def test_mod3_arithmetic_lives_in_matgroup(self):
        """No other module reduces mod 3: ``% 3`` and ``.mod(`` appear in
        matgroup.py only."""
        pattern = re.compile(r"%\s*3\b|\.mod\(")
        found = {path.name: [line for line in path.read_text(encoding="utf-8").splitlines()
                             if pattern.search(line)]
                 for path in sorted(Path(icckit.__file__).parent.glob("*.py"))}
        assert found.pop("matgroup.py"), "the pattern finds matgroup's own arithmetic"
        assert {name: lines for name, lines in found.items() if lines} == {}
        assert not hasattr(IntMatrix, "mod")


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
    def test_trivial_group(self):
        cert = finite_orbit_sublattice(MatGroupGens(3, ()))
        assert cert.lattice == Lattice.full(3)
        assert cert.basis_orbits == tuple(frozenset({e}) for e in IntMatrix.identity(3).rows)
        assert reference_schreier_certificate(MatGroupGens(3, cert.induced_gens)) == 1

    def test_identity_generators_change_nothing(self):
        """The analyzer leaves identity actions out of the group."""
        for group in random_generator_sets(3003, 200):
            eye = IntMatrix.identity(group.rank)
            padded = MatGroupGens(group.rank, (eye,) + group.gens + (eye,))
            cert, padded_cert = finite_orbit_sublattice(group), finite_orbit_sublattice(padded)
            assert padded_cert.lattice == cert.lattice
            assert padded_cert.basis_orbits == cert.basis_orbits

    def test_hyperbolic_rank_zero(self):
        cert = finite_orbit_sublattice(MatGroupGens(2, (HYPER,)))
        assert cert.lattice.rank == 0

    def test_negation_full(self):
        cert = finite_orbit_sublattice(MatGroupGens(2, (NEG_I,)))
        assert cert.lattice == Lattice.full(2)
        assert reference_schreier_certificate(MatGroupGens(2, cert.induced_gens)) == 2

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

    def test_witness_cut_takes_no_charpoly(self, monkeypatch):
        """A generator's finite-orbit space takes one charpoly only when
        its mod-3 period exceeds 3r + 1 (the walk of ``_period_power``),
        and only generators met before the running intersection of those
        spaces reaches 0 take theirs; a witness W (W = I mod 3) cuts by
        ker(W - I) and takes none."""
        calls = count_calls(monkeypatch, matgroup_mod, "charpoly")
        dihedral = MatGroupGens(
            2, (IntMatrix.from_rows([[1, 1], [0, -1]]), IntMatrix.from_rows([[1, 0], [0, -1]])))
        cut = stopped = 0
        for group in [dihedral, *random_generator_sets(3004, 150)]:
            visited, running = [], Lattice.full(group.rank)
            for g in group.gens:
                if running.rank == 0:
                    break
                visited.append(g)
                running = running.intersect(cyclotomic_reference(g)[1])
            stopped += len(visited) < len(group.gens)
            calls.clear()
            cert = finite_orbit_sublattice(group)
            assert len(calls) == sum(mod3_period(g, 3 * g.nrows + 1) is None for g in visited)
            cut += bool(cert.infinite_order_witnesses)
            assert cert.lattice == reference_finite_orbit_sublattice(group)
        assert cut >= 5, cut
        assert stopped >= 20, stopped

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
            cap = reference_schreier_certificate(MatGroupGens(lat.rank, cert.induced_gens)) + 1
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

    def test_zero_lattice(self):
        assert restrict_to_lattice(ROT4, Lattice.zero(2)) == IntMatrix.identity(0)
