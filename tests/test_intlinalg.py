import random
from fractions import Fraction
from math import gcd

import pytest

import icckit.intlinalg as intlinalg_mod
from icckit.intlinalg import (
    IntMatrix,
    IntPoly,
    Lattice,
    charpoly,
    cyclotomic_orders,
    cyclotomic_polynomial,
    hnf,
    kernel_lattice,
    x_power_minus_one,
)
from tests.helpers import count_calls, enumerate_box, random_unimodular


def zeros(nrows: int, ncols: int) -> IntMatrix:
    return IntMatrix.from_rows([[0] * ncols for _ in range(nrows)])


def is_row_hnf(m: IntMatrix) -> bool:
    """Structural HNF predicate, written independently of hnf() itself."""
    pivots = []
    seen_zero = False
    for row in m.rows:
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            seen_zero = True
            continue
        if seen_zero:
            return False  # zero rows must trail
        j = nz[0]
        if row[j] <= 0:
            return False
        if pivots and j <= pivots[-1]:
            return False
        pivots.append(j)
    for i, j in enumerate(pivots):
        p = m.rows[i][j]
        for above in range(i):
            if not 0 <= m.rows[above][j] < p:
                return False
    return True


def rational_row_space_contains(rows, v) -> bool:
    """Reduced row echelon over Q: is v in the rational row span?"""
    echelon: list[list[Fraction]] = []  # fully reduced; distinct pivot columns

    def reduce(r):
        r = list(r)
        for e in echelon:
            piv = next(j for j, x in enumerate(e) if x)
            if r[piv]:
                c = r[piv] / e[piv]
                r = [a - c * b for a, b in zip(r, e)]
        return r

    for row in rows:
        r = reduce([Fraction(x) for x in row])
        if any(r):
            piv = next(j for j, x in enumerate(r) if x)
            for e in echelon:
                if e[piv]:
                    c = e[piv] / r[piv]
                    e[:] = [a - c * b for a, b in zip(e, r)]
            echelon.append(r)
    return not any(reduce([Fraction(x) for x in v]))


class TestHnf:
    def test_identity(self):
        a = IntMatrix.identity(3)
        h, u = hnf(a)
        assert h == a and u == a

    def test_zero(self):
        a = zeros(2, 2)
        h, u = hnf(a)
        assert h == a
        assert u == IntMatrix.identity(2)
        for shape in [(1, 1), (3, 1), (2, 4)]:
            self.assert_augmented_contract(zeros(*shape))

    def test_two_by_two(self):
        a = IntMatrix.from_rows([[2, 4], [6, 8]])
        h, u = hnf(a)
        assert h == u @ a
        assert u.det() in (1, -1)
        assert is_row_hnf(h)
        # canonical for the row space: any unimodular re-mix gives the same H
        rng = random.Random(7)
        for _ in range(20):
            p = random_unimodular(rng, 2, steps=8)
            h2, _ = hnf(p @ a)
            assert h2 == h

    @pytest.mark.parametrize("seed", range(15))
    def test_random_properties(self, seed):
        rng = random.Random(seed)
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        )
        h, u = hnf(a)
        assert h == u @ a
        assert u.det() in (1, -1)
        assert is_row_hnf(h)
        p = random_unimodular(rng, n, steps=10)
        h2, _ = hnf(p @ a)
        assert h2 == h
        # same rational row space
        for row in h.rows:
            assert rational_row_space_contains(a.rows, row)
        for row in a.rows:
            assert rational_row_space_contains(h.rows, row)

    @staticmethod
    def assert_augmented_contract(a):
        """[H | U] is the canonical HNF of [a | I]: H = U a and det U = +-1."""
        h, u = hnf(a)
        assert is_row_hnf(IntMatrix.from_rows([hr + ur for hr, ur in zip(h.rows, u.rows)]))
        assert u @ a == h
        assert u.det() in (1, -1)

    @pytest.mark.parametrize("seed", range(40))
    def test_rank_deficient_augmented(self, seed):
        """Rank-deficient inputs: U's rows beside H's zero rows are reduced too."""
        rng = random.Random(500 + seed)
        m, n = rng.randint(2, 5), rng.randint(1, 4)
        k = rng.randint(1, min(m - 1, n))
        c = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)])
        b = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)])
        a = c @ b
        assert not all(any(r) for r in hnf(a)[0].rows)  # rank < m
        self.assert_augmented_contract(a)


class TestKernelLattice:
    def test_identity_kernel_trivial(self):
        assert kernel_lattice(IntMatrix.identity(3)).rank == 0

    def test_zero_matrix_full(self):
        k = kernel_lattice(zeros(2, 2))
        assert k == Lattice.full(2)
        assert kernel_lattice(IntMatrix(())) == Lattice.full(0)

    def test_difference_row(self):
        a = IntMatrix.from_rows([[1, -1]])
        k = kernel_lattice(a)
        assert k.basis == ((1, 1),)
        for v in enumerate_box(2, 10):
            assert (tuple(v) in k) == (a.apply(v) == (0,))

    @staticmethod
    def _draws(rng):
        """One random matrix, then a wide one, a tall rank-deficient one and
        one with all-zero rows."""
        def draw(rows, cols):
            return [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]

        yield draw(rng.randint(1, 3), rng.randint(1, 4))
        yield draw(rng.randint(1, 2), rng.randint(4, 5))
        rows, cols = rng.randint(4, 5), rng.randint(2, 3)
        yield (IntMatrix.from_rows(draw(rows, cols - 1)) @ IntMatrix.from_rows(draw(cols - 1, cols))).rows
        rows = draw(rng.randint(1, 2), rng.randint(2, 4))
        for _ in range(rng.randint(1, 2)):
            rows.insert(rng.randint(0, len(rows)), [0] * len(rows[0]))
        yield rows

    @pytest.mark.parametrize("seed", range(10))
    def test_random_membership_and_purity(self, seed):
        rng = random.Random(100 + seed)
        for rows in self._draws(rng):
            a = IntMatrix.from_rows(rows)
            cols = a.ncols
            k = kernel_lattice(a)
            assert is_row_hnf(IntMatrix.from_rows(k.basis))
            for b in k.basis:
                assert a.apply(b) == (0,) * a.nrows
            for v in enumerate_box(cols, 3 if cols <= 4 else 2):
                inside = all(x == 0 for x in a.apply(v))
                assert (tuple(v) in k) == inside
            # purity: scaling a member down to its primitive form stays inside
            for b in k.basis:
                g = 0
                for x in b:
                    g = gcd(g, x)
                if g > 1:
                    assert tuple(x // g for x in b) in k

    def test_one_hnf_per_nonzero_kernel(self, monkeypatch):
        calls = count_calls(monkeypatch, intlinalg_mod, "hnf")
        seen = 0
        for seed in range(10):
            for rows in self._draws(random.Random(100 + seed)):
                before = len(calls)
                if kernel_lattice(IntMatrix.from_rows(rows)).rank:
                    assert len(calls) - before == 1
                    seen += 1
        assert seen >= 20


class TestLatticeIntersect:
    def test_full_is_identity_element(self):
        l1 = Lattice.from_rows(2, [(2, 1)])
        assert l1.intersect(Lattice.full(2)) == l1

    def test_axes_meet_trivially(self):
        l1 = Lattice.from_rows(2, [(1, 0)])
        l2 = Lattice.from_rows(2, [(0, 1)])
        assert l1.intersect(l2).rank == 0

    def test_index_two_example(self):
        l1 = Lattice.from_rows(2, [(2, 0), (0, 1)])
        l2 = Lattice.from_rows(2, [(1, 1)])
        meet = l1.intersect(l2)
        assert meet.basis == ((2, 2),)
        for v in enumerate_box(2, 10):
            v = tuple(v)
            assert (v in meet) == (v in l1 and v in l2)

    def _random_lattice(self, rng, ambient):
        k = rng.randint(0, ambient)
        rows = [[rng.randint(-3, 3) for _ in range(ambient)] for _ in range(k)]
        return Lattice.from_rows(ambient, rows)

    @staticmethod
    def assert_meet(x, y):
        """Brute force: the basis is canonical, and over a box of vectors and
        a box of combinations of x's basis, v lies in the meet exactly when
        it lies in both lattices."""
        meet = x.intersect(y)
        assert is_row_hnf(IntMatrix.from_rows(meet.basis))
        radius = 3 if x.ambient <= 3 else 2
        for v in enumerate_box(x.ambient, radius):
            assert (v in meet) == (v in x and v in y)
        for coords in enumerate_box(x.rank, 2):
            v = x.member_from_coords(coords)
            assert (v in meet) == (v in y)

    @pytest.mark.parametrize("seed", range(12))
    def test_algebraic_laws(self, seed):
        rng = random.Random(200 + seed)
        for ambient in (rng.randint(1, 3), 4):
            a = self._random_lattice(rng, ambient)
            b = self._random_lattice(rng, ambient)
            c = self._random_lattice(rng, ambient)
            assert a.intersect(b) == b.intersect(a)
            assert a.intersect(a) == a
            assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))
            zero, full = Lattice.zero(ambient), Lattice.full(ambient)
            for x, y in [(a, b), (b, c), (c, a), (a, zero), (zero, b), (a, full), (full, c), (full, full)]:
                self.assert_meet(x, y)

    def test_one_hnf_per_nonzero_meet(self, monkeypatch):
        calls = count_calls(monkeypatch, intlinalg_mod, "hnf")
        rng = random.Random(17)
        seen = 0
        for _ in range(60):
            ambient = rng.randint(1, 4)
            a = self._random_lattice(rng, ambient)
            b = self._random_lattice(rng, ambient)
            before = len(calls)
            if a.intersect(b).rank:
                assert len(calls) - before == 1
                seen += 1
        assert seen >= 20

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            Lattice.full(2).intersect(Lattice.full(3))


class TestCharpoly:
    def test_identity(self):
        p = charpoly(IntMatrix.identity(2))
        assert p.coeffs == (1, -2, 1)  # (x-1)^2

    def test_rotation(self):
        assert charpoly(IntMatrix.from_rows([[0, -1], [1, 0]])).coeffs == (1, 0, 1)

    def test_fibonacci_like(self):
        assert charpoly(IntMatrix.from_rows([[2, 1], [1, 1]])).coeffs == (1, -3, 1)

    @pytest.mark.parametrize("seed", range(20))
    def test_two_by_two_formula(self, seed):
        rng = random.Random(300 + seed)
        m = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
        p = charpoly(m)
        # independent oracle: x^2 - tr x + det
        assert p.coeffs == (m.det(), -m.trace(), 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cayley_hamilton(self, n):
        rng = random.Random(n)
        for _ in range(8):
            m = IntMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            )
            p = charpoly(m)
            acc = zeros(n, n)
            power = IntMatrix.identity(n)
            for c in p.coeffs:
                acc = acc + power.scale(c)
                power = power @ m
            assert acc == zeros(n, n)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            charpoly(IntMatrix.from_rows([[1, 2]]))


class TestCyclotomic:
    def test_x2_plus_1(self):
        res = cyclotomic_orders(IntPoly((1, 0, 1)), 2)
        assert res.orders == frozenset({4}) and res.all_cyclotomic

    def test_non_cyclotomic(self):
        res = cyclotomic_orders(IntPoly((1, -3, 1)), 2)
        assert res.orders == frozenset() and not res.all_cyclotomic

    def test_x_minus_1_squared(self):
        p = IntPoly((1, -2, 1))
        res = cyclotomic_orders(p, 2)
        assert res.orders == frozenset({1}) and res.all_cyclotomic

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            cyclotomic_orders(IntPoly((1, 0, 2)), 2)

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        for n in range(1, 21):
            ours = cyclotomic_polynomial(n)
            theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
            assert list(ours.coeffs) == [int(c) for c in theirs]

    @pytest.mark.parametrize("seed", range(10))
    def test_factor_recovery(self, seed):
        rng = random.Random(400 + seed)
        bound = 6
        candidates = [n for n in range(1, 2 * bound * bound + 2)
                      if cyclotomic_polynomial(n).degree <= bound]
        chosen = rng.sample(candidates, rng.randint(1, 3))
        p = IntPoly((1,))
        for n in chosen:
            p = p * cyclotomic_polynomial(n)
        add_noise = rng.random() < 0.5
        if add_noise:
            p = p * IntPoly((1, -3, 1))  # no root-of-unity roots
        res = cyclotomic_orders(p, p.degree)
        assert res.orders == frozenset(chosen)
        assert res.all_cyclotomic == (not add_noise)

    def test_xn_minus_one_orders(self):
        res = cyclotomic_orders(x_power_minus_one(12), 12)
        assert res.orders == frozenset({1, 2, 3, 4, 6, 12})
        assert res.all_cyclotomic


class TestLatticeBasics:
    def test_coordinates_roundtrip(self):
        lat = Lattice.from_rows(3, [(2, 0, 1), (0, 3, 0)])
        for coords in [(0, 0), (1, 0), (2, -1), (-3, 5)]:
            v = lat.member_from_coords(coords)
            assert lat.coordinates(v) == coords

    def test_equality_is_canonical(self):
        a = Lattice.from_rows(2, [(1, 1), (0, 2)])
        b = Lattice.from_rows(2, [(1, 3), (1, 1)])
        assert a == b
