"""Exact integer linear algebra.

Matrices and lattices over the integers with arbitrary-precision
arithmetic throughout: canonical Hermite normal form, integer kernels,
characteristic polynomials, and detection of root-of-unity spectrum via
cyclotomic trial division.  No floating point is used anywhere.

Conventions: vectors are tuples of ints; a matrix ``M`` acts on a vector
``v`` as ``M @ v^T`` (see :meth:`IntMatrix.apply`).  Lattice bases are
stored as rows in canonical row Hermite normal form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

Vec = tuple[int, ...]


@dataclass(frozen=True)
class IntMatrix:
    """An immutable integer matrix (row-major tuple of tuples)."""

    rows: tuple[Vec, ...]

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in r) for r in self.rows)
        if rows and len({len(r) for r in rows}) != 1:
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _trusted(cls, rows: tuple[Vec, ...]) -> "IntMatrix":
        """Wrap rows built here from ints, skipping the coercion and the
        ragged-row check of the public constructor."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        return IntMatrix(tuple(tuple(r) for r in rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix._trusted(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "IntMatrix":
        return IntMatrix(tuple((0,) * ncols for _ in range(nrows)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        cols = tuple(zip(*other.rows)) if other.rows else ()
        return IntMatrix._trusted(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix._trusted(tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix._trusted(tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._trusted(tuple(tuple(-a for a in r) for r in self.rows))

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix._trusted(tuple(tuple(c * a for a in r) for r in self.rows))

    def apply(self, v: Vec) -> Vec:
        """The action v |-> M v^T, returned as a row tuple."""
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.rows)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._trusted(tuple(zip(*self.rows)) if self.rows else ())

    def __pow__(self, n: int) -> "IntMatrix":
        if not self.is_square:
            raise ValueError("power of a non-square matrix")
        if n < 0:
            return self.inverse_unimodular() ** (-n)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result @ base
            n >>= 1
            if n:
                base = base @ base
        return IntMatrix.identity(self.nrows) if result is None else result

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.nrows))

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 0:
            return 1
        a = [list(r) for r in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if pivot is None:
                    return 0
                a[k], a[pivot] = a[pivot], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    @property
    def is_unimodular(self) -> bool:
        return self.is_square and self.det() in (1, -1)

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact inverse of a determinant-+-1 matrix (integer entries)."""
        h, u = hnf(self)
        if h != IntMatrix.identity(self.nrows):
            raise ValueError("matrix is not unimodular")
        return u

    @property
    def is_identity(self) -> bool:
        return self == IntMatrix.identity(self.nrows) if self.is_square else False

    def mod(self, m: int) -> tuple[Vec, ...]:
        """Entry-wise residues; a hashable key for congruence images."""
        return tuple(tuple(a % m for a in r) for r in self.rows)

    def __str__(self):
        return "[" + ", ".join("[" + ", ".join(map(str, r)) + "]" for r in self.rows) + "]"


def hnf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form with transformation.

    Returns ``(H, U)`` with ``U`` unimodular, ``H = U @ a``, ``H`` in
    canonical row HNF: pivots positive and strictly right of the pivots
    above, entries above a pivot reduced into ``[0, pivot)``, zero rows
    at the bottom.  ``H`` depends only on the row lattice of ``a``.

    >>> h, u = hnf(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> h.rows
    ((2, 0), (0, 4))
    """
    m, n = a.nrows, a.ncols
    h = [list(r) for r in a.rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def sub_rows(dst, src, q):
        if q:
            h[dst] = [x - q * y for x, y in zip(h[dst], h[src])]
            u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    row = 0
    for col in range(n):
        # Euclidean elimination below `row` until one nonzero entry remains.
        while True:
            piv = None
            for i in range(row, m):
                if h[i][col] != 0 and (piv is None or abs(h[i][col]) < abs(h[piv][col])):
                    piv = i
            if piv is None:
                break
            others = [i for i in range(row, m) if i != piv and h[i][col] != 0]
            if not others:
                if piv != row:
                    h[piv], h[row] = h[row], h[piv]
                    u[piv], u[row] = u[row], u[piv]
                break
            for i in others:
                sub_rows(i, piv, h[i][col] // h[piv][col])
        if row < m and h[row][col] != 0:
            if h[row][col] < 0:
                h[row] = [-x for x in h[row]]
                u[row] = [-x for x in u[row]]
            p = h[row][col]
            for i in range(row):
                sub_rows(i, row, h[i][col] // p)
            row += 1
    return IntMatrix.from_rows(h), IntMatrix.from_rows(u)


@dataclass(frozen=True)
class Lattice:
    """A sublattice of Z^r, stored by its canonical row-HNF basis.

    Two lattices are equal iff their ambient ranks and canonical bases
    agree entry-wise.  Construct via :meth:`from_rows`, :meth:`full`, or
    :meth:`zero`; the raw constructor trusts its arguments.
    """

    ambient: int
    basis: tuple[Vec, ...]

    @staticmethod
    def from_rows(ambient: int, rows) -> "Lattice":
        rows = [tuple(r) for r in rows]
        for r in rows:
            if len(r) != ambient:
                raise ValueError("basis vector length != ambient rank")
        if not rows:
            return Lattice(ambient, ())
        h, _ = hnf(IntMatrix.from_rows(rows))
        return Lattice(ambient, tuple(r for r in h.rows if any(r)))

    @staticmethod
    def full(ambient: int) -> "Lattice":
        return Lattice(ambient, IntMatrix.identity(ambient).rows)

    @staticmethod
    def zero(ambient: int) -> "Lattice":
        return Lattice(ambient, ())

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def is_full(self) -> bool:
        return self.rank == self.ambient and all(
            self.basis[i][i] == 1 for i in range(self.ambient)
        )

    def _pivots(self) -> list[int]:
        return [next(j for j, x in enumerate(r) if x) for r in self.basis]

    def coordinates(self, v: Vec) -> Vec | None:
        """Integer coordinates of v in the basis, or None if v is outside."""
        if len(v) != self.ambient:
            raise ValueError("vector length != ambient rank")
        residue = list(v)
        coords = []
        for r, j in zip(self.basis, self._pivots()):
            q, rem = divmod(residue[j], r[j])
            if rem:
                return None
            coords.append(q)
            if q:
                residue = [x - q * y for x, y in zip(residue, r)]
        if any(residue):
            return None
        return tuple(coords)

    def __contains__(self, v) -> bool:
        return self.coordinates(tuple(v)) is not None

    def member_from_coords(self, coords: Vec) -> Vec:
        out = [0] * self.ambient
        for c, b in zip(coords, self.basis):
            if c:
                out = [x + c * y for x, y in zip(out, b)]
        return tuple(out)

    def image_under(self, m: IntMatrix) -> "Lattice":
        """The lattice spanned by the images of the basis under v |-> M v^T."""
        return Lattice.from_rows(self.ambient, [m.apply(b) for b in self.basis])

    def intersect(self, other: "Lattice") -> "Lattice":
        """L1 n L2 via the kernel of the stacked basis system."""
        if self.ambient != other.ambient:
            raise ValueError("ambient rank mismatch")
        if self.rank == 0 or other.rank == 0:
            return Lattice.zero(self.ambient)
        stacked = IntMatrix.from_rows(list(self.basis) + list(other.basis))
        # Rows (x, y) with x B1 + y B2 = 0; the members x B1 sweep L1 n L2.
        relations = kernel_lattice(stacked.transpose())
        k1 = self.rank
        members = []
        for rel in relations.basis:
            vec = [0] * self.ambient
            for c, b in zip(rel[:k1], self.basis):
                if c:
                    vec = [p + c * q for p, q in zip(vec, b)]
            members.append(tuple(vec))
        return Lattice.from_rows(self.ambient, members)


def kernel_lattice(a: IntMatrix) -> Lattice:
    """The integer kernel {v in Z^r : A v^T = 0} of an m-by-r matrix.

    The result is a pure sublattice: any primitive vector of its rational
    span is a member.
    """
    r = a.ncols
    if a.nrows == 0:
        return Lattice.full(r)
    h, u = hnf(a.transpose())
    rows = [u.rows[i] for i in range(r) if not any(h.rows[i])]
    return Lattice.from_rows(r, rows)


def lattice_intersect(l1: Lattice, l2: Lattice) -> Lattice:
    return l1.intersect(l2)


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coefficients lowest degree first, trimmed."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(x) for x in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero or other.is_zero:
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(tuple(out))

    def divmod_monic(self, d: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Long division by a monic divisor; stays in integer arithmetic."""
        if not d.is_monic:
            raise ValueError("divisor must be monic")
        rem = list(self.coeffs)
        dd = d.degree
        q = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - dd - 1, -1, -1):
            c = rem[i + dd]
            if c:
                q[i] = c
                for j, b in enumerate(d.coeffs):
                    rem[i + j] -= c * b
        return IntPoly(tuple(q)), IntPoly(tuple(rem[:dd]))

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            term = "1" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if i > 0 and abs(c) != 1:
                term = f"{abs(c)}{term}"
            elif i == 0:
                term = str(abs(c))
            parts.append(("- " if c < 0 else "+ " if parts else "") + term)
        return " ".join(parts)


def x_power_minus_one(n: int) -> IntPoly:
    return IntPoly((-1,) + (0,) * (n - 1) + (1,))


def charpoly(m: IntMatrix) -> IntPoly:
    """det(xI - M) by the Faddeev-LeVerrier recurrence (all divisions exact).

    >>> str(charpoly(IntMatrix.from_rows([[2, 1], [1, 1]])))
    'x^2 - 3x + 1'
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.nrows
    coeffs = [0] * n + [1]  # lowest degree first
    acc = m
    for k in range(1, n + 1):
        t = acc.trace()
        if t % k:
            raise AssertionError("Faddeev-LeVerrier division not exact")
        c = -(t // k)
        coeffs[n - k] = c
        if k < n:
            acc = m @ (acc + IntMatrix.identity(n).scale(c))
    return IntPoly(tuple(coeffs))


def _totient(n: int) -> int:
    result = n
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial by the recursive division formula.

    >>> str(cyclotomic_polynomial(4))
    'x^2 + 1'
    """
    if n < 1:
        raise ValueError("n must be positive")
    p = x_power_minus_one(n)
    for d in _divisors(n)[:-1]:
        p, rem = p.divmod_monic(cyclotomic_polynomial(d))
        assert rem.is_zero
    return p


@dataclass(frozen=True)
class CyclotomicFactors:
    """Which cyclotomic polynomials divide a monic integer polynomial."""

    orders: frozenset[int]
    all_cyclotomic: bool


def cyclotomic_orders(p: IntPoly, bound: int) -> CyclotomicFactors:
    """All n with Phi_n | p, plus whether p is a product of cyclotomics.

    Only n with totient(n) <= bound can contribute (the totient is the
    degree of Phi_n), and totient(n) >= sqrt(n/2) makes the candidate
    list finite.
    """
    if not p.is_monic:
        raise ValueError("cyclotomic_orders expects a monic polynomial")
    orders = set()
    remainder = p
    for n in range(1, 2 * bound * bound + 2):
        if _totient(n) > bound:
            continue
        phi = cyclotomic_polynomial(n)
        while remainder.degree >= phi.degree:
            q, rem = remainder.divmod_monic(phi)
            if not rem.is_zero:
                break
            orders.add(n)
            remainder = q
    return CyclotomicFactors(frozenset(orders), remainder.degree == 0)


def lcm_all(values) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


def random_unimodular(rng, n: int, steps: int = 6, entry_bound: int | None = None) -> IntMatrix:
    """A pseudo-random determinant-+-1 matrix built from elementary moves.

    With ``entry_bound`` set, moves that would push an entry past the
    bound are skipped, so small test matrices stay small.
    """
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 0 and n >= 2:
            i, j = rng.sample(range(n), 2)
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 1:
            i = rng.randrange(n)
            rows[i] = [-x for x in rows[i]]
        elif n >= 2:
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            cand = [x + c * y for x, y in zip(rows[i], rows[j])]
            if entry_bound is None or all(abs(x) <= entry_bound for x in cand):
                rows[i] = cand
    return IntMatrix.from_rows(rows)


def enumerate_box(ambient: int, radius: int):
    """All integer vectors with entries in [-radius, radius] (test oracle)."""
    return itertools.product(range(-radius, radius + 1), repeat=ambient)
