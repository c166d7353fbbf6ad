"""Exact integer linear algebra.

Matrices and lattices over the integers with arbitrary-precision
arithmetic throughout: canonical Hermite normal form, integer kernels,
characteristic polynomials, and detection of root-of-unity spectrum via
cyclotomic trial division.  No floating point is used anywhere.

:func:`hnf` is the one elimination: it reduces ``[A | I]`` in full, so
bases, inverses, kernels and intersections are each read off one call.

Conventions: vectors are tuples of ints; a matrix ``M`` acts on a vector
``v`` as ``M @ v^T`` (see :meth:`IntMatrix.apply`).  Lattice bases are
stored as rows in canonical row Hermite normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import mul

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
        return IntMatrix._trusted(tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in self.rows]))

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
        return tuple([sum(map(mul, row, v)) for row in self.rows])

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

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact inverse of a determinant-+-1 matrix (integer entries)."""
        h, u = hnf(self)
        if not h.is_identity:
            raise ValueError("matrix is not unimodular")
        return u

    @property
    def is_identity(self) -> bool:
        """Compared entry by entry in place; stops at the first entry off I."""
        return self.is_square and all(
            x == (i == j) for i, row in enumerate(self.rows) for j, x in enumerate(row)
        )

    def __str__(self):
        return "[" + ", ".join("[" + ", ".join(map(str, r)) + "]" for r in self.rows) + "]"


def hnf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form with transformation.

    Returns ``(H, U)`` with ``[H | U]`` the canonical row HNF of
    ``[a | I]``: pivots positive and strictly right of the pivots above,
    entries above a pivot reduced into ``[0, pivot)``, zero rows at the
    bottom.  So ``U`` is unimodular and ``H = U @ a`` is the canonical HNF
    of ``a``, which depends only on its row lattice.  ``U`` is unique if
    ``a`` has full row rank; if not, U's rows beside H's zero rows are the
    canonical basis of ``{x : x a = 0}`` (``CATALOG_AXIOMS.md`` §14).

    >>> h, u = hnf(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> h.rows
    ((2, 0), (0, 4))
    """
    m, n = a.nrows, a.ncols
    h = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(a.rows)]
    row = 0
    for col in range(n + m):
        if row == m:
            break  # every row has a pivot
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
                h[piv], h[row] = h[row], h[piv]
                break
            for i in others:
                q = h[i][col] // h[piv][col]
                h[i] = [x - q * y for x, y in zip(h[i], h[piv])]
        if h[row][col] != 0:
            if h[row][col] < 0:
                h[row] = [-x for x in h[row]]
            p = h[row][col]
            for i in range(row):
                if q := h[i][col] // p:
                    h[i] = [x - q * y for x, y in zip(h[i], h[row])]
            row += 1
    return (IntMatrix._trusted(tuple(tuple(r[:n]) for r in h)),
            IntMatrix._trusted(tuple(tuple(r[n:]) for r in h)))


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
        """Whether this is Z^r: a full-rank canonical basis with every
        pivot 1 is the identity."""
        return self.rank == self.ambient and all(b[i] == 1 for i, b in enumerate(self.basis))

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
        """L1 n L2, read off one HNF of [[B1, B1], [B2, 0]].

        That matrix has full row rank and row lattice
        {(x B1 + y B2, x B1)}; its HNF rows (0, v) are the canonical basis
        of L1 n L2 (``CATALOG_AXIOMS.md`` §14).
        """
        if self.ambient != other.ambient:
            raise ValueError("ambient rank mismatch")
        if self.rank == 0 or other.rank == 0:
            return Lattice.zero(self.ambient)
        n = self.ambient
        h, _ = hnf(IntMatrix._trusted(tuple(b + b for b in self.basis) + tuple(b + (0,) * n for b in other.basis)))
        return Lattice(n, tuple(r[n:] for r in h.rows if not any(r[:n])))


def kernel_lattice(a: IntMatrix) -> Lattice:
    """The integer kernel {v in Z^r : A v^T = 0} of an m-by-r matrix.

    Its canonical basis is the rows of U beside the zero rows of H in
    ``hnf(A^T)`` (``CATALOG_AXIOMS.md`` §14).  The result is a pure
    sublattice: any primitive vector of its rational span is a member.
    """
    h, u = hnf(a.transpose())
    return Lattice(a.ncols, tuple(v for v, w in zip(u.rows, h.rows) if not any(w)))


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


@lru_cache(maxsize=None)
def _cyclotomic_candidates(bound: int) -> tuple[tuple[int, IntPoly], ...]:
    """(n, Phi_n) for every n with totient(n) <= bound, in increasing n;
    totient(n) >= sqrt(n/2) keeps n <= 2 bound^2 + 1."""
    return tuple((n, cyclotomic_polynomial(n))
                 for n in range(1, 2 * bound * bound + 2) if _totient(n) <= bound)


@dataclass(frozen=True)
class CyclotomicFactors:
    """Which cyclotomic polynomials divide a monic integer polynomial."""

    orders: frozenset[int]
    all_cyclotomic: bool


def cyclotomic_orders(p: IntPoly, bound: int) -> CyclotomicFactors:
    """All n with Phi_n | p, plus whether p is a product of cyclotomics.

    Only n with totient(n) <= bound can contribute (the totient is the
    degree of Phi_n); :func:`_cyclotomic_candidates` lists them once per
    bound.
    """
    if not p.is_monic:
        raise ValueError("cyclotomic_orders expects a monic polynomial")
    orders = set()
    remainder = p
    for n, phi in _cyclotomic_candidates(bound):
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

