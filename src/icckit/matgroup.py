"""Algorithms on finitely generated subgroups of GL(r, Z).

Element order, read off the period of the mod-3 powers (or, past a
short walk, off the cyclotomic spectrum); group finiteness with an
explicit certificate; and the finite-orbit sublattice: the set of
vectors of Z^r whose orbit under the generated group is finite.

:func:`basis_orbits` is the one finiteness decider.  It closes the orbit
of every standard basis vector in lockstep with a Schreier search over
the image mod 3, one step of each at a time, so it ends without a cap.
A finite group has orbits of at most |G| vectors, which close before the
search has expanded its |G| image elements; the certificate is
:class:`BasisOrbits`, and a group acting faithfully has at most the
product of the orbit sizes as its order (for S_n permuting a basis, n
orbits of n vectors, where the mod-3 image has n! elements).  An
infinite group keeps an orbit open, and the search, which always ends,
meets a nontrivial element of the torsion-free mod-3 congruence kernel:
the certificate is that element, of infinite order, as
:class:`GroupInfinite`.  Both walks apply the generators alone, with no
inverse (``CATALOG_AXIOMS.md`` §6 and §9), through one closure per
matrix (:func:`_row_applier`): an index pick for a signed permutation
matrix, else one compiled tuple expression, kept on the matrix object.
The search keeps every image element as a tuple of columns and
multiplies column by column.

The finite-orbit sublattice tests a candidate lattice for invariance by
restricting every generator to it (one triangular solve per basis
vector, no HNF; on Z^r none, the generators are their restrictions): a
matrix of GL(r, Z) that maps a lattice into itself maps it onto itself,
so the restrictions are then the induced generators.  Only a candidate
that some generator moves is shrunk by lattice intersections.  The
sublattice keeps the basis orbits as its certificate.

Reduction mod 3 (:func:`mod3`), of a matrix or of an automorphism's
abelianization, is a homomorphism that sends every trivially acting
element to I.  So the FC search visits only the abelian candidates in
the lattice L_3 of exponent vectors whose image is I, walking the upper
triangular basis that :func:`mod3_screen` gives, and only the product
combinations whose images multiply to I (``CATALOG_AXIOMS.md`` §11);
skipped candidates leave the witness as is.

Words over a generating set are tuples of signed 1-based indices; ``+i``
is the i-th generator, ``-i`` its inverse.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter, mul

from .intlinalg import (
    IntMatrix,
    Lattice,
    Vec,
    charpoly,
    cyclotomic_orders,
    kernel_lattice,
    lcm_all,
)
from .words import word_inverse

GenWord = tuple[int, ...]


@dataclass(frozen=True)
class MatGroupGens:
    """A finitely generated subgroup of GL(r, Z), given by generators in
    GL(r, Z).  That is a contract, not a check: only shapes are checked
    here, and ``make_extension``, which validates the actions every
    generator derives from, is the one place that checks unimodularity.
    An empty generating set is the trivial group."""

    rank: int
    gens: tuple[IntMatrix, ...]

    def __post_init__(self):
        for g in self.gens:
            if g.nrows != self.rank or g.ncols != self.rank:
                raise ValueError("generator size != rank")


def _mod3_period(m: IntMatrix, cap: int) -> int | None:
    """The least k <= cap with M^k = I mod 3, or None.

    The k with e_i M^k = e_i mod 3 are the multiples of the least one,
    row i's period, so M^k = I iff the lcm of the rows' periods divides
    k.  Each row is stepped alone, one row-by-columns product per step:
    one whose period exceeds the cap ends the walk after cap steps.  A
    start row already met on an earlier row's walk is skipped: that
    walk returned, so both rows lie on one cycle of v |-> v M and share
    its length.
    """
    cols = tuple(zip(*mod3(m)))
    n = m.nrows
    period, met = 1, set()
    for i in range(n):
        start = (0,) * i + (1,) + (0,) * (n - 1 - i)
        if start in met:
            continue
        row = start
        for k in range(1, cap + 1):
            row = tuple([sum(map(mul, row, col)) % 3 for col in cols])
            if row == start:
                break
            met.add(row)
        else:
            return None
        period = lcm_all((period, k))
        if period > cap:
            return None
    return period


def _period_power(m: IntMatrix) -> tuple[int, IntMatrix]:
    """(L, M^L) such that M has finite order iff M^L = I, and then that
    order is L; the finite-orbit space of <M> is ker(M^L - I).

    L is the mod-3 period of M when it is at most 3r + 1: M^L then lies
    in the torsion-free mod-3 congruence kernel and <M^L> has finite
    index in <M> (``CATALOG_AXIOMS.md`` §6).  For r <= 5 that cap covers
    every finite order in GL(r, Z) (at most 12), and it bounds the
    entries of the one power taken.  Otherwise L is the lcm of the n
    with Phi_n dividing charpoly(M), which is the order of a
    finite-order M (§6 addendum).

    The pair is kept on the matrix object, which is immutable, so
    :func:`single_finite_orbit_space` and :func:`matrix_order` of one
    generator share one walk and one power.  An equal but distinct
    matrix walks again: no cache outlives the matrices of one analysis.
    """
    memo = vars(m)
    if "period_power" not in memo:
        if not m.is_square:
            raise ValueError("period of a non-square matrix")
        r = m.nrows
        period = _mod3_period(m, 3 * r + 1)
        if period is None:
            period = lcm_all(cyclotomic_orders(charpoly(m), r).orders)
        memo["period_power"] = period, m ** period
    return memo["period_power"]


def matrix_order(m: IntMatrix) -> int | None:
    """The multiplicative order of a square integer matrix, or None if
    infinite: L if M^L = I for (L, M^L) from :func:`_period_power`.
    Only matrices in GL(r, Z) have finite order (M^n = I forces
    det M = +-1), so any other matrix gets None.

    >>> matrix_order(IntMatrix.from_rows([[0, -1], [1, 0]]))
    4
    >>> matrix_order(IntMatrix.from_rows([[1, 1], [0, 1]])) is None
    True
    """
    period, power = _period_power(m)
    return period if power.is_identity else None


@dataclass(frozen=True)
class GroupInfinite:
    """Infiniteness certificate: a nontrivial element of the mod-3
    congruence kernel, hence of infinite order."""

    witness_word: GenWord
    witness_matrix: IntMatrix


@dataclass(frozen=True)
class BasisOrbits:
    """Finiteness certificate: the orbit of each standard basis vector,
    closed under every generator, hence under its inverse.

    A group element is determined by where it sends the basis, so a
    group acting faithfully has at most the product of the orbit sizes
    as its order.
    """

    orbits: tuple[frozenset[Vec], ...]


def _residues(entries) -> Vec:
    """Entry-wise residues mod 3: the rows of :func:`mod3`, and the keys of the Schreier search."""
    return tuple([x % 3 for x in entries])


def mod3(m: IntMatrix) -> tuple[Vec, ...]:
    """Reduction mod 3 of the matrix, a homomorphism that sends the
    identity to I.  A free automorphism is screened through its
    abelianization (``Theta.abelian``), which sends an inner one to I."""
    return tuple(map(_residues, m.rows))


def _times3(a, cols):
    """A B mod 3, given the columns of B."""
    return tuple([tuple([sum(map(mul, row, col)) % 3 for col in cols]) for row in a])


def _mul3(a, b):
    return _times3(a, tuple(zip(*b)))


def _inverse3(m):
    """The inverse of an invertible matrix over Z/3, by Gauss-Jordan."""
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next(i for i in range(c, n) if a[i][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [x * a[c][c] % 3 for x in a[c]]  # 1 and 2 are their own inverses
        for i in range(n):
            if i != c and a[i][c]:
                a[i] = [(x - a[i][c] * y) % 3 for x, y in zip(a[i], a[c])]
    return tuple(tuple(row[n:]) for row in a)


@dataclass(frozen=True)
class Mod3Screen:
    """The lattice L_3 = {x : prod A_i^x_i = I mod 3} of commuting actions
    A_i, and their mod-3 image (CATALOG_AXIOMS.md §11).

    ``rows[i]`` is k_i e_i - (exponents of A_i^k_i), where k_i is the least
    k > 0 with A_i^k in <A_{i+1}, ..., A_n> mod 3.  The rows are an upper
    triangular basis of L_3 with pivots k_i in lex order, and ``elements``
    maps each canonical residue (0 <= r_i < k_i) to its mod-3 element.
    """

    rows: tuple[Vec, ...]
    elements: dict[Vec, tuple[Vec, ...]]

    def residue(self, x) -> Vec:
        x = list(x)
        for i, row in enumerate(self.rows):
            q, x[i] = divmod(x[i], row[i])
            if q:
                for j in range(i + 1, len(x)):
                    x[j] -= q * row[j]
        return tuple(x)


def mod3_screen(actions, identity, limit: int) -> Mod3Screen | None:
    """The screen of commuting ``actions``, built along the subgroup chain
    of their mod-3 images from the last generator to the first; None once
    the image would hold more than ``limit`` elements, so building it
    never costs more than the search it screens."""
    gens = [mod3(a) for a in actions]
    elements = {mod3(identity): (0,) * len(gens)}  # mod-3 element -> exponents
    rows = []
    for i in reversed(range(len(gens))):
        g = gens[i]
        k, p = 1, g
        while p not in elements:
            k += 1
            if len(elements) * k > limit:
                return None
            p = _mul3(p, g)
        rows.append(tuple(k if j == i else -e for j, e in enumerate(elements[p])))
        layer, step = dict(elements), g
        for j in range(1, k):
            for m, e in elements.items():
                layer[_mul3(step, m)] = e[:i] + (j,) + e[i + 1:]
            step = _mul3(step, g)
        elements = layer
    return Mod3Screen(tuple(reversed(rows)), {e: m for m, e in elements.items()})


def _appliers(group: MatGroupGens) -> list:
    """The compiled actions of g1, g2, ... (:func:`_row_applier`).

    Each is kept on its matrix object, which is immutable, as
    :func:`_period_power` keeps its pair, so the analyzer's orbit
    closures and the oracle's exact classes of one action compile it
    once.  An equal but distinct matrix compiles again.
    """
    out = []
    for g in group.gens:
        memo = vars(g)
        if "row_applier" not in memo:
            memo["row_applier"] = _row_applier(g)
        out.append(memo["row_applier"])
    return out


def basis_orbits(group: MatGroupGens) -> BasisOrbits | GroupInfinite:
    """Decide finiteness by closing the orbits of the basis vectors.

    Each step expands one vertex of every still-open orbit, then one
    element of the mod-3 image: each image element is kept with one
    integer preimage, as its tuple of columns, so g @ X is g applied to
    every column of X, keyed by its columns' residues mod 3, flattened.
    Both walks apply the same compiled generators, and no inverse.  A
    finite group has orbits of at most |G| vectors, which close within
    |G| steps, before the image walk has expanded all |G| elements.  An
    infinite group has an infinite basis orbit (the action is faithful),
    and its reduction mod 3 is not injective, so before the image
    closes some Schreier element g * rep(x) * rep(g.x)^-1 is not 1: the
    first one is returned, an element of the congruence kernel, hence
    of infinite order.

    >>> cycle = IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    >>> cert = basis_orbits(MatGroupGens(3, (cycle,)))
    >>> [len(orbit) for orbit in cert.orbits]
    [3, 3, 3]
    >>> cert = basis_orbits(MatGroupGens(2, (IntMatrix.from_rows([[1, 1], [0, 1]]),)))
    >>> cert.witness_word, cert.witness_matrix.rows
    ((1, 1, 1), ((1, 3), (0, 1)))
    """
    appliers = _appliers(group)
    step = list(enumerate(appliers, 1))
    identity = IntMatrix.identity(group.rank).rows  # its own columns
    seen = [{e} for e in identity]
    queues = [deque([e]) for e in identity]
    identity_key = _residues(sum(identity, ()))
    rep = {identity_key: (identity, ())}  # image key -> (preimage columns, word)
    images = deque([identity_key])
    while True:
        for orbit, queue in zip(seen, queues):
            if queue:
                v = queue.popleft()
                for apply_m in appliers:
                    w = apply_m(v)
                    if w not in orbit:
                        orbit.add(w)
                        queue.append(w)
        if not any(queues):
            return BasisOrbits(tuple(frozenset(orbit) for orbit in seen))
        assert images, "finite images outlast the orbits"
        cols, word = rep[images.popleft()]
        for letter, apply_m in step:
            prod = tuple(map(apply_m, cols))
            prod_key = _residues(sum(prod, ()))
            known = rep.get(prod_key)
            if known is None:
                rep[prod_key] = (prod, (letter,) + word)
                images.append(prod_key)
            elif prod != known[0]:  # the Schreier element prod * known^-1 is not 1
                prod_m, known_m = (IntMatrix._trusted(tuple(zip(*c))) for c in (prod, known[0]))
                return GroupInfinite((letter,) + word + word_inverse(known[1]),
                                     prod_m @ known_m.inverse_unimodular())


def single_finite_orbit_space(m: IntMatrix) -> Lattice:
    """The pure sublattice of vectors with finite orbit under <M>.

    Equals ker(M^L - I) for (L, M^L) from :func:`_period_power`.  M
    must lie in GL(r, Z); it is not checked here (see
    :class:`MatGroupGens`).
    """
    n = m.nrows
    _, power = _period_power(m)
    if power.is_identity:
        return Lattice.full(n)
    return kernel_lattice(power - IntMatrix.identity(n))


def restrict_to_lattice(m: IntMatrix, lat: Lattice) -> IntMatrix | None:
    """The action of M on a lattice, written in the lattice's basis.

    Returns None if the lattice is not carried into itself.  The result
    acts on coordinate vectors with the same ``A @ v^T`` convention as
    the ambient action.
    """
    rows = []
    for b in lat.basis:
        coords = lat.coordinates(m.apply(b))
        if coords is None:
            return None
        rows.append(coords)
    return IntMatrix._trusted(tuple(zip(*rows)))


@dataclass(frozen=True)
class FiniteOrbitCert:
    """The finite-orbit sublattice with its supporting evidence.

    ``lattice`` is invariant under every generator.  ``basis_orbits[i]``
    is the orbit of ``lattice.basis[i]``, closed under every generator
    and so under its inverse; these finite orbits certify
    (:func:`basis_orbits`) that the induced action on the lattice, by
    ``induced_gens`` written in its basis, is finite.  Each entry of
    ``infinite_order_witnesses`` is a (word, matrix) pair that acted with
    infinite order on the candidate lattice current at its discovery
    step (the matrix is written in that candidate's basis).
    """

    lattice: Lattice
    basis_orbits: tuple[frozenset[Vec], ...] = ()
    infinite_order_witnesses: tuple[tuple[GenWord, IntMatrix], ...] = ()
    induced_gens: tuple[IntMatrix, ...] = field(default=(), repr=False)


def _restrictions(lat: Lattice, gens) -> tuple[IntMatrix, ...] | None:
    """Every generator restricted to the lattice, or None if one moves it.
    On Z^r the restrictions are the generators themselves."""
    if lat.is_full:
        return tuple(gens)
    induced = []
    for g in gens:
        a = restrict_to_lattice(g, lat)
        if a is None:
            return None
        induced.append(a)
    return tuple(induced)


def _shrink_to_invariant(lat: Lattice, group: MatGroupGens) -> tuple[Lattice, tuple[IntMatrix, ...]]:
    """The largest sublattice of ``lat`` invariant under the group, with
    every generator restricted to it.

    For g in GL(r, Z), g(L) in L already forces g(L) = L
    (``CATALOG_AXIOMS.md`` section 12), so a lattice on which every
    restriction exists is invariant under the inverses too, at the cost
    of one triangular solve per basis vector and generator.  Otherwise
    the lattice is intersected with its images under every generator
    until the restrictions exist; an invariant sublattice M of L lies in
    g(M) = M in g(L), so no step loses it, and no inverse is needed.
    """
    while (induced := _restrictions(lat, group.gens)) is None:
        for g in group.gens:
            lat = lat.intersect(lat.image_under(g))
    return lat, induced


def finite_orbit_sublattice(group: MatGroupGens) -> FiniteOrbitCert:
    """The set of vectors of Z^r whose orbit under the group is finite.

    Exact algorithm: intersect the single-generator finite-orbit spaces
    (stopping once the intersection is 0), shrink to the largest sublattice invariant under all generators and
    inverses (a lattice every generator maps into itself is already
    invariant, and needs no HNF), then certify finiteness of the induced
    action by closed basis orbits (:func:`basis_orbits`); an
    infinite-order witness W cuts the candidate down to its own
    finite-orbit space, which is ker(W - I) as W = I mod 3
    (``CATALOG_AXIOMS.md`` §6; a strict rank drop, since W lives in the
    torsion-free congruence kernel), and the loop repeats.

    The answer depends only on the generated group, so identity
    generators may be left out; the trivial group (no generators) gets
    Z^r with singleton basis orbits and no HNF.  Every candidate is pure
    (a kernel lattice, an intersection of pure lattices, or an image of
    one under GL(r, Z)), so a full-rank one is Z^r: its restrictions
    are the generators, its coordinates are the vectors themselves, and
    it takes no triangular solve.
    """
    r = group.rank
    cand = Lattice.full(r)
    for g in group.gens:
        if cand.rank == 0:  # nothing shrinks 0 further
            break
        space = single_finite_orbit_space(g)
        if space.rank < r:  # a pure lattice of full rank is Z^r
            cand = space if cand.rank == r else cand.intersect(space)
    witnesses: list[tuple[GenWord, IntMatrix]] = []
    while True:
        cand, induced = _shrink_to_invariant(cand, group)
        if cand.rank == 0:
            return FiniteOrbitCert(cand, (), tuple(witnesses))
        cert = basis_orbits(MatGroupGens(cand.rank, induced))
        if isinstance(cert, BasisOrbits):
            orbits = cert.orbits
            if not cand.is_full:
                orbits = tuple(
                    frozenset(cand.member_from_coords(c) for c in orbit) for orbit in orbits
                )
            return FiniteOrbitCert(cand, orbits, tuple(witnesses), induced)
        witnesses.append((cert.witness_word, cert.witness_matrix))
        smaller = kernel_lattice(cert.witness_matrix - IntMatrix.identity(cand.rank))
        if not cand.is_full:
            smaller = Lattice.from_rows(r, [cand.member_from_coords(c) for c in smaller.basis])
        assert smaller.rank < cand.rank, "witness must cut the rank down"
        cand = smaller


@dataclass(frozen=True)
class FiniteOrbit:
    vectors: frozenset[Vec]

    @property
    def size(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class OrbitCapExceeded:
    cap: int


OrbitResult = FiniteOrbit | OrbitCapExceeded


def orbit_bfs(group: MatGroupGens, start: Vec, cap: int = 10_000) -> OrbitResult:
    """Breadth-first closure of {start} under the generators.

    Returns the exact orbit, which a finite closure is, when its size
    stays within ``cap``; deterministic order: generator index, FIFO.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    start = tuple(start)
    appliers = _appliers(group)
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for apply_m in appliers:
            w = apply_m(v)
            if w not in seen:
                if len(seen) >= cap:
                    return OrbitCapExceeded(cap)
                seen.add(w)
                queue.append(w)
    return FiniteOrbit(frozenset(seen))


def _row_applier(m: IntMatrix):
    """A fast closure computing v |-> M v^T on tuples.

    A signed permutation matrix (one +-1 in every row and column) picks
    entries by index with an ``itemgetter`` and applies its signs by
    ``mul``.  Any other matrix is compiled: its rows become one tuple
    expression, since orbit enumeration is the hot loop of the whole
    package and the compiled form is an order of magnitude faster than
    a generic sum.  The source is built from integer entries only.
    :func:`_appliers` keeps the closure on the matrix object, so each
    matrix is compiled once however many orbit walks apply it.
    """
    entries = [[(j, c) for j, c in enumerate(row) if c] for row in m.rows]
    picks = [e[0] for e in entries if len(e) == 1 and e[0][1] in (1, -1)]
    if len(picks) == len(entries) == len({j for j, _ in picks}):
        # itemgetter of one index returns no tuple, and of none raises;
        # at rank 0 or 1 the pick is v itself
        pick = itemgetter(*[j for j, _ in picks]) if len(picks) > 1 else tuple
        signs = tuple(c for _, c in picks)
        if -1 not in signs:
            return pick
        return lambda v: tuple(map(mul, signs, pick(v)))
    terms = []
    for e in entries:
        parts = [f"v[{j}]" if c == 1 else f"-v[{j}]" if c == -1 else f"{c}*v[{j}]" for j, c in e]
        terms.append("+".join(parts).replace("+-", "-") if parts else "0")
    src = "lambda v: (" + ", ".join(terms) + (",)" if len(terms) == 1 else ")")
    return eval(src)  # noqa: S307 - source built from int literals above
