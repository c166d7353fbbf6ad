"""Algorithms on finitely generated subgroups of GL(r, Z).

Element order via cyclotomic spectrum; group finiteness with explicit
certificates; and the finite-orbit sublattice: the set of vectors of
Z^r whose orbit under the generated group is finite.

Finiteness certificates come in three kinds.  :class:`GroupFinite` is
the exact order: the mod-3 image (a finite group) lifts injectively,
since the mod-3 congruence kernel is torsion-free.  :class:`GroupInfinite`
is a nontrivial element of that kernel, of infinite order.
:class:`BasisOrbits` is the closed orbit of every basis vector; a group
acting faithfully has at most the product of their sizes as its order.
For S_n permuting a basis that is n orbits of n vectors, where the mod-3
image has n! elements.

:func:`basis_orbits` runs the orbit closure in lockstep with the
Schreier search of :func:`group_is_finite`, one step of each at a time,
so it ends without a cap: a finite group's orbits have at most |G|
vectors and close before the search has expanded its |G| image
elements; an infinite group keeps an orbit open, and the search, which
always ends, returns the same witness as :func:`group_is_finite`.  The
finite-orbit sublattice keeps the basis orbits as its certificate and
computes the exact order of the induced action only when it is read.

Words over a generating set are tuples of signed 1-based indices; ``+i``
is the i-th generator, ``-i`` its inverse.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .intlinalg import (
    IntMatrix,
    Lattice,
    Vec,
    charpoly,
    cyclotomic_orders,
    kernel_lattice,
    lcm_all,
)

GenWord = tuple[int, ...]


@dataclass(frozen=True)
class MatGroupGens:
    """A finitely generated subgroup of GL(r, Z), given by generators."""

    rank: int
    gens: tuple[IntMatrix, ...]
    labels: tuple[str, ...] = field(compare=False, default=())

    def __post_init__(self):
        if not self.gens:
            raise ValueError("at least one generator required")
        for g in self.gens:
            if g.nrows != self.rank or g.ncols != self.rank:
                raise ValueError("generator size != rank")
            if not g.is_unimodular:
                raise ValueError(f"non-unimodular generator, det={g.det()}")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(f"g{i+1}" for i in range(len(self.gens))))
        elif len(self.labels) != len(self.gens):
            raise ValueError("one label per generator required")

    def word_to_matrix(self, word: GenWord) -> IntMatrix:
        out = IntMatrix.identity(self.rank)
        for letter in word:
            g = self.gens[abs(letter) - 1]
            out = out @ (g if letter > 0 else g.inverse_unimodular())
        return out

    def render_word(self, word: GenWord) -> str:
        if not word:
            return "1"
        return "*".join(
            self.labels[abs(l) - 1] + ("" if l > 0 else "^-1") for l in word
        )


def matrix_order(m: IntMatrix) -> int | None:
    """The multiplicative order of a unimodular matrix, or None if infinite.

    Finite order forces the characteristic polynomial to be a product of
    cyclotomics; the candidate order is the lcm of their indices, and the
    true order is its minimal divisor n with M^n = I.

    >>> matrix_order(IntMatrix.from_rows([[0, -1], [1, 0]]))
    4
    >>> matrix_order(IntMatrix.from_rows([[1, 1], [0, 1]])) is None
    True
    """
    if not m.is_unimodular:
        raise ValueError("matrix_order requires a unimodular matrix")
    n = m.nrows
    if n == 0:
        return 1
    factors = cyclotomic_orders(charpoly(m), n)
    if not factors.all_cyclotomic:
        return None
    big = lcm_all(factors.orders | {1})
    if (m ** big) != IntMatrix.identity(n):
        return None  # non-semisimple (unipotent part present)
    from .intlinalg import _divisors

    for d in _divisors(big):
        if (m ** d) == IntMatrix.identity(n):
            return d
    raise AssertionError("unreachable: big itself divides big")


@dataclass(frozen=True)
class GroupFinite:
    """Finiteness certificate: the closure of the mod-3 image, verified
    to lift injectively, has this many elements."""

    order: int


@dataclass(frozen=True)
class GroupInfinite:
    """Infiniteness certificate: a nontrivial element of the mod-3
    congruence kernel, hence of infinite order."""

    witness_word: GenWord
    witness_matrix: IntMatrix


FinitenessCert = GroupFinite | GroupInfinite


@dataclass(frozen=True)
class BasisOrbits:
    """Finiteness certificate: the orbit of each standard basis vector,
    closed under every generator and its inverse.

    A group element is determined by where it sends the basis, so a
    group acting faithfully has at most the product of the orbit sizes
    as its order.
    """

    orbits: tuple[frozenset[Vec], ...]


def _inverse_word(word: GenWord) -> GenWord:
    return tuple(-l for l in reversed(word))


def _schreier_search(rank: int, pairs):
    """The mod-3 image enumeration, one step per expanded image element.

    ``pairs`` holds (generator, inverse).  Yields None after each
    expansion that settles nothing, then the certificate: the first
    nontrivial Schreier element as a :class:`GroupInfinite`, or
    :class:`GroupFinite` once the image closes.
    """
    identity = IntMatrix.identity(rank)
    step: list[tuple[int, IntMatrix]] = []
    for i, (g, ginv) in enumerate(pairs):
        step.append((i + 1, g))
        step.append((-(i + 1), ginv))

    # rep: image key -> (preimage matrix, word)
    rep = {identity.mod(3): (identity, ())}
    queue = deque([identity.mod(3)])
    while queue:
        key = queue.popleft()
        mat, word = rep[key]
        for letter, g in step:
            prod = g @ mat
            prod_key = prod.mod(3)
            known = rep.get(prod_key)
            if known is None:
                rep[prod_key] = (prod, (letter,) + word)
                queue.append(prod_key)
            elif prod != known[0]:  # the Schreier element prod * known^-1 is not 1
                witness_word = (letter,) + word + _inverse_word(known[1])
                yield GroupInfinite(witness_word, prod @ known[0].inverse_unimodular())
                return
        yield None
    yield GroupFinite(len(rep))


def group_is_finite(group: MatGroupGens) -> FinitenessCert:
    """Decide finiteness of the generated group, with a certificate.

    Enumerates the image under entry-wise reduction mod 3 (a finite
    group), keeping one integer preimage per image element.  Every
    Schreier element  g * rep(x) * rep(g.x)^-1  lies in the congruence
    kernel; if all are the identity the reduction is injective and the
    group is finite of the image's order, otherwise the first nontrivial
    one is an infinite-order witness.
    """
    pairs = [(g, g.inverse_unimodular()) for g in group.gens]
    return next(c for c in _schreier_search(group.rank, pairs) if c is not None)


def basis_orbits(group: MatGroupGens) -> BasisOrbits | GroupInfinite:
    """Decide finiteness by closing the orbits of the basis vectors.

    Each step expands one vertex of every still-open orbit, then one
    image element of the Schreier search of :func:`group_is_finite`.
    A finite group has orbits of at most |G| vectors, which close within
    |G| steps, before the search has expanded all |G| image elements and
    could report finiteness itself.  An infinite group has an infinite
    basis orbit (the action is faithful), and the search, which always
    ends, returns its first witness: the one :func:`group_is_finite`
    returns.

    >>> cycle = IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    >>> cert = basis_orbits(MatGroupGens(3, (cycle,)))
    >>> [len(orbit) for orbit in cert.orbits]
    [3, 3, 3]
    >>> isinstance(basis_orbits(MatGroupGens(2, (IntMatrix.from_rows([[1, 1], [0, 1]]),))),
    ...            GroupInfinite)
    True
    """
    pairs = [(g, g.inverse_unimodular()) for g in group.gens]
    appliers = [_row_applier(m) for pair in pairs for m in pair]
    starts = IntMatrix.identity(group.rank).rows
    seen = [{e} for e in starts]
    queues = [deque([e]) for e in starts]
    search = _schreier_search(group.rank, pairs)
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
        witness = next(search)
        if witness is not None:
            assert isinstance(witness, GroupInfinite), "finite images outlast the orbits"
            return witness


def single_finite_orbit_space(m: IntMatrix) -> Lattice:
    """The pure sublattice of vectors with finite orbit under <M>.

    Equals ker(M^L - I) where L is the lcm of the cyclotomic orders that
    divide charpoly(M) (L = 1 when there are none).
    """
    if not m.is_unimodular:
        raise ValueError("requires a unimodular matrix")
    n = m.nrows
    if n == 0:
        return Lattice.zero(0)
    factors = cyclotomic_orders(charpoly(m), n)
    big = lcm_all(factors.orders | {1})
    return kernel_lattice((m ** big) - IntMatrix.identity(n))


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
    if not rows:
        return IntMatrix.identity(0)
    return IntMatrix.from_rows(rows).transpose()


@dataclass(frozen=True)
class FiniteOrbitCert:
    """The finite-orbit sublattice with its supporting evidence.

    ``lattice`` is invariant under every generator.  ``basis_orbits[i]``
    is the orbit of ``lattice.basis[i]``, closed under every generator
    and inverse; these finite orbits certify that the induced action on
    the lattice is finite.  ``induced_finiteness`` is its exact order,
    computed by :func:`group_is_finite` on ``induced_gens`` when first
    read.  Each entry of ``infinite_order_witnesses`` is a (word, matrix)
    pair that acted with infinite order on the candidate lattice current
    at its discovery step (the matrix is written in that candidate's
    basis).
    """

    lattice: Lattice
    basis_orbits: tuple[frozenset[Vec], ...] = ()
    infinite_order_witnesses: tuple[tuple[GenWord, IntMatrix], ...] = ()
    induced_gens: tuple[IntMatrix, ...] = field(default=(), repr=False)

    @cached_property
    def induced_finiteness(self) -> GroupFinite:
        if not self.induced_gens:
            return GroupFinite(1)
        cert = group_is_finite(MatGroupGens(self.lattice.rank, self.induced_gens))
        assert isinstance(cert, GroupFinite), "closed basis orbits certify finiteness"
        return cert


def _shrink_to_invariant(lat: Lattice, group: MatGroupGens) -> Lattice:
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


def finite_orbit_sublattice(group: MatGroupGens) -> FiniteOrbitCert:
    """The set of vectors of Z^r whose orbit under the group is finite.

    Exact algorithm: intersect the single-generator finite-orbit spaces,
    shrink to the largest sublattice invariant under all generators and
    inverses, then certify finiteness of the induced action by closed
    basis orbits (:func:`basis_orbits`); an infinite-order witness cuts
    the candidate down by its own finite-orbit space (a strict rank
    drop, since the witness lives in the torsion-free congruence kernel)
    and the loop repeats.
    """
    r = group.rank
    cand = Lattice.full(r)
    for g in group.gens:
        cand = cand.intersect(single_finite_orbit_space(g))
    witnesses: list[tuple[GenWord, IntMatrix]] = []
    while True:
        cand = _shrink_to_invariant(cand, group)
        if cand.rank == 0:
            return FiniteOrbitCert(cand, (), tuple(witnesses))
        induced = []
        for g in group.gens:
            a = restrict_to_lattice(g, cand)
            assert a is not None, "candidate lattice must be invariant here"
            induced.append(a)
        cert = basis_orbits(MatGroupGens(cand.rank, tuple(induced), group.labels))
        if isinstance(cert, BasisOrbits):
            orbits = tuple(
                frozenset(cand.member_from_coords(c) for c in orbit) for orbit in cert.orbits
            )
            return FiniteOrbitCert(cand, orbits, tuple(witnesses), tuple(induced))
        witnesses.append((cert.witness_word, cert.witness_matrix))
        fixed = single_finite_orbit_space(cert.witness_matrix)
        ambient_rows = [cand.member_from_coords(c) for c in fixed.basis]
        smaller = Lattice.from_rows(r, ambient_rows)
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
    """Breadth-first closure of {start} under generators and inverses.

    Returns the exact orbit when its size stays within ``cap``;
    deterministic order: generator index, generator before inverse, FIFO.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    start = tuple(start)
    maps = []
    for g in group.gens:
        maps.append(g)
        maps.append(g.inverse_unimodular())
    appliers = [_row_applier(m) for m in maps]
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

    Compiles the matrix's rows into one tuple expression; orbit
    enumeration is the hot loop of the whole package and the compiled
    form is an order of magnitude faster than a generic sum.  The source
    is built from integer entries only.
    """
    terms = []
    for row in m.rows:
        parts = []
        for j, c in enumerate(row):
            if c == 1:
                parts.append(f"v[{j}]")
            elif c == -1:
                parts.append(f"-v[{j}]")
            elif c:
                parts.append(f"{c}*v[{j}]")
        terms.append("+".join(parts).replace("+-", "-") if parts else "0")
    src = "lambda v: (" + ", ".join(terms) + (",)" if len(terms) == 1 else ")")
    return eval(src)  # noqa: S307 - source built from int literals above
