"""Concrete descriptors for the supported kernel and quotient classes.

Four atoms: finite permutation groups (materialized by closure), finitely
generated abelian groups, free groups, and direct products of atoms.
Whether the finite-class subgroup FC is trivial follows structural rules;
the facts those rules rest on are listed in CATALOG_AXIOMS.md and
cross-validated against the brute-force oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm

Perm = tuple[int, ...]

FINITE_GROUP_ORDER_CAP = 10_000


def perm_identity(degree: int) -> Perm:
    return tuple(range(degree))


def perm_compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(x) = p(q(x))."""
    return tuple(map(p.__getitem__, q))


def perm_inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def perm_order(p: Perm) -> int:
    order = 1
    seen = set()
    for start in range(len(p)):
        if start in seen:
            continue
        length = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = p[x]
            length += 1
        order = lcm(order, length)
    return order


@dataclass(frozen=True)
class FiniteGroupDesc:
    """A finite group of permutations, closed at construction time.

    ``elements`` are in breadth-first closure order starting from the
    identity; ``element_words`` expresses each element as a product of
    generators (positive letters suffice in a finite group).  ``cayley``
    is the right Cayley graph that the closure walks: ``cayley[j][i]`` is
    the index in ``elements`` of ``elements[j]`` o ``generators[i]``.
    """

    degree: int
    generators: tuple[Perm, ...]
    labels: tuple[str, ...] = field(compare=False, default=())
    elements: tuple[Perm, ...] = ()
    element_words: tuple[tuple[int, ...], ...] = field(compare=False, default=())
    cayley: tuple[tuple[int, ...], ...] = field(compare=False, default=(), repr=False)

    @staticmethod
    def from_generators(degree: int, generators, labels=None) -> "FiniteGroupDesc":
        generators = tuple(tuple(g) for g in generators)
        for g in generators:
            if sorted(g) != list(range(degree)):
                raise ValueError(f"not a permutation of {degree} points: {g}")
        if labels is None:
            labels = tuple(f"q{i+1}" for i in range(len(generators)))
        identity = perm_identity(degree)
        index = {identity: 0}
        order, words, cayley = [identity], [()], []
        # ``order`` is the breadth-first queue: element j is expanded when
        # the walk reaches it, after every element before it.
        for p in order:
            succ = []
            for i, g in enumerate(generators):
                child = perm_compose(p, g)
                j = index.get(child)
                if j is None:
                    j = index[child] = len(order)
                    order.append(child)
                    words.append(words[len(cayley)] + (i + 1,))
                    if len(order) > FINITE_GROUP_ORDER_CAP:
                        raise ValueError("finite group order exceeds the desk-scale cap")
                succ.append(j)
            cayley.append(tuple(succ))
        return FiniteGroupDesc(degree, generators, tuple(labels), tuple(order), tuple(words), tuple(cayley))

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _index(self) -> dict:
        return {p: i for i, p in enumerate(self.elements)}

    def word_of(self, p: Perm) -> tuple[int, ...]:
        return self.element_words[self._index[p]]


@dataclass(frozen=True)
class FgAbelianDesc:
    """Z^rank x Z/d1 x ... with a divisor chain d1 | d2 | ...

    Generator order: the ``rank`` free generators first, then one
    generator per torsion divisor.
    """

    rank: int
    divisors: tuple[int, ...] = ()
    gen_labels: tuple[str, ...] = field(compare=False, default=())

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        for d in self.divisors:
            if d < 2:
                raise ValueError("torsion divisors must be >= 2")
        for a, b in zip(self.divisors, self.divisors[1:]):
            if b % a:
                raise ValueError(f"bad divisor chain: {a} does not divide {b}")
        if not self.gen_labels:
            labels = tuple(f"t{i+1}" for i in range(self.rank)) + tuple(
                f"s{i+1}" for i in range(len(self.divisors))
            )
            object.__setattr__(self, "gen_labels", labels)
        elif len(self.gen_labels) != self.rank + len(self.divisors):
            raise ValueError("one label per generator required")

    @property
    def gen_count(self) -> int:
        return self.rank + len(self.divisors)

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.divisors

    @property
    def is_finite(self) -> bool:
        return self.rank == 0


@dataclass(frozen=True)
class FreeDesc:
    """The free group on ``rank`` named generators."""

    rank: int
    names: tuple[str, ...] = field(compare=False, default=())

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("free rank must be >= 1")
        if not self.names:
            object.__setattr__(self, "names", tuple(f"x{i+1}" for i in range(self.rank)))
        elif len(self.names) != self.rank:
            raise ValueError("one name per generator required")


@dataclass(frozen=True)
class ProductDesc:
    """A direct product of >= 2 non-product, nontrivial factors."""

    factors: tuple

    def __post_init__(self):
        if len(self.factors) < 2:
            raise ValueError("a product needs at least two factors")
        for f in self.factors:
            if isinstance(f, ProductDesc):
                raise ValueError("products must be flattened")


GroupDesc = FiniteGroupDesc | FgAbelianDesc | FreeDesc | ProductDesc


def make_product(factors) -> GroupDesc:
    """Flatten nested products and drop trivial factors."""
    flat = []
    for f in factors:
        if isinstance(f, ProductDesc):
            flat.extend(f.factors)
        elif not group_is_trivial(f):
            flat.append(f)
    if not flat:
        return FgAbelianDesc(0)
    if len(flat) == 1:
        return flat[0]
    return ProductDesc(tuple(flat))


def group_is_trivial(g: GroupDesc) -> bool:
    if isinstance(g, FiniteGroupDesc):
        return g.order == 1
    if isinstance(g, FgAbelianDesc):
        return g.is_trivial
    if isinstance(g, FreeDesc):
        return False
    return all(group_is_trivial(f) for f in g.factors)


def generator_count(g: GroupDesc) -> int:
    if isinstance(g, FiniteGroupDesc):
        return len(g.generators)
    if isinstance(g, FgAbelianDesc):
        return g.gen_count
    if isinstance(g, FreeDesc):
        return g.rank
    return sum(generator_count(f) for f in g.factors)


def generator_labels(g: GroupDesc) -> tuple[str, ...]:
    if isinstance(g, FiniteGroupDesc):
        return g.labels
    if isinstance(g, FgAbelianDesc):
        return g.gen_labels
    if isinstance(g, FreeDesc):
        return g.names
    out: list[str] = []
    for f in g.factors:
        out.extend(generator_labels(f))
    return tuple(out)


def factor_offsets(product: ProductDesc):
    """Yield ``(factor, offset)`` for each factor of ``product``.  A product
    numbers its generators factor by factor, so a factor's generator i is
    the product's generator ``offset + i``."""
    offset = 0
    for f in product.factors:
        yield f, offset
        offset += generator_count(f)


def fc_is_trivial(q: GroupDesc) -> bool:
    """Is FC(Q) trivial, by catalog rules?

    Finite groups and f.g. abelian groups are all-FC; free groups of rank
    >= 2 have trivial FC; rank 1 is abelian; FC distributes over direct
    products.  A trivial group reads False: callers test
    :func:`group_is_trivial` first.
    """
    if isinstance(q, ProductDesc):
        return all(fc_is_trivial(f) for f in q.factors)
    return isinstance(q, FreeDesc) and q.rank >= 2
