"""Validated extension data: kernel, quotient, and the action assignment.

An extension is described by a kernel and a quotient, both catalog
descriptors (the kernel an ``FgAbelianDesc``, ``FreeDesc`` or
``FiniteGroupDesc``), and one action per quotient generator: a
unimodular integer matrix for abelian kernels, a free-group automorphism
for free kernels, none for finite kernels.  The assignment must extend
to a homomorphism from the quotient, which is checked exactly for finite
and abelian (and product) quotients.  A finite quotient is checked on
the images of the kernel basis: an automorphism is fixed by them, so
validation walks the quotient's Cayley graph once, mapping each
element's images of the basis through a generator's action on the
points Omega of the kernel that the walk meets, and compares them, with
no product of actions (:meth:`Theta.finite_images`,
``CATALOG_AXIOMS.md`` §15).

Only the action homomorphism matters for the verdicts downstream, so one
validated spec covers every extension (split or not) inducing the same
action; the oracle materializes the split representative.  The action
is one :class:`Theta` per spec, and every reader shares its caches.  It
is also the only code that composes the action along a word
(:meth:`Theta.of_pairs`) and that decides whether an action is trivial
(:meth:`Theta.trivial`: the identity matrix on abelian kernels, an
inner automorphism on free ones, which acts as I on the abelianization,
:attr:`Theta.abelian`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .catalog import (
    FgAbelianDesc,
    FiniteGroupDesc,
    FreeDesc,
    GroupDesc,
    ProductDesc,
    factor_offsets,
    generator_count,
    make_product,
)
from .intlinalg import IntMatrix
from .words import FreeAut, is_inner


class ExtensionValidationError(ValueError):
    """The description is malformed or the actions violate the quotient's
    relations.  ``action`` is the index of the one action at fault, or
    None when the fault is not one action's (a count or a relation)."""

    def __init__(self, message: str, action: int | None = None):
        super().__init__(message)
        self.action = action


class UnsupportedExtensionError(ValueError):
    """Structurally valid but outside the supported catalog."""


KernelDesc = FgAbelianDesc | FreeDesc | FiniteGroupDesc


class Theta:
    """The action homomorphism theta: Q -> Aut(K), generator i acting by
    ``actions[i]``.  Its caches serve every reader: the powers A_i^e,
    keyed by ``(i, e)``; each finite factor's images of the basis on
    Omega (:meth:`finite_images`), keyed by the factor's ``factor_offsets``
    offset, which validation builds and checks in one walk; and a free
    action's :attr:`abelian` view.  Actions are exact, so a cached value
    equals every product that computes it: A^-e on a torsion generator
    of divisor d is A^(d-e).  Holds no reference to the spec that holds
    it."""

    __slots__ = ("actions", "identity", "_powers", "_finite", "_abelian")

    def __init__(self, actions, identity):
        self.actions, self.identity = tuple(actions), identity
        self._powers = {(i, 0): identity for i in range(len(self.actions))}
        self._finite, self._abelian = {}, None

    @property
    def abelian(self) -> Theta:
        """The action on the kernel's abelianization: ``self`` on an abelian
        kernel; on a free one, the ``Theta`` of the abelianized actions,
        built on first use, cached, and holding no reference back."""
        if isinstance(self.identity, IntMatrix):
            return self
        if self._abelian is None:
            self._abelian = Theta([a.abelianization() for a in self.actions], IntMatrix.identity(self.identity.rank))
        return self._abelian

    def power(self, i: int, e: int):
        """A_i^e, extended one factor at a time from A_i^+-1 (A_i^0 is
        ``identity``)."""
        p = self._powers.get((i, e))
        if p is None:
            step = 1 if e > 0 else -1
            for k in range(step, e + step, step):
                q = self._powers.get((i, k))
                if q is None:
                    q = self._powers[i, k] = self.actions[i] ** step if k == step else p @ self._powers[i, step]
                p = q
        return p

    def of_pairs(self, pairs):
        """The action of the product of generator i to the e over the
        ``(i, e)`` pairs (e != 0), in order; ``identity`` for none."""
        action = None
        for i, e in pairs:
            p = self.power(i, e)
            action = p if action is None else action @ p
        return self.identity if action is None else action

    def of_exponents(self, exps, offset: int = 0):
        """The action of the product of generator ``offset + i`` to the
        ``exps[i]``, in generator order."""
        return self.of_pairs((offset + i, e) for i, e in enumerate(exps) if e)

    def trivial(self, action):
        """How ``action`` acts trivially, or None when it does not.

        On an abelian kernel (theorem 1) trivial means the identity
        matrix: ``("action-identity", None)``.  On a free kernel
        (theorem 3) it means inner: ``("inner-automorphism", w)`` for
        x -> w x w^-1."""
        if isinstance(self.identity, IntMatrix):
            return ("action-identity", None) if action.is_identity else None
        w = is_inner(action)
        return None if w is None else ("inner-automorphism", w)

    def finite_images(self, group: FiniteGroupDesc, offset: int = 0) -> tuple:
        """For every element q of the finite factor ``group`` at
        ``offset``, in ``elements`` order, the positions in Omega of
        theta(q)(b_1), ..., theta(q)(b_r), the images of the kernel
        basis; entry ``[0]``, the identity's, is ``(0, ..., r - 1)``
        (``CATALOG_AXIOMS.md`` §15).

        Omega is the set of points of the kernel that the walk meets,
        starting from the basis: the columns e_j of an abelian kernel,
        the letters x_j of a free one as reduced words.  An automorphism
        is fixed by the images of the basis, so theta(q) is the identity
        iff its entry is the identity's.  Omega is cached with the
        entries, keyed by ``offset``, for :meth:`finite_table`.

        The walk is breadth-first over the left Cayley graph e -> g_i e,
        read off the right one that ``group`` keeps: theta(g_i e) =
        A_i o theta(e), so an edge maps each entry of e through A_i's
        action on Omega, applied once per point on first use.  The edge
        that first reaches an element sets its entry; any other edge
        whose entry differs shows that theta does not extend to
        ``group`` and raises :class:`ExtensionValidationError`, and
        nothing is cached then.  The walk goes level by level, so when
        the shortest words whose actions conflict have length m, every
        point it meets is theta(w)(b_j) for a word w of length at most m.
        Each generator action is applied at most once per point met, at
        most rank * |Q| times; when every generator acts as the
        identity, nothing is applied.
        """
        cached = self._finite.get(offset)
        if cached is not None:
            return cached[1]
        actions = self.actions[offset:offset + len(group.generators)]
        basis = self.identity.rows if isinstance(self.identity, IntMatrix) else self.identity.images
        identity = tuple(range(len(basis)))
        if all(a.is_identity for a in actions):
            self._finite[offset] = cached = (basis, (identity,) * group.order)
            return cached[1]
        points, index = list(basis), {b: j for j, b in enumerate(basis)}
        images = [_Image(a, points, index) for a in actions]
        entries = [identity] + [None] * (group.order - 1)
        lefts, queue = _left_products(group.cayley), [0]
        for e in queue:  # grows as the walk reaches new elements
            entry = entries[e]
            for left, image in zip(lefts, images):
                child, got = left[e], tuple(map(image.__getitem__, entry))
                known = entries[child]
                if known is None:
                    entries[child] = got
                    queue.append(child)
                elif known != got:
                    raise _not_extending()
        self._finite[offset] = cached = (tuple(points), tuple(entries))
        return cached[1]

    def finite_table(self, group: FiniteGroupDesc, offset: int = 0) -> tuple:
        """theta(q) for every element q of the finite factor ``group`` at
        ``offset``, in ``elements`` order, not cached: theta(q) sends
        basis element j to the point of Omega at position
        ``finite_images(...)[q][j]``, so it is read off with no product."""
        entries = self.finite_images(group, offset)
        points = self._finite[offset][0]
        if isinstance(self.identity, IntMatrix):
            return tuple(IntMatrix._trusted(tuple(zip(*map(points.__getitem__, e)))) for e in entries)
        return tuple(FreeAut._trusted(self.identity.rank, tuple(map(points.__getitem__, e))) for e in entries)


class _Image(dict):
    """One generator action on Omega: the position of its image of the
    point at each position, applied on the first lookup of that
    position, and the image appended to ``points`` if new."""

    __slots__ = ("apply", "points", "index")

    def __init__(self, action, points: list, index: dict):
        super().__init__()
        self.apply, self.points, self.index = action.apply, points, index

    def __missing__(self, x: int) -> int:
        y = self.apply(self.points[x])
        j = self[x] = self.index.setdefault(y, len(self.points))
        if j == len(self.points):
            self.points.append(y)
        return j


def _left_products(cayley) -> list:
    """Per generator g_i, the list of the indices of g_i e over the
    elements e, read off the right Cayley graph ``cayley``: g_i (e g_j)
    = (g_i e) g_j, and in breadth-first order every element after the
    identity is a child of an earlier one."""
    lefts = []
    for g in cayley[0]:
        left = [g] + [0] * (len(cayley) - 1)
        for e, children in enumerate(cayley):
            for child, product in zip(children, cayley[left[e]]):
                left[child] = product
        lefts.append(left)
    return lefts


def _not_extending() -> ExtensionValidationError:
    return ExtensionValidationError("relation violation: actions do not extend to the finite quotient")


@dataclass(frozen=True)
class ExtensionSpec:
    """A validated extension; build through :func:`make_extension`."""

    kernel: KernelDesc
    quotient: GroupDesc
    actions: tuple  # IntMatrix per quotient generator, or FreeAut, or ()
    theta: Theta | None = field(compare=False, repr=False)  # None for finite kernels


def _normalize_kernel(kernel, actions):
    """Fold the free group of rank 1 into the abelian kernel Z."""
    if isinstance(kernel, FreeDesc) and kernel.rank == 1:
        # F_1 is Z: each automorphism is +-identity, acting as a 1x1 matrix.
        mats = []
        for i, a in enumerate(actions):
            if not isinstance(a, FreeAut) or a.rank != 1:
                raise ExtensionValidationError("rank-1 free kernel expects rank-1 automorphisms", i)
            mats.append(IntMatrix.from_rows([[1 if a.images[0] == (1,) else -1]]))
        return FgAbelianDesc(1), tuple(mats)
    return kernel, tuple(actions)


def _normalize_quotient(q: GroupDesc) -> GroupDesc:
    if isinstance(q, FreeDesc) and q.rank == 1:
        return FgAbelianDesc(1, (), q.names)
    if isinstance(q, ProductDesc):
        return make_product([_normalize_quotient(f) for f in q.factors])
    return q


def _validate_relations(quotient, theta: Theta, offset: int = 0):
    """Check that generator images satisfy the quotient's relations.

    Finite quotients: ``theta``'s images of the basis on Omega are built
    and checked on every edge of the Cayley graph in one walk
    (:meth:`Theta.finite_images`).
    Abelian quotients: images commute and torsion generators have the
    divisor's order.  Products additionally need cross-factor
    commutation; free factors impose nothing.  Generator i is
    ``theta``'s ``offset + i``.
    """
    actions = theta.actions[offset:offset + generator_count(quotient)]
    if isinstance(quotient, FiniteGroupDesc):
        theta.finite_images(quotient, offset)
    elif isinstance(quotient, FgAbelianDesc):
        for a, b in itertools.combinations(actions, 2):
            if a @ b != b @ a:
                raise ExtensionValidationError("relation violation: abelian quotient, non-commuting actions")
        for d, a in zip(quotient.divisors, actions[quotient.rank:]):
            if a ** d != theta.identity:
                raise ExtensionValidationError(
                    f"relation violation: torsion generator of order {d} maps to an action whose order does not divide {d}"
                )
    elif isinstance(quotient, FreeDesc):
        pass
    elif isinstance(quotient, ProductDesc):
        slices = []
        for f, at in factor_offsets(quotient):
            _validate_relations(f, theta, at)
            slices.append(actions[at:at + generator_count(f)])
        for acts1, acts2 in itertools.combinations(slices, 2):
            for a in acts1:
                for b in acts2:
                    if a @ b != b @ a:
                        raise ExtensionValidationError(
                            "relation violation: actions of distinct product factors must commute"
                        )
    else:
        raise UnsupportedExtensionError(f"unsupported quotient class: {type(quotient).__name__}")


def make_extension(kernel, quotient, actions=()) -> ExtensionSpec:
    """Validate and normalize an extension description.

    Omitted actions default to the identity, which is not validated: it
    satisfies every relation of the quotient, so only given actions are
    checked.  Raises :class:`ExtensionValidationError` on malformed data
    or relation violations, :class:`UnsupportedExtensionError` on
    combinations outside the catalog.
    """
    quotient = _normalize_quotient(quotient)
    kernel, actions = _normalize_kernel(kernel, tuple(actions))
    ngens = generator_count(quotient)

    if isinstance(kernel, FiniteGroupDesc):
        if actions:
            raise UnsupportedExtensionError(
                "actions on finite kernels are not supported; omit the action lines"
            )
        return ExtensionSpec(kernel, quotient, (), None)

    if isinstance(kernel, FgAbelianDesc):
        identity = IntMatrix.identity(kernel.rank)
    elif isinstance(kernel, FreeDesc):
        identity = FreeAut.identity(kernel.rank)
    else:
        raise UnsupportedExtensionError(f"unsupported kernel class: {type(kernel).__name__}")
    if actions and len(actions) != ngens:
        raise ExtensionValidationError(
            f"expected {ngens} actions (one per quotient generator), got {len(actions)}"
        )
    for i, a in enumerate(actions):
        if isinstance(kernel, FreeDesc):
            if not isinstance(a, FreeAut):
                raise ExtensionValidationError("free kernel expects automorphism actions", i)
            if a.rank != kernel.rank:
                raise ExtensionValidationError("automorphism rank != kernel rank", i)
        elif not isinstance(a, IntMatrix):
            raise ExtensionValidationError("abelian kernel expects matrix actions", i)
        elif a.nrows != kernel.rank or a.ncols != kernel.rank:
            raise ExtensionValidationError(
                f"action matrix is {a.nrows}x{a.ncols}, kernel rank is {kernel.rank}", i
            )
        elif (d := a.det()) not in (1, -1):  # the one check; derived matrices are trusted
            raise ExtensionValidationError(f"non-unimodular matrix, det={d}", i)
    # Identity default; torsion-only kernels need no action data.
    theta = Theta(actions or (identity,) * ngens, identity)
    if actions:
        _validate_relations(quotient, theta)
    return ExtensionSpec(kernel, quotient, theta.actions, theta)
