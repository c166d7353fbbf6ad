"""Validated extension data: kernel, quotient, and the action assignment.

An extension is described by a kernel and a quotient, both catalog
descriptors (the kernel an ``FgAbelianDesc``, ``FreeDesc`` or
``FiniteGroupDesc``), and one action per quotient generator: a
unimodular integer matrix for abelian kernels, a free-group automorphism
for free kernels, none for finite kernels.  The assignment must extend
to a homomorphism from the quotient, which is checked exactly for finite
and abelian (and product) quotients: a finite quotient's table of
element actions is built and checked in the same walk over its Cayley
graph (:meth:`Theta.finite_table`).

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
    perm_compose,
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
    keyed by ``(i, e)``; each finite factor's element actions in
    ``elements`` order, keyed by the factor's ``factor_offsets`` offset,
    which validation builds and checks in one walk; and a free action's
    :attr:`abelian` view.  Actions are exact, so a cached value equals
    every product that computes it: A^-e on a torsion generator of
    divisor d is A^(d-e).  Holds no reference to the spec that holds it."""

    __slots__ = ("actions", "identity", "_powers", "_tables", "_abelian")

    def __init__(self, actions, identity):
        self.actions, self.identity = tuple(actions), identity
        self._powers = {(i, 0): identity for i in range(len(self.actions))}
        self._tables, self._abelian = {}, None

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

    def finite_table(self, group: FiniteGroupDesc, offset: int = 0) -> tuple:
        """The action of every element of the finite factor ``group`` at
        ``offset``, in ``elements`` order, built and checked in one walk
        over the Cayley graph's edges e -> e g_i in ``elements`` x
        ``generators`` order: the edge that first reaches an element (in
        the breadth-first order of ``elements``) sets its action
        theta(e) @ A_i, and any other edge whose product differs raises
        :class:`ExtensionValidationError`, since theta does not extend to
        ``group``.  One product per edge, and none when every generator
        acts as the identity, which satisfies every relation."""
        table = self._tables.get(offset)
        if table is None and all(a.is_identity for a in self.actions[offset:offset + len(group.generators)]):
            table = self._tables[offset] = (self.identity,) * group.order
        if table is None:
            action_of = {group.elements[0]: self.identity}
            for e in group.elements:
                for g, a in zip(group.generators, self.actions[offset:]):
                    product = action_of[e] @ a
                    if action_of.setdefault(perm_compose(e, g), product) != product:
                        raise ExtensionValidationError(
                            "relation violation: actions do not extend to the finite quotient"
                        )
            table = self._tables[offset] = tuple(action_of.values())
        return table


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

    Finite quotients: ``theta``'s table is built and checked on every
    edge of the Cayley graph in one walk (:meth:`Theta.finite_table`).
    Abelian quotients: images commute and torsion generators have the
    divisor's order.  Products additionally need cross-factor
    commutation; free factors impose nothing.  Generator i is
    ``theta``'s ``offset + i``.
    """
    actions = theta.actions[offset:offset + generator_count(quotient)]
    if isinstance(quotient, FiniteGroupDesc):
        theta.finite_table(quotient, offset)
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
