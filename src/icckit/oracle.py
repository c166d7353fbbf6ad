"""Brute-force ground truth on materialized split extensions.

Builds the split extension determined by the action assignment, with
exact normal forms for elements, and measures conjugacy-class growth:
a class reported Closed is the complete class, computed exactly; a class
still growing at the radius cap is evidence (not proof) of infinitude.

Element encoding: a pair ``(k, q)``.  Kernel and quotient parts use the
same normal forms: integer tuples for abelian groups (free coordinates
first, then torsion residues), reduced words for free groups,
permutations for finite groups, and tuples of those for products.  One
arithmetic class per catalog atom, plus one for products, serves both
sides; the atom classes also carry the kernel side's conjugation step,
and the abelian and free ones its action.  Multiplication is
``(k1, q1) (k2, q2) = (k1 * theta(q1)(k2), q1 q2)``, with theta(q)
read off the generator powers that ``ExtensionSpec.theta`` caches, and
a trivial theta (every action the identity) applied to nothing.

Conjugation, the step that grows every ball, is computed in closed form:
for ``g = (k, q)`` and ``x = (a, p)``,
``g^-1 x g = (theta(q^-1)(k^-1 * a * theta(p)(k)), q^-1 p q)``.  This is
the same element as the product of ``inv(g)``, ``x`` and ``g`` because
theta is a homomorphism into the automorphisms of the kernel (the
extension validated the quotient's relations), and normal forms are
exact, so the two computations give the same tuple.

Everything in that formula except the kernel part ``a`` is memoized on
the ``ConcreteGroup``: ``k^-1`` and ``theta(p)(k)`` (for abelian kernels
their sum ``theta(p)(k) - k``) keyed by ``(k, p)``, ``q^-1`` and
``theta(q^-1)`` keyed by ``q``, and ``q^-1 p q`` keyed by ``(q, p)``.
A ball conjugates thousands of elements by the same few generators, and
their quotient parts repeat, so most steps reuse these values.  Each is
a pure function of its key, so a memoized step gives the same tuple as
a fresh one.  The memos live as long as the group, which ``crosscheck``
builds once per call.

A ball is closed within radius R exactly when no element lies at
distance R.  The conjugators include every inverse, so the conjugation
graph is undirected, and a conjugate z of an element at distance R - 1
lies at distance R iff neither z nor any conjugate of z lies in the ball
of radius R - 2.  ``crosscheck`` reads only closure for its samples, and
grows their balls with ``closure_only``, which applies that check while
round R - 1 is being found and never walks round R.  The first sample's
ball is walked in full only when its growth curve is asked for.

Conjugation commutes with inversion, (x^-1)^g = (x^g)^-1, so the ball of
x^-1 is the ball of x inverted element by element, round by round, and
has the same growth curve.  ``crosscheck`` walks one ball per inverse
pair of samples, and every ball of a group conjugates by one list of
conjugators, built once per ``ConcreteGroup``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import add

from .analyzer import (
    KernelTorsionWitness,
    KernelVectorWitness,
    QuotientLiftWitness,
    TrivialGroupWitness,
)
from .catalog import (
    FgAbelianDesc,
    FiniteGroupDesc,
    FreeDesc,
    ProductDesc,
    factor_offsets,
    perm_compose,
    perm_identity,
    perm_inverse,
)
from .extension import ExtensionSpec, UnsupportedExtensionError
from .intlinalg import IntMatrix
from .matgroup import FiniteOrbit, MatGroupGens, OrbitCapExceeded, OrbitResult, orbit_bfs
from .words import FreeAut, Word, word_inverse, word_mul


class _AbelianPart:
    """Z^rank x Z/d...: integer tuples, free coordinates first, then
    torsion residues.  As a kernel, the action matrices move the free
    coordinates and fix the torsion coordinates."""

    def __init__(self, desc: FgAbelianDesc):
        self.rank = desc.rank
        self.divisors = desc.divisors
        self.identity = (0,) * (self.rank + len(self.divisors))

    def mul(self, a, b):
        r = self.rank
        return tuple(map(add, a[:r], b[:r])) + tuple(
            (x + y) % d for x, y, d in zip(a[r:], b[r:], self.divisors)
        )

    def inv(self, a):
        r = self.rank
        return tuple(-x for x in a[:r]) + tuple((-x) % d for x, d in zip(a[r:], self.divisors))

    def act(self, mat: IntMatrix, a):
        return mat.apply(a[: self.rank]) + a[self.rank:]

    def conjugation_step(self, k, moved):
        """a -> k^-1 * a * moved for moved = theta(p)(k), as one vector add
        a + d with d = moved - k.  theta fixes the torsion coordinates, so
        d is 0 there and the sum stays reduced."""
        d = self.mul(moved, self.inv(k))
        return lambda a: tuple(map(add, a, d))

    def generators(self):
        n = len(self.identity)
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]

    def exponent_pairs(self, a):
        """(generator index, exponent) pairs whose ordered product is a."""
        return [(i, e) for i, e in enumerate(a) if e]


class _FreePart:
    """Reduced words."""

    identity: Word = ()

    def __init__(self, desc: FreeDesc):
        self.rank = desc.rank

    def mul(self, a, b):
        return word_mul(a, b)

    def inv(self, a):
        return word_inverse(a)

    def act(self, aut: FreeAut, a):
        return aut.apply(a)

    def conjugation_step(self, k, moved):
        """a -> k^-1 * a * moved, one reduced product."""
        ki = word_inverse(k)
        return lambda a: word_mul(ki, a, moved)

    def generators(self):
        return [(i + 1,) for i in range(self.rank)]

    def exponent_pairs(self, a):
        return [(abs(l) - 1, 1 if l > 0 else -1) for l in a]


class _FinitePart:
    """Permutations."""

    def __init__(self, desc: FiniteGroupDesc):
        self.desc = desc
        self.identity = perm_identity(desc.degree)

    def mul(self, a, b):
        return perm_compose(a, b)

    def inv(self, a):
        return perm_inverse(a)

    def conjugation_step(self, k, moved):
        """a -> k^-1 * a * moved, two permutation products."""
        ki = perm_inverse(k)
        return lambda a: perm_compose(perm_compose(ki, a), moved)

    def generators(self):
        return list(self.desc.generators)

    def exponent_pairs(self, a):
        return [(l - 1, 1) for l in self.desc.word_of(a)]


class _ProductPart:
    """Tuples with one component per factor; generators factor by factor."""

    def __init__(self, desc: ProductDesc):
        self.parts = [_part(f) for f in desc.factors]
        self.offsets = [offset for _, offset in factor_offsets(desc)]
        self.identity = tuple(p.identity for p in self.parts)

    def mul(self, a, b):
        return tuple(p.mul(x, y) for p, x, y in zip(self.parts, a, b))

    def inv(self, a):
        return tuple(p.inv(x) for p, x in zip(self.parts, a))

    def generators(self):
        out = []
        for i, p in enumerate(self.parts):
            for g in p.generators():
                out.append(self.identity[:i] + (g,) + self.identity[i + 1:])
        return out

    def exponent_pairs(self, a):
        out = []
        for p, offset, comp in zip(self.parts, self.offsets, a):
            out.extend((i + offset, e) for i, e in p.exponent_pairs(comp))
        return out


def _part(desc):
    """The arithmetic of one catalog group, kernel or quotient."""
    if isinstance(desc, FgAbelianDesc):
        return _AbelianPart(desc)
    if isinstance(desc, FreeDesc):
        return _FreePart(desc)
    if isinstance(desc, FiniteGroupDesc):
        return _FinitePart(desc)
    if isinstance(desc, ProductDesc):
        return _ProductPart(desc)
    raise UnsupportedExtensionError("group outside the oracle's catalog")


class ConcreteGroup:
    """A split extension with exact element arithmetic."""

    def __init__(self, spec: ExtensionSpec):
        self.spec = spec
        self.kernel_part = _part(spec.kernel)
        self.quotient_part = _part(spec.quotient)
        self._theta = None if all(a.is_identity for a in spec.actions) else spec.theta
        self._theta_cache: dict = {}
        # conjugate's memos, see its docstring
        self._kernel_steps: dict = {}
        self._quotient_inverses: dict = {}
        self._quotient_conjugates: dict = {}
        self.identity = (self.kernel_part.identity, self.quotient_part.identity)

    def theta(self, q):
        """The action of q, composed along its exponent pairs by
        ``Theta.of_pairs`` and memoized per q; None when theta is trivial:
        every action is the identity, or the kernel is finite."""
        if self._theta is None:
            return None
        action = self._theta_cache.get(q)
        if action is None:
            action = self._theta_cache[q] = self._theta.of_pairs(self.quotient_part.exponent_pairs(q))
        return action

    def act(self, q, k):
        return k if self._theta is None else self.kernel_part.act(self.theta(q), k)

    def mul(self, a, b):
        (k1, q1), (k2, q2) = a, b
        return (
            self.kernel_part.mul(k1, self.act(q1, k2)),
            self.quotient_part.mul(q1, q2),
        )

    def inv(self, a):
        k, q = a
        qi = self.quotient_part.inv(q)
        return (self.act(qi, self.kernel_part.inv(k)), qi)

    def conjugate(self, g, x):
        """x^g = g^-1 x g, in closed form.

        For g = (k, q) and x = (a, p), g^-1 x g is
        (theta(q^-1)(k^-1 * a * theta(p)(k)), q^-1 p q): expand
        inv(g) * x * g with the multiplication rule and use
        theta(q^-1) theta(p) = theta(q^-1 p).  The kernel half is skipped
        when k = 1 and the quotient half when q = 1; every ball
        conjugator is one of these two kinds.

        Only a varies from step to step, so the rest is memoized: the
        kernel part's step a -> k^-1 * a * theta(p)(k) keyed by (k, p),
        (q^-1, theta(q^-1)) keyed by q, and q^-1 p q keyed by (q, p).
        Each value is computed from its key alone, so the result is
        exact for any g and x, whatever was conjugated before.
        """
        (k, q), (a, p) = g, x
        kernel, quotient = self.kernel_part, self.quotient_part
        if k != kernel.identity:
            step = self._kernel_steps.get((k, p))
            if step is None:
                step = self._kernel_steps[k, p] = kernel.conjugation_step(k, self.act(p, k))
            a = step(a)
        if q == quotient.identity:
            return (a, p)
        inverse = self._quotient_inverses.get(q)
        if inverse is None:
            qi = quotient.inv(q)
            inverse = self._quotient_inverses[q] = (qi, self.theta(qi))
        qi, action = inverse
        p_conj = self._quotient_conjugates.get((q, p))
        if p_conj is None:
            p_conj = self._quotient_conjugates[q, p] = quotient.mul(quotient.mul(qi, p), q)
        return (a if action is None else kernel.act(action, a), p_conj)

    def kernel_element(self, k):
        return (k, self.quotient_part.identity)

    def lift(self, q):
        return (self.kernel_part.identity, q)

    def quotient_element_from_word(self, word):
        gens = self.quotient_part.generators()
        q = self.quotient_part.identity
        for letter in word:
            g = gens[abs(letter) - 1]
            q = self.quotient_part.mul(q, g if letter > 0 else self.quotient_part.inv(g))
        return q

    def ball_generators(self):
        """Kernel generators, quotient generator lifts (zero kernel part),
        and nothing else; ``conjugators`` adds their inverses."""
        return ([self.kernel_element(k) for k in self.kernel_part.generators()]
                + [self.lift(q) for q in self.quotient_part.generators()])

    @cached_property
    def conjugators(self) -> tuple:
        """The conjugators of every ball: each ball generator directly
        followed by its inverse, built once per group."""
        return tuple(c for g in self.ball_generators() for c in (g, self.inv(g)))

    def sample_nontrivial(self, count: int = 20):
        """Deterministic mixed sample: kernel generators, quotient lifts,
        inverses, and short products of those."""
        base = self.conjugators

        def emit():
            yield from base
            for a, b in itertools.product(base, repeat=2):
                yield self.mul(a, b)
            for a, b, c in itertools.product(base, repeat=3):
                yield self.mul(self.mul(a, b), c)

        seen = set()
        out = []
        for cand in emit():
            if cand == self.identity or cand in seen:
                continue
            seen.add(cand)
            out.append(cand)
            if len(out) >= count:
                break
        return out


def materialize(spec: ExtensionSpec) -> ConcreteGroup:
    """The split extension realizing the given action assignment."""
    return ConcreteGroup(spec)


@dataclass(frozen=True)
class GrowthCurve:
    """Cumulative conjugacy-class ball sizes per conjugation radius.

    ``closed_at`` is the smallest radius at which the ball equals the
    full class (certified by one further round adding nothing); None
    while the ball is still growing.  ``cap_hit`` marks a run stopped by
    the set-size safety cap.  A ``closure_only`` ball has the same
    ``closed_at`` as the full one, and the same curve when it closes or
    stops at the cap; when it is still growing, its sizes for rounds
    R - 1 and R are lower bounds and ``cap_hit`` is unset.
    """

    sizes: tuple[int, ...]
    closed_at: int | None
    cap_hit: bool = False

    @property
    def is_closed(self) -> bool:
        return self.closed_at is not None

    @property
    def final_size(self) -> int:
        return self.sizes[-1]

    def csv_rows(self):
        rows = ["radius,size,status"]
        for r, s in enumerate(self.sizes):
            if self.closed_at is not None and r >= self.closed_at:
                status = "closed"
            else:
                status = "growing"
            rows.append(f"{r},{s},{status}")
        return rows


def _new_conjugates(group: ConcreteGroup, conjugators, frontier, seen):
    """One ball round: each conjugate of the frontier not yet in ``seen``,
    added to ``seen`` and yielded as soon as it is found."""
    for x in frontier:
        for g in conjugators:
            y = group.conjugate(g, x)
            if y not in seen:
                seen.add(y)
                yield y


def conjugacy_ball(group: ConcreteGroup, element, radius: int, cap: int = 5000, *,
                   closure_only: bool = False) -> GrowthCurve:
    """Iteratively conjugate by all ball generators and inverses.

    Closed means a full extra round added nothing, so the returned size
    is the exact class size.  Deterministic: the group's ``conjugators``
    (built once per group), each generator directly followed by its
    inverse, and a FIFO frontier.

    With ``closure_only`` (and ``radius`` R >= 2) rounds 1..R-2 run in
    full and round R - 1 runs lazily: each new element w is checked as
    soon as it is found, and the ball is not closed within R at the
    first conjugate z of w that lies at distance R, that is, outside
    the ball so far with no conjugate of its own in the ball B_{R-2}
    (the one-step distance check, ``CATALOG_AXIOMS.md`` §10).  If round
    R - 1 ends without one, round R would add nothing.  ``is_closed``
    and ``closed_at`` are those of the full walk, and so is the whole
    curve unless the ball is still growing; then the last two sizes are
    lower bounds and ``cap_hit`` is unset.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    conjugators = group.conjugators
    lazy = closure_only and radius > 1
    seen = {element}
    frontier = [element]
    sizes = [1]
    for rnd in range(1, radius - 1 if lazy else radius + 1):
        new = list(_new_conjugates(group, conjugators, frontier, seen))
        sizes.append(len(seen))
        if not new:
            return GrowthCurve(tuple(sizes), rnd - 1)
        if len(seen) > cap:
            return GrowthCurve(tuple(sizes), None, cap_hit=True)
        frontier = new
    if not lazy:
        return GrowthCurve(tuple(sizes), None)

    inner = frozenset(seen)  # B_{R-2}
    for w in _new_conjugates(group, conjugators, frontier, seen):
        for g in conjugators:
            z = group.conjugate(g, w)
            if z not in seen and all(group.conjugate(h, z) not in inner for h in conjugators):
                sizes += [len(seen), len(seen) + 1]  # z lies outside the ball so far
                return GrowthCurve(tuple(sizes), None)
    sizes.append(len(seen))
    if len(seen) == sizes[-2]:
        return GrowthCurve(tuple(sizes), radius - 2)
    if len(seen) > cap:
        return GrowthCurve(tuple(sizes), None, cap_hit=True)
    sizes.append(len(seen))  # round R would add nothing
    return GrowthCurve(tuple(sizes), radius - 1)


def exact_abelian_class(group: ConcreteGroup, k, cap: int = 10_000) -> OrbitResult:
    """The exact class of a kernel element of an abelian-kernel group:
    its orbit under the action (independent of any ball radius), with
    the fixed torsion coordinates of ``k`` on every vector."""
    if not isinstance(group.kernel_part, _AbelianPart):
        raise ValueError("exact_abelian_class needs an abelian kernel")
    part = group.kernel_part
    free, tors = k[: part.rank], k[part.rank:]
    result = orbit_bfs(MatGroupGens(part.rank, group.spec.actions), free, cap)
    if isinstance(result, OrbitCapExceeded):
        return result
    return FiniteOrbit(frozenset(v + tors for v in result.vectors))


def _witness_element(group: ConcreteGroup, witness):
    """The concrete group element a verdict witness talks about."""
    if isinstance(witness, KernelVectorWitness):
        part = group.kernel_part
        pad = (0,) * (len(part.identity) - len(witness.vector))
        return group.kernel_element(tuple(witness.vector) + pad)
    if isinstance(witness, KernelTorsionWitness):
        part = group.kernel_part
        if isinstance(part, _AbelianPart):
            unit = [0] * (part.rank + len(part.divisors))
            unit[part.rank] = 1
            return group.kernel_element(tuple(unit))
        if isinstance(part, _FinitePart):
            return group.kernel_element(part.desc.elements[1])
        raise ValueError("torsion witness in a torsion-free kernel")
    if isinstance(witness, QuotientLiftWitness):
        q = group.quotient_element_from_word(witness.word)
        if witness.conjugator is not None:
            return (word_inverse(witness.conjugator), q)
        return group.lift(q)
    if isinstance(witness, TrivialGroupWitness):
        return group.identity
    raise TypeError(f"unknown witness {witness!r}")


def crosscheck(spec: ExtensionSpec, report, radius: int = 6, cap: int = 5000,
               samples: int = 20, *, growth: bool = True):
    """Compare a verdict against the materialized split extension.

    Negative verdicts: the witness's class must close, or, for abelian
    kernels, the witness's orbit must be the exact orbit and the ball
    must reach all of it.  Positive verdicts: none of the sampled
    nontrivial elements may close its class within the radius and cap.
    Unknown verdicts only gather evidence.

    Returns ``(summary_dict, growth_curve)`` where the curve belongs to
    the witness (negative case) or the first sample.  The witness's ball
    is a full walk, since its size feeds ``consistent``.  Sample balls
    decide closure alone and are grown with ``closure_only``, all but
    the first when ``growth`` is set and every one otherwise; then no
    sample curve is returned (None).  A sample whose inverse was sampled
    before it is not walked: its curve is that of the inverse
    (``CATALOG_AXIOMS.md`` §10, inverse samples), so the summary is the
    one that walking every sample gives.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    group = materialize(spec)
    summary = {"radius": radius, "cap": cap}

    if report.verdict == "not_icc":
        element = _witness_element(group, report.witness)
        curve = conjugacy_ball(group, element, radius, cap)
        check = {"kind": "witness-ball", "closed_at": curve.closed_at, "size": curve.final_size}
        consistent = curve.is_closed
        if isinstance(report.witness, TrivialGroupWitness):
            consistent = True
        elif isinstance(report.witness, KernelVectorWitness) and isinstance(
            group.kernel_part, _AbelianPart
        ):
            exact = exact_abelian_class(group, element[0])
            expected = frozenset(group.kernel_element(v)[0] for v in report.witness.orbit)
            check["kind"] = "witness-exact-class"
            check["exact_size"] = exact.size if isinstance(exact, FiniteOrbit) else None
            # The ball lies inside the exact class, so reaching its size
            # is the whole class, closure certified or not.
            consistent = (
                isinstance(exact, FiniteOrbit)
                and exact.vectors == expected
                and curve.final_size == exact.size
            )
        elif isinstance(report.witness, KernelTorsionWitness):
            consistent = curve.is_closed and curve.final_size <= report.witness.class_bound
        summary.update(
            {"mode": "witness", "witness_check": check,
             "samples_checked": 0, "finite_classes_found": 0,
             "consistent": bool(consistent)}
        )
        return summary, curve

    elements = group.sample_nontrivial(samples)
    curves = {}
    for i, e in enumerate(elements):
        # the ball of e^-1 is the inverse of the ball of e (§10)
        curve = curves.get(group.inv(e))
        if curve is None:
            curve = conjugacy_ball(group, e, radius, cap, closure_only=i > 0 or not growth)
        curves[e] = curve
    closed = sum(1 for c in curves.values() if c.is_closed)
    consistent = closed == 0 if report.verdict == "icc" else True
    summary.update(
        {"mode": "samples", "witness_check": None,
         "samples_checked": len(elements), "finite_classes_found": closed,
         "consistent": bool(consistent)}
    )
    if not growth:
        return summary, None
    first = curves[elements[0]] if elements else conjugacy_ball(group, group.identity, radius, cap)
    return summary, first
