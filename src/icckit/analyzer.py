"""Verdicts on the infinite-conjugacy-class property of extensions.

Dispatches on the kernel class.  Abelian kernels: every nontrivial
kernel element must have an infinite orbit under the action (decided
exactly through the finite-orbit sublattice), and the action must be
injective on the quotient's finite-class subgroup.  Free kernels of rank
>= 2 are themselves icc, so only injectivity into the outer automorphism
classes remains.  Nontrivial finite kernels refute the property
outright: they are finite normal subgroups with finite orbits.

Every negative verdict carries a re-verifiable witness; semi-decidable
sub-questions (outer order, multi-generator abelian relations) surface
as an ``unknown`` verdict with a named obstruction, never as a verdict
guessed from a bounded search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .catalog import (
    FgAbelianDesc,
    FiniteGroupDesc,
    FreeDesc,
    GroupDesc,
    ProductDesc,
    fc_subgroup,
    generator_count,
    generator_labels,
    group_is_trivial,
)
from .extension import AbelianKernel, ExtensionSpec, UnsupportedExtensionError
from .intlinalg import IntMatrix, Lattice, Vec
from .matgroup import (
    FiniteOrbitCert,
    MatGroupGens,
    finite_orbit_sublattice,
    matrix_order,
)
from .words import FreeAut, Word, is_inner

GenWord = tuple[int, ...]


@dataclass(frozen=True)
class AnalyzerLimits:
    """Caps for the semi-decidable searches; raising them can only turn
    an unknown verdict into a decided one, never flip icc <-> not_icc.
    (All other enumerations are bounded by their own certificates.)"""

    out_order_cap: int = 16
    relation_bound: int = 8
    product_iteration_cap: int = 1_000_000


@dataclass(frozen=True)
class ConditionResult:
    name: str
    status: str  # "holds" | "fails" | "unknown"
    detail: str


@dataclass(frozen=True)
class KernelTorsionWitness:
    """A nontrivial torsion element of the kernel; its class stays inside
    the finite torsion subgroup."""

    description: str
    order: int
    class_bound: int


@dataclass(frozen=True)
class KernelVectorWitness:
    """A kernel vector with a certified finite orbit (= its class)."""

    vector: Vec
    orbit: tuple[Vec, ...]

    @property
    def orbit_size(self) -> int:
        return len(self.orbit)


@dataclass(frozen=True)
class QuotientLiftWitness:
    """A nontrivial finite-class quotient element whose action is trivial
    (identically, or up to an inner automorphism); a suitable lift of it
    has finite class."""

    word: GenWord
    rendered: str
    evidence_kind: str  # "action-identity" | "inner-automorphism"
    conjugator: Word | None = None
    action_order: int | None = None


@dataclass(frozen=True)
class TrivialGroupWitness:
    """The whole group is trivial, which the property excludes."""


Witness = KernelTorsionWitness | KernelVectorWitness | QuotientLiftWitness | TrivialGroupWitness


@dataclass(frozen=True)
class Report:
    verdict: str  # "icc" | "not_icc" | "unknown"
    theorem_path: str
    witness: Witness | None = None
    obstruction: str | None = None
    conditions: tuple[ConditionResult, ...] = ()


@dataclass(frozen=True)
class Injective:
    pass


@dataclass(frozen=True)
class InjectivityWitness:
    word: GenWord
    evidence_kind: str
    conjugator: Word | None = None
    action_order: int | None = None


@dataclass(frozen=True)
class InjectivityUnknown:
    tag: str


InjectivityResult = Injective | InjectivityWitness | InjectivityUnknown


def render_gen_word(word: GenWord, labels) -> str:
    """Collapse repeated letters: (1, 1, 1, 1) -> 't^4'."""
    if not word:
        return "1"
    parts = []
    for letter, run in itertools.groupby(word):
        n = len(list(run))
        name = labels[abs(letter) - 1]
        exp = n if letter > 0 else -n
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(parts)


class _AutSide:
    """Triviality = the action matrix is the identity."""

    kind = "aut"

    def __init__(self, rank):
        self.rank = rank

    def identity(self):
        return IntMatrix.identity(self.rank)

    def compose(self, a, b):
        return a @ b

    def power(self, a, n):
        return a ** n

    def trivial(self, a):
        return InjectivityWitnessEvidence("action-identity") if a.is_identity else None


class _OutSide:
    """Triviality = the automorphism is inner."""

    kind = "out"

    def __init__(self, rank):
        self.rank = rank

    def identity(self):
        return FreeAut.identity(self.rank)

    def compose(self, a, b):
        return a.compose(b)

    def power(self, a, n):
        return a.power(n)

    def trivial(self, a):
        c = is_inner(a)
        if c is None:
            return None
        return InjectivityWitnessEvidence("inner-automorphism", conjugator=c)


@dataclass(frozen=True)
class InjectivityWitnessEvidence:
    kind: str
    conjugator: Word | None = None


def _exponent_vectors(free_rank: int, divisors: tuple[int, ...], bound: int):
    """Nonzero exponent tuples, free entries in [-bound, bound], torsion
    entries over their residue ranges; ordered by (max-norm, lex)."""
    axes = [range(-bound, bound + 1)] * free_rank + [range(d) for d in divisors]
    vecs = [v for v in itertools.product(*axes) if any(v)]
    vecs.sort(key=lambda v: (max(abs(x) for x in v), v))
    return vecs


def _word_from_exponents(exps) -> GenWord:
    out: list[int] = []
    for i, e in enumerate(exps):
        letter = i + 1 if e >= 0 else -(i + 1)
        out.extend([letter] * abs(e))
    return tuple(out)


def _action_of_exponents(actions, exps, side):
    out = side.identity()
    for a, e in zip(actions, exps):
        if e:
            out = side.compose(out, side.power(a, e))
    return out


def _shift_word(word: GenWord, offset: int) -> GenWord:
    return tuple(l + offset if l > 0 else l - offset for l in word)


def theta_fc_injective(quotient: GroupDesc, actions, side, limits: AnalyzerLimits) -> InjectivityResult:
    """Is the action injective on the finite-class subgroup of the quotient?

    Exact for finite quotients (full enumeration), for free quotients of
    rank >= 2 (vacuous), and for the infinite cyclic quotient on the
    matrix side (element order).  The outer order of an automorphism and
    relations in multi-generator abelian or mixed product quotients are
    searched up to the configured bounds and otherwise reported unknown.
    """
    if isinstance(quotient, FiniteGroupDesc):
        for e, w in zip(quotient.elements[1:], quotient.element_words[1:]):
            action = side.identity()
            for letter in w:
                action = side.compose(action, actions[letter - 1])
            ev = side.trivial(action)
            if ev is not None:
                return InjectivityWitness(tuple(w), ev.kind, ev.conjugator)
        return Injective()

    if isinstance(quotient, FreeDesc):
        if quotient.rank < 2:
            raise AssertionError("rank-1 free quotients are normalized to abelian")
        return Injective()

    if isinstance(quotient, FgAbelianDesc):
        if quotient.is_trivial:
            return Injective()
        if quotient.is_finite:
            for exps in _exponent_vectors(0, quotient.divisors, 0):
                action = _action_of_exponents(actions, exps, side)
                ev = side.trivial(action)
                if ev is not None:
                    return InjectivityWitness(_word_from_exponents(exps), ev.kind, ev.conjugator)
            return Injective()
        if quotient.rank == 1 and not quotient.divisors:
            if side.kind == "aut":
                n = matrix_order(actions[0])
                if n is None:
                    return Injective()
                return InjectivityWitness((1,) * n, "action-identity", action_order=n)
            phi = actions[0]
            power = side.identity()
            for n in range(1, limits.out_order_cap + 1):
                power = side.compose(power, phi)
                c = is_inner(power)
                if c is not None:
                    return InjectivityWitness((1,) * n, "inner-automorphism", conjugator=c)
            return InjectivityUnknown("out-order-unbounded")
        # Several independent generators: relations are only searched up
        # to the bound, an exact relation-lattice computation is out of scope.
        for exps in _exponent_vectors(quotient.rank, quotient.divisors, limits.relation_bound):
            action = _action_of_exponents(actions, exps, side)
            ev = side.trivial(action)
            if ev is not None:
                return InjectivityWitness(_word_from_exponents(exps), ev.kind, ev.conjugator)
        return InjectivityUnknown("abelian-relation-bound")

    if isinstance(quotient, ProductDesc):
        return _product_injectivity(quotient, actions, side, limits)

    raise UnsupportedExtensionError(f"unsupported quotient class: {type(quotient).__name__}")


def _factor_slices(quotient: ProductDesc, actions):
    offset = 0
    out = []
    for f in quotient.factors:
        n = generator_count(f)
        out.append((f, actions[offset:offset + n], offset))
        offset += n
    return out


def _product_injectivity(quotient: ProductDesc, actions, side, limits) -> InjectivityResult:
    """Injectivity over a product's FC, which multiplies across factors.

    Per-factor triviality gives an immediate witness, but joint
    injectivity needs cross-factor products too (actions of different
    factors may cancel), so the finite part is enumerated exactly and
    anything involving infinite factors is searched up to the bounds.
    """
    slices = [
        (f, acts, off)
        for f, acts, off in _factor_slices(quotient, actions)
        if not fc_subgroup(f).is_trivial
    ]
    if not slices:
        return Injective()
    if len(slices) == 1:
        f, acts, off = slices[0]
        res = theta_fc_injective(f, acts, side, limits)
        if isinstance(res, InjectivityWitness):
            return InjectivityWitness(
                _shift_word(res.word, off), res.evidence_kind, res.conjugator, res.action_order
            )
        return res

    candidates = []  # per factor: list of (word, action-or-None for identity)
    exact = True
    total = 1
    for f, acts, off in slices:
        if isinstance(f, FiniteGroupDesc):
            factor_cands = [
                (_shift_word(tuple(w), off), w) for w in f.element_words
            ]
            factor_list = []
            for shifted, w in factor_cands:
                action = side.identity()
                for letter in w:
                    action = side.compose(action, acts[letter - 1])
                factor_list.append((shifted, action))
        elif isinstance(f, FgAbelianDesc):
            if not f.is_finite:
                exact = False
            bound = 0 if f.is_finite else limits.relation_bound
            factor_list = [(_shift_word((), off), side.identity())]
            for exps in _exponent_vectors(f.rank, f.divisors, bound):
                factor_list.append(
                    (_shift_word(_word_from_exponents(exps), off),
                     _action_of_exponents(acts, exps, side))
                )
        else:
            raise AssertionError("free factors have trivial FC and were filtered out")
        total *= len(factor_list)
        candidates.append(factor_list)

    if total > limits.product_iteration_cap:
        return InjectivityUnknown("fc-enumeration-too-large")
    for combo in itertools.product(*candidates):
        word = tuple(itertools.chain.from_iterable(w for w, _ in combo))
        if not word:
            continue
        action = side.identity()
        for _, a in combo:
            action = side.compose(action, a)
        ev = side.trivial(action)
        if ev is not None:
            return InjectivityWitness(word, ev.kind, ev.conjugator)
    return Injective() if exact else InjectivityUnknown("product-relation-bound")


def _lift_witness(res: InjectivityWitness, quotient: GroupDesc) -> QuotientLiftWitness:
    labels = generator_labels(quotient)
    return QuotientLiftWitness(
        word=res.word,
        rendered=render_gen_word(res.word, labels),
        evidence_kind=res.evidence_kind,
        conjugator=res.conjugator,
        action_order=res.action_order,
    )


def _canonical_short_index(basis) -> int:
    """The index of the earliest HNF basis row of minimal max-norm."""
    return min(range(len(basis)), key=lambda i: (max(abs(x) for x in basis[i]), i))


def thm1_check(spec: ExtensionSpec, limits: AnalyzerLimits = AnalyzerLimits()) -> Report:
    """Abelian-kernel decision.

    The property holds iff (i) every nontrivial kernel element has an
    infinite orbit under the action, and (ii) the action is injective on
    the quotient's finite-class subgroup.  A kernel class coincides with
    its orbit, so torsion refutes (i) outright and otherwise the
    finite-orbit sublattice decides it exactly.
    """
    kernel = spec.kernel
    assert isinstance(kernel, AbelianKernel)
    conditions: list[ConditionResult] = []

    if kernel.divisors:
        bound = 1
        for d in kernel.divisors:
            bound *= d
        witness = KernelTorsionWitness(
            description=f"torsion generator of order {kernel.divisors[0]}",
            order=kernel.divisors[0],
            class_bound=bound,
        )
        conditions.append(
            ConditionResult(
                "kernel-orbits-infinite",
                "fails",
                "the kernel has torsion; a torsion element's class stays in the "
                f"finite torsion subgroup (size <= {bound})",
            )
        )
        return Report("not_icc", "theorem-1(i)", witness, None, tuple(conditions))

    if spec.actions:
        cert = finite_orbit_sublattice(
            MatGroupGens(kernel.rank, spec.actions, generator_labels(spec.quotient))
        )
    else:
        full = Lattice.full(kernel.rank)
        cert = FiniteOrbitCert(full, tuple(frozenset({b}) for b in full.basis))

    if cert.lattice.rank > 0:
        conditions.append(
            ConditionResult(
                "kernel-orbits-infinite",
                "fails",
                f"the finite-orbit sublattice has rank {cert.lattice.rank}",
            )
        )
        # Witness preference.  When the induced action on the sublattice is
        # +-identity, every finite class there is {v} or {v, -v}: report the
        # canonical vector (size is basis-invariant).  Otherwise a failing
        # injectivity gives the crisper certificate (a power identity that
        # conjugation cannot disturb); the vector is the fallback.
        induced_pm_identity = all(
            a.is_identity or (-a).is_identity for a in cert.induced_gens
        )
        if not induced_pm_identity:
            res = theta_fc_injective(spec.quotient, spec.actions, _AutSide(kernel.rank), limits)
            if isinstance(res, InjectivityWitness):
                witness = _lift_witness(res, spec.quotient)
                conditions.append(
                    ConditionResult(
                        "fc-action-injective", "fails", f"{witness.rendered} acts as the identity"
                    )
                )
                return Report("not_icc", "theorem-1(ii)", witness, None, tuple(conditions))
        # The witness is a basis row of F, so the certificate holds its orbit.
        i = _canonical_short_index(cert.lattice.basis)
        witness = KernelVectorWitness(cert.lattice.basis[i], tuple(sorted(cert.basis_orbits[i])))
        return Report("not_icc", "theorem-1(i)", witness, None, tuple(conditions))

    conditions.append(
        ConditionResult("kernel-orbits-infinite", "holds", "finite-orbit sublattice has rank 0")
    )

    res = theta_fc_injective(spec.quotient, spec.actions, _AutSide(kernel.rank), limits)
    if isinstance(res, Injective):
        conditions.append(
            ConditionResult("fc-action-injective", "holds", "no nontrivial finite-class quotient element acts trivially")
        )
        return Report("icc", "theorem-1", None, None, tuple(conditions))
    if isinstance(res, InjectivityWitness):
        witness = _lift_witness(res, spec.quotient)
        conditions.append(
            ConditionResult("fc-action-injective", "fails", f"{witness.rendered} acts as the identity")
        )
        return Report("not_icc", "theorem-1(ii)", witness, None, tuple(conditions))
    conditions.append(ConditionResult("fc-action-injective", "unknown", res.tag))
    return Report("unknown", "theorem-1(ii)", None, res.tag, tuple(conditions))


def thm3_check(spec: ExtensionSpec, limits: AnalyzerLimits = AnalyzerLimits()) -> Report:
    """Free-kernel decision (rank >= 2).

    Such kernels have trivial finite-class subgroup, hence are icc; the
    whole extension is icc iff the action is injective on the quotient's
    finite-class subgroup as outer automorphism classes.
    """
    kernel = spec.kernel
    assert isinstance(kernel, FreeDesc) and kernel.rank >= 2
    conditions = [
        ConditionResult("kernel-icc", "holds", "free kernels of rank >= 2 have trivial FC")
    ]
    res = theta_fc_injective(spec.quotient, spec.actions, _OutSide(kernel.rank), limits)
    if isinstance(res, Injective):
        conditions.append(
            ConditionResult("fc-outer-injective", "holds", "no nontrivial finite-class quotient element acts by an inner automorphism")
        )
        return Report("icc", "theorem-3", None, None, tuple(conditions))
    if isinstance(res, InjectivityWitness):
        witness = _lift_witness(res, spec.quotient)
        conditions.append(
            ConditionResult("fc-outer-injective", "fails", f"{witness.rendered} acts by an inner automorphism")
        )
        return Report("not_icc", "theorem-3(ii)", witness, None, tuple(conditions))
    conditions.append(ConditionResult("fc-outer-injective", "unknown", res.tag))
    return Report("unknown", "theorem-3(ii)", None, res.tag, tuple(conditions))


def _first_fc_generator(quotient: GroupDesc) -> tuple[GenWord, str] | None:
    """A nontrivial finite-class element of the quotient (as a generator
    word), or None when FC is trivial."""
    labels = generator_labels(quotient)
    if isinstance(quotient, FiniteGroupDesc):
        if quotient.order == 1:
            return None
        w = tuple(quotient.element_words[1])
        return w, render_gen_word(w, labels)
    if isinstance(quotient, FgAbelianDesc):
        if quotient.is_trivial:
            return None
        return (1,), render_gen_word((1,), labels)
    if isinstance(quotient, FreeDesc):
        return None if quotient.rank >= 2 else ((1,), labels[0])
    offset = 0
    for f in quotient.factors:
        sub = _first_fc_generator(f)
        if sub is not None:
            w, _ = sub
            shifted = _shift_word(w, offset)
            return shifted, render_gen_word(shifted, generator_labels(quotient))
        offset += generator_count(f)
    return None


def _catalog_icc_as_quotient(quotient: GroupDesc) -> Report:
    """Verdict for a trivial kernel: the group IS the quotient."""
    if group_is_trivial(quotient):
        return Report(
            "not_icc",
            "degenerate",
            TrivialGroupWitness(),
            None,
            (ConditionResult("group-nontrivial", "fails", "the whole group is trivial"),),
        )
    fc = fc_subgroup(quotient)
    if fc.is_trivial:
        return Report(
            "icc",
            "degenerate",
            None,
            None,
            (ConditionResult("quotient-icc", "holds", "the quotient has trivial FC"),),
        )
    found = _first_fc_generator(quotient)
    assert found is not None
    word, rendered = found
    witness = QuotientLiftWitness(word, rendered, "action-identity")
    return Report(
        "not_icc",
        "degenerate",
        witness,
        None,
        (ConditionResult("quotient-icc", "fails", f"{rendered} has a finite class"),),
    )


def analyze(spec: ExtensionSpec, limits: AnalyzerLimits = AnalyzerLimits()) -> Report:
    """Three-valued verdict with witness or named obstruction.

    >>> from .extension import make_extension
    >>> from .catalog import FgAbelianDesc
    >>> from .intlinalg import IntMatrix
    >>> spec = make_extension(AbelianKernel(2), FgAbelianDesc(1),
    ...                       [IntMatrix.from_rows([[2, 1], [1, 1]])])
    >>> analyze(spec).verdict
    'icc'
    """
    kernel = spec.kernel

    if isinstance(kernel, AbelianKernel) and kernel.is_trivial:
        return _catalog_icc_as_quotient(spec.quotient)
    if isinstance(kernel, FiniteGroupDesc) and kernel.order == 1:
        return _catalog_icc_as_quotient(spec.quotient)

    if isinstance(kernel, FiniteGroupDesc):
        from .catalog import perm_order

        first = kernel.elements[1]
        witness = KernelTorsionWitness(
            description="nontrivial element of the finite kernel",
            order=perm_order(first),
            class_bound=kernel.order,
        )
        return Report(
            "not_icc",
            "theorem-2(i)",
            witness,
            None,
            (
                ConditionResult(
                    "no-finite-normal-orbits",
                    "fails",
                    "a nontrivial finite kernel is a finite normal subgroup with finite orbits "
                    f"(class size <= {kernel.order})",
                ),
            ),
        )

    if isinstance(kernel, AbelianKernel):
        return thm1_check(spec, limits)
    if isinstance(kernel, FreeDesc):
        return thm3_check(spec, limits)
    raise UnsupportedExtensionError(f"unsupported kernel class: {type(kernel).__name__}")
