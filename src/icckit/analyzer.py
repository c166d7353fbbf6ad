"""Verdicts on the infinite-conjugacy-class property of extensions.

Dispatches on the kernel class.  Abelian kernels: every nontrivial
kernel element must have an infinite orbit under the action (decided
exactly through the finite-orbit sublattice), and the action must be
injective on the quotient's finite-class subgroup.  Free kernels of rank
>= 2 are themselves icc, so only injectivity into the outer automorphism
classes remains.  Nontrivial finite kernels refute the property
outright: they are finite normal subgroups with finite orbits.

Every negative verdict carries a re-verifiable witness; open
sub-questions (an infinite or large outer order, relations of
multi-generator abelian quotients past the search bound) surface as an
``unknown`` verdict with a named obstruction, never as a verdict
guessed from a bounded search.

Both injectivity conditions read the spec's ``Theta`` through
:func:`theta_fc_injective`, and ``Theta.trivial`` decides whether an
action is trivial: the identity matrix, or an inner automorphism.  The
search returns what the report stores: the :class:`QuotientLiftWitness`
of part (ii), the name of the obstruction, or None when the condition
holds.
Matrices and free automorphisms share ``@`` and ``**``, so FC(Q) is
enumerated once, by ``_fc_elements``, and the witness is the first
trivially acting element in its order: element-word order for finite
quotients, (max-norm, lex) order of exponent vectors for abelian ones,
``itertools.product`` order over per-factor lists (each led by the
identity) for products.  The exponent vectors are walked directly over
the lattice L_3 of those that are I mod 3 (``_box_walk``), and each
candidate, a head whose inverse is built once and a cached tail, is
decided by one comparison of matrices: on a free kernel, of
``Theta.abelian``, where inner automorphisms act as I, so only a matrix
hit is composed and tested for innerness.  A lone infinite cyclic
quotient is decided by the order m of the action (of its abelianization,
and one innerness test of the m-th power, on a free kernel) instead.  A
product with a single factor of nontrivial FC defers to that factor.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace

from .catalog import (
    FgAbelianDesc,
    FiniteGroupDesc,
    FreeDesc,
    GroupDesc,
    ProductDesc,
    factor_offsets,
    fc_is_trivial,
    generator_labels,
    group_is_trivial,
    perm_inverse,
    perm_order,
)
from .extension import ExtensionSpec, Theta, UnsupportedExtensionError
from .intlinalg import IntMatrix, Vec
from .matgroup import (
    MatGroupGens,
    _inverse3,
    _mul3,
    finite_orbit_sublattice,
    matrix_order,
    mod3,
    mod3_screen,
)
from .words import Word, word_inverse

GenWord = tuple[int, ...]

# Largest product-quotient candidate count the FC search enumerates;
# beyond it the search reports fc-enumeration-too-large.
PRODUCT_ITERATION_CAP = 1_000_000
# Largest outer order of a lone cyclic quotient's action that is
# reported; beyond it, or when infinite, out-order-unbounded.
OUT_ORDER_CAP = 16


@dataclass(frozen=True)
class AnalyzerLimits:
    """The bound of the semi-decidable relation search; raising it can
    only turn an unknown verdict into a decided one, never flip
    icc <-> not_icc.  (All other enumerations are bounded by their own
    certificates or by a module constant.)"""

    relation_bound: int = 8

    def __post_init__(self):
        if self.relation_bound < 0:
            raise ValueError(f"relation_bound must be >= 0, got {self.relation_bound}")


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
    has finite class.  ``word`` is in the quotient's generators; a
    printed report renders it, as the JSON ``element``, with the
    quotient's labels (:func:`render_gen_word`)."""

    word: GenWord
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


def _shift_word(word: GenWord, offset: int) -> GenWord:
    return tuple(l + offset if l > 0 else l - offset for l in word)


def _exponent_word(exps) -> GenWord:
    word: GenWord = ()
    for i, e in enumerate(exps):
        if e:
            word += (i + 1 if e > 0 else -(i + 1),) * abs(e)
    return word


def _box_size(f: GroupDesc, bound: int) -> int:
    """Candidates of a finite or abelian group, the identity included."""
    if isinstance(f, FiniteGroupDesc):
        return f.order
    return (2 * bound + 1) ** f.rank * math.prod(f.divisors)


def _residue_class(lo: int, hi: int, s: int, k: int, ends: int | None = None):
    """The values in [lo, hi] congruent to s mod k, ascending; only those
    of absolute value ``ends`` when it is given."""
    if ends is None:
        return range(lo + (s - lo) % k, hi + 1, k)
    return [v for v in (-ends, ends) if lo <= v <= hi and (v - s) % k == 0]


def _box_walk(quotient: FgAbelianDesc, bound: int, rows):
    """The nonzero vectors of L in the quotient's box, in (max-norm, lex)
    order: free entries in [-bound, bound], torsion entries over their
    residue ranges, and L the lattice spanned by ``rows``.

    ``rows`` is an upper triangular basis with positive pivots k_i:
    :func:`mod3_screen`'s basis of L_3, or the unit rows, which walk the
    whole box.  Given x_1..x_{i-1}, their coefficients c_j in that basis
    are fixed, so x_i runs over the one residue class s_i mod k_i, where
    s_i = sum of c_j rows[j][i] over j < i.  Streamed one max-norm shell
    at a time, depth first with an explicit stack, so neither the box nor
    a shell is held.  Within a shell of norm m, the last coordinate whose
    range reaches m takes only -m and m when no earlier one has.
    """
    n = len(rows)
    lows = [-bound] * quotient.rank + [0] * len(quotient.divisors)
    highs = [bound] * quotient.rank + [d - 1 for d in quotient.divisors]
    reach = [max(-lo, hi) for lo, hi in zip(lows, highs)]
    above = [[(j, row[j]) for j in range(i + 1, n) if row[j]] for i, row in enumerate(rows)]
    x = [0] * n
    for m in range(1, max(reach, default=0) + 1):
        lo = [max(a, -m) for a in lows]
        hi = [min(b, m) for b in highs]
        last = max(i for i in range(n) if reach[i] >= m)
        # Per depth i: the partial sums s_j (j >= i), whether x_1..x_{i-1}
        # already reach the norm m, and the values x_i has left.
        sums, reached, values = [[0] * n] + [None] * n, [False] * (n + 1), [None] * n
        values[0] = iter(_residue_class(lo[0], hi[0], 0, rows[0][0], None if last > 0 else m))
        i = 0
        while i >= 0:
            v = next(values[i], None)
            if v is None:
                i -= 1
                continue
            x[i] = v
            if i == n - 1:
                yield tuple(x)
                continue
            c = (v - sums[i][i]) // rows[i][i]
            sums[i + 1] = s = sums[i][:]
            for j, r in above[i]:
                s[j] += c * r
            reached[i + 1] = done = reached[i] or v in (-m, m)
            i += 1
            values[i] = iter(_residue_class(lo[i], hi[i], s[i], rows[i][i],
                                            None if done or i < last else m))


def _fc_elements(quotient: GroupDesc, theta: Theta, bound: int, offset: int = 0):
    """Yield ``(word, how)`` for the nontrivial elements of FC(quotient)
    that the injectivity search covers and that act trivially, in witness
    order, ``how`` as :meth:`Theta.trivial` gives it.  Actions come from
    ``theta``, at ``offset``: its validated images of the basis, or its
    cached generator powers.

    Finite quotients: every element, in ``element_words`` order, and
    only the identity action is trivial: an inner automorphism c_w of
    finite order n has w^n central, so w = 1 (``CATALOG_AXIOMS.md``
    §13 addendum).  theta(q) is the identity iff its images of the
    basis are the identity's (§15), so no action is built.  Abelian
    quotients: the exponent vectors of :func:`_box_walk` in (max-norm,
    lex) order, free exponents in [-bound, bound], over the lattice L_3
    when :func:`mod3_screen` builds a screen (a vector off L_3 has image
    != I mod 3, so it cannot act trivially) and over the whole box
    otherwise.  On ``theta.abelian``, x acts as head @ A_n^x_n, the head
    being the action of x_1..x_{n-1}, so it acts as I iff the cached
    power A_n^x_n equals the head's inverse, the action of
    -x_1..-x_{n-1}, extended from the previous one at the first
    coordinate that changed.  On an abelian kernel that hit is final,
    theta(x) = I; a free kernel's hit is composed as theta(x)^-1 from
    cached powers and tested by :func:`_trivial_inverse`.
    Free quotients of rank >= 2: nothing (FC is trivial).  Products: see
    :func:`_product_elements`.
    """
    if isinstance(quotient, FiniteGroupDesc):
        identity, *entries = theta.finite_images(quotient, offset)
        for word, entry in zip(quotient.element_words[1:], entries):
            if entry == identity:  # a finite-order inner automorphism is the identity
                yield word, theta.trivial(theta.identity)
    elif isinstance(quotient, FgAbelianDesc):
        n, ab = quotient.gen_count, theta.abelian
        screen = mod3_screen(ab.actions[offset:offset + n], ab.identity, _box_size(quotient, bound))
        rows = IntMatrix.identity(n).rows if screen is None else screen.rows
        power = functools.partial(ab.power, offset + n - 1)  # A_n^e
        inverses, prev = [ab.identity], ()  # inverses[i]: the action of -x_1..-x_i of prev
        for x in _box_walk(quotient, bound, rows):
            if x[:-1] != prev[:-1]:
                i = next(j for j, (a, b) in enumerate(zip(x, prev)) if a != b) if prev else 0
                del inverses[i + 1:]
                for j in range(i, n - 1):
                    h, p = inverses[j], ab.power(offset + j, -x[j])
                    inverses.append(p if h is ab.identity else h if p is ab.identity else h @ p)
            prev, e = x, x[-1]
            if inverses[-1] != power(e):
                continue
            inverse = ab.identity if ab is theta else theta.of_exponents([-v for v in x], offset)
            trivial = _trivial_inverse(theta, inverse)
            if trivial is not None:
                yield _exponent_word(x), trivial
    elif isinstance(quotient, FreeDesc):
        if quotient.rank < 2:
            raise AssertionError("rank-1 free quotients are normalized to abelian")
    elif isinstance(quotient, ProductDesc):
        yield from _product_elements(quotient, theta, bound)
    else:
        raise UnsupportedExtensionError(f"unsupported quotient class: {type(quotient).__name__}")


def _product_elements(quotient: ProductDesc, theta: Theta, bound: int):
    """The product case of :func:`_fc_elements`: ``itertools.product``
    order over the factors' lists, each led by the identity.

    A list entry is ``(word, mod-3 image, part, inverse part)``, and each
    factor has a reader that turns a part into its action: a finite
    factor's parts index its table, read off Omega with no product
    (:meth:`Theta.finite_table`), so an element's inverse is read off
    the inverse element's entry; an abelian factor's parts are exponent
    vectors, those of :func:`_box_walk` over the whole box and their
    negations, each read once, and its images are read off the factor's
    screen.  The last factor is indexed by the inverse of its images, so
    each prefix visits, in list order, only the entries that close it to
    I; without a screen for every abelian factor, every entry closes.  A
    prefix with entries to visit gets the action of its inverse once,
    from its entries' inverse parts on ``theta.abelian``, and each entry
    is one comparison with it.  A hit on a free kernel composes its
    inverse parts on ``theta`` and tests the product for innerness.
    """
    ab = theta.abelian
    views, eye = (ab,) if ab is theta else (ab, theta), mod3(ab.identity)
    lists, readers = [], []  # readers: per factor, one per view
    screened = True
    for f, offset in factor_offsets(quotient):
        if isinstance(f, FiniteGroupDesc):
            tables = [t.finite_table(f, offset) for t in views]
            index = {p: j for j, p in enumerate(f.elements)}
            entries = [(_shift_word(w, offset), mod3(a), j, index[perm_inverse(p)])
                       for j, (p, w, a) in enumerate(zip(f.elements, f.element_words, tables[0]))]
            readers.append([table.__getitem__ for table in tables])
        else:  # abelian, or free of rank >= 2 with trivial FC: the identity alone
            entries = [((), eye, (), ())]
            if isinstance(f, FgAbelianDesc):
                screen = mod3_screen(ab.actions[offset:offset + f.gen_count], ab.identity, _box_size(f, bound))
                screened = screened and screen is not None
                for exps in _box_walk(f, bound, IntMatrix.identity(f.gen_count).rows):
                    image = screen.elements[screen.residue(exps)] if screen is not None else None
                    entries.append((_shift_word(_exponent_word(exps), offset), image, exps,
                                    tuple(-e for e in exps)))
            readers.append([functools.cache(functools.partial(t.of_exponents, offset=offset)) for t in views])
        lists.append(entries)
    *heads, last = lists
    *head_readers, read = readers
    if screened:
        closing = {}
        for entry in last:
            closing.setdefault(_inverse3(entry[1]), []).append(entry)
    for prefix in itertools.product(*heads):
        tails = closing.get(functools.reduce(_mul3, [entry[1] for entry in prefix]), ()) if screened else last
        if not tails:
            continue
        parts = [(read_part, entry[3]) for entry, read_part in zip(prefix, head_readers) if entry[0]]
        head_inverse = functools.reduce(operator.matmul, [r[0](p) for r, p in parts]) if parts else ab.identity
        for word, _, part, inverse in tails:
            if head_inverse != read[0](part):
                continue
            trivial = _trivial_inverse(theta, ab.identity if ab is theta else
                                       functools.reduce(operator.matmul, [r[1](p) for r, p in parts], read[1](inverse)))
            if trivial is not None:
                word = tuple(itertools.chain.from_iterable(entry[0] for entry in prefix)) + word
                if word:
                    yield word, trivial


def _trivial_inverse(theta: Theta, inverse):
    """:meth:`Theta.trivial` of the inverse of ``inverse``, by c_w^-1 = c_{w^-1}."""
    how = theta.trivial(inverse)
    return how if how is None or how[1] is None else (how[0], word_inverse(how[1]))


def theta_fc_injective(quotient: GroupDesc, theta: Theta, limits: AnalyzerLimits,
                       offset: int = 0) -> QuotientLiftWitness | str | None:
    """Is the action injective on the finite-class subgroup of the quotient?

    Returns None when it is (no nontrivial finite-class element acts
    trivially), the :class:`QuotientLiftWitness` of the first element
    that does, or the obstruction's name when the search cannot decide:
    ``out-order-unbounded``, ``fc-enumeration-too-large``,
    ``abelian-relation-bound`` or ``product-relation-bound``.

    The quotient's generator i acts by ``theta``'s generator ``offset + i``,
    and :meth:`Theta.trivial` decides what acts trivially: the identity
    matrix on abelian kernels, any inner automorphism on free kernels.

    Exact for finite quotients (full enumeration), for free quotients of
    rank >= 2 (vacuous), and for the infinite cyclic quotient: on the
    matrix side by element order; on the free side the least inner power
    of phi is the order m of its abelianization when phi^m is inner, and
    no power is inner otherwise.  The witness is reported when
    m <= ``OUT_ORDER_CAP``; a larger or infinite outer order is unknown.
    Relations in multi-generator abelian or mixed product quotients are
    searched up to the configured bound and otherwise reported unknown.

    The witness is the first trivially acting element in a fixed order:
    ``element_words`` order for finite quotients, (max-norm, lex) order
    of exponent vectors for abelian ones, the least power for a lone
    infinite cyclic quotient, and ``itertools.product`` order over the
    factors' candidate lists for products (a product with one factor of
    nontrivial FC defers to that factor, at its offset).
    """
    if isinstance(quotient, FgAbelianDesc) and quotient.rank == 1 and not quotient.divisors:
        action = theta.actions[offset]
        if isinstance(action, IntMatrix):
            n = matrix_order(action)
            if n is None:
                return None
            return QuotientLiftWitness((1,) * n, "action-identity", action_order=n)
        # An inner power acts as I on the abelianization, so its exponent
        # is a multiple of m; phi^m is in IA_k, torsion-free in Out(F_k),
        # so phi^m is inner iff some power is (CATALOG_AXIOMS.md §13).
        m = matrix_order(action.abelianization())
        if m is not None and m <= OUT_ORDER_CAP:
            trivial = theta.trivial(action ** m)
            if trivial is not None:
                return QuotientLiftWitness((1,) * m, *trivial)
        return "out-order-unbounded"

    bound = limits.relation_bound
    if isinstance(quotient, ProductDesc):
        # Per-factor triviality gives an immediate witness, but actions of
        # different factors may cancel, so the search runs over the product.
        fc = [(f, at) for f, at in factor_offsets(quotient) if not fc_is_trivial(f)]
        if len(fc) == 1:
            f, at = fc[0]
            res = theta_fc_injective(f, theta, limits, at)
            if isinstance(res, QuotientLiftWitness):
                return replace(res, word=_shift_word(res.word, at))
            return res
        total = math.prod(_box_size(f, bound) for f, _ in fc)
        if total > PRODUCT_ITERATION_CAP:
            return "fc-enumeration-too-large"

    hit = next(_fc_elements(quotient, theta, bound, offset), None)
    if hit is not None:
        return QuotientLiftWitness(hit[0], *hit[1])

    factors = quotient.factors if isinstance(quotient, ProductDesc) else (quotient,)
    if all(not isinstance(f, FgAbelianDesc) or f.is_finite for f in factors):
        return None
    # The mod-3 lattice L_3 only screens the search: relations are still
    # searched up to the bound.  A 3-adic injectivity certificate and a
    # search for relations beyond the bound are open items in ROADMAP.md.
    return "product-relation-bound" if isinstance(quotient, ProductDesc) else "abelian-relation-bound"


# theorem -> (FC-injectivity condition, what no nontrivial FC element
# does when it holds, what the witness does when it fails)
_FC_CONDITIONS = {
    "theorem-1": ("fc-action-injective", "acts trivially", "acts as the identity"),
    "theorem-3": ("fc-outer-injective", "acts by an inner automorphism", "acts by an inner automorphism"),
}


def _fc_report(res: QuotientLiftWitness | str | None, quotient: GroupDesc,
               conditions: list[ConditionResult], theorem: str) -> Report:
    """The report that the :func:`theta_fc_injective` result ``res``
    decides: icc by ``theorem``, or not_icc or unknown by its part (ii)."""
    name, holds, fails = _FC_CONDITIONS[theorem]
    if res is None:
        conditions.append(
            ConditionResult(name, "holds", f"no nontrivial finite-class quotient element {holds}")
        )
        return Report("icc", theorem, None, None, tuple(conditions))
    if isinstance(res, str):
        conditions.append(ConditionResult(name, "unknown", res))
        return Report("unknown", f"{theorem}(ii)", None, res, tuple(conditions))
    element = render_gen_word(res.word, generator_labels(quotient))
    conditions.append(ConditionResult(name, "fails", f"{element} {fails}"))
    return Report("not_icc", f"{theorem}(ii)", res, None, tuple(conditions))


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
    assert isinstance(kernel, FgAbelianDesc)
    conditions: list[ConditionResult] = []

    if kernel.divisors:
        bound = math.prod(kernel.divisors)
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

    # Identity actions add nothing to theta(Q), so they are left out.
    group = MatGroupGens(kernel.rank, tuple(a for a in spec.actions if not a.is_identity))
    cert = finite_orbit_sublattice(group)

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
            res = theta_fc_injective(spec.quotient, spec.theta, limits)
            if isinstance(res, QuotientLiftWitness):
                return _fc_report(res, spec.quotient, conditions, "theorem-1")
        # The witness is a basis row of F, so the certificate holds its orbit.
        i = _canonical_short_index(cert.lattice.basis)
        witness = KernelVectorWitness(cert.lattice.basis[i], tuple(sorted(cert.basis_orbits[i])))
        return Report("not_icc", "theorem-1(i)", witness, None, tuple(conditions))

    conditions.append(
        ConditionResult("kernel-orbits-infinite", "holds", "finite-orbit sublattice has rank 0")
    )

    res = theta_fc_injective(spec.quotient, spec.theta, limits)
    return _fc_report(res, spec.quotient, conditions, "theorem-1")


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
    res = theta_fc_injective(spec.quotient, spec.theta, limits)
    return _fc_report(res, spec.quotient, conditions, "theorem-3")


def _first_fc_generator(quotient: GroupDesc) -> GenWord | None:
    """A nontrivial finite-class element of a normalized, nontrivial
    quotient (as a generator word), or None when FC is trivial."""
    if isinstance(quotient, FiniteGroupDesc):
        return tuple(quotient.element_words[1])
    if isinstance(quotient, FgAbelianDesc):
        return (1,)
    if isinstance(quotient, FreeDesc):
        return None
    for f, offset in factor_offsets(quotient):
        sub = _first_fc_generator(f)
        if sub is not None:
            return _shift_word(sub, offset)
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
    if fc_is_trivial(quotient):
        return Report(
            "icc",
            "degenerate",
            None,
            None,
            (ConditionResult("quotient-icc", "holds", "the quotient has trivial FC"),),
        )
    word = _first_fc_generator(quotient)
    assert word is not None
    element = render_gen_word(word, generator_labels(quotient))
    return Report(
        "not_icc",
        "degenerate",
        QuotientLiftWitness(word, "action-identity"),
        None,
        (ConditionResult("quotient-icc", "fails", f"{element} has a finite class"),),
    )


def analyze(spec: ExtensionSpec, limits: AnalyzerLimits = AnalyzerLimits()) -> Report:
    """Three-valued verdict with witness or named obstruction.

    >>> from .extension import make_extension
    >>> from .catalog import FgAbelianDesc
    >>> from .intlinalg import IntMatrix
    >>> spec = make_extension(FgAbelianDesc(2), FgAbelianDesc(1),
    ...                       [IntMatrix.from_rows([[2, 1], [1, 1]])])
    >>> analyze(spec).verdict
    'icc'
    """
    kernel = spec.kernel

    if group_is_trivial(kernel):
        return _catalog_icc_as_quotient(spec.quotient)

    if isinstance(kernel, FiniteGroupDesc):
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

    if isinstance(kernel, FgAbelianDesc):
        return thm1_check(spec, limits)
    if isinstance(kernel, FreeDesc):
        return thm3_check(spec, limits)
    raise UnsupportedExtensionError(f"unsupported kernel class: {type(kernel).__name__}")
