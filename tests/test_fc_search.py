"""The pieces of the finite-class injectivity search.

The box walk, over the whole box and over L_3, against a sorted box,
the finite table of ``extension.Theta`` against word-by-word
composition, the cost of building and validating that table, the
validation of finite quotients against a reference that checks every
(element, generator) pair, and the mod-3 screen against a reference
search that builds every candidate's action.
"""

import contextlib
import functools
import gc
import io
import itertools
import operator
import random
import re
import weakref
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import icckit
from icckit import analyzer, extension
from icckit.analyzer import (
    AnalyzerLimits,
    QuotientLiftWitness,
    _box_walk,
    _shift_word,
    analyze,
    theta_fc_injective,
)
from icckit.catalog import (
    FgAbelianDesc,
    FiniteGroupDesc,
    FreeDesc,
    ProductDesc,
    generator_count,
    make_product,
    perm_compose,
)
from icckit.cli import run, witness_json
from icckit.extension import ExtensionValidationError, Theta, make_extension
from icckit.oracle import crosscheck
from icckit.intlinalg import IntMatrix
from icckit.matgroup import Mod3Screen, _inverse3, _mul3, mod3, mod3_screen
from icckit.words import FreeAut, free_reduce, is_inner, word_inverse
from tests.helpers import block_diag, conjugated, conjugation, count_calls, random_unimodular


def sorted_box(free_rank, divisors, bound):
    """Reference order: the whole box, sorted by (max-norm, lex)."""
    axes = [range(-bound, bound + 1)] * free_rank + [range(d) for d in divisors]
    vecs = [v for v in itertools.product(*axes) if any(v)]
    vecs.sort(key=lambda v: (max(abs(x) for x in v), v))
    return vecs


@st.composite
def divisor_chains(draw):
    chain = []
    for _ in range(draw(st.integers(0, 2))):
        chain.append(draw(st.integers(2, 4)) if not chain else chain[-1] * draw(st.integers(1, 2)))
    return tuple(chain)


def unit_rows(n):
    return IntMatrix.identity(n).rows


class TestExponentVectors:
    """The box walk with unit pivots: every exponent vector of the box."""

    @given(st.integers(0, 3), divisor_chains(), st.integers(0, 4))
    @settings(max_examples=80, deadline=None)
    def test_streamed_shells_match_sorted_box(self, free_rank, divisors, bound):
        assume(free_rank or divisors)
        quotient = FgAbelianDesc(free_rank, divisors)
        walked = list(_box_walk(quotient, bound, unit_rows(quotient.gen_count)))
        assert walked == sorted_box(free_rank, divisors, bound)

    def test_streamed_lazily(self):
        vecs = _box_walk(FgAbelianDesc(6), 50, unit_rows(6))  # a 101^6 box, never built
        assert next(vecs) == (-1, -1, -1, -1, -1, -1)


def compose_word(word, images, identity):
    return functools.reduce(lambda acc, letter: acc @ images[letter - 1], word, identity)


S4 = FiniteGroupDesc.from_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)])


def perm_matrix(p):
    """P with P e_x = e_{p(x)}, so P(p) P(q) = P(p o q)."""
    return IntMatrix.from_rows([[1 if p[j] == i else 0 for j in range(len(p))] for i in range(len(p))])


class TestEvaluate:
    """The finite table of ``Theta`` against word-by-word composition, on
    images that extend, and the walk that builds it rejecting images that
    do not."""

    def test_matrix_images_match_word_composition(self):
        # Permutation matrices of S4's generators extend, under any change of basis.
        rng = random.Random(5)
        identity = IntMatrix.identity(4)
        for _ in range(5):
            images = conjugated(rng, [perm_matrix(g) for g in S4.generators])
            got = Theta(images, identity).finite_table(S4)
            assert got == tuple(compose_word(w, images, identity) for w in S4.element_words)

    def test_aut_images_match_word_composition(self):
        # Permutation automorphisms extend, and so do their conjugates
        # c_u a c_u^-1: a composed with the inner automorphism by u a(u)^-1.
        identity = FreeAut.identity(3)
        for u in ((), (1,), (2, -3, 1)):
            c, c_inv = conjugation(3, u), conjugation(3, word_inverse(u))
            images = [c @ permutation_aut(g) @ c_inv for g in S3.generators]
            got = Theta(images, identity).finite_table(S3)
            assert got == tuple(compose_word(w, images, identity) for w in S3.element_words)
            assert got[0] == identity and len(got) == S3.order

    def test_images_that_do_not_extend_raise(self):
        """Random unimodular images of S4's generators, and a transvection
        with a 3-cycle for S3's: some edge's product differs from the
        action already on its end, and no table is cached."""
        rng = random.Random(5)
        transvection = FreeAut(3, ((1, 2), (2,), (3,)))
        cycle = FreeAut(3, ((2,), (3,), (1,)))
        cases = [(S4, IntMatrix.identity(3), [random_unimodular(rng, 3, steps=3) for _ in S4.generators])
                 for _ in range(5)] + [(S3, FreeAut.identity(3), [transvection, cycle])]
        for group, identity, images in cases:
            assert reference_failures(group, images, identity)
            theta = Theta(images, identity)
            for _ in range(2):
                with pytest.raises(ExtensionValidationError,
                                   match="^relation violation: actions do not extend to the finite quotient$"):
                    theta.finite_table(group)

    def test_make_extension_builds_table_in_one_product_per_element(self, monkeypatch):
        """Validation builds and checks the table in one walk, one product
        per edge: |Q| * |gens| in all.  The FC search then reads the table
        and builds no action of its own."""
        actions = [perm_matrix(g) for g in S4.generators]
        calls = count_calls(monkeypatch, IntMatrix, "__matmul__")
        spec = make_extension(FgAbelianDesc(4), S4, actions)
        assert len(calls) == S4.order * len(S4.generators) == 48
        calls.clear()
        report = analyze(spec)
        assert report.verdict == "not_icc"
        assert len(calls) < S4.order


class TestThetaAlgebra:
    """``Theta.of_pairs`` against whole-word composition, and
    ``Theta.trivial`` against ``is_identity`` and ``is_inner``."""

    @staticmethod
    def whole_word(theta, pairs):
        """The product over the pairs, one letter at a time."""
        action = theta.identity
        for i, e in pairs:
            for _ in range(abs(e)):
                action = action @ (theta.actions[i] if e > 0 else theta.actions[i] ** -1)
        return action

    def check_pairs(self, rng, theta, ngens, offset):
        """Random pairs and exponent vectors at ``offset``, composed both
        ways; returns the pairs' action."""
        pairs = [(offset + rng.randrange(ngens), rng.choice((-3, -2, -1, 1, 2, 3)))
                 for _ in range(rng.randint(0, 4))]
        action = theta.of_pairs(pairs)
        assert action == self.whole_word(theta, pairs)
        exps = [rng.randint(-2, 2) for _ in range(ngens)]
        assert theta.of_exponents(exps, offset) == self.whole_word(
            theta, [(offset + i, e) for i, e in enumerate(exps)])
        return action

    def test_matrices(self):
        rng = random.Random(17)
        hits = 0
        for _ in range(60):
            n = rng.randint(1, 3)
            # Finite-order generators make identities likely.
            finite = [IntMatrix.from_rows([[-1]])] if n == 1 else [
                block_diag(FINITE_2X2[rng.randrange(3)], *([IntMatrix.identity(1)] * (n - 2)))]
            gens = [random_unimodular(rng, n, steps=3) for _ in range(2)] + conjugated(rng, finite)
            offset = rng.randrange(3)
            theta = Theta([IntMatrix.identity(n)] * offset + gens, IntMatrix.identity(n))
            for _ in range(10):
                action = self.check_pairs(rng, theta, len(gens), offset)
                want = ("action-identity", None) if action.is_identity else None
                assert theta.trivial(action) == want
                hits += want is not None
            assert theta.of_pairs([]) == theta.identity
            assert theta.trivial(theta.identity) == ("action-identity", None)
        assert hits >= 20

    def test_free_automorphisms(self):
        rng = random.Random(18)
        inner = outer = 0
        for _ in range(30):
            k = rng.randint(2, 3)
            swap = FreeAut(k, ((2,), (1,)) + tuple((i,) for i in range(3, k + 1)))
            transvection = FreeAut(k, ((1, 2),) + tuple((i,) for i in range(2, k + 1)))
            psi = rng.choice((swap, transvection))
            words = [tuple(rng.choice((1, -1)) * rng.randint(1, k) for _ in range(3)) for _ in range(4)]
            c = [conjugation(k, w) for w in words]
            # c_w, c_w o psi and psi o c_w: the last two are never inner.
            gens = [c[0], c[1] @ psi, psi @ c[2]]
            offset = rng.randrange(2)
            theta = Theta([FreeAut.identity(k)] * offset + gens, FreeAut.identity(k))
            for _ in range(10):
                action = self.check_pairs(rng, theta, len(gens), offset)
                w = is_inner(action)
                assert theta.trivial(action) == (None if w is None else ("inner-automorphism", w))
                inner += w is not None
                outer += w is None
            assert theta.trivial(c[3]) == ("inner-automorphism", free_reduce(words[3]))
            assert theta.trivial(gens[1]) is None and theta.trivial(gens[2]) is None
            assert theta.trivial(theta.identity) == ("inner-automorphism", ())
        assert inner >= 30 and outer >= 30

    def test_is_inner_is_called_by_theta_only(self):
        """Triviality is decided in one place: ``is_inner(`` is called in
        extension.py only, by ``Theta.trivial``."""
        pattern = re.compile(r"(?<!def )\bis_inner\(")
        found = {path.name: [line for line in path.read_text(encoding="utf-8").splitlines()
                             if pattern.search(line)]
                 for path in sorted(Path(icckit.__file__).parent.glob("*.py"))}
        assert found.pop("extension.py"), "the pattern finds Theta.trivial's call"
        assert {name: lines for name, lines in found.items() if lines} == {}


# -- validation of finite quotients against every (element, generator) pair -----


S3 = FiniteGroupDesc.from_generators(3, [(1, 0, 2), (1, 2, 0)])
D4 = FiniteGroupDesc.from_generators(4, [(1, 2, 3, 0), (3, 2, 1, 0)])


def reference_failures(quotient, actions, identity):
    """The (element, generator index) pairs on which theta(e) * A_g !=
    theta(e g), with theta composed from each element's whole word."""
    theta = {e: compose_word(w, actions, identity) for e, w in zip(quotient.elements, quotient.element_words)}
    return [(e, i) for e in quotient.elements for i, g in enumerate(quotient.generators)
            if theta[e] @ actions[i] != theta[perm_compose(e, g)]]


def tree_edges(quotient):
    """The (element, generator index) pairs along which the breadth-first
    closure first reached an element."""
    by_word = dict(zip(quotient.element_words, quotient.elements))
    return {(by_word[w[:-1]], w[-1] - 1) for w in quotient.element_words[1:]}


def permutation_aut(p):
    """x_i -> x_p(i), so permutation_aut(p) @ permutation_aut(q) is
    permutation_aut(p o q)."""
    return FreeAut(len(p), tuple((p[i] + 1,) for i in range(len(p))))


def image_assignment(rng, quotient):
    """Seeded generator images: unimodular matrices, permutation matrices
    (of the quotient's own generators, or of random permutations) under a
    random change of basis, or permutation automorphisms of a free group,
    sometimes composed with an inner one."""
    n, gens = quotient.degree, quotient.generators
    perms = gens if rng.random() < 0.5 else [tuple(rng.sample(range(n), n)) for _ in gens]
    kind = rng.choice(("unimodular", "permutation", "free"))
    if kind == "unimodular":
        return IntMatrix.identity(n), [random_unimodular(rng, n, steps=rng.randint(0, 3)) for _ in gens]
    if kind == "permutation":
        p = random_unimodular(rng, n, steps=4, entry_bound=3)
        p_inv = p.inverse_unimodular()
        return IntMatrix.identity(n), [p @ perm_matrix(g) @ p_inv for g in perms]
    auts = [permutation_aut(g) for g in perms]
    if rng.random() < 0.3:
        i = rng.randrange(len(auts))
        auts[i] = conjugation(n, (rng.choice((1, -1, 2)),)) @ auts[i]
    return FreeAut.identity(n), auts


class TestFiniteQuotientValidation:
    @pytest.mark.parametrize("quotient", (S3, D4, S4), ids=("S3", "D4", "S4"))
    def test_rejects_exactly_what_every_pair_rejects(self, quotient):
        rng = random.Random(quotient.order)
        tree = tree_edges(quotient)
        kernels = {IntMatrix: FgAbelianDesc(quotient.degree), FreeAut: FreeDesc(quotient.degree)}
        outcomes = set()
        for _ in range(60):
            identity, actions = image_assignment(rng, quotient)
            failures = reference_failures(quotient, actions, identity)
            kernel = kernels[type(identity)]
            if failures:
                with pytest.raises(ExtensionValidationError) as err:
                    make_extension(kernel, quotient, actions)
                assert str(err.value) == "relation violation: actions do not extend to the finite quotient"
                # Words extend one another along the tree, so a violation
                # can only show on an edge off it: the ones validation checks.
                assert not tree.intersection(failures)
            else:
                spec = make_extension(kernel, quotient, actions)
                table = tuple(compose_word(w, actions, identity) for w in quotient.element_words)
                assert spec.theta.finite_table(quotient) == table
            outcomes.add((type(identity), bool(failures)))
        assert outcomes == {(IntMatrix, True), (IntMatrix, False), (FreeAut, True), (FreeAut, False)}



class TestFiniteOrderInnerIsIdentity:
    """CATALOG_AXIOMS §13 addendum: an inner automorphism of F_k (k >= 2)
    of finite order is the identity, so the finite branch of the FC
    search tests ``is_identity`` alone and calls ``is_inner`` only on
    its hits."""

    def test_no_short_conjugation_has_finite_order(self):
        checked = 0
        for rank in (2, 3):
            letters = [x for x in range(-rank, rank + 1) if x]
            for length in (1, 2, 3):
                for w in itertools.product(letters, repeat=length):
                    if free_reduce(w) != w:
                        continue
                    c = power = conjugation(rank, w)
                    for _ in range(6):
                        assert not power.is_identity, (rank, w)
                        power = power @ c
                    checked += 1
        assert checked == 4 + 12 + 36 + 6 + 30 + 150

    @pytest.mark.parametrize("quotient", (S3, D4, S4), ids=("S3", "D4", "S4"))
    def test_inner_table_entries_are_the_identity(self, quotient, monkeypatch):
        """Every action of seeded valid free-kernel extensions: brute-force
        ``is_inner`` finds a conjugator exactly on the identity, and the
        search yields what testing every element with ``Theta.trivial``
        yields, with one ``is_inner`` call per hit."""
        rng = random.Random(f"finite-inner:{quotient.order}")
        n = quotient.degree
        inner = specs = 0
        calls = count_calls(monkeypatch, extension, "is_inner")
        while specs < 12:
            if specs % 2:  # through the sign: the even elements act trivially
                i, j = rng.sample(range(n), 2)
                swap = permutation_aut(tuple(j if k == i else i if k == j else k for k in range(n)))
                identity, actions = FreeAut.identity(n), [
                    swap if sum(a > b for a, b in itertools.combinations(g, 2)) % 2 else FreeAut.identity(n)
                    for g in quotient.generators]
            else:
                identity, actions = image_assignment(rng, quotient)
            if not isinstance(identity, FreeAut) or reference_failures(quotient, actions, identity):
                continue
            specs += 1
            theta = make_extension(FreeDesc(quotient.degree), quotient, actions).theta
            for a in theta.finite_table(quotient)[1:]:
                assert (is_inner(a) is not None) == a.is_identity
                inner += a.is_identity
            calls.clear()
            got = list(analyzer._fc_elements(quotient, theta, 8))
            assert len(calls) == len(got)
            assert got == list(reference_fc_candidates(quotient, theta, 8))
        assert inner >= 3, inner

def finite_quotient_spec():
    """S_3 permuting a basis of Z^3."""
    return make_extension(FgAbelianDesc(3), S3, [perm_matrix(g) for g in S3.generators])


def product_quotient_spec():
    """product(Z, Z/2 as a permutation group) on Z^4, acting blockwise."""
    i2 = IntMatrix.identity(2)
    return make_extension(FgAbelianDesc(4), make_product([z(), C2]),
                          [block_diag(H, i2), block_diag(i2, i2.scale(-1))])


class TestNoReferenceCycles:
    def test_abelian_fc_search_leaves_no_cyclic_garbage(self):
        """The search over an abelian quotient caches generator powers.  A
        reference cycle around that cache would keep every power alive
        until the next full garbage collection."""
        spec = make_extension(
            FgAbelianDesc(2), FgAbelianDesc(2, (), ("u", "v")),
            [IntMatrix.from_rows([[2, 1], [1, 1]]), IntMatrix.from_rows([[5, 3], [3, 2]])])
        analyze(spec)
        gc.collect()
        gc.disable()
        try:
            analyze(spec)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_product_fc_search_leaves_no_cyclic_garbage(self):
        """The product search keeps per-factor lists, powers cached on the
        spec's action homomorphism, and an index of the last factor."""
        h = IntMatrix.from_rows([[2, 1], [1, 1]])
        spec = make_extension(
            FgAbelianDesc(2), make_product([FgAbelianDesc(2, (), ("u", "v")), FgAbelianDesc(1, (), ("t",))]),
            [h, IntMatrix.from_rows([[5, 3], [3, 2]]), IntMatrix.from_rows([[13, 8], [8, 5]])])
        analyze(spec)
        gc.collect()
        gc.disable()
        try:
            analyze(spec)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("build", (finite_quotient_spec, product_quotient_spec),
                             ids=("finite", "product"))
    def test_spec_analysis_and_crosscheck_leave_no_cyclic_garbage(self, build):
        """The spec holds its action homomorphism, which holds its caches
        and no reference back; the oracle's group holds the spec.  Built
        without the DSL, whose matrix literals leave cycles of their own."""

        def pipeline():
            spec = build()
            summary, _ = crosscheck(spec, analyze(spec), radius=2)
            return summary["consistent"]

        assert pipeline()
        gc.collect()
        gc.disable()
        try:
            assert pipeline()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_free_kernel_abelianization_is_freed_with_its_spec(self):
        """The FC search over a free kernel builds the abelianization view
        of the spec's action homomorphism.  The view holds no reference
        back, so dropping the spec frees it by reference counting alone."""
        gc.disable()
        try:
            spec = ia_pair_spec("z2")
            analyze(spec)
            assert spec.theta._abelian is not None
            gone = weakref.ref(spec.theta.abelian.identity)
            del spec
            assert gone() is None
        finally:
            gc.enable()


# -- the mod-3 screen against the unscreened search ------------------------------


def reference_fc_elements(quotient, actions, identity, bound):
    """The search's enumerator without the mod-3 screen: every candidate,
    with its action composed from its whole word, in witness order."""
    if isinstance(quotient, FiniteGroupDesc):
        for w in quotient.element_words[1:]:
            yield w, compose_word(w, actions, identity)
    elif isinstance(quotient, FgAbelianDesc):
        for exps in sorted_box(quotient.rank, quotient.divisors, bound):
            word, action = (), identity
            for i, e in enumerate(exps):
                if e:
                    word += (i + 1 if e > 0 else -(i + 1),) * abs(e)
                    action = action @ actions[i] ** e
            yield word, action
    elif isinstance(quotient, ProductDesc):
        lists, offset = [], 0
        for f in quotient.factors:
            n = generator_count(f)
            elements = reference_fc_elements(f, actions[offset:offset + n], identity, bound)
            lists.append([((), identity)] + [(_shift_word(w, offset), a) for w, a in elements])
            offset += n
        for combo in itertools.product(*lists):
            word = tuple(itertools.chain.from_iterable(w for w, _ in combo))
            if word:
                yield word, functools.reduce(operator.matmul, [a for _, a in combo])
    # free quotients of rank >= 2 have trivial FC: nothing to yield


def reference_fc_candidates(quotient, theta, bound, offset=0):
    """``reference_fc_elements`` in place of ``analyzer._fc_elements``: it
    reads only the generator images and the identity off ``theta``, and
    tests every candidate's whole action with ``Theta.trivial``."""
    for word, action in reference_fc_elements(quotient, theta.actions[offset:], theta.identity, bound):
        trivial = theta.trivial(action)
        if trivial is not None:
            yield word, trivial


def reference_search(quotient, actions, identity, bound):
    """What ``theta_fc_injective`` reports for an abelian quotient, or a
    product with two or more factors of nontrivial FC, from the first
    trivially acting candidate of the unscreened search."""
    for word, action in reference_fc_elements(quotient, actions, identity, bound):
        if isinstance(identity, IntMatrix):
            if action == identity:
                return QuotientLiftWitness(word, "action-identity")
        else:
            c = is_inner(action)
            if c is not None:
                return QuotientLiftWitness(word, "inner-automorphism", c)
    factors = quotient.factors if isinstance(quotient, ProductDesc) else (quotient,)
    if all(not isinstance(f, FgAbelianDesc) or f.is_finite for f in factors):
        return None
    return "product-relation-bound" if isinstance(quotient, ProductDesc) else "abelian-relation-bound"


def screened_and_reference(spec, bound):
    identity = spec.theta.identity
    got = theta_fc_injective(spec.quotient, spec.theta, AnalyzerLimits(relation_bound=bound))
    return got, reference_search(spec.quotient, spec.actions, identity, bound)


H = IntMatrix.from_rows([[2, 1], [1, 1]])
HYPERBOLIC = (H, IntMatrix.from_rows([[1, 1], [1, 2]]), IntMatrix.from_rows([[3, 2], [1, 1]]),
              IntMatrix.from_rows([[1, 1], [1, 0]]))
FINITE_2X2 = (IntMatrix.from_rows([[0, -1], [1, 0]]), IntMatrix.from_rows([[1, -1], [1, 0]]),
              IntMatrix.from_rows([[0, 1], [1, 0]]))
FIB = IntMatrix.from_rows([[1, 1], [1, 0]])  # order 8 mod 3
C2 = FiniteGroupDesc.from_generators(2, [(1, 0)])


def signed_power(rng, m, top=3):
    return (m ** rng.randint(-top, top)).scale(rng.choice((1, -1)))


def abelian(rank, divisors=()):
    return FgAbelianDesc(rank, divisors, ("u", "v", "w")[:rank] + ("s",) * len(divisors))


def z():
    return FgAbelianDesc(1, (), ("t",))


def one_matrix_powers(rng):
    m = rng.choice(HYPERBOLIC)
    rank = rng.choice((2, 3))
    return make_extension(FgAbelianDesc(2), abelian(rank), conjugated(rng, [signed_power(rng, m) for _ in range(rank)]))


def block_diagonals(rng):
    blocks = [rng.choice(HYPERBOLIC + FINITE_2X2) for _ in range(2)]
    rank = rng.choice((2, 3))
    mats = [block_diag(*(signed_power(rng, b, 2) for b in blocks)) for _ in range(rank)]
    return make_extension(FgAbelianDesc(4), abelian(rank), conjugated(rng, mats))


def torsion_with_minus_identity(rng):
    m = rng.choice(HYPERBOLIC)
    mats = [signed_power(rng, m), signed_power(rng, m), IntMatrix.identity(2).scale(-1)]
    return make_extension(FgAbelianDesc(2), abelian(2, (2,)), conjugated(rng, mats))


def product_z_z(rng):
    m = rng.choice(HYPERBOLIC)
    q = make_product([FgAbelianDesc(1, (), ("t",)), FgAbelianDesc(1, (), ("s",))])
    return make_extension(FgAbelianDesc(2), q, conjugated(rng, [signed_power(rng, m), signed_power(rng, m)]))


def product_z2_c2(rng):
    blocks = [rng.choice(HYPERBOLIC) for _ in range(2)]
    mats = [block_diag(*(signed_power(rng, b, 2) for b in blocks)) for _ in range(2)]
    flip = block_diag(*(IntMatrix.identity(2).scale(rng.choice((1, -1))) for _ in range(2)))
    return make_extension(FgAbelianDesc(4), make_product([abelian(2), C2]), conjugated(rng, mats + [flip]))


def nielsen_product(rng, rank, moves):
    phi = FreeAut.identity(rank)
    for _ in range(moves):
        i, j = rng.sample(range(1, rank + 1), 2)
        images = [(k,) for k in range(1, rank + 1)]
        images[i - 1] = (i, rng.choice((j, -j))) if rng.random() < 0.5 else (rng.choice((j, -j)), i)
        phi = FreeAut(rank, tuple(images)) @ phi
    return phi


def free_kernel_under_z2(rng):
    rank = rng.choice((2, 3))
    swap = FreeAut(rank, ((2,), (1,)) + tuple((k,) for k in range(3, rank + 1)))
    conj = conjugation(rank, tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, 3))))
    phi = rng.choice((swap, conj, conj @ swap, nielsen_product(rng, rank, 2)))
    actions = [phi ** rng.randint(-2, 2) for _ in range(2)]
    return make_extension(FreeDesc(rank, ("a", "b", "c")[:rank]), abelian(2), actions)


def product_z_c2(rng):
    """product(Z, C_2) on Z^2: the last factor is finite, and t -> +-I
    makes a relation likely."""
    m = rng.choice(HYPERBOLIC)
    mats = [signed_power(rng, m, 1), IntMatrix.identity(2).scale(rng.choice((1, -1)))]
    return make_extension(FgAbelianDesc(2), make_product([z(), C2]), conjugated(rng, mats))


def free_kernel_under_product(rng):
    """F_3 under product(Z, Z) or product(Z, C_2).  phi: a -> a c,
    b -> b c, c -> c, the swap of a and b, and conjugation by c commute,
    so products of their powers commute too; the C_2 factor acts by the
    swap or trivially."""
    swap = FreeAut(3, ((2,), (1,), (3,)))
    phi = FreeAut(3, ((1, 3), (2, 3), (3,)))
    by_c = conjugation(3, (3,))
    t, s = (phi ** rng.randint(-1, 1) @ swap ** rng.randint(0, 1) @ by_c ** rng.randint(-2, 2)
            for _ in range(2))
    if rng.random() < 0.5:
        quotient, s = make_product([z(), C2]), swap ** rng.randint(0, 1)
    else:
        quotient = make_product([z(), FgAbelianDesc(1, (), ("s",))])
    return make_extension(FreeDesc(3, ("a", "b", "c")), quotient, [t, s])


IA_U = FreeAut(3, ((1,), (2,), (3, 1, 2, -1, -2)))  # c -> c [a, b]
IA_V = FreeAut(3, ((1,), (2,), (1, 2, -1, -2, 3)))  # c -> [a, b] c
# The IA pair under Z^2, and beside a C_2 factor that acts trivially.
IA_QUOTIENTS = {
    "z2": (abelian(2), [IA_U, IA_V]),
    "c2_z2": (make_product([C2, abelian(2)]), [FreeAut.identity(3), IA_U, IA_V]),
    "z2_c2": (make_product([abelian(2), C2]), [IA_U, IA_V, FreeAut.identity(3)]),
}


def ia_pair_spec(name):
    quotient, actions = IA_QUOTIENTS[name]
    return make_extension(FreeDesc(3, ("a", "b", "c")), quotient, actions)


R4 = IntMatrix.from_rows([[0, -1], [1, 0]])  # order 4


def plus_minus(rng, m):
    return m.scale(rng.choice((1, -1)))


def torsion_in_head(rng):
    """Z + Z/2 + Z/4 on Z^4, by conjugated block diagonals: the torsion
    generator s is a head coordinate of the walk, so its inverse is a
    negative power.  t -> (+-H^k, +-I), s -> (+-I, +-I) and
    r -> (+-I, R4^j) with j in {1, -1, 2}."""
    i2 = IntMatrix.identity(2)
    mats = [block_diag(signed_power(rng, H, 2), plus_minus(rng, i2)),
            block_diag(plus_minus(rng, i2), plus_minus(rng, i2)),
            block_diag(plus_minus(rng, i2), R4 ** rng.choice((1, -1, 2)))]
    return make_extension(FgAbelianDesc(4), FgAbelianDesc(1, (2, 4), ("t", "s", "r")), conjugated(rng, mats))


def product_torsion_head(rng):
    """product(Z + Z/2, Z) on Z^2, acting by +-H^k (|k| <= 1), +-I and
    +-H^k (|k| <= 2): the first factor's torsion generator is in the head."""
    q = make_product([FgAbelianDesc(1, (2,), ("t", "s")), FgAbelianDesc(1, (), ("u",))])
    mats = [signed_power(rng, H, 1), plus_minus(rng, IntMatrix.identity(2)), signed_power(rng, H, 2)]
    return make_extension(FgAbelianDesc(2), q, conjugated(rng, mats))


FAMILIES = (one_matrix_powers, block_diagonals, torsion_with_minus_identity, product_z_z,
            product_z2_c2, free_kernel_under_z2, product_z_c2, free_kernel_under_product,
            torsion_in_head, product_torsion_head)
FREE_FAMILIES = (free_kernel_under_z2, free_kernel_under_product)


class TestTorsionInHead:
    @pytest.mark.parametrize("family", (torsion_in_head, product_torsion_head), ids=lambda f: f.__name__)
    def test_at_most_one_inverse_per_generator(self, family, monkeypatch):
        """A torsion exponent -e is the plain negative power: ``Theta.power``
        takes the generator's inverse once and caches it, so one analysis
        takes at most one inverse per quotient generator."""
        rng = random.Random(family.__name__ + " inverses")
        inverses = count_calls(monkeypatch, IntMatrix, "inverse_unimodular")
        for _ in range(60):
            spec = family(rng)
            inverses.clear()
            analyze(spec, AnalyzerLimits(relation_bound=rng.randint(0, 3)))
            assert len(inverses) <= generator_count(spec.quotient)


class TestMatrixHitsThatAreNotInner:
    """The commuting IA pair u: c -> c [a, b], v: c -> [a, b] c on F_3
    acts as I on the abelianization, and so does the C_2 factor, so every
    candidate is a matrix hit.  theta(x_1, x_2) fixes a and b and sends c
    to [a, b]^x_2 c [a, b]^x_1: it is inner only for x = 0, since an
    inner automorphism that fixes a and b is the identity.  On Z^2 the
    search ends at the relation bound; on the products the witness is
    the C_2 generator, after the whole Z^2 box when C_2 comes first."""

    WANT = {
        "z2": "abelian-relation-bound",
        "c2_z2": QuotientLiftWitness((1,), "inner-automorphism", ()),
        "z2_c2": QuotientLiftWitness((3,), "inner-automorphism", ()),
    }

    @pytest.mark.parametrize("bound", (2, 3))
    @pytest.mark.parametrize("name", IA_QUOTIENTS)
    def test_one_innerness_test_per_matrix_hit(self, name, bound, monkeypatch):
        spec = ia_pair_spec(name)
        tests = count_calls(monkeypatch, extension, "is_inner")
        got = theta_fc_injective(spec.quotient, spec.theta, AnalyzerLimits(relation_bound=bound))
        assert got == reference_search(spec.quotient, spec.actions, spec.theta.identity, bound) == self.WANT[name]
        # The candidates in witness order, up to the witness; a product
        # search also tests the identity combination, which leads its order.
        candidates = list(reference_fc_elements(spec.quotient, spec.actions, spec.theta.identity, bound))
        assert all(action.abelianization().is_identity for _, action in candidates)
        words = [word for word, _ in candidates]
        hits = words.index(got.word) + 1 if isinstance(got, QuotientLiftWitness) else len(words)
        assert len(tests) == hits + isinstance(spec.quotient, ProductDesc)


def blocks_spec(k):
    """Z^k on Z^2k, generator i acting by H on block i."""
    i2 = IntMatrix.identity(2)
    mats = [block_diag(*(H if j == i else i2 for j in range(k))) for i in range(k)]
    return make_extension(FgAbelianDesc(2 * k), FgAbelianDesc(k), mats)


def abelian_parts(spec):
    """(abelian quotient or product factor, its actions on the kernel's
    abelianization): what a box walk runs on."""
    actions = spec.theta.abelian.actions
    if isinstance(spec.quotient, ProductDesc):
        parts, offset = [], 0
        for f in spec.quotient.factors:
            n = generator_count(f)
            if isinstance(f, FgAbelianDesc):
                parts.append((f, actions[offset:offset + n]))
            offset += n
        return parts
    return [(spec.quotient, actions)]


class TestMod3Screen:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
    def test_same_result_as_unscreened_search(self, family):
        rng = random.Random(family.__name__)
        kinds = set()
        for _ in range(25):
            spec = family(rng)
            bound = rng.randint(1, 2 if family in FREE_FAMILIES else 4)
            got, want = screened_and_reference(spec, bound)
            assert got == want, (spec, bound)
            kinds.add(type(got).__name__)
        assert "QuotientLiftWitness" in kinds and len(kinds) > 1

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
    def test_walk_visits_exactly_l3_in_the_box_in_order(self, family):
        """The walk over the screen's rows yields the box vectors whose
        residue is zero, in (max-norm, lex) order; over unit rows, the
        whole box."""
        rng = random.Random(family.__name__ + " walk")
        for _ in range(4):
            spec = family(rng)
            for quotient, actions in abelian_parts(spec):
                screen = mod3_screen(actions, spec.theta.abelian.identity, 10 ** 6)
                n = quotient.gen_count
                assert all(row[:i] == (0,) * i and row[i] > 0 for i, row in enumerate(screen.rows))
                for bound in (0, 1, 2, 8):
                    box = sorted_box(quotient.rank, quotient.divisors, bound)
                    walked = list(_box_walk(quotient, bound, screen.rows))
                    assert walked == [x for x in box if not any(screen.residue(x))]
                    assert list(_box_walk(quotient, bound, unit_rows(n))) == box

    def test_cross_factor_relation_of_factors_not_trivial_mod_3(self):
        """product(Z, Z) acting by t -> H, s -> H^-1: the first witness
        combines t^-1 and s^-1, neither of which is I mod 3, so filtering
        each factor on its own would lose it."""
        spec = make_extension(FgAbelianDesc(2), make_product([z(), FgAbelianDesc(1, (), ("s",))]),
                              [H, H.inverse_unimodular()])
        eye = mod3(IntMatrix.identity(2))
        assert mod3(H) != eye and mod3(H.inverse_unimodular()) != eye
        got, want = screened_and_reference(spec, 8)
        assert got == want == QuotientLiftWitness((-1, -2), "action-identity")
        assert witness_json(analyze(spec).witness, spec)["element"] == "t^-1 s^-1"

    def test_image_larger_than_the_box_turns_the_screen_off(self, tmp_path, monkeypatch):
        """u -> FIB + 1, v -> 1 + FIB, w -> FIB^-1 + FIB^-1 on Z^4: the
        mod-3 image has 64 elements, more than the 27 candidates of
        --relation-bound 1, so the search runs unscreened."""
        f_inv = FIB.inverse_unimodular()
        i2 = IntMatrix.identity(2)
        mats = [block_diag(FIB, i2), block_diag(i2, FIB), block_diag(f_inv, f_inv)]
        identity = IntMatrix.identity(4)
        assert mod3_screen(mats, identity, 27) is None
        assert len(mod3_screen(mats, identity, 64).elements) == 64
        path = tmp_path / "big_image.ext"
        path.write_text("kernel: Z^4\nquotient: Z^3\n"
                        + "".join(f"action {g} -> {m}\n" for g, m in zip("uvw", mats)))

        def report():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run(["check", str(path), "--format", "json", "--relation-bound", "1"])
            return code, out.getvalue()

        screened = report()
        with monkeypatch.context() as m:
            m.setattr(analyzer, "_fc_elements", reference_fc_candidates)
            assert report() == screened
        assert '"element": "u^-1 v^-1 w^-1"' in screened[1]
        # The same actions as product(Z^2, Z): the Z^2 factor's 9 candidates
        # are fewer than its 64-element image, so no combination is skipped.
        spec = make_extension(FgAbelianDesc(4), make_product([abelian(2), FgAbelianDesc(1, (), ("w",))]), mats)
        got, want = screened_and_reference(spec, 1)
        assert got == want == QuotientLiftWitness((-1, -2, -3), "action-identity")

    def test_box_past_the_relation_costs_few_products(self, monkeypatch):
        """A Z^3-on-Z^4 input whose relation (-6, -2, 1) lies past
        --relation-bound 5, so the whole box of 1330 candidates is searched.
        Unscreened, each candidate costs at least one product (2324 in
        all); the walk visits only those in L_3, a lattice of index 24,
        and takes at most one product per new head, none per candidate."""
        rng = random.Random(4)
        h1, h2 = HYPERBOLIC[0], HYPERBOLIC[2]
        i2 = IntMatrix.identity(2)
        mats = conjugated(rng, [block_diag(h1, i2), block_diag(i2, h2), block_diag(h1 ** 6, h2 ** 2)])
        spec = make_extension(FgAbelianDesc(4), abelian(3), mats)
        calls = count_calls(monkeypatch, IntMatrix, "__matmul__")
        res = theta_fc_injective(spec.quotient, spec.theta, AnalyzerLimits(relation_bound=5))
        assert res == "abelian-relation-bound"
        assert len(calls) <= 60

    @pytest.mark.parametrize("family", FAMILIES[:3], ids=lambda f: f.__name__)
    def test_screen_images_match_mod_3_products(self, family):
        rng = random.Random(11)
        for _ in range(10):
            spec = family(rng)
            identity = spec.theta.identity
            screen = mod3_screen(spec.actions, identity, 10 ** 6)
            gens = [mod3(a) for a in spec.actions]
            inverses = [_inverse3(g) for g in gens]
            eye = mod3(identity)
            assert len(screen.elements) == functools.reduce(operator.mul, (row[i] for i, row in enumerate(screen.rows)))
            for x in itertools.product(range(-4, 5), repeat=len(gens)):
                want = eye
                for g, g_inv, e in zip(gens, inverses, x):
                    for _ in range(abs(e)):
                        want = _mul3(want, g if e > 0 else g_inv)
                r = screen.residue(x)
                assert all(0 <= c < row[i] for i, (c, row) in enumerate(zip(r, screen.rows)))
                assert screen.elements[r] == want
                assert (not any(r)) == (want == eye)

    def test_inverse_mod_3(self):
        rng = random.Random(2)
        for n in (1, 2, 3, 4):
            eye = mod3(IntMatrix.identity(n))
            for _ in range(20):
                m = mod3(random_unimodular(rng, n, steps=8))
                assert _mul3(m, _inverse3(m)) == eye == _mul3(_inverse3(m), m)

    def test_blocks_family_decides_its_bound_quickly(self, monkeypatch):
        """Z^4 on Z^8, generator i hyperbolic on block i: the walk visits
        the 5^4 exponent vectors of L_3 among the 17^4 of the box, and the
        search still ends at the relation bound."""
        walked = []
        walk = analyzer._box_walk
        monkeypatch.setattr(analyzer, "_box_walk", lambda *args: (walked.append(x) or x for x in walk(*args)))
        report = analyze(blocks_spec(4))
        assert (report.verdict, report.obstruction) == ("unknown", "abelian-relation-bound")
        assert len(walked) == 5 ** 4 - 1

    def test_blocks_family_tests_no_residue_and_takes_few_products(self, monkeypatch):
        """The same family at k=5: 5^5 - 1 candidates, and no residue test,
        since the walk enumerates L_3 directly.  Each inverse head extends
        the previous one and each candidate is one comparison, so the
        whole analysis takes under 2 000 products where a product per
        candidate took 9 476."""
        spec = blocks_spec(5)
        residues = count_calls(monkeypatch, Mod3Screen, "residue")
        products = count_calls(monkeypatch, IntMatrix, "__matmul__")
        report = analyze(spec)
        assert (report.verdict, report.obstruction) == ("unknown", "abelian-relation-bound")
        assert residues == []
        assert len(products) <= 2000
