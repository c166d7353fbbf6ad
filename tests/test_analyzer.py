import random

import pytest

from icckit.analyzer import (
    AnalyzerLimits,
    KernelTorsionWitness,
    KernelVectorWitness,
    QuotientLiftWitness,
    TrivialGroupWitness,
    analyze,
    render_gen_word,
    theta_fc_injective,
)
from icckit.catalog import FgAbelianDesc, FiniteGroupDesc, FreeDesc, make_product
from icckit.cli import witness_json
from icckit.extension import ExtensionValidationError, Theta, make_extension
from icckit.intlinalg import IntMatrix
from icckit.words import FreeAut, is_inner
from tests.helpers import conjugation, count_applier_calls, count_calls, random_unimodular
from tests.test_words import nielsen_product_images, random_reduced_word, signed_permutation

HYPER = IntMatrix.from_rows([[2, 1], [1, 1]])
ROT4 = IntMatrix.from_rows([[0, -1], [1, 0]])
Z = FgAbelianDesc(1, (), ("t",))


def _commuting_block_pair():
    """Two commuting 4x4 unimodulars with no multiplicative relation:
    hyperbolic blocks on disjoint coordinate pairs."""
    a = IntMatrix.from_rows([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    b = IntMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]])
    return a, b


def mk(kernel, quotient, actions=()):
    return make_extension(kernel, quotient, actions)


class TestThetaFcInjective:
    def test_hyperbolic_action_injective_on_z(self):
        res = theta_fc_injective(Z, Theta((HYPER,), IntMatrix.identity(2)), AnalyzerLimits())
        assert res is None

    def test_order_four_action_witnessed(self):
        res = theta_fc_injective(Z, Theta((ROT4,), IntMatrix.identity(2)), AnalyzerLimits())
        assert isinstance(res, QuotientLiftWitness)
        assert res.word == (1, 1, 1, 1)
        assert res.action_order == 4
        assert ROT4 ** 4 == IntMatrix.identity(2)

    def test_free_quotient_vacuous(self):
        res = theta_fc_injective(FreeDesc(2), Theta((HYPER, ROT4), IntMatrix.identity(2)), AnalyzerLimits())
        assert res is None

    def test_finite_quotient_exact(self):
        c2 = FiniteGroupDesc.from_generators(2, [(1, 0)], ("q",))
        swap = FreeAut(2, ((2,), (1,)))
        res = theta_fc_injective(c2, Theta((swap,), FreeAut.identity(2)), AnalyzerLimits())
        assert res is None

    def test_out_side_identity_power(self):
        phi = FreeAut.identity(2)
        res = theta_fc_injective(Z, Theta((phi,), FreeAut.identity(2)), AnalyzerLimits())
        assert isinstance(res, QuotientLiftWitness)
        assert res.word == (1,)
        assert res.conjugator == ()

    def test_out_side_order_two(self):
        swap = FreeAut(2, ((2,), (1,)))
        res = theta_fc_injective(Z, Theta((swap,), FreeAut.identity(2)), AnalyzerLimits())
        assert isinstance(res, QuotientLiftWitness)
        assert res.word == (1, 1)

    def test_relation_bound_monotone(self):
        # raising the exponent bound resolves an unknown, never flips it
        z2 = FgAbelianDesc(2, (), ("u", "v"))
        acts = (HYPER ** 5, (HYPER ** 5).inverse_unimodular())
        low = theta_fc_injective(z2, Theta(acts, IntMatrix.identity(2)), AnalyzerLimits(relation_bound=0))
        assert low == "abelian-relation-bound"
        high = theta_fc_injective(z2, Theta(acts, IntMatrix.identity(2)), AnalyzerLimits(relation_bound=2))
        assert isinstance(high, QuotientLiftWitness)

    def test_rank_two_abelian_relation_found(self):
        z2 = FgAbelianDesc(2, (), ("u", "v"))
        hyper_inv = HYPER.inverse_unimodular()
        res = theta_fc_injective(z2, Theta((HYPER, hyper_inv), IntMatrix.identity(2)), AnalyzerLimits())
        assert isinstance(res, QuotientLiftWitness)
        assert res.word == (-1, -2)  # u^-1 v^-1, the (norm, lex) first relation

    def test_rank_two_abelian_unknown(self):
        z2 = FgAbelianDesc(2, (), ("u", "v"))
        a, b = _commuting_block_pair()
        res = theta_fc_injective(z2, Theta((a, b), IntMatrix.identity(4)), AnalyzerLimits())
        assert res == "abelian-relation-bound"

    def test_finite_abelian_exact(self):
        c4 = FgAbelianDesc(0, (4,), ("q",))
        res = theta_fc_injective(c4, Theta((ROT4,), IntMatrix.identity(2)), AnalyzerLimits())
        assert res is None
        c2 = FgAbelianDesc(0, (2,), ("q",))
        neg = IntMatrix.from_rows([[-1, 0], [0, -1]])
        res = theta_fc_injective(c2, Theta((neg,), IntMatrix.identity(2)), AnalyzerLimits())
        assert res is None

    def test_product_single_relevant_factor(self):
        q = make_product([FreeDesc(2, ("u", "v")), Z])
        res = theta_fc_injective(q, Theta((HYPER, HYPER, ROT4), IntMatrix.identity(2)), AnalyzerLimits())
        assert isinstance(res, QuotientLiftWitness)
        assert res.word == (3, 3, 3, 3)  # q^4 in the third generator

    def test_product_cross_factor_cancellation(self):
        q = make_product([FgAbelianDesc(1, (), ("u",)), FgAbelianDesc(1, (), ("v",))])
        res = theta_fc_injective(q, Theta((HYPER, HYPER.inverse_unimodular()), IntMatrix.identity(2)), AnalyzerLimits())
        assert isinstance(res, QuotientLiftWitness)
        # a cross-factor product acts trivially even though each factor
        # alone is injective; the found word must be nontrivial and cancel
        assert res.word == (-1, -2)

    def test_product_mixed_unknown(self):
        q = make_product([FgAbelianDesc(1, (), ("u",)), FgAbelianDesc(1, (), ("v",))])
        a, b = _commuting_block_pair()
        res = theta_fc_injective(q, Theta((a, b), IntMatrix.identity(4)), AnalyzerLimits())
        assert res == "product-relation-bound"

    def test_product_all_finite_exact(self):
        q = make_product([
            FgAbelianDesc(0, (2,), ("u",)),
            FgAbelianDesc(0, (2,), ("v",)),
        ])
        neg = IntMatrix.from_rows([[-1, 0], [0, -1]])
        res = theta_fc_injective(q, Theta((neg, neg), IntMatrix.identity(2)), AnalyzerLimits())
        assert isinstance(res, QuotientLiftWitness)
        assert sorted(res.word) == [1, 2]  # u v acts trivially


# a -> a c^-1, b -> b a b, c -> c b: its abelianization has infinite order.
FOUR_MOVES = FreeAut(3, ((1, -3), (2, 1, 2), (3, 2)))


def reference_outer_order(phi, cap=16, max_letters=20_000):
    """The least n <= cap with phi^n inner, by a running power and an
    innerness test of every power; None once a power passes
    ``max_letters`` letters (word length can grow exponentially)."""
    power = FreeAut.identity(phi.rank)
    for n in range(1, cap + 1):
        power = power @ phi
        if sum(map(len, power.images)) > max_letters:
            return None
        w = is_inner(power)
        if w is not None:
            return QuotientLiftWitness((1,) * n, "inner-automorphism", w)
    return "out-order-unbounded"


def commutator_twist(rank, rng):
    """x_i -> x_i [x_j, x_l] (rank >= 3) or the partial conjugation
    x_i -> x_j x_i x_j^-1; both act as I on the abelianization."""
    images = [(k,) for k in range(1, rank + 1)]
    if rank >= 3 and rng.random() < 0.5:
        i, j, l = rng.sample(range(1, rank + 1), 3)
        images[i - 1] = (i, j, l, -j, -l)
    else:
        i, j = rng.sample(range(1, rank + 1), 2)
        images[i - 1] = (j, i, -j)
    return FreeAut(rank, tuple(images))


def outer_order_samples(seed, count):
    """Seeded automorphisms of F_2 to F_4 in three kinds, in turn:
    c_w psi sigma psi^-1 for a signed permutation sigma (finite outer
    order); psi tau psi^-1 for a commutator twist tau, sometimes times a
    signed permutation; and random Nielsen products."""
    rng = random.Random(seed)
    for i in range(count):
        rank = rng.randint(2, 4)
        psi = FreeAut(rank, nielsen_product_images(rank, rng.randint(0, 3), rng))
        if i % 3 == 0:
            inner = conjugation(rank, random_reduced_word(rank, 4, rng))
            yield inner @ psi @ signed_permutation(rank, rng) @ psi.inverse()
        elif i % 3 == 1:
            tau = commutator_twist(rank, rng)
            if rng.random() < 0.5:
                tau = tau @ signed_permutation(rank, rng)
            yield psi @ tau @ psi.inverse()
        else:
            yield FreeAut(rank, nielsen_product_images(rank, rng.randint(1, 4), rng))


class TestOuterOrder:
    """CATALOG_AXIOMS.md §13: a lone Z quotient on a free kernel is
    decided by the order m of the abelianization and one innerness test
    of phi^m."""

    def test_matches_least_inner_power(self):
        kinds = {QuotientLiftWitness: 0, str: 0}
        for phi in outer_order_samples(13, 300):
            expected = reference_outer_order(phi)
            if expected is None:
                continue
            got = theta_fc_injective(Z, Theta((phi,), FreeAut.identity(phi.rank)), AnalyzerLimits())
            assert got == expected, phi
            kinds[type(got)] += 1
        assert min(kinds.values()) >= 20, kinds

    @pytest.mark.parametrize("phi,compositions", [
        (FOUR_MOVES, 0), (FreeAut(2, ((2,), (1,))), 1)], ids=["four-moves", "swap"])
    def test_compositions(self, phi, compositions, monkeypatch):
        """One power phi^m, m - 1 compositions starting from phi, and none
        when the abelianization has infinite order; an out-order loop
        composed phi up to 16 times."""
        calls = count_calls(monkeypatch, FreeAut, "compose")
        res = theta_fc_injective(Z, Theta((phi,), FreeAut.identity(phi.rank)), AnalyzerLimits())
        assert len(calls) == compositions
        assert isinstance(res, str if compositions == 0 else QuotientLiftWitness)


class TestAnalyzeAbelian:
    def test_sol_is_icc(self):
        report = analyze(mk(FgAbelianDesc(2), Z, [HYPER]))
        assert report.verdict == "icc"
        assert report.theorem_path == "theorem-1"
        assert report.witness is None

    def test_klein_bottle(self):
        report = analyze(mk(FgAbelianDesc(1), Z, [IntMatrix.from_rows([[-1]])]))
        assert report.verdict == "not_icc"
        assert report.theorem_path == "theorem-1(i)"
        assert isinstance(report.witness, KernelVectorWitness)
        assert report.witness.vector == (1,)
        assert set(report.witness.orbit) == {(1,), (-1,)}

    def test_torsion_shortcut(self):
        report = analyze(mk(FgAbelianDesc(2, (2,)), Z, [HYPER]))
        assert report.verdict == "not_icc"
        assert report.theorem_path == "theorem-1(i)"
        assert isinstance(report.witness, KernelTorsionWitness)
        assert report.witness.class_bound == 2

    def test_order_four_prefers_lift_witness(self):
        spec = mk(FgAbelianDesc(2), FgAbelianDesc(1, (), ("q",)), [ROT4])
        report = analyze(spec)
        assert report.verdict == "not_icc"
        assert report.theorem_path == "theorem-1(ii)"
        assert isinstance(report.witness, QuotientLiftWitness)
        assert witness_json(report.witness, spec)["element"] == "q^4"
        assert report.witness.action_order == 4

    def test_negation_action_keeps_vector_witness(self):
        neg = IntMatrix.from_rows([[-1, 0], [0, -1]])
        report = analyze(mk(FgAbelianDesc(2), Z, [neg]))
        assert isinstance(report.witness, KernelVectorWitness)
        assert report.witness.vector == (1, 0)
        assert set(report.witness.orbit) == {(1, 0), (-1, 0)}

    def test_free_quotient_generic_icc(self):
        q = FreeDesc(2, ("u", "v"))
        other = IntMatrix.from_rows([[1, 1], [1, 2]])
        report = analyze(mk(FgAbelianDesc(2), q, [HYPER, other]))
        assert report.verdict == "icc"

    def test_free_quotient_with_finite_orbits_still_not_icc(self):
        q = FreeDesc(2, ("u", "v"))
        neg = IntMatrix.from_rows([[-1, 0], [0, -1]])
        report = analyze(mk(FgAbelianDesc(2), q, [neg, neg]))
        assert report.verdict == "not_icc"
        assert isinstance(report.witness, KernelVectorWitness)

    def test_unknown_passes_through(self):
        z2 = FgAbelianDesc(2, (), ("u", "v"))
        a, b = _commuting_block_pair()
        report = analyze(mk(FgAbelianDesc(4), z2, [a, b]))
        assert report.verdict == "unknown"
        assert report.obstruction == "abelian-relation-bound"

    def test_trivial_quotient_abelian_kernel(self):
        report = analyze(mk(FgAbelianDesc(2), FgAbelianDesc(0)))
        assert report.verdict == "not_icc"
        assert isinstance(report.witness, KernelVectorWitness)
        assert report.witness.orbit == ((1, 0),)

    @pytest.mark.parametrize("n", [8, 10])
    def test_symmetric_group_certified_by_basis_orbits(self, n, monkeypatch):
        # S_n permuting the basis of Z^n has n! elements, which the mod-3
        # enumeration would visit one by one; its basis orbits have n.
        # Each of the n lockstep steps applies both generators to one
        # vector of each of the n orbits and to the n columns of one image
        # element: 4 n^2 applier calls, where the whole image takes 2 n n!.
        applied = count_applier_calls(monkeypatch)

        def perm(p):
            return IntMatrix.from_rows([[int(p[j] == i) for j in range(n)] for i in range(n)])

        cycle = perm([(j + 1) % n for j in range(n)])
        swap = perm([1, 0] + list(range(2, n)))
        report = analyze(mk(FgAbelianDesc(n), FreeDesc(2, ("p", "s")), [cycle, swap]))
        assert report.verdict == "not_icc"
        assert report.theorem_path == "theorem-1(i)"
        assert isinstance(report.witness, KernelVectorWitness)
        assert set(report.witness.orbit) == set(IntMatrix.identity(n).rows)
        assert len(applied) <= 4 * n * n, len(applied)


class TestAnalyzeFree:
    def test_swap_extension_icc(self):
        c2 = FiniteGroupDesc.from_generators(2, [(1, 0)], ("q",))
        report = analyze(mk(FreeDesc(2, ("a", "b")), c2, [FreeAut(2, ((2,), (1,)))]))
        assert report.verdict == "icc"
        assert report.theorem_path == "theorem-3"

    def test_trivial_action_times_z(self):
        report = analyze(mk(FreeDesc(2, ("a", "b")), Z, [FreeAut.identity(2)]))
        assert report.verdict == "not_icc"
        assert report.theorem_path == "theorem-3(ii)"
        assert isinstance(report.witness, QuotientLiftWitness)
        assert report.witness.conjugator == ()

    def test_inner_c2_action_rejected(self):
        c2 = FiniteGroupDesc.from_generators(2, [(1, 0)], ("q",))
        with pytest.raises(ExtensionValidationError):
            mk(FreeDesc(2, ("a", "b")), c2, [conjugation(2, (1,))])

    def test_rank_one_free_kernel_folds_to_abelian(self):
        spec = mk(FreeDesc(1, ("a",)), Z, [FreeAut(1, ((-1,),))])
        assert isinstance(spec.kernel, FgAbelianDesc)
        report = analyze(spec)
        assert report.verdict == "not_icc"  # the Klein bottle again

    def test_free_kernel_trivial_quotient(self):
        report = analyze(mk(FreeDesc(2, ("a", "b")), FgAbelianDesc(0)))
        assert report.verdict == "icc"


class TestAnalyzeDegenerate:
    def test_everything_trivial(self):
        report = analyze(mk(FgAbelianDesc(0), FgAbelianDesc(0)))
        assert report.verdict == "not_icc"
        assert isinstance(report.witness, TrivialGroupWitness)

    def test_trivial_kernel_free_quotient(self):
        report = analyze(mk(FgAbelianDesc(0), FreeDesc(2)))
        assert report.verdict == "icc"
        assert report.theorem_path == "degenerate"

    def test_trivial_kernel_abelian_quotient(self):
        report = analyze(mk(FgAbelianDesc(0), Z))
        assert report.verdict == "not_icc"
        assert isinstance(report.witness, QuotientLiftWitness)

    def test_trivial_kernel_product_quotient(self):
        q = make_product([FreeDesc(2), FgAbelianDesc(1, (), ("t",))])
        report = analyze(mk(FgAbelianDesc(0), q))
        assert report.verdict == "not_icc"
        assert report.witness.word == (3,)  # the Z generator after F2's two

    def test_finite_kernel_rule(self):
        k = FiniteGroupDesc.from_generators(3, [(1, 2, 0)])
        report = analyze(mk(k, Z))
        assert report.verdict == "not_icc"
        assert report.theorem_path == "theorem-2(i)"
        assert isinstance(report.witness, KernelTorsionWitness)
        assert report.witness.class_bound == 3

    def test_trivial_finite_kernel_degenerates(self):
        k = FiniteGroupDesc.from_generators(1, [(0,)])
        report = analyze(mk(k, FreeDesc(2)))
        assert report.verdict == "icc"


class TestValidation:
    def test_action_count_mismatch(self):
        with pytest.raises(ExtensionValidationError):
            mk(FgAbelianDesc(2), FgAbelianDesc(2), [HYPER])

    def test_non_commuting_abelian_quotient(self):
        with pytest.raises(ExtensionValidationError):
            mk(FgAbelianDesc(2), FgAbelianDesc(2), [ROT4, IntMatrix.from_rows([[1, 1], [0, 1]])])

    def test_torsion_order_violation(self):
        with pytest.raises(ExtensionValidationError):
            mk(FgAbelianDesc(2), FgAbelianDesc(0, (2,)), [ROT4])  # order 4, needs 2

    def test_torsion_order_ok(self):
        spec = mk(FgAbelianDesc(2), FgAbelianDesc(0, (4,)), [ROT4])
        assert analyze(spec).verdict == "not_icc"

    def test_wrong_action_type(self):
        with pytest.raises(ExtensionValidationError):
            mk(FgAbelianDesc(2), Z, [FreeAut.identity(2)])
        with pytest.raises(ExtensionValidationError):
            mk(FreeDesc(2), Z, [HYPER])

    def test_matrix_size_mismatch(self):
        with pytest.raises(ExtensionValidationError):
            mk(FgAbelianDesc(3), Z, [HYPER])

    def test_error_names_the_failing_action(self):
        """A fault of one action carries its index; a count or relation
        fault carries None."""
        z2 = FgAbelianDesc(2)
        for actions, index in (([HYPER, HYPER.scale(2)], 1), ([HYPER, IntMatrix.from_rows([[1]])], 1),
                               ([IntMatrix.from_rows([[0, 1], [1, 1], [1, 0]]), HYPER], 0),
                               ([ROT4, IntMatrix.from_rows([[1, 1], [0, 1]])], None), ([HYPER], None)):
            with pytest.raises(ExtensionValidationError) as err:
                mk(z2, z2, actions)
            assert err.value.action == index, actions

    @pytest.mark.parametrize("field", ["relation_bound"])
    def test_negative_limits_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            AnalyzerLimits(**{field: -1})
        assert getattr(AnalyzerLimits(**{field: 0}), field) == 0


class TestVerdictInvariance:
    @pytest.mark.parametrize("seed", range(8))
    def test_conjugated_actions_same_verdict(self, seed):
        rng = random.Random(500 + seed)
        r = rng.choice([2, 3])
        m = random_unimodular(rng, r, steps=rng.randint(1, 8))
        base = analyze(mk(FgAbelianDesc(r), Z, [m]))
        p = random_unimodular(rng, r, steps=8)
        conj = p @ m @ p.inverse_unimodular()
        other = analyze(mk(FgAbelianDesc(r), Z, [conj]))
        assert base.verdict == other.verdict
        assert base.theorem_path == other.theorem_path


class TestRenderGenWord:
    def test_collapsing(self):
        assert render_gen_word((1, 1, 1, 1), ("q",)) == "q^4"
        assert render_gen_word((1, -2, -2), ("u", "v")) == "u v^-2"
        assert render_gen_word((), ("q",)) == "1"
