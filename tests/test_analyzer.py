import random

import pytest

from icckit.analyzer import (
    AnalyzerLimits,
    Injective,
    InjectivityUnknown,
    InjectivityWitness,
    KernelTorsionWitness,
    KernelVectorWitness,
    QuotientLiftWitness,
    TrivialGroupWitness,
    _AutSide,
    _OutSide,
    analyze,
    render_gen_word,
    theta_fc_injective,
)
from icckit.catalog import FgAbelianDesc, FiniteGroupDesc, FreeDesc, make_product
from icckit.extension import (
    AbelianKernel,
    ExtensionValidationError,
    make_extension,
)
from icckit.intlinalg import IntMatrix, random_unimodular
from icckit.words import FreeAut

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
        res = theta_fc_injective(Z, (HYPER,), _AutSide(2), AnalyzerLimits())
        assert isinstance(res, Injective)

    def test_order_four_action_witnessed(self):
        res = theta_fc_injective(Z, (ROT4,), _AutSide(2), AnalyzerLimits())
        assert isinstance(res, InjectivityWitness)
        assert res.word == (1, 1, 1, 1)
        assert res.action_order == 4
        assert ROT4 ** 4 == IntMatrix.identity(2)

    def test_free_quotient_vacuous(self):
        res = theta_fc_injective(FreeDesc(2), (HYPER, ROT4), _AutSide(2), AnalyzerLimits())
        assert isinstance(res, Injective)

    def test_finite_quotient_exact(self):
        c2 = FiniteGroupDesc.from_generators(2, [(1, 0)], ("q",))
        swap = FreeAut(2, ((2,), (1,)))
        res = theta_fc_injective(c2, (swap,), _OutSide(2), AnalyzerLimits())
        assert isinstance(res, Injective)

    def test_out_side_identity_power(self):
        phi = FreeAut.identity(2)
        res = theta_fc_injective(Z, (phi,), _OutSide(2), AnalyzerLimits())
        assert isinstance(res, InjectivityWitness)
        assert res.word == (1,)
        assert res.conjugator == ()

    def test_out_side_order_two(self):
        swap = FreeAut(2, ((2,), (1,)))
        res = theta_fc_injective(Z, (swap,), _OutSide(2), AnalyzerLimits())
        assert isinstance(res, InjectivityWitness)
        assert res.word == (1, 1)

    def test_out_side_cap_monotone(self):
        swap = FreeAut(2, ((2,), (1,)))
        low = theta_fc_injective(Z, (swap,), _OutSide(2), AnalyzerLimits(out_order_cap=1))
        assert isinstance(low, InjectivityUnknown)
        assert low.tag == "out-order-unbounded"
        high = theta_fc_injective(Z, (swap,), _OutSide(2), AnalyzerLimits(out_order_cap=2))
        assert isinstance(high, InjectivityWitness)

    def test_relation_bound_monotone(self):
        # raising the exponent bound resolves an unknown, never flips it
        z2 = FgAbelianDesc(2, (), ("u", "v"))
        acts = (HYPER ** 5, (HYPER ** 5).inverse_unimodular())
        low = theta_fc_injective(z2, acts, _AutSide(2), AnalyzerLimits(relation_bound=0))
        assert isinstance(low, InjectivityUnknown)
        high = theta_fc_injective(z2, acts, _AutSide(2), AnalyzerLimits(relation_bound=2))
        assert isinstance(high, InjectivityWitness)

    def test_rank_two_abelian_relation_found(self):
        z2 = FgAbelianDesc(2, (), ("u", "v"))
        hyper_inv = HYPER.inverse_unimodular()
        res = theta_fc_injective(z2, (HYPER, hyper_inv), _AutSide(2), AnalyzerLimits())
        assert isinstance(res, InjectivityWitness)
        assert res.word == (-1, -2)  # u^-1 v^-1, the (norm, lex) first relation

    def test_rank_two_abelian_unknown(self):
        z2 = FgAbelianDesc(2, (), ("u", "v"))
        a, b = _commuting_block_pair()
        res = theta_fc_injective(z2, (a, b), _AutSide(4), AnalyzerLimits())
        assert isinstance(res, InjectivityUnknown)
        assert res.tag == "abelian-relation-bound"

    def test_finite_abelian_exact(self):
        c4 = FgAbelianDesc(0, (4,), ("q",))
        res = theta_fc_injective(c4, (ROT4,), _AutSide(2), AnalyzerLimits())
        assert isinstance(res, Injective)
        c2 = FgAbelianDesc(0, (2,), ("q",))
        neg = IntMatrix.from_rows([[-1, 0], [0, -1]])
        res = theta_fc_injective(c2, (neg,), _AutSide(2), AnalyzerLimits())
        assert isinstance(res, Injective)

    def test_product_single_relevant_factor(self):
        q = make_product([FreeDesc(2, ("u", "v")), Z])
        res = theta_fc_injective(q, (HYPER, HYPER, ROT4), _AutSide(2), AnalyzerLimits())
        assert isinstance(res, InjectivityWitness)
        assert res.word == (3, 3, 3, 3)  # q^4 in the third generator

    def test_product_cross_factor_cancellation(self):
        q = make_product([FgAbelianDesc(1, (), ("u",)), FgAbelianDesc(1, (), ("v",))])
        res = theta_fc_injective(q, (HYPER, HYPER.inverse_unimodular()), _AutSide(2), AnalyzerLimits())
        assert isinstance(res, InjectivityWitness)
        # a cross-factor product acts trivially even though each factor
        # alone is injective; the found word must be nontrivial and cancel
        assert res.word == (-1, -2)

    def test_product_mixed_unknown(self):
        q = make_product([FgAbelianDesc(1, (), ("u",)), FgAbelianDesc(1, (), ("v",))])
        a, b = _commuting_block_pair()
        res = theta_fc_injective(q, (a, b), _AutSide(4), AnalyzerLimits())
        assert isinstance(res, InjectivityUnknown)
        assert res.tag == "product-relation-bound"

    def test_product_all_finite_exact(self):
        q = make_product([
            FgAbelianDesc(0, (2,), ("u",)),
            FgAbelianDesc(0, (2,), ("v",)),
        ])
        neg = IntMatrix.from_rows([[-1, 0], [0, -1]])
        res = theta_fc_injective(q, (neg, neg), _AutSide(2), AnalyzerLimits())
        assert isinstance(res, InjectivityWitness)
        assert sorted(res.word) == [1, 2]  # u v acts trivially


class TestAnalyzeAbelian:
    def test_sol_is_icc(self):
        report = analyze(mk(AbelianKernel(2), Z, [HYPER]))
        assert report.verdict == "icc"
        assert report.theorem_path == "theorem-1"
        assert report.witness is None

    def test_klein_bottle(self):
        report = analyze(mk(AbelianKernel(1), Z, [IntMatrix.from_rows([[-1]])]))
        assert report.verdict == "not_icc"
        assert report.theorem_path == "theorem-1(i)"
        assert isinstance(report.witness, KernelVectorWitness)
        assert report.witness.vector == (1,)
        assert set(report.witness.orbit) == {(1,), (-1,)}

    def test_torsion_shortcut(self):
        report = analyze(mk(AbelianKernel(2, (2,)), Z, [HYPER]))
        assert report.verdict == "not_icc"
        assert report.theorem_path == "theorem-1(i)"
        assert isinstance(report.witness, KernelTorsionWitness)
        assert report.witness.class_bound == 2

    def test_order_four_prefers_lift_witness(self):
        report = analyze(mk(AbelianKernel(2), FgAbelianDesc(1, (), ("q",)), [ROT4]))
        assert report.verdict == "not_icc"
        assert report.theorem_path == "theorem-1(ii)"
        assert isinstance(report.witness, QuotientLiftWitness)
        assert report.witness.rendered == "q^4"
        assert report.witness.action_order == 4

    def test_negation_action_keeps_vector_witness(self):
        neg = IntMatrix.from_rows([[-1, 0], [0, -1]])
        report = analyze(mk(AbelianKernel(2), Z, [neg]))
        assert isinstance(report.witness, KernelVectorWitness)
        assert report.witness.vector == (1, 0)
        assert set(report.witness.orbit) == {(1, 0), (-1, 0)}

    def test_free_quotient_generic_icc(self):
        q = FreeDesc(2, ("u", "v"))
        other = IntMatrix.from_rows([[1, 1], [1, 2]])
        report = analyze(mk(AbelianKernel(2), q, [HYPER, other]))
        assert report.verdict == "icc"

    def test_free_quotient_with_finite_orbits_still_not_icc(self):
        q = FreeDesc(2, ("u", "v"))
        neg = IntMatrix.from_rows([[-1, 0], [0, -1]])
        report = analyze(mk(AbelianKernel(2), q, [neg, neg]))
        assert report.verdict == "not_icc"
        assert isinstance(report.witness, KernelVectorWitness)

    def test_unknown_passes_through(self):
        z2 = FgAbelianDesc(2, (), ("u", "v"))
        a, b = _commuting_block_pair()
        report = analyze(mk(AbelianKernel(4), z2, [a, b]))
        assert report.verdict == "unknown"
        assert report.obstruction == "abelian-relation-bound"

    def test_trivial_quotient_abelian_kernel(self):
        report = analyze(mk(AbelianKernel(2), FgAbelianDesc(0)))
        assert report.verdict == "not_icc"
        assert isinstance(report.witness, KernelVectorWitness)
        assert report.witness.orbit == ((1, 0),)

    @pytest.mark.parametrize("n", [8, 10])
    def test_symmetric_group_certified_by_basis_orbits(self, n, monkeypatch):
        # S_n permuting the basis of Z^n has n! elements, which the mod-3
        # enumeration would visit one by one; its basis orbits have n.
        import icckit.matgroup as matgroup_mod

        def enumerate_group(group):
            raise AssertionError("group_is_finite called")

        monkeypatch.setattr(matgroup_mod, "group_is_finite", enumerate_group)

        def perm(p):
            return IntMatrix.from_rows([[int(p[j] == i) for j in range(n)] for i in range(n)])

        cycle = perm([(j + 1) % n for j in range(n)])
        swap = perm([1, 0] + list(range(2, n)))
        report = analyze(mk(AbelianKernel(n), FreeDesc(2, ("p", "s")), [cycle, swap]))
        assert report.verdict == "not_icc"
        assert report.theorem_path == "theorem-1(i)"
        assert isinstance(report.witness, KernelVectorWitness)
        assert set(report.witness.orbit) == set(IntMatrix.identity(n).rows)


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
            mk(FreeDesc(2, ("a", "b")), c2, [FreeAut.conjugation(2, (1,))])

    def test_rank_one_free_kernel_folds_to_abelian(self):
        spec = mk(FreeDesc(1, ("a",)), Z, [FreeAut(1, ((-1,),))])
        assert isinstance(spec.kernel, AbelianKernel)
        report = analyze(spec)
        assert report.verdict == "not_icc"  # the Klein bottle again

    def test_free_kernel_trivial_quotient(self):
        report = analyze(mk(FreeDesc(2, ("a", "b")), FgAbelianDesc(0)))
        assert report.verdict == "icc"


class TestAnalyzeDegenerate:
    def test_everything_trivial(self):
        report = analyze(mk(AbelianKernel(0), FgAbelianDesc(0)))
        assert report.verdict == "not_icc"
        assert isinstance(report.witness, TrivialGroupWitness)

    def test_trivial_kernel_free_quotient(self):
        report = analyze(mk(AbelianKernel(0), FreeDesc(2)))
        assert report.verdict == "icc"
        assert report.theorem_path == "degenerate"

    def test_trivial_kernel_abelian_quotient(self):
        report = analyze(mk(AbelianKernel(0), Z))
        assert report.verdict == "not_icc"
        assert isinstance(report.witness, QuotientLiftWitness)

    def test_trivial_kernel_product_quotient(self):
        q = make_product([FreeDesc(2), FgAbelianDesc(1, (), ("t",))])
        report = analyze(mk(AbelianKernel(0), q))
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
            mk(AbelianKernel(2), FgAbelianDesc(2), [HYPER])

    def test_non_commuting_abelian_quotient(self):
        with pytest.raises(ExtensionValidationError):
            mk(AbelianKernel(2), FgAbelianDesc(2), [ROT4, IntMatrix.from_rows([[1, 1], [0, 1]])])

    def test_torsion_order_violation(self):
        with pytest.raises(ExtensionValidationError):
            mk(AbelianKernel(2), FgAbelianDesc(0, (2,)), [ROT4])  # order 4, needs 2

    def test_torsion_order_ok(self):
        spec = mk(AbelianKernel(2), FgAbelianDesc(0, (4,)), [ROT4])
        assert analyze(spec).verdict == "not_icc"

    def test_wrong_action_type(self):
        with pytest.raises(ExtensionValidationError):
            mk(AbelianKernel(2), Z, [FreeAut.identity(2)])
        with pytest.raises(ExtensionValidationError):
            mk(FreeDesc(2), Z, [HYPER])

    def test_matrix_size_mismatch(self):
        with pytest.raises(ExtensionValidationError):
            mk(AbelianKernel(3), Z, [HYPER])


class TestVerdictInvariance:
    @pytest.mark.parametrize("seed", range(8))
    def test_conjugated_actions_same_verdict(self, seed):
        rng = random.Random(500 + seed)
        r = rng.choice([2, 3])
        m = random_unimodular(rng, r, steps=rng.randint(1, 8))
        base = analyze(mk(AbelianKernel(r), Z, [m]))
        p = random_unimodular(rng, r, steps=8)
        conj = p @ m @ p.inverse_unimodular()
        other = analyze(mk(AbelianKernel(r), Z, [conj]))
        assert base.verdict == other.verdict
        assert base.theorem_path == other.theorem_path


class TestRenderGenWord:
    def test_collapsing(self):
        assert render_gen_word((1, 1, 1, 1), ("q",)) == "q^4"
        assert render_gen_word((1, -2, -2), ("u", "v")) == "u v^-2"
        assert render_gen_word((), ("q",)) == "1"
