import collections
import dataclasses
import itertools
import random
from pathlib import Path

import pytest

from icckit.analyzer import analyze
from icckit.catalog import FgAbelianDesc, FiniteGroupDesc, FreeDesc, make_product
from icckit.dsl import parse_extension
from icckit.extension import make_extension
from icckit.intlinalg import IntMatrix
from icckit.matgroup import FiniteOrbit, OrbitCapExceeded
from icckit.oracle import (
    ConcreteGroup,
    _AbelianPart,
    conjugacy_ball,
    crosscheck,
    exact_abelian_class,
    materialize,
)
from icckit.words import FreeAut
from tests.helpers import count_calls

EXTENSIONS = Path(__file__).resolve().parent.parent / "extensions"
Z = FgAbelianDesc(1, (), ("t",))
HYPER = IntMatrix.from_rows([[2, 1], [1, 1]])


def klein_spec():
    return make_extension(FgAbelianDesc(1), Z, [IntMatrix.from_rows([[-1]])])


def sol_spec():
    return make_extension(FgAbelianDesc(2), Z, [HYPER])


def f2xz_spec():
    return make_extension(FreeDesc(2, ("a", "b")), Z, [FreeAut.identity(2)])


def swap_spec():
    c2 = FiniteGroupDesc.from_generators(2, [(1, 0)], ("q",))
    return make_extension(FreeDesc(2, ("a", "b")), c2, [FreeAut(2, ((2,), (1,)))])


class TestMaterialize:
    def test_klein_multiplication_formula(self):
        g = materialize(klein_spec())
        rng = random.Random(1)
        for _ in range(50):
            n1, t1 = rng.randint(-5, 5), rng.randint(-3, 3)
            n2, t2 = rng.randint(-5, 5), rng.randint(-3, 3)
            got = g.mul(((n1,), (t1,)), ((n2,), (t2,)))
            assert got == ((n1 + (-1) ** t1 * n2,), (t1 + t2,))

    def test_sol_group_axioms(self):
        g = materialize(sol_spec())
        rng = random.Random(2)

        def rand_elem():
            return ((rng.randint(-3, 3), rng.randint(-3, 3)), (rng.randint(-2, 2),))

        for _ in range(100):
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
        for _ in range(30):
            a = rand_elem()
            assert g.mul(a, g.identity) == a
            assert g.mul(g.identity, a) == a
            assert g.mul(a, g.inv(a)) == g.identity
            assert g.mul(g.inv(a), a) == g.identity

    def test_f2xz_is_direct_product(self):
        g = materialize(f2xz_spec())
        a = g.kernel_element((1,))
        t = g.lift((1,))
        assert g.mul(a, t) == ((1,), (1,))
        assert g.mul(t, a) == ((1,), (1,))  # the action is trivial

    def test_finite_kernel_direct_product(self):
        k = FiniteGroupDesc.from_generators(3, [(1, 2, 0)])
        g = materialize(make_extension(k, Z))
        x = g.kernel_element((1, 2, 0))
        t = g.lift((1,))
        assert g.mul(x, t) == g.mul(t, x)

    def test_free_kernel_action(self):
        g = materialize(swap_spec())
        a = g.kernel_element((1,))
        q = g.lift((1, 0))
        # q^-1 a q = b under the swap, and the quotient part stays trivial
        assert g.conjugate(q, a) == ((2,), (0, 1))

    def test_torsion_kernel_elements(self):
        spec = make_extension(FgAbelianDesc(1, (2,)), Z, [IntMatrix.from_rows([[-1]])])
        g = materialize(spec)
        u = g.kernel_element((0, 1))
        assert g.mul(u, u) == g.identity
        e = g.kernel_element((1, 0))
        assert g.mul(e, u) == ((1, 1), (0,))

    def test_product_quotient(self):
        q = make_product([FgAbelianDesc(1, (), ("u",)), FgAbelianDesc(1, (), ("v",))])
        spec = make_extension(FgAbelianDesc(2), q, [HYPER, HYPER.inverse_unimodular()])
        g = materialize(spec)
        u = g.lift(((1,), (0,)))
        v = g.lift(((0,), (1,)))
        k = g.kernel_element((1, 0))
        uv = g.mul(u, v)
        assert g.conjugate(uv, k) == k  # the actions cancel


class ReferenceGroup(ConcreteGroup):
    """Conjugation as the plain product inv(g) * x * g."""

    def conjugate(self, g, x):
        return self.mul(self.mul(self.inv(g), x), g)


S3_PERM = FiniteGroupDesc.from_generators(3, [(1, 0, 2), (1, 2, 0)], ("s", "r"))
C2_PERM = FiniteGroupDesc.from_generators(2, [(1, 0)], ("c",))
FREE_UV = FreeDesc(2, ("u", "v"))
NEG2 = IntMatrix.from_rows([[-1, 0], [0, -1]])


def closed_form_specs():
    """Every kernel kind against every quotient kind."""
    perm3 = [IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
             IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])]
    return {
        # abelian kernel with torsion, Z + Z/2 quotient
        "torsion_kernel_z_c2": make_extension(
            FgAbelianDesc(2, (2, 4)), FgAbelianDesc(1, (2,), ("t", "s")), [HYPER, NEG2]),
        "abelian_s3": make_extension(FgAbelianDesc(3), S3_PERM, perm3),
        "abelian_free": make_extension(
            FgAbelianDesc(2, (3,)), FREE_UV,
            [IntMatrix.from_rows([[0, -1], [1, 0]]), IntMatrix.from_rows([[0, -1], [1, 1]])]),
        "abelian_product": make_extension(
            FgAbelianDesc(2), make_product([FREE_UV, C2_PERM]),
            [HYPER, IntMatrix.from_rows([[1, 1], [1, 2]]), NEG2]),
        "free_free": make_extension(
            FreeDesc(2, ("a", "b")), FREE_UV,
            [FreeAut(2, ((2,), (1,))), FreeAut(2, ((1, 2), (2,)))]),
        "free_s3": make_extension(
            FreeDesc(3, ("f", "h", "c")), S3_PERM,
            [FreeAut(3, ((2,), (1,), (3,))), FreeAut(3, ((3,), (1,), (2,)))]),
        "free_z2_torsion": make_extension(
            FreeDesc(2, ("g", "h")), FgAbelianDesc(2, (2,), ("p", "u", "q")),
            [FreeAut(2, ((1, 2), (2,))), FreeAut(2, ((2, 1, 2), (2,))), FreeAut.identity(2)]),
        "finite_free": make_extension(FiniteGroupDesc.from_generators(3, [(1, 0, 2), (1, 2, 0)]),
                                      FREE_UV),
        "finite_product": make_extension(
            FiniteGroupDesc.from_generators(3, [(1, 2, 0)]),
            make_product([Z, S3_PERM, FgAbelianDesc(0, (2,), ("w",))])),
    }


def random_element(group, gens, rng):
    x = rng.choice(gens)
    for _ in range(rng.randint(0, 2)):
        x = group.mul(x, rng.choice(gens))
    return x


def distinct_parts(group, rng, count=3):
    """Pools of distinct parts from seeded products of ball generators and
    inverses: up to ``count`` nontrivial kernel parts k, quotient parts p
    and nontrivial quotient parts q, and up to ``2 * count`` kernel parts
    a, each pool drawn on its own."""
    gens = list(group.ball_generators())
    gens += [group.inv(e) for e in gens]
    elements = [random_element(group, gens, rng) for _ in range(200)]
    kernel_parts = sorted({k for k, _ in elements} | {group.kernel_part.identity})
    quotient_parts = sorted({q for _, q in elements} | {group.quotient_part.identity})

    def pick(pool, n, drop=None):
        pool = [x for x in pool if x != drop]
        return rng.sample(pool, min(n, len(pool)))

    return (pick(kernel_parts, count, group.kernel_part.identity),
            pick(quotient_parts, count),
            pick(quotient_parts, count, group.quotient_part.identity),
            pick(kernel_parts, 2 * count))


class TestClosedFormConjugate:
    """``conjugate`` against inv(g) * x * g, and the balls it grows."""

    @pytest.mark.parametrize("name", sorted(closed_form_specs()))
    def test_agrees_with_product_formula(self, name):
        spec = closed_form_specs()[name]
        g, ref = materialize(spec), ReferenceGroup(spec)
        gens = list(g.ball_generators())
        gens += [g.inv(e) for e in gens]
        rng = random.Random(name)
        for _ in range(300):
            c, x = random_element(g, gens, rng), random_element(g, gens, rng)
            assert g.conjugate(c, x) == ref.conjugate(c, x)
        for c in gens + [g.identity]:
            for x in gens + [g.identity]:
                assert g.conjugate(c, x) == ref.conjugate(c, x)

    @pytest.mark.parametrize("name", sorted(closed_form_specs()))
    def test_warm_memo_agrees_with_product_formula(self, name):
        """One group and its memos across many calls in seeded random
        order: each (k, p) with several a, each q with several p, and g
        with both parts nontrivial."""
        spec = closed_form_specs()[name]
        g, ref = materialize(spec), ReferenceGroup(spec)
        rng = random.Random("warm-" + name)
        ks, ps, qs, kernel_parts = distinct_parts(g, rng)
        calls = [((k, q), (a, p)) for k in ks + [g.kernel_part.identity]
                 for q in qs + [g.quotient_part.identity] for p in ps for a in kernel_parts]
        assert min(len(ks), len(ps), len(qs)) >= 2 and len(kernel_parts) >= 3
        rng.shuffle(calls)
        for c, x in calls + calls[::-1]:
            assert g.conjugate(c, x) == ref.conjugate(c, x), (c, x)

    @pytest.mark.parametrize("name", sorted(closed_form_specs()))
    def test_conjugation_step_is_the_kernel_half(self, name):
        g = materialize(closed_form_specs()[name])
        kernel = g.kernel_part
        rng = random.Random("step-" + name)
        ks, ps, qs, kernel_parts = distinct_parts(g, rng)
        for k, p in itertools.product(ks, ps + qs):
            moved = g.act(p, k)
            step = kernel.conjugation_step(k, moved)
            for a in kernel_parts:
                assert step(a) == kernel.mul(kernel.mul(kernel.inv(k), a), moved)
        if isinstance(kernel, _AbelianPart) and kernel.divisors:
            assert any(any(k[kernel.rank:]) for k in ks)  # torsion coordinates exercised

    def test_balls_agree_with_product_formula(self):
        closed = capped = 0
        for name, spec in sorted(closed_form_specs().items()):
            g, ref = materialize(spec), ReferenceGroup(spec)
            for x in g.sample_nontrivial(6):
                for radius, cap in ((3, 5000), (4, 50)):
                    curve = conjugacy_ball(g, x, radius, cap)
                    assert curve == conjugacy_ball(ref, x, radius, cap), name
                    closed += curve.is_closed
                    capped += curve.cap_hit
        assert closed and capped


class AppliedThetaGroup(ConcreteGroup):
    """A group that applies theta even when every action is the identity."""

    def __init__(self, spec):
        super().__init__(spec)
        self._theta = spec.theta


class TestTrivialTheta:
    """A theta whose every action is the identity is stored as none, and
    the group it gives is the one that applies those identities."""

    SPECS = {
        "omitted_abelian_s3": lambda: make_extension(FgAbelianDesc(3, (2,)), S3_PERM),
        "omitted_abelian_free": lambda: make_extension(FgAbelianDesc(2), FREE_UV),
        "given_identity_product": lambda: make_extension(
            FgAbelianDesc(2), make_product([Z, C2_PERM]), [IntMatrix.identity(2)] * 2),
        "given_identity_free_kernel": lambda: make_extension(
            FreeDesc(2, ("a", "b")), FREE_UV, [FreeAut.identity(2)] * 2),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_same_group_without_applying(self, name):
        spec = self.SPECS[name]()
        g, applied = materialize(spec), AppliedThetaGroup(spec)
        gens = list(g.ball_generators())
        gens += [g.inv(e) for e in gens]
        rng = random.Random("trivial-" + name)
        for _ in range(200):
            c, x = random_element(g, gens, rng), random_element(g, gens, rng)
            assert g.theta(x[1]) is None
            assert g.mul(c, x) == applied.mul(c, x)
            assert g.inv(x) == applied.inv(x)
            assert g.conjugate(c, x) == applied.conjugate(c, x)
        for x in g.sample_nontrivial(6):
            assert conjugacy_ball(g, x, 3) == conjugacy_ball(applied, x, 3)


class TestClosureOnly:
    """``closure_only`` balls against full ones, and what they save."""

    # caps hit by rounds R - 2, R - 1 and R of the full walk, and balls
    # closing at R - 1 with more elements than the cap
    CASES = ((1, 5000), (2, 2), (2, 5000), (3, 5), (3, 5000), (4, 12), (4, 50), (4, 5000),
             (5, 40), (5, 5000))

    def test_agrees_with_full_ball_on_closure(self):
        kinds = collections.Counter()
        for name, spec in sorted(closed_form_specs().items()):
            g = materialize(spec)
            for x in g.sample_nontrivial(6):
                for radius, cap in self.CASES:
                    full = conjugacy_ball(g, x, radius, cap)
                    fast = conjugacy_ball(g, x, radius, cap, closure_only=True)
                    assert (fast.is_closed, fast.closed_at) == (full.is_closed, full.closed_at), name
                    # exact through round R - 2, lower bounds after
                    assert fast.sizes[:radius - 1] == full.sizes[:radius - 1], name
                    assert all(a <= b for a, b in zip(fast.sizes, full.sizes)), name
                    # cap_hit as in the full walk for rounds <= R - 2, and
                    # from round R - 1 only once it ran to its end
                    capped_by = len(full.sizes) - 1 if full.cap_hit else None
                    if fast.cap_hit or full.is_closed or (full.cap_hit and capped_by <= radius - 2):
                        assert fast == full, name
                    else:
                        assert len(fast.sizes) == radius + 1, name
                    if full.cap_hit:
                        kinds[f"capped by R - {radius - capped_by}"] += 1
                        kinds["closed at R - 1 but for the cap"] += fast.cap_hit and capped_by == radius - 1
                    else:
                        kinds["closed" if full.is_closed else "growing"] += 1
        assert all(kinds[kind] for kind in ("closed", "growing", "capped by R - 2", "capped by R - 1",
                                            "capped by R - 0", "closed at R - 1 but for the cap"))

    def test_closing_at_last_inner_round_costs_a_bounded_multiple(self, monkeypatch):
        """A ball closing at exactly round R - 1 runs the distance check on
        every conjugate of round R - 1: at most 1 + |conjugators| times the
        full walk's conjugations."""
        calls = count_calls(monkeypatch, ConcreteGroup, "conjugate")
        checked = 0
        for name, spec in sorted(closed_form_specs().items()):
            g = materialize(spec)
            conjugators = 2 * len(g.ball_generators())
            for x in g.sample_nontrivial(6):
                for radius in (2, 3, 4, 5):
                    calls.clear()
                    full = conjugacy_ball(g, x, radius)
                    spent = len(calls)
                    calls.clear()
                    fast = conjugacy_ball(g, x, radius, closure_only=True)
                    if full.closed_at == radius - 1:
                        assert fast == full
                        assert len(calls) <= (1 + conjugators) * spent, (name, radius)
                        checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("name,growth,most", [
        ("sol", True, 514), ("swap", True, 554), ("sol", False, 506), ("swap", False, 370)])
    def test_crosscheck_conjugation_budget(self, name, growth, most, monkeypatch):
        """Closure-only balls stop in round R - 1, and a sample whose
        inverse came earlier is not walked: at radius 4 a full walk of
        every sample makes 2970 conjugations on ``sol.ext`` and 4710 on
        ``swap.ext``; stopping only round R early made 1377 and 1729, and
        walking all 20 closure-only balls 756 and 854 (748 and 670
        without growth)."""
        spec = parse_extension((EXTENSIONS / f"{name}.ext").read_text())
        report = analyze(spec)
        calls = count_calls(monkeypatch, ConcreteGroup, "conjugate")
        summary, curve = crosscheck(spec, report, radius=4, growth=growth)
        assert len(calls) <= most
        assert summary["consistent"] and summary["samples_checked"] == 20
        if not growth:
            assert curve is None
            return
        group = materialize(spec)
        assert curve == conjugacy_ball(group, group.sample_nontrivial(1)[0], 4)

    @pytest.mark.parametrize("name", ["sol", "swap", "klein", "f2xz"])
    def test_growth_changes_only_the_curve(self, name):
        spec = parse_extension((EXTENSIONS / f"{name}.ext").read_text())
        report = analyze(spec)
        summary, curve = crosscheck(spec, report, radius=4)
        lean, lean_curve = crosscheck(spec, report, radius=4, growth=False)
        assert lean == summary
        # witness balls are full walks either way; sample curves only on request
        assert lean_curve == (curve if summary["mode"] == "witness" else None)


class TestInverseSamples:
    """(x^-1)^g = (x^g)^-1, so the ball of x^-1 is the inverse of the ball
    of x, round by round, and ``crosscheck`` reuses the curve of a sample
    whose inverse came earlier (``CATALOG_AXIOMS.md`` §10)."""

    def test_inverse_has_the_same_curve(self):
        kinds = collections.Counter()
        for name, spec in sorted(closed_form_specs().items()):
            g = materialize(spec)
            for x in g.sample_nontrivial(12):
                for radius, cap in TestClosureOnly.CASES:
                    for closure_only in (False, True):
                        curve = conjugacy_ball(g, x, radius, cap, closure_only=closure_only)
                        inverse = conjugacy_ball(g, g.inv(x), radius, cap, closure_only=closure_only)
                        assert inverse == curve, (name, x, radius, cap, closure_only)
                        kinds["capped" if curve.cap_hit else "closed" if curve.is_closed else "growing"] += 1
        assert all(kinds[kind] for kind in ("capped", "closed", "growing"))

    @staticmethod
    def reference(spec, report, radius, cap, growth):
        """``crosscheck``'s sample mode with every sample walked."""
        group = materialize(spec)
        elements = group.sample_nontrivial(20)
        curves = [conjugacy_ball(group, e, radius, cap, closure_only=i > 0 or not growth)
                  for i, e in enumerate(elements)]
        closed = sum(c.is_closed for c in curves)
        summary = {"radius": radius, "cap": cap, "mode": "samples", "witness_check": None,
                   "samples_checked": len(elements), "finite_classes_found": closed,
                   "consistent": closed == 0 if report.verdict == "icc" else True}
        return summary, curves[0] if growth else None

    # the shipped examples but bad.ext, whose action fails validation
    SHIPPED = ("f2xz.ext", "klein.ext", "sol.ext", "swap.ext")

    @pytest.mark.parametrize("name", sorted(closed_form_specs()) + list(SHIPPED))
    def test_crosscheck_equals_walking_every_sample(self, name, monkeypatch):
        """Sample mode on every group, whatever its verdict: the summary
        and curve are those of walking all samples, for fewer conjugations."""
        if name in self.SHIPPED:
            spec = parse_extension((EXTENSIONS / name).read_text())
        else:
            spec = closed_form_specs()[name]
        walked = count_calls(monkeypatch, ConcreteGroup, "conjugate")
        saved = 0
        for verdict in ("icc", "unknown"):
            report = dataclasses.replace(analyze(spec), verdict=verdict)
            for radius, cap in ((4, 5000), (3, 50)):
                for growth in (True, False):
                    expected = self.reference(spec, report, radius, cap, growth)
                    walked.clear()
                    got = crosscheck(spec, report, radius, cap, growth=growth)
                    spent = len(walked)
                    assert got == expected, (verdict, radius, cap, growth)
                    walked.clear()
                    self.reference(spec, report, radius, cap, growth)
                    assert spent <= len(walked)
                    saved += spent < len(walked)
        assert saved


class TestConjugacyBall:
    def test_central_element_closes_immediately(self):
        g = materialize(f2xz_spec())
        curve = conjugacy_ball(g, g.lift((1,)), 3)
        assert curve.is_closed
        assert curve.closed_at == 0
        assert curve.final_size == 1

    def test_klein_kernel_generator(self):
        g = materialize(klein_spec())
        curve = conjugacy_ball(g, g.kernel_element((1,)), 4)
        assert curve.closed_at == 1
        assert curve.final_size == 2

    def test_sol_vector_keeps_growing(self):
        g = materialize(sol_spec())
        curve = conjugacy_ball(g, g.kernel_element((1, 0)), 8)
        assert not curve.is_closed
        assert all(a < b for a, b in zip(curve.sizes, curve.sizes[1:]))

    def test_cap_marks_curve(self):
        g = materialize(sol_spec())
        curve = conjugacy_ball(g, g.kernel_element((1, 0)), 30, cap=50)
        assert curve.cap_hit and not curve.is_closed

    def test_closed_set_is_genuinely_closed(self):
        g = materialize(klein_spec())
        curve = conjugacy_ball(g, g.kernel_element((1,)), 6)
        # one extra round over the final set adds nothing
        elems = {g.kernel_element((1,)), g.kernel_element((-1,))}
        conjugators = list(g.ball_generators())
        conjugators += [g.inv(e) for e in conjugators]
        extra = {g.conjugate(c, x) for x in elems for c in conjugators}
        assert extra <= elems
        assert curve.final_size == len(elems)

    def test_csv_rows(self):
        g = materialize(klein_spec())
        curve = conjugacy_ball(g, g.kernel_element((1,)), 4)
        rows = curve.csv_rows()
        assert rows[0] == "radius,size,status"
        assert rows[1] == "0,1,growing"
        assert rows[2] == "1,2,closed"

    def test_radius_validation(self):
        g = materialize(klein_spec())
        with pytest.raises(ValueError):
            conjugacy_ball(g, g.identity, 0)


class TestExactAbelianClass:
    def test_zero_is_singleton(self):
        g = materialize(sol_spec())
        assert exact_abelian_class(g, (0, 0)) == FiniteOrbit(frozenset({(0, 0)}))

    def test_klein_class(self):
        g = materialize(klein_spec())
        assert exact_abelian_class(g, (1,)) == FiniteOrbit(frozenset({(1,), (-1,)}))

    def test_sol_class_exceeds(self):
        g = materialize(sol_spec())
        assert exact_abelian_class(g, (1, 0)) == OrbitCapExceeded(10_000)

    def test_contained_in_ball_with_equality_on_closure(self):
        g = materialize(klein_spec())
        exact = exact_abelian_class(g, (1,))
        curve = conjugacy_ball(g, g.kernel_element((1,)), 5)
        assert curve.is_closed
        assert curve.final_size == exact.size
        # the ball never overshoots the exact class at any radius
        assert all(s <= exact.size for s in curve.sizes)

    def test_torsion_part_is_fixed(self):
        spec = make_extension(FgAbelianDesc(1, (2,)), Z, [IntMatrix.from_rows([[-1]])])
        g = materialize(spec)
        cls = exact_abelian_class(g, (1, 1))
        assert cls == FiniteOrbit(frozenset({(1, 1), (-1, 1)}))

    @pytest.mark.parametrize("kernel,quotient,k", [
        (FgAbelianDesc(0, (2,)), Z, (1,)),  # a torsion kernel vector
        (FgAbelianDesc(2, (3,)), FgAbelianDesc(0), (1, -2, 1)),  # a trivial quotient
    ])
    def test_singleton_without_free_rank_or_generators(self, kernel, quotient, k):
        g = materialize(make_extension(kernel, quotient))
        assert exact_abelian_class(g, k) == FiniteOrbit(frozenset({k}))

    def test_requires_abelian_kernel(self):
        g = materialize(f2xz_spec())
        with pytest.raises(ValueError):
            exact_abelian_class(g, (1,))


class TestCrosscheck:
    def test_sol_icc_consistent(self):
        spec = sol_spec()
        report = analyze(spec)
        summary, curve = crosscheck(spec, report, radius=6, cap=5000)
        assert summary["consistent"]
        assert summary["mode"] == "samples"
        assert summary["finite_classes_found"] == 0

    def test_klein_witness_consistent(self):
        spec = klein_spec()
        report = analyze(spec)
        summary, curve = crosscheck(spec, report, radius=4)
        assert summary["consistent"]
        assert summary["witness_check"]["kind"] == "witness-exact-class"
        assert summary["witness_check"]["size"] == 2
        assert curve.closed_at == 1

    def test_f2xz_witness_central(self):
        spec = f2xz_spec()
        report = analyze(spec)
        summary, curve = crosscheck(spec, report, radius=4)
        assert summary["consistent"]
        assert summary["witness_check"]["size"] == 1

    def test_swap_icc_consistent(self):
        spec = swap_spec()
        report = analyze(spec)
        summary, _ = crosscheck(spec, report, radius=4, cap=2000)
        assert summary["consistent"]
        assert summary["finite_classes_found"] == 0

    def test_finite_kernel_witness(self):
        k = FiniteGroupDesc.from_generators(3, [(1, 2, 0)])
        spec = make_extension(k, Z)
        report = analyze(spec)
        summary, curve = crosscheck(spec, report, radius=4)
        assert summary["consistent"]
        assert curve.final_size <= 3

    def test_torsion_witness(self):
        spec = make_extension(FgAbelianDesc(2, (2,)), Z, [HYPER])
        report = analyze(spec)
        summary, _ = crosscheck(spec, report, radius=4)
        assert summary["consistent"]

    # D_4 acting on Z^2: the witness's orbit of 8 vectors is reached in 3
    # rounds, and certifying closure takes a fourth.
    D4_SPEC = (
        "kernel: Z^2\n"
        "quotient: finite perm((1 2 3 4); (1 3))\n"
        "action q -> [[2,-1],[5,-2]]\n"
        "action t -> [[-1,0],[-4,1]]\n"
    )

    def test_exact_class_reached_before_closure_is_consistent(self):
        spec = parse_extension(self.D4_SPEC)
        report = analyze(spec)
        summary, curve = crosscheck(spec, report, radius=3)
        assert summary["witness_check"] == {
            "kind": "witness-exact-class", "closed_at": None, "size": 8, "exact_size": 8}
        assert not curve.is_closed
        assert summary["consistent"]

    def test_witness_orbit_unlike_exact_class_is_inconsistent(self):
        spec = parse_extension(self.D4_SPEC)
        report = analyze(spec)
        witness = report.witness
        assert len(witness.orbit) == 8
        # same size, one vector (twice a primitive one) outside the class
        wrong = (tuple(2 * x for x in witness.orbit[0]),) + witness.orbit[1:]
        assert len(set(wrong)) == 8 and set(wrong) != set(witness.orbit)
        for orbit in (witness.orbit[1:], wrong):
            bad = dataclasses.replace(report, witness=dataclasses.replace(witness, orbit=orbit))
            for radius in (3, 4):
                summary, _ = crosscheck(spec, bad, radius=radius)
                assert summary["witness_check"]["exact_size"] == 8
                assert not summary["consistent"], (orbit, radius)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_rejected(self, cap):
        spec = sol_spec()
        with pytest.raises(ValueError):
            crosscheck(spec, analyze(spec), radius=3, cap=cap)

    def test_sample_pool_is_deterministic_and_big_enough(self):
        g = materialize(sol_spec())
        s1 = g.sample_nontrivial(20)
        s2 = materialize(sol_spec()).sample_nontrivial(20)
        assert s1 == s2
        assert len(s1) == 20
