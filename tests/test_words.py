import random

import pytest
from hypothesis import given, strategies as st

import icckit.words as words_module
from icckit.intlinalg import IntMatrix
from icckit.words import (
    FreeAut,
    _is_free_basis,
    cyclically_reduce,
    free_basis_inverse,
    free_reduce,
    is_inner,
    word_inverse,
    word_mul,
)
from tests.helpers import conjugation, count_calls


def letters(rank):
    return st.integers(-rank, rank).filter(bool)


def words(rank, max_size=12):
    return st.lists(letters(rank), max_size=max_size).map(tuple)


def stack_reduce_reference(seq):
    """Independent reducer used as the oracle for free_reduce()."""
    out = []
    for x in seq:
        if out and out[-1] + x == 0:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


class TestNormalize:
    def test_cancel_pair(self):
        assert free_reduce((1, -1)) == ()

    def test_conjugate_of_generator(self):
        assert cyclically_reduce((-2, 1, 2)) == ((1,), (-2,))

    def test_partial_cancellation(self):
        # a b a^-1 a b -> a b b
        assert free_reduce((1, 2, -1, 1, 2)) == (1, 2, 2)
        assert free_reduce((1, 2, -1, 1, 2)) == stack_reduce_reference((1, 2, -1, 1, 2))

    @given(words(4, 20))
    def test_idempotent_and_shorter(self, w):
        r = free_reduce(w)
        assert free_reduce(r) == r
        assert len(r) <= len(w)
        assert r == stack_reduce_reference(w)

    @given(words(4))
    def test_inverse_cancels(self, w):
        assert word_mul(w, word_inverse(w)) == ()

    @given(words(3), words(3), words(3))
    def test_mul_associative(self, a, b, c):
        assert word_mul(word_mul(a, b), c) == word_mul(a, word_mul(b, c))

    @given(words(3))
    def test_cyclic_reduction(self, w):
        core, prefix = cyclically_reduce(w)
        assert word_mul(prefix, core, word_inverse(prefix)) == free_reduce(w)
        assert cyclically_reduce(core) == (core, ())


class TestCyclicNormalize:
    """The least rotation of the cyclically reduced core is a conjugacy
    invariant: conjugating moves the core only by a rotation."""

    @given(words(3), letters(3))
    def test_conjugation_invariant(self, w, x):
        conj = word_mul((-x,), w, (x,))
        assert rotation_cyclic_normalize(conj) == rotation_cyclic_normalize(w)

    @given(words(3))
    def test_idempotent(self, w):
        c = rotation_cyclic_normalize(w)
        assert rotation_cyclic_normalize(c) == c


def rotation_cyclic_normalize(w):
    """The quadratic reference: every rotation of the core, then the least."""
    core = cyclically_reduce(w)[0]
    return min((core[r:] + core[:r] for r in range(len(core))), default=())


def rotation_conjugacy_test(u, v):
    """A word w with w^-1 u w = v, or None when u and v are not conjugate:
    the conjugator from the smallest index of a least rotation, found by
    trying every rotation."""
    def prefix(core):
        best = min(range(len(core)), key=lambda r: core[r:] + core[:r]) if core else 0
        return core[:best]

    u, v = free_reduce(u), free_reduce(v)
    (cu, su), (cv, sv) = cyclically_reduce(u), cyclically_reduce(v)
    if rotation_cyclic_normalize(u) != rotation_cyclic_normalize(v):
        return None
    return word_mul(word_mul(su, prefix(cu)), word_inverse(word_mul(sv, prefix(cv))))


def random_basis_aut(rank, steps, rng):
    """A random automorphism as a product of elementary Nielsen moves."""
    aut = FreeAut.identity(rank)
    for _ in range(steps):
        imgs = list(FreeAut.identity(rank).images)
        kind = rng.randrange(3)
        if kind == 0 and rank >= 2:
            i, j = rng.sample(range(rank), 2)
            imgs[i], imgs[j] = imgs[j], imgs[i]
        elif kind == 1:
            i = rng.randrange(rank)
            imgs[i] = word_inverse(imgs[i])
        elif rank >= 2:
            i, j = rng.sample(range(rank), 2)
            other = imgs[j] if rng.random() < 0.5 else word_inverse(imgs[j])
            imgs[i] = word_mul(imgs[i], other)
        aut = aut.compose(FreeAut(rank, tuple(imgs)))
    return aut


class TestNielsenReduce:
    def test_standard_basis(self):
        assert free_basis_inverse(((1,), (2,)), 2) == ((1,), (2,))

    def test_one_move(self):
        # a -> ab, b -> b is inverted by a -> ab^-1, b -> b
        assert free_basis_inverse(((1, 2), (2,)), 2) == ((1, -2), (2,))

    def test_square_not_basis(self):
        assert free_basis_inverse(((1, 1), (2,)), 2) is None

    def test_square_subgroup_misses_generator(self):
        # brute-force: no product of <= 6 factors from {a^2, b}^+- equals a
        gens = [(1, 1), (2,), (-1, -1), (-2,)]
        frontier = {()}
        seen = {()}
        for _ in range(6):
            frontier = {
                word_mul(w, g) for w in frontier for g in gens
            } - seen
            seen |= frontier
        assert (1,) not in seen

    def test_random_bases_certified(self):
        rng = random.Random(21)
        for _ in range(50):
            rank = rng.choice([2, 2, 3])
            aut = random_basis_aut(rank, rng.randint(1, 10), rng)
            assert free_basis_inverse(aut.images, rank) is not None

    def test_subgroup_preserved_on_small_case(self):
        # <ab, b> = <a, b>: both generate all reduced words of length <= 4
        def closure(gens, depth):
            frontier = {()}
            seen = {()}
            step = list(gens) + [word_inverse(g) for g in gens]
            for _ in range(depth):
                frontier = {word_mul(w, g) for w in frontier for g in step} - seen
                seen |= frontier
            return seen

        before = closure([(1, 2), (2,)], 5)
        after = closure([(1,), (2,)], 5)
        short = {w for w in after if len(w) <= 2}
        assert short <= before


class TestFreeAut:
    def test_identity_apply(self):
        assert FreeAut.identity(2).apply((1, 2, -1)) == (1, 2, -1)

    def test_invalid_images_rejected(self):
        with pytest.raises(ValueError):
            FreeAut(2, ((1, 1), (2,)))

    def test_compose_order(self):
        swap = FreeAut(2, ((2,), (1,)))
        shift = FreeAut(2, ((1, 2), (2,)))  # a -> ab
        both = swap.compose(shift)
        assert both.images[0] == swap.apply(shift.images[0])

    def test_abelianization(self):
        aut = FreeAut(2, ((1, 2), (2,)))
        assert aut.abelianization() == IntMatrix.from_rows([[1, 0], [1, 1]])

    def test_inverse_random(self):
        rng = random.Random(23)
        for _ in range(40):
            rank = rng.choice([2, 3])
            aut = random_basis_aut(rank, rng.randint(1, 8), rng)
            inv = aut.inverse()
            assert aut.compose(inv).is_identity
            assert inv.compose(aut).is_identity

    def test_power_negative(self):
        shift = FreeAut(2, ((1, 2), (2,)))
        assert shift.power(3).compose(shift.power(-3)).is_identity


class TestIsInner:
    def test_constructed_inner(self):
        phi = conjugation(2, (1, 2))  # by ab
        w = is_inner(phi)
        assert w is not None
        for i in (1, 2):
            assert word_mul(w, (i,), word_inverse(w)) == phi.images[i - 1]

    def test_swap_rejected_by_abelianization(self):
        assert is_inner(FreeAut(2, ((2,), (1,)))) is None

    def test_subtle_case_is_inner_by_a(self):
        # a -> a, b -> a b a^-1: solving the first equation leaves w = a^t,
        # and t = 1 satisfies the second.
        phi = FreeAut(2, ((1,), (1, 2, -1)))
        assert is_inner(phi) == (1,)

    def test_rank_one(self):
        assert is_inner(FreeAut(1, ((1,),))) == ()
        assert is_inner(FreeAut(1, ((-1,),))) is None

    def test_random_inner_recovered(self):
        rng = random.Random(24)
        for _ in range(50):
            rank = rng.choice([2, 3])
            w = free_reduce(
                tuple(rng.choice([x for x in range(-rank, rank + 1) if x])
                      for _ in range(rng.randint(0, 6)))
            )
            phi = conjugation(rank, w)
            got = is_inner(phi)
            assert got is not None
            for i in range(1, rank + 1):
                assert word_mul(got, (i,), word_inverse(got)) == phi.images[i - 1]

    def test_non_inner_rejected(self):
        rng = random.Random(25)
        rejected = 0
        trials = 0
        while rejected < 20 and trials < 400:
            trials += 1
            rank = rng.choice([2, 3])
            aut = random_basis_aut(rank, rng.randint(1, 8), rng)
            if not aut.abelianization().is_identity:
                assert is_inner(aut) is None
                rejected += 1
        assert rejected == 20

    def test_inner_closed_under_composition(self):
        rng = random.Random(26)
        for _ in range(20):
            w1 = free_reduce(tuple(rng.choice([-2, -1, 1, 2]) for _ in range(4)))
            w2 = free_reduce(tuple(rng.choice([-2, -1, 1, 2]) for _ in range(4)))
            phi = conjugation(2, w1).compose(conjugation(2, w2))
            assert is_inner(phi) is not None


# Test-only copies of the earlier implementations, kept as references.


def greedy_nielsen_is_basis(words, rank):
    """Greedy length-reducing Nielsen reduction, the basis test used before
    Stallings folding.  Sound when it accepts, but it stalls on some
    genuine bases, where only a length-preserving move would help."""
    cur = [free_reduce(w) for w in words]
    improved = True
    while improved:
        improved = False
        for i in range(len(cur)):
            for j in range(len(cur)):
                if i == j or improved:
                    continue
                for side in ("right", "left"):
                    for other in (cur[j], word_inverse(cur[j])):
                        cand = word_mul(cur[i], other) if side == "right" else word_mul(other, cur[i])
                        if not improved and len(cand) < len(cur[i]):
                            cur[i] = cand
                            improved = True
    return (
        len(cur) == rank
        and all(len(w) == 1 for w in cur)
        and sorted(abs(w[0]) for w in cur) == list(range(1, rank + 1))
    )


def loop_word_power(w, n):
    """w^n by n successive products."""
    if n < 0:
        return loop_word_power(word_inverse(w), -n)
    out = ()
    for _ in range(n):
        out = word_mul(out, w)
    return out


def left_fold_apply(phi, w):
    """phi(w), multiplying in one image piece at a time."""
    out = ()
    for a in w:
        piece = phi.images[a - 1] if a > 0 else word_inverse(phi.images[-a - 1])
        out = word_mul(out, piece)
    return out


def scan_is_inner(phi):
    """The conjugator of an inner phi by a scan of t in w0 x1^t over
    [-bound, bound], the bound growing with |phi(x2)| and |w0|."""
    k = phi.rank
    if k == 1:
        return () if phi.is_identity else None
    if not phi.abelianization().is_identity:
        return None
    c = rotation_conjugacy_test((1,), phi.images[0])
    if c is None:
        return None
    w0 = word_inverse(c)
    bound = len(phi.images[1]) + len(w0) + 2
    for t in range(-bound, bound + 1):
        w = word_mul(w0, loop_word_power((1,), t))
        if all(word_mul(w, (i,), word_inverse(w)) == phi.images[i - 1] for i in range(2, k + 1)):
            return w
    return None


def nielsen_product_images(rank, moves, rng):
    """Images of a product of elementary Nielsen moves (x_i -> x_i x_j^+-1
    or x_j^+-1 x_i) followed by a signed permutation of the generators."""
    imgs = [(i,) for i in range(1, rank + 1)]
    for _ in range(moves):
        i, j = rng.sample(range(rank), 2)
        other = imgs[j] if rng.random() < 0.5 else word_inverse(imgs[j])
        imgs[i] = word_mul(imgs[i], other) if rng.random() < 0.5 else word_mul(other, imgs[i])
    perm = rng.sample(range(rank), rank)
    return tuple(imgs[p] if rng.random() < 0.5 else word_inverse(imgs[p]) for p in perm)


def random_reduced_word(rank, max_len, rng):
    pool = [x for x in range(-rank, rank + 1) if x]
    return free_reduce(tuple(rng.choice(pool) for _ in range(rng.randint(0, max_len))))


def signed_permutation(rank, rng):
    perm = rng.sample(range(1, rank + 1), rank)
    return FreeAut(rank, tuple((p if rng.random() < 0.5 else -p,) for p in perm))


def is_two_sided_inverse(images, inverse_images, rank):
    phi = FreeAut(rank, images)
    psi = FreeAut(rank, inverse_images)
    return phi.compose(psi).is_identity and psi.compose(phi).is_identity


class TestFreeBasisFold:
    """CATALOG_AXIOMS.md 8: a tuple is a free basis iff its folded wedge
    of loops is the rose, and the rose's loop labels give the inverse.
    The label-free fold that validates ``FreeAut`` agrees with the
    labelled one on every tuple."""

    def test_genuine_automorphisms_accepted_with_inverse(self):
        rng = random.Random(3)
        greedy_rejected = 0
        for rank in (2, 3, 4):
            for moves in (4, 8, 12, 20):
                for _ in range(100):
                    images = nielsen_product_images(rank, moves, rng)
                    inverse = free_basis_inverse(images, rank)
                    assert inverse is not None, images
                    assert _is_free_basis(images, rank)
                    assert is_two_sided_inverse(images, inverse, rank)
                    assert FreeAut(rank, images).inverse().images == inverse
                    greedy_rejected += not greedy_nielsen_is_basis(images, rank)
        assert greedy_rejected > 0

    def test_non_bases_rejected(self):
        for images in (((1, 1), (2,)), ((1, 2, -1, -2), (2,)), ((), (2,)), ((1,), ()), ((1, 2), (), (3,))):
            rank = len(images)
            assert free_basis_inverse(images, rank) is None
            assert not _is_free_basis(images, rank)
            with pytest.raises(ValueError, match="not an automorphism"):
                FreeAut(rank, images)

    def test_automorphism_greedy_reduction_stalls_on(self):
        # a -> a c^-1, b -> b a b, c -> c b: four elementary moves.
        images = ((1, -3), (2, 1, 2), (3, 2))
        assert not greedy_nielsen_is_basis(images, 3)
        inverse = free_basis_inverse(images, 3)
        assert inverse is not None and is_two_sided_inverse(images, inverse, 3)
        assert _is_free_basis(images, 3)

    def test_random_short_tuples(self):
        rng = random.Random(4)
        accepted = 0
        for _ in range(3000):
            rank = rng.choice((2, 2, 3))
            images = tuple(random_reduced_word(rank, 3, rng) for _ in range(rank))
            inverse = free_basis_inverse(images, rank)
            assert _is_free_basis(images, rank) == (inverse is not None), images
            if inverse is not None:
                accepted += 1
                assert is_two_sided_inverse(images, inverse, rank)
            if greedy_nielsen_is_basis(images, rank):
                assert inverse is not None, images
        assert accepted > 100

    def test_letters_outside_rank_rejected(self):
        for images in (((1,), (3,)), ((1,),), ((1, 3, -1), (2,))):
            assert free_basis_inverse(images, 2) is None
            assert not _is_free_basis(images, 2)

    def test_rank_five_agrees_with_labelled_fold(self):
        rng = random.Random(5)
        accepted = 0
        for _ in range(300):
            images = nielsen_product_images(5, rng.randint(1, 16), rng)
            assert _is_free_basis(images, 5) and free_basis_inverse(images, 5) is not None
            # One image replaced by a short random word: a basis or not.
            images = images[:4] + (random_reduced_word(5, 3, rng),)
            inverse = free_basis_inverse(images, 5)
            assert _is_free_basis(images, 5) == (inverse is not None), images
            accepted += inverse is not None
        assert 0 < accepted < 300, accepted


def substitution_compose(phi, psi):
    """phi after psi, substituting phi's image for each letter of psi's
    images through apply and multiplying them out with word_mul."""
    return FreeAut._trusted(phi.rank, tuple(word_mul(*(phi.apply((a,)) for a in im)) for im in psi.images))


def repeated_power(phi, n):
    """phi^n as |n| compositions onto the identity, by substitution."""
    step = phi if n >= 0 else FreeAut(phi.rank, free_basis_inverse(phi.images, phi.rank))
    out = FreeAut.identity(phi.rank)
    for _ in range(abs(n)):
        out = substitution_compose(step, out)
    return out


class TestComposeAndPower:
    """The one-pass compose and the power that starts from phi agree with
    substitution through apply, on seeded automorphisms of ranks 2 to 5."""

    def automorphisms(self, rng):
        for rank in (2, 3, 4, 5):
            for _ in range(15):
                yield FreeAut(rank, nielsen_product_images(rank, rng.randint(1, 4), rng))
                yield conjugation(rank, random_reduced_word(rank, 6, rng))

    def test_compose_matches_substitution(self):
        rng = random.Random(41)
        auts = list(self.automorphisms(rng))
        for phi in auts:
            for psi in rng.sample(auts, 5):
                if psi.rank == phi.rank:
                    assert phi.compose(psi) == substitution_compose(phi, psi)
            assert phi.compose(FreeAut.identity(phi.rank)) == phi == FreeAut.identity(phi.rank).compose(phi)

    def test_power_matches_repeated_composition(self, monkeypatch):
        rng = random.Random(42)
        calls = count_calls(monkeypatch, FreeAut, "compose")
        for phi in self.automorphisms(rng):
            for n in range(-3, 7):
                expected = repeated_power(phi, n)
                calls.clear()
                assert phi.power(n) == expected, (phi, n)
                # n - 1 compositions from phi for n >= 1 (inverse() checks
                # its result with two more).
                assert len(calls) == max(abs(n) - 1, 0) + 2 * (n < 0)


class TestAgainstEarlierImplementations:
    """The linear is_inner and apply agree with the scans and loops they
    replaced."""

    def automorphisms(self, rng):
        for rank in (2, 3, 4):
            for _ in range(25):
                conj = conjugation(rank, random_reduced_word(rank, 12, rng))
                yield conj
                yield conj.compose(signed_permutation(rank, rng))
                yield conj.compose(random_basis_aut(rank, rng.randint(1, 8), rng))
            if rank >= 3:
                # IA but not inner: c -> c [a, b], twisted by conjugations.
                ia = FreeAut(rank, ((1,), (2,), (3, 1, 2, -1, -2)) + tuple((i,) for i in range(4, rank + 1)))
                for _ in range(10):
                    yield conjugation(rank, random_reduced_word(rank, 6, rng)).compose(ia)

    def test_is_inner_matches_scan(self):
        rng = random.Random(31)
        inner = 0
        for phi in self.automorphisms(rng):
            got = is_inner(phi)
            assert got == scan_is_inner(phi)
            inner += got is not None
        assert inner >= 75

    def test_apply_matches_left_fold(self):
        rng = random.Random(32)
        for phi in self.automorphisms(rng):
            w = random_reduced_word(phi.rank, 10, rng)
            assert phi.apply(w) == left_fold_apply(phi, w)

    def test_is_inner_work_is_linear(self, monkeypatch):
        e = 3000
        phi = FreeAut(2, ((1,), (1,) * e + (2,) + (-1,) * e))
        calls = count_calls(monkeypatch, words_module, "word_mul")
        assert is_inner(phi) == (1,) * e
        assert len(calls) <= 20
