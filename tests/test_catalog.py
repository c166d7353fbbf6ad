import pytest

from icckit.catalog import (
    FgAbelianDesc,
    FiniteGroupDesc,
    FreeDesc,
    ProductDesc,
    factor_offsets,
    fc_is_trivial,
    generator_count,
    generator_labels,
    group_is_trivial,
    make_product,
    perm_compose,
    perm_inverse,
    perm_order,
)
from icckit.words import word_inverse, word_mul


class TestPermutations:
    def test_compose_and_inverse(self):
        p = (1, 2, 0)  # 3-cycle
        q = (1, 0, 2)  # transposition
        assert perm_compose(p, perm_inverse(p)) == (0, 1, 2)
        assert perm_compose(p, q) != perm_compose(q, p)

    def test_order(self):
        assert perm_order((0, 1, 2)) == 1
        assert perm_order((1, 0, 2)) == 2
        assert perm_order((1, 2, 0)) == 3
        assert perm_order((1, 0, 3, 2)) == 2
        assert perm_order((1, 2, 0, 4, 3)) == 6


class TestFiniteGroupDesc:
    def test_s3_closure(self):
        s3 = FiniteGroupDesc.from_generators(3, [(1, 2, 0), (1, 0, 2)])
        assert s3.order == 6
        for e, w in zip(s3.elements, s3.element_words):
            acc = (0, 1, 2)
            for letter in w:
                acc = perm_compose(acc, s3.generators[letter - 1])
            assert acc == e

    def test_identity_first(self):
        c2 = FiniteGroupDesc.from_generators(2, [(1, 0)])
        assert c2.elements[0] == (0, 1)
        assert c2.order == 2

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError):
            FiniteGroupDesc.from_generators(2, [(0, 0)])


class TestDescValidation:
    def test_divisor_chain(self):
        FgAbelianDesc(1, (2, 4, 8))
        with pytest.raises(ValueError):
            FgAbelianDesc(1, (4, 2))
        with pytest.raises(ValueError):
            FgAbelianDesc(0, (1,))

    def test_free_rank(self):
        with pytest.raises(ValueError):
            FreeDesc(0)

    def test_product_flattening(self):
        p = make_product([FreeDesc(2), make_product([FgAbelianDesc(1), FreeDesc(1)])])
        assert isinstance(p, ProductDesc)
        assert len(p.factors) == 3

    def test_product_drops_trivial(self):
        p = make_product([FgAbelianDesc(0), FreeDesc(2)])
        assert p == FreeDesc(2)
        assert group_is_trivial(make_product([FgAbelianDesc(0), FgAbelianDesc(0)]))

    def test_generator_bookkeeping(self):
        q = make_product([FreeDesc(2, ("u", "v")), FgAbelianDesc(1, (2,), ("t", "s"))])
        assert generator_count(q) == 4
        assert generator_labels(q) == ("u", "v", "t", "s")


class TestFcRules:
    def test_free_rank_two_trivial(self):
        assert fc_is_trivial(FreeDesc(2))

    def test_abelian_whole(self):
        assert not fc_is_trivial(FgAbelianDesc(1))

    def test_free_rank_one_whole(self):
        assert not fc_is_trivial(FreeDesc(1))

    def test_finite_whole(self):
        s3 = FiniteGroupDesc.from_generators(3, [(1, 2, 0), (1, 0, 2)])
        assert not fc_is_trivial(s3)

    def test_product_distributes(self):
        assert not fc_is_trivial(make_product([FreeDesc(2), FgAbelianDesc(1)]))

    def test_product_of_free_trivial(self):
        assert fc_is_trivial(make_product([FreeDesc(2), FreeDesc(3)]))

    def test_trivial_group_reads_false(self):
        # Callers test group_is_trivial first; FC of the trivial group is
        # the whole (trivial) group, not the trivial-FC case.
        assert not fc_is_trivial(FgAbelianDesc(0))


class TestFactorOffsets:
    def test_offsets_follow_generator_numbering(self):
        s3 = FiniteGroupDesc.from_generators(3, [(1, 2, 0), (1, 0, 2)], ("r", "f"))
        torsion = FgAbelianDesc(1, (2, 4), ("t", "s1", "s2"))
        free = FreeDesc(2, ("u", "v"))
        q = make_product([s3, torsion, free])
        pairs = list(factor_offsets(q))
        assert [f for f, _ in pairs] == [s3, torsion, free]
        counts = [generator_count(f) for f, _ in pairs]
        assert [off for _, off in pairs] == [0, counts[0], counts[0] + counts[1]] == [0, 2, 5]
        labels = generator_labels(q)
        for f, off in pairs:
            assert labels[off:off + generator_count(f)] == generator_labels(f)
        assert sum(counts) == generator_count(q)


def reduced_words_up_to(rank, length):
    out = [()]
    frontier = [()]
    for _ in range(length):
        nxt = []
        for w in frontier:
            for x in range(-rank, rank + 1):
                if x and (not w or w[-1] != -x):
                    nxt.append(w + (x,))
        out.extend(nxt)
        frontier = nxt
    return out


class TestCatalogAxiomsAgainstBruteForce:
    """Cross-validate the facts recorded in CATALOG_AXIOMS.md."""

    def test_free_rank_two_classes_are_large(self):
        # every nontrivial word of length <= 2 has > 20 distinct conjugates
        # by words of length <= 6
        conjugators = reduced_words_up_to(2, 6)
        for u in reduced_words_up_to(2, 2):
            if not u:
                continue
            conjugates = {word_mul(word_inverse(w), u, w) for w in conjugators}
            assert len(conjugates) > 20

    def test_free_rank_one_classes_are_singletons(self):
        conjugators = reduced_words_up_to(1, 6)
        for u in reduced_words_up_to(1, 3):
            conjugates = {word_mul(word_inverse(w), u, w) for w in conjugators}
            assert conjugates == {u}

    def test_fc_multiplies_over_products_in_s3_x_c2(self):
        # conjugacy classes in a product are products of classes
        s3 = FiniteGroupDesc.from_generators(3, [(1, 2, 0), (1, 0, 2)])
        c2 = FiniteGroupDesc.from_generators(2, [(1, 0)])

        def classes(desc):
            out = {}
            for x in desc.elements:
                cls = frozenset(
                    perm_compose(perm_compose(perm_inverse(g), x), g)
                    for g in desc.elements
                )
                out[x] = cls
            return out

        s3_classes = classes(s3)
        c2_classes = classes(c2)
        for a in s3.elements:
            for b in c2.elements:
                product_class = {
                    (perm_compose(perm_compose(perm_inverse(g1), a), g1),
                     perm_compose(perm_compose(perm_inverse(g2), b), g2))
                    for g1 in s3.elements for g2 in c2.elements
                }
                assert product_class == {
                    (x, y) for x in s3_classes[a] for y in c2_classes[b]
                }
