"""The pieces of the finite-class injectivity search.

The exponent-vector stream against the sort-the-box order it replaces,
``FiniteGroupDesc.evaluate`` against word-by-word composition, and the
cost of building a finite quotient's action table.
"""

import functools
import gc
import itertools
import random

from hypothesis import assume, given, settings, strategies as st

from icckit.analyzer import _exponent_vectors, analyze
from icckit.catalog import FgAbelianDesc, FiniteGroupDesc
from icckit.extension import AbelianKernel, make_extension
from icckit.intlinalg import IntMatrix
from icckit.words import FreeAut
from tests.helpers import random_unimodular


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


class TestExponentVectors:
    @given(st.integers(0, 3), divisor_chains(), st.integers(0, 4))
    @settings(max_examples=80, deadline=None)
    def test_streamed_shells_match_sorted_box(self, free_rank, divisors, bound):
        assume(free_rank or divisors)
        assert list(_exponent_vectors(free_rank, divisors, bound)) == sorted_box(free_rank, divisors, bound)

    def test_streamed_lazily(self):
        vecs = _exponent_vectors(6, (), 50)  # a 101^6 box, never built
        assert next(vecs) == (-1, -1, -1, -1, -1, -1)


def compose_word(word, images, identity):
    return functools.reduce(lambda acc, letter: acc @ images[letter - 1], word, identity)


S4 = FiniteGroupDesc.from_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)])


def perm_matrix(p):
    """P with P e_x = e_{p(x)}, so P(p) P(q) = P(p o q)."""
    return IntMatrix.from_rows([[1 if p[j] == i else 0 for j in range(len(p))] for i in range(len(p))])


class TestEvaluate:
    def test_matrix_images_match_word_composition(self):
        # Any images will do: evaluate multiplies along the words.
        rng = random.Random(5)
        for _ in range(5):
            images = [random_unimodular(rng, 3, steps=3) for _ in S4.generators]
            identity = IntMatrix.identity(3)
            got = list(S4.evaluate(images, identity))
            assert got == [compose_word(w, images, identity) for w in S4.element_words]

    def test_aut_images_match_word_composition(self):
        s3 = FiniteGroupDesc.from_generators(3, [(1, 0, 2), (1, 2, 0)])
        transvection = FreeAut(3, ((1, 2), (2,), (3,)))
        cycle = FreeAut(3, ((2,), (3,), (1,)))
        images = [transvection, cycle]
        identity = FreeAut.identity(3)
        got = list(s3.evaluate(images, identity))
        assert got == [compose_word(w, images, identity) for w in s3.element_words]
        assert got[0] == identity and len(got) == s3.order

    def test_make_extension_builds_table_in_one_product_per_element(self, monkeypatch):
        calls = []
        matmul = IntMatrix.__matmul__

        def counting(a, b):
            calls.append(1)
            return matmul(a, b)

        actions = [perm_matrix(g) for g in S4.generators]
        monkeypatch.setattr(IntMatrix, "__matmul__", counting)
        make_extension(AbelianKernel(4), S4, actions)
        assert S4.order == 24
        assert len(calls) <= S4.order * (1 + len(S4.generators))


class TestNoReferenceCycles:
    def test_abelian_fc_search_leaves_no_cyclic_garbage(self):
        """The search over an abelian quotient caches generator powers.  A
        reference cycle around that cache would keep every power alive
        until the next full garbage collection."""
        spec = make_extension(
            AbelianKernel(2), FgAbelianDesc(2, (), ("u", "v")),
            [IntMatrix.from_rows([[2, 1], [1, 1]]), IntMatrix.from_rows([[5, 3], [3, 2]])])
        analyze(spec)
        gc.collect()
        gc.disable()
        try:
            analyze(spec)
            assert gc.collect() == 0
        finally:
            gc.enable()
