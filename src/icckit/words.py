"""Free-group words and automorphisms.

A word over the free group of rank k is a tuple of nonzero signed
integers: ``+i`` is the i-th generator, ``-i`` its inverse (indices are
1-based).  Stored words are always freely reduced.

Provides free and cyclic normal forms, the conjugacy test with explicit
conjugators, Nielsen reduction of word tuples (the basis certificate
behind automorphism validation), and the inner-automorphism test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlinalg import IntMatrix

Word = tuple[int, ...]


def free_reduce(letters) -> Word:
    """Cancel adjacent inverse pairs.

    >>> free_reduce((1, 2, -2, -1, 1))
    (1,)
    """
    out: list[int] = []
    for a in letters:
        if a == 0:
            raise ValueError("0 is not a letter")
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def word_inverse(w: Word) -> Word:
    return tuple(-a for a in reversed(w))


def word_mul(*words: Word) -> Word:
    out: list[int] = []
    for w in words:
        for a in w:
            if out and out[-1] == -a:
                out.pop()
            else:
                out.append(a)
    return tuple(out)


def word_power(w: Word, n: int) -> Word:
    if n < 0:
        return word_power(word_inverse(w), -n)
    out: Word = ()
    for _ in range(n):
        out = word_mul(out, w)
    return out


def normalize(letters) -> Word:
    """Free reduction of an arbitrary signed-index sequence."""
    return free_reduce(letters)


def cyclically_reduce(w: Word) -> tuple[Word, Word]:
    """Split w = prefix * core * prefix^-1 with core cyclically reduced."""
    w = free_reduce(w)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j], w[:i]


def cyclic_normalize(w: Word) -> Word:
    """Canonical conjugacy-class representative: the lexicographically
    least rotation of the cyclically reduced core.

    >>> cyclic_normalize((-2, 1, 2))
    (1,)
    """
    core, _ = cyclically_reduce(w)
    if not core:
        return ()
    return min(core[r:] + core[:r] for r in range(len(core)))


def _min_rotation_prefix(core: Word) -> Word:
    best = min(range(len(core)), key=lambda r: core[r:] + core[:r]) if core else 0
    return core[:best]


def conjugacy_test_free(u: Word, v: Word) -> Word | None:
    """A word w with w^-1 u w = v, or None when u and v are not conjugate.

    >>> conjugacy_test_free((1, 2), (2, 1))
    (-2,)
    >>> conjugacy_test_free((1,), (2,)) is None
    True
    """
    u, v = free_reduce(u), free_reduce(v)
    cu, su = cyclically_reduce(u)
    cv, sv = cyclically_reduce(v)
    if cyclic_normalize(u) != cyclic_normalize(v):
        return None
    gu = word_mul(su, _min_rotation_prefix(cu))
    gv = word_mul(sv, _min_rotation_prefix(cv))
    w = word_mul(gu, word_inverse(gv))
    assert word_mul(word_inverse(w), u, w) == v
    return w


@dataclass(frozen=True)
class NielsenResult:
    words: tuple[Word, ...]
    is_basis: bool
    log: tuple  # ("mul", i, j, side, sign) per move


def nielsen_reduce(words, rank: int) -> NielsenResult:
    """Greedy Nielsen reduction of a word tuple over the rank-k free group.

    Repeatedly replaces some entry by its product with another entry (on
    either side, either sign) whenever that strictly shortens the total
    length.  ``is_basis`` is True iff the reduced tuple is exactly the
    standard generators up to order and inversion, which happens iff the
    original tuple is a free basis of the whole group.
    """
    cur = [free_reduce(w) for w in words]
    log: list[tuple] = []
    improved = True
    while improved:
        improved = False
        for i in range(len(cur)):
            if improved:
                break
            for j in range(len(cur)):
                if i == j or improved:
                    continue
                for side in ("right", "left"):
                    for sign in (1, -1):
                        other = cur[j] if sign == 1 else word_inverse(cur[j])
                        cand = word_mul(cur[i], other) if side == "right" else word_mul(other, cur[i])
                        if len(cand) < len(cur[i]):
                            cur[i] = cand
                            log.append(("mul", i, j, side, sign))
                            improved = True
                            break
                    if improved:
                        break
    basis = (
        len(cur) == rank
        and all(len(w) == 1 for w in cur)
        and sorted(abs(w[0]) for w in cur) == list(range(1, rank + 1))
    )
    return NielsenResult(tuple(cur), basis, tuple(log))


@dataclass(frozen=True)
class FreeAut:
    """An automorphism of the rank-k free group, by generator images.

    Validated on construction: the image tuple must Nielsen-reduce to a
    permuted/inverted basis.  ``@`` and ``**`` compose and power as for
    :class:`IntMatrix`, so both kinds of action share one protocol.

    >>> swap = FreeAut(2, ((2,), (1,)))
    >>> swap.apply((1, 2))
    (2, 1)
    """

    rank: int
    images: tuple[Word, ...]

    def __post_init__(self):
        images = tuple(free_reduce(w) for w in self.images)
        object.__setattr__(self, "images", images)
        if len(images) != self.rank:
            raise ValueError("need one image per generator")
        for w in images:
            if any(abs(a) > self.rank for a in w):
                raise ValueError("letter outside the group's rank")
        if not nielsen_reduce(images, self.rank).is_basis:
            raise ValueError("images do not form a free basis (not an automorphism)")

    @staticmethod
    def identity(rank: int) -> "FreeAut":
        return FreeAut(rank, tuple((i,) for i in range(1, rank + 1)))

    @staticmethod
    def conjugation(rank: int, w: Word) -> "FreeAut":
        """x |-> w x w^-1 for every generator x."""
        w = free_reduce(w)
        return FreeAut(rank, tuple(word_mul(w, (i,), word_inverse(w)) for i in range(1, rank + 1)))

    def apply(self, w: Word) -> Word:
        out: Word = ()
        for a in w:
            piece = self.images[a - 1] if a > 0 else word_inverse(self.images[-a - 1])
            out = word_mul(out, piece)
        return out

    def compose(self, other: "FreeAut") -> "FreeAut":
        """self after other: (self.compose(other))(w) = self(other(w))."""
        return FreeAut(self.rank, tuple(self.apply(im) for im in other.images))

    def __matmul__(self, other: "FreeAut") -> "FreeAut":
        return self.compose(other)

    def __pow__(self, n: int) -> "FreeAut":
        return self.power(n)

    def power(self, n: int) -> "FreeAut":
        if n < 0:
            return self.inverse().power(-n)
        out = FreeAut.identity(self.rank)
        for _ in range(n):
            out = self.compose(out)
        return out

    @property
    def is_identity(self) -> bool:
        return all(im == (i + 1,) for i, im in enumerate(self.images))

    def abelianization(self) -> IntMatrix:
        """Exponent-sum matrix; column j is the image of generator j."""
        cols = []
        for im in self.images:
            col = [0] * self.rank
            for a in im:
                col[abs(a) - 1] += 1 if a > 0 else -1
            cols.append(col)
        return IntMatrix.from_rows(cols).transpose()

    def inverse(self) -> "FreeAut":
        """Invert by replaying the Nielsen reduction of the image tuple.

        Each length-reducing move corresponds to an elementary
        automorphism mu with (tuple after move) = images of self o mu, so
        the move chain followed by the final signed permutation
        reconstructs the inverse.
        """
        res = nielsen_reduce(self.images, self.rank)
        chain = FreeAut.identity(self.rank)
        for _, i, j, side, sign in res.log:
            imgs = list(FreeAut.identity(self.rank).images)
            gen_j = (j + 1,) if sign == 1 else (-(j + 1),)
            imgs[i] = word_mul((i + 1,), gen_j) if side == "right" else word_mul(gen_j, (i + 1,))
            chain = chain.compose(FreeAut(self.rank, tuple(imgs)))
        # self o chain = sigma (a signed permutation), so self^-1 = chain o sigma^-1.
        sigma_images = res.words
        inv_imgs: list[Word] = [()] * self.rank
        for i, im in enumerate(sigma_images):
            target = im[0]
            inv_imgs[abs(target) - 1] = ((i + 1) if target > 0 else -(i + 1),)
        out = chain.compose(FreeAut(self.rank, tuple(inv_imgs)))
        assert self.compose(out).is_identity and out.compose(self).is_identity
        return out


def is_inner(phi: FreeAut) -> Word | None:
    """The conjugator w with phi(x) = w x w^-1 for every generator x, or
    None when phi is not inner.

    Fast rejection through the abelianization (inner automorphisms act
    trivially there); otherwise the first generator pins the conjugator
    down to w0 x1^t and a bounded scan over t decides, since conjugating
    by longer powers of x1 strictly grows reduced length.
    """
    k = phi.rank
    if k == 1:
        return () if phi.is_identity else None
    if not phi.abelianization().is_identity:
        return None
    x1: Word = (1,)
    c = conjugacy_test_free(x1, phi.images[0])
    if c is None:
        return None
    w0 = word_inverse(c)  # phi(x1) = w0 x1 w0^-1

    def conj(w: Word, x: Word) -> Word:
        return word_mul(w, x, word_inverse(w))

    bound = len(phi.images[1]) + len(w0) + 2
    for t in range(-bound, bound + 1):
        w = word_mul(w0, word_power(x1, t))
        if conj(w, (2,)) != phi.images[1]:
            continue
        if all(conj(w, (i,)) == phi.images[i - 1] for i in range(3, k + 1)):
            return w
    return None


def render_word(w: Word, names) -> str:
    if not w:
        return "1"
    return " ".join(names[abs(a) - 1] + ("" if a > 0 else "^-1") for a in w)
