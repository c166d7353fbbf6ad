"""Free-group words and automorphisms.

A word over the free group of rank k is a tuple of nonzero signed
integers: ``+i`` is the i-th generator, ``-i`` its inverse (indices are
1-based).  Stored words are always freely reduced.

Provides free reduction and cyclic reduction, two Stallings folds and
the inner-automorphism test.  The free-basis test folds without labels,
merging vertices by union-find; the labelled fold yields the inverse
automorphism and runs only when an inverse is asked for.  Applying and
composing automorphisms and testing innerness are linear in the lengths
of the words involved.  Automorphisms are validated once, when built
from outside data; products, powers and inverses are trusted.
"""

from __future__ import annotations

from collections import defaultdict
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


def cyclically_reduce(w: Word) -> tuple[Word, Word]:
    """Split w = prefix * core * prefix^-1 with core cyclically reduced."""
    w = free_reduce(w)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j], w[:i]


def _is_free_basis(words, rank: int) -> bool:
    """Whether the freely reduced words are a free basis of the rank-k
    free group.

    Stallings folding of the wedge of one loop per word, without labels:
    ``out[v]`` maps each letter to the vertex its edge at v leads to, and
    identified vertices merge by union-find, the smaller letter map into
    the larger.  The words generate the group iff the fold ends as the
    rose, one vertex with all 2k half-edges, and k generators of the
    Hopfian rank-k free group are a basis (``CATALOG_AXIOMS.md`` §8).
    As in :func:`free_basis_inverse`, each loop is first read along the
    folded graph from both ends of the base; a loop read whole is a
    product of the earlier ones, so the words span a subgroup of rank
    below k.

    >>> _is_free_basis(((1, 2), (2,)), 2), _is_free_basis(((1, 1), (2,)), 2)
    (True, False)
    """
    if len(words) != rank:
        return False
    parent: list[int] = [0]
    out: list = [{}]
    pending: list[tuple[int, int]] = []

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def attach(u, a, v):
        """Set the half-edge u -a-> v at the root u, or queue v for
        identification with the vertex u already reaches along a."""
        t = out[u].setdefault(a, v)
        if t != v:
            pending.append((t, v))

    for w in words:
        base = find(0)
        v, i = base, 0
        while i < len(w) and (t := out[v].get(w[i])) is not None:
            v, i = find(t), i + 1
        u, j = base, len(w)
        while j > i and (t := out[u].get(-w[j - 1])) is not None:
            u, j = find(t), j - 1
        if i == j:
            if v == u:
                return False
            pending.append((v, u))
        for n in range(i, j):
            if n == j - 1:
                nxt = u
            else:
                nxt = len(out)
                parent.append(nxt)
                out.append({})
            attach(v, w[n], nxt)
            attach(nxt, -w[n], v)
            v = nxt
        while pending:
            x, y = pending.pop()
            x, y = find(x), find(y)
            if x != y:
                if len(out[x]) < len(out[y]):
                    x, y = y, x
                parent[y] = x
                for a, t in out[y].items():
                    attach(x, a, t)
                out[y] = None
    rose = out[find(0)]
    return (sum(o is not None for o in out) == 1 and len(rose) == 2 * rank
            and all(abs(a) <= rank for a in rose))


def free_basis_inverse(words, rank: int) -> tuple[Word, ...] | None:
    """The inverse images psi(x_1), ..., psi(x_k) of the endomorphism
    phi: x_i -> words[i-1], or None when the words are not a free basis
    of the rank-k free group.

    Stallings folding of the wedge of k loops at a base vertex, loop i
    spelling words[i-1].  Each edge also carries a word over the loop
    indices, so that every closed path at the base spells phi(C l C^-1),
    where l is the product of its edge labels and C the base offset: the
    first edge of loop i carries i, every other edge the empty word.
    Identifying two vertices first shifts the labels at one of them (a
    change of gauge, which conjugates the labels of closed paths there)
    so that the paths being identified carry the same label.  If two
    parallel edges with one letter fold together, they close a path that
    spells 1 with a nontrivial label, since the labels of the unfolded
    wedge are a free basis of its fundamental group and folding keeps
    them injective; so phi has a kernel.  The words are a basis iff the
    fold ends as the rose, one vertex with a loop for every generator:
    then they generate the whole group, which is Hopfian, and the loop
    x_j with label l_j gives psi(x_j) = C l_j C^-1.

    The loops are folded in one at a time: loop i is read along the
    folded graph from both ends of the base, and only its unread middle
    becomes new edges, the first labelled so that the whole loop's label
    is i; when nothing is left unread, the two ends are identified.  A
    word that retraces earlier loops (a conjugation by a long power, say)
    therefore costs one pass over its letters.

    >>> free_basis_inverse(((1, 2), (2,)), 2)
    ((1, -2), (2,))
    >>> free_basis_inverse(((1, 1), (2,)), 2) is None
    True
    """
    if len(words) != rank:
        return None
    # Edge e runs src[e] -> dst[e] spelling the generator let[e] > 0, with
    # label lab[e]; adj[v][a] lists the edges leaving v along the letter a
    # (an edge leaves its source along +let and its target along -let).
    # Folding leaves at most one edge in each list; adj[v] is None once v
    # has been identified with another vertex.
    src: list[int] = []
    dst: list[int] = []
    let: list[int] = []
    lab: list[Word] = []
    adj: list = [defaultdict(list)]
    base, offset = 0, ()

    def add_edge(u, a, v, label):
        if a < 0:
            u, a, v, label = v, -a, u, word_inverse(label)
        src.append(u)
        dst.append(v)
        let.append(a)
        lab.append(label)
        adj[u][a].append(len(src) - 1)
        adj[v][-a].append(len(src) - 1)

    def leave(e, v, a):
        """Far end and label of edge e, traversed out of v along a."""
        return (dst[e], lab[e]) if a > 0 else (src[e], word_inverse(lab[e]))

    def read(v, letters):
        """Follow letters from v while edges exist: the end vertex and the
        label of each edge passed."""
        labels = []
        for a in letters:
            es = adj[v].get(a)
            if not es:
                break
            v, label = leave(es[0], v, a)
            labels.append(label)
        return v, labels

    def identify(x, y, label):
        """Merge y into x (or x into y, whichever has fewer edges), where a
        path x -> y with this label is to become a closed path at x with
        the empty label.  Returns the surviving vertex."""
        nonlocal base, offset
        if sum(map(len, adj[x].values())) < sum(map(len, adj[y].values())):
            x, y, label = y, x, word_inverse(label)
        inv_label = word_inverse(label)
        for e in {e for es in adj[y].values() for e in es}:
            if src[e] == y:
                lab[e] = word_mul(label, lab[e])
                src[e] = x
            if dst[e] == y:
                lab[e] = word_mul(lab[e], inv_label)
                dst[e] = x
        for b, es in adj[y].items():
            adj[x][b].extend(es)
        adj[y] = None
        if y == base:
            base, offset = x, word_mul(offset, inv_label)
        return x

    def fold(v):
        """Fold parallel edges at v and wherever merging moves them;
        False when two parallel edges close a loop (a relation)."""
        todo = [v]
        while todo:
            v = todo[-1]
            pair = adj[v] is not None and next(((a, es) for a, es in adj[v].items() if len(es) > 1), None)
            if not pair:
                todo.pop()
                continue
            a, (e1, e2) = pair[0], pair[1][:2]
            (f1, l1), (f2, l2) = leave(e1, v, a), leave(e2, v, a)
            if f1 == f2:
                return False
            todo.append(identify(f1, f2, word_mul(word_inverse(l1), l2)))
            # e2 now duplicates e1: same ends, letter and label.
            adj[src[e2]][let[e2]].remove(e2)
            adj[dst[e2]][-let[e2]].remove(e2)
        return True

    for i, w in enumerate(words, 1):
        w = free_reduce(w)
        v, head = read(base, w)
        u, tail = read(base, (-a for a in reversed(w[len(head):])))
        # The loop's label l must satisfy C l C^-1 = i: the middle carries
        # head^-1 C^-1 i C tail^-1, and tail was read inverted.
        label = word_mul(word_inverse(word_mul(*head)), word_inverse(offset), (i,), offset, *tail)
        middle = w[len(head):len(w) - len(tail)]
        if middle:
            prev = v
            for j, a in enumerate(middle):
                if j == len(middle) - 1:
                    nxt = u
                else:
                    nxt = len(adj)
                    adj.append(defaultdict(list))
                add_edge(prev, a, nxt, label if j == 0 else ())
                prev = nxt
            # The new edges can meet old ones only where the middle closes
            # up (v == u) and its word is not cyclically reduced.
            if not fold(v):
                return None
        elif v == u or not fold(identify(v, u, label)):
            return None

    loops = {let[e]: lab[e] for es in adj[base].values() for e in es}
    if sum(a is not None for a in adj) != 1 or sorted(loops) != list(range(1, rank + 1)):
        return None
    inv_offset = word_inverse(offset)
    return tuple(word_mul(offset, loops[j], inv_offset) for j in range(1, rank + 1))


@dataclass(frozen=True)
class FreeAut:
    """An automorphism of the rank-k free group, by generator images.

    The public constructor validates: the images must be a free basis,
    which the label-free fold :func:`_is_free_basis` decides.  Products,
    powers, inverses and the identity are automorphisms by construction
    and are built unchecked; only :meth:`inverse` runs the
    labelled fold :func:`free_basis_inverse`.  ``@`` and ``**`` compose
    and power as for :class:`IntMatrix`, so both kinds of action share
    one protocol.

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
        if not _is_free_basis(images, self.rank):
            raise ValueError("images do not form a free basis (not an automorphism)")

    @classmethod
    def _trusted(cls, rank: int, images: tuple[Word, ...]) -> "FreeAut":
        """Wrap reduced images known to form a basis, skipping validation."""
        aut = object.__new__(cls)
        object.__setattr__(aut, "rank", rank)
        object.__setattr__(aut, "images", images)
        return aut

    @staticmethod
    def identity(rank: int) -> "FreeAut":
        return FreeAut._trusted(rank, tuple((i,) for i in range(1, rank + 1)))

    def apply(self, w: Word) -> Word:
        images = self.images
        return word_mul(*(images[a - 1] if a > 0 else word_inverse(images[-a - 1]) for a in w))

    def compose(self, other: "FreeAut") -> "FreeAut":
        """self after other: (self.compose(other))(w) = self(other(w)).

        One reduction list per image of ``other``, into which the images
        of its letters under self are pushed letter by letter; ``sub[-i]``
        is the image of x_i^-1, built once per call."""
        sub = [()] * (2 * self.rank + 1)
        for i, im in enumerate(self.images, 1):
            sub[i], sub[-i] = im, word_inverse(im)
        images = []
        for im in other.images:
            out: list[int] = []
            for a in im:
                for b in sub[a]:
                    if out and out[-1] == -b:
                        out.pop()
                    else:
                        out.append(b)
            images.append(tuple(out))
        return FreeAut._trusted(self.rank, tuple(images))

    def __matmul__(self, other: "FreeAut") -> "FreeAut":
        return self.compose(other)

    def __pow__(self, n: int) -> "FreeAut":
        return self.power(n)

    def power(self, n: int) -> "FreeAut":
        if n < 0:
            return self.inverse().power(-n)
        out = self if n else FreeAut.identity(self.rank)
        for _ in range(n - 1):
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
        return IntMatrix._trusted(tuple(zip(*cols)))

    def inverse(self) -> "FreeAut":
        """The inverse, read off the folded rose of the image tuple."""
        out = FreeAut._trusted(self.rank, free_basis_inverse(self.images, self.rank))
        assert self.compose(out).is_identity and out.compose(self).is_identity
        return out


def is_inner(phi: FreeAut) -> Word | None:
    """The conjugator w with phi(x) = w x w^-1 for every generator x, or
    None when phi is not inner.

    Fast rejection through the abelianization (inner automorphisms act
    trivially there).  Otherwise phi(x1) = w0 x1 w0^-1 fixes w0 from the
    cyclic reduction of phi(x1), and every solution is w0 x1^t, since the
    centralizer of x1 is <x1>.  Then u = w0^-1 phi(x2) w0 must equal
    x1^t x2 x1^-t, whose leading run of x1^+-1 is t.  The one candidate
    w0 x1^t is tested on every generator; for rank >= 2 the center is
    trivial, so the conjugator is unique.
    """
    k = phi.rank
    if k == 1:
        return () if phi.is_identity else None
    if not phi.abelianization().is_identity:
        return None
    core, w0 = cyclically_reduce(phi.images[0])
    if core != (1,):
        return None
    u = word_mul(word_inverse(w0), phi.images[1], w0)
    t = 0
    while t < len(u) and u[t] == u[0] and abs(u[0]) == 1:
        t += 1
    w = word_mul(w0, u[:t])
    w_inv = word_inverse(w)
    if all(word_mul(w, (i,), w_inv) == phi.images[i - 1] for i in range(1, k + 1)):
        return w
    return None


def render_word(w: Word, names) -> str:
    if not w:
        return "1"
    return " ".join(names[abs(a) - 1] + ("" if a > 0 else "^-1") for a in w)
