"""Test-only constructions shared by several test modules."""

import itertools
from collections import deque

import icckit.matgroup as matgroup_mod
from icckit.intlinalg import IntMatrix
from icckit.matgroup import GroupInfinite, mod3
from icckit.words import FreeAut, free_reduce, word_inverse, word_mul


def random_unimodular(rng, n: int, steps: int = 6, entry_bound: int | None = None) -> IntMatrix:
    """A pseudo-random determinant-+-1 matrix built from elementary moves.

    With ``entry_bound`` set, moves that would push an entry past the
    bound are skipped, so small test matrices stay small.
    """
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 0 and n >= 2:
            i, j = rng.sample(range(n), 2)
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 1:
            i = rng.randrange(n)
            rows[i] = [-x for x in rows[i]]
        elif n >= 2:
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            cand = [x + c * y for x, y in zip(rows[i], rows[j])]
            if entry_bound is None or all(abs(x) <= entry_bound for x in cand):
                rows[i] = cand
    return IntMatrix.from_rows(rows)


def block_diag(*blocks):
    n = sum(b.nrows for b in blocks)
    rows, at = [], 0
    for b in blocks:
        for r in b.rows:
            rows.append([0] * at + list(r) + [0] * (n - at - b.nrows))
        at += b.nrows
    return IntMatrix.from_rows(rows)


def conjugated(rng, mats):
    """The matrices conjugated by one small random unimodular matrix."""
    p = random_unimodular(rng, mats[0].nrows, steps=4, entry_bound=3)
    p_inv = p.inverse_unimodular()
    return [p @ m @ p_inv for m in mats]


def enumerate_box(ambient: int, radius: int):
    """All integer vectors with entries in [-radius, radius]."""
    return itertools.product(range(-radius, radius + 1), repeat=ambient)


def count_calls(monkeypatch, owner, name):
    """Wraps ``owner.name`` for the rest of the test and returns the list
    that gains one ``(args, kwargs)`` entry per call."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_applier_calls(monkeypatch):
    """Counts, for the rest of the test, the calls of every row applier
    that ``matgroup`` compiles from now on, one ``None`` per call in the
    returned list.  Appliers already kept on a matrix object stay
    uncounted, so the count covers matrices built after this call."""
    calls = []
    compile_applier = matgroup_mod._row_applier

    def counted_applier(m):
        apply_m = compile_applier(m)

        def counted(v):
            calls.append(None)
            return apply_m(v)

        return counted

    monkeypatch.setattr(matgroup_mod, "_row_applier", counted_applier)
    return calls


def word_matrix(group, word) -> IntMatrix:
    """The product of ``group``'s generators along ``word``: ``+i`` is the
    i-th generator, ``-i`` its inverse."""
    out = IntMatrix.identity(group.rank)
    for letter in word:
        g = group.gens[abs(letter) - 1]
        out = out @ (g if letter > 0 else g.inverse_unimodular())
    return out


def conjugation(rank: int, w) -> FreeAut:
    """The inner automorphism x |-> w x w^-1 of the free group of ``rank``."""
    w = free_reduce(w)
    w_inv = word_inverse(w)
    return FreeAut(rank, tuple(word_mul(w, (i,), w_inv) for i in range(1, rank + 1)))


def reference_schreier_certificate(group, with_inverses=False):
    """The mod-3 Schreier search on whole matrices, one ``@`` per step: the
    order of the image, which lifts injectively, as an int, or the first
    nontrivial Schreier element as a :class:`GroupInfinite`.  The reference
    for the compiled column-wise search of ``basis_orbits``, which walks
    the generators alone; ``with_inverses`` walks each generator's inverse
    right after it."""
    identity = IntMatrix.identity(group.rank)
    step = []
    for i, g in enumerate(group.gens):
        step.append((i + 1, g))
        if with_inverses:
            step.append((-(i + 1), g.inverse_unimodular()))
    rep = {mod3(identity): (identity, ())}
    queue = deque([mod3(identity)])
    while queue:
        mat, word = rep[queue.popleft()]
        for letter, g in step:
            prod = g @ mat
            known = rep.get(mod3(prod))
            if known is None:
                rep[mod3(prod)] = (prod, (letter,) + word)
                queue.append(mod3(prod))
            elif prod != known[0]:
                witness_word = (letter,) + word + tuple(-l for l in reversed(known[1]))
                return GroupInfinite(witness_word, prod @ known[0].inverse_unimodular())
    return len(rep)
