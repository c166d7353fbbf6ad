"""Test-only constructions shared by several test modules."""

import itertools

from icckit.intlinalg import IntMatrix


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
