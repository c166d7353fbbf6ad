"""Plain-tuple integer matrices and free-group words.

The corpus generator and the output checker do all their arithmetic here,
with no import of ``icckit``, so a fault in the package under test cannot
hide itself by also corrupting the check.

Matrices are tuples of row tuples and act on column vectors (``M v``).
Words are tuples of nonzero signed 1-based generator indices.
"""

from __future__ import annotations


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def matmul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def apply(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def mat_pow(m, e, m_inv):
    """m^e, using the supplied exact inverse for negative exponents."""
    base = m if e >= 0 else m_inv
    out = identity(len(m))
    for _ in range(abs(e)):
        out = matmul(out, base)
    return out


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    rows = []
    offset = 0
    for b in blocks:
        for r in b:
            rows.append((0,) * offset + tuple(r) + (0,) * (n - offset - len(r)))
        offset += len(b)
    return tuple(rows)


def perm_matrix(p):
    """The matrix sending e_j to e_{p[j]} (0-based permutation tuple)."""
    n = len(p)
    return tuple(tuple(1 if p[j] == i else 0 for j in range(n)) for i in range(n))


def signed_perm_matrix(p, signs):
    """e_j |-> signs[j] * e_{p[j]}."""
    n = len(p)
    return tuple(tuple(signs[j] if p[j] == i else 0 for j in range(n)) for i in range(n))


def neg(m):
    return tuple(tuple(-x for x in r) for r in m)


def inv2(m):
    """Inverse of a 2x2 integer matrix of determinant +-1."""
    (a, b), (c, d) = m
    det = a * d - b * c
    if det not in (1, -1):
        raise ValueError("not unimodular")
    return ((d * det, -b * det), (-c * det, a * det))


def random_unimodular(rng, n, steps, bound=2):
    """A seeded unimodular matrix together with its exact inverse.

    Built from elementary row additions ``row_i += c row_j``; the inverse
    replays the inverse moves as column operations.  Moves that would
    push an entry of either matrix past ``bound`` are skipped.
    """
    p = [list(r) for r in identity(n)]
    q = [list(r) for r in identity(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        new_p = [x + c * y for x, y in zip(p[i], p[j])]
        # P' = E P with E = I + c e_i e_j^T, so Q' = Q E^-1: col_j -= c col_i.
        new_q_col = [q[r][j] - c * q[r][i] for r in range(n)]
        if max(map(abs, new_p)) > bound or max(map(abs, new_q_col)) > bound:
            continue
        p[i] = new_p
        for r in range(n):
            q[r][j] = new_q_col[r]
    p = tuple(map(tuple, p))
    q = tuple(map(tuple, q))
    assert matmul(p, q) == identity(n)
    return p, q


def conjugate(p, p_inv, m):
    """p m p^-1."""
    return matmul(matmul(p, m), p_inv)


def matrix_text(m):
    return "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in m) + "]"


# -- free-group words --------------------------------------------------------


def reduce_word(letters):
    out = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def inverse_word(w):
    return tuple(-a for a in reversed(w))


def aut_apply(images, w):
    """Apply the automorphism given by generator images to a word."""
    out = []
    for a in w:
        piece = images[a - 1] if a > 0 else inverse_word(images[-a - 1])
        out.extend(piece)
    return reduce_word(out)


def aut_compose(f, g):
    """f after g."""
    return tuple(aut_apply(f, im) for im in g)


def aut_identity(rank):
    return tuple((i,) for i in range(1, rank + 1))


def aut_pow(images, e, inv_images):
    base = images if e >= 0 else inv_images
    out = aut_identity(len(images))
    for _ in range(abs(e)):
        out = aut_compose(base, out)
    return out


def inner(rank, w):
    """x |-> w x w^-1."""
    return tuple(reduce_word(w + (i,) + inverse_word(w)) for i in range(1, rank + 1))


def word_text(w, names):
    """A word in the DSL's syntax, using ``^`` for runs of one letter."""
    if not w:
        return "1"
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        run = j - i
        exp = run if w[i] > 0 else -run
        name = names[abs(w[i]) - 1]
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return " ".join(parts)


def aut_text(images, names):
    return "(" + ", ".join(f"{n} -> {word_text(im, names)}" for n, im in zip(names, images)) + ")"


def random_reduced_word(rng, rank, length):
    """A seeded freely reduced word of exactly ``length`` letters."""
    out = []
    while len(out) < length:
        choices = [s * i for i in range(1, rank + 1) for s in (1, -1)]
        if out:
            choices.remove(-out[-1])
        out.append(rng.choice(choices))
    return tuple(out)


# -- permutations (0-based tuples, (p*q)(x) = p(q(x))) -----------------------


def perm_mul(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def perm_from_cycle(cycle, degree):
    p = list(range(degree))
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        p[a] = b
    return tuple(p)


def cycle_text(p):
    """Cycle notation with 1-based points, as the DSL reads it."""
    seen = set()
    out = []
    for s in range(len(p)):
        if s in seen or p[s] == s:
            continue
        cyc = []
        x = s
        while x not in seen:
            seen.add(x)
            cyc.append(x + 1)
            x = p[x]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "()"
