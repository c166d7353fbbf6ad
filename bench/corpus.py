"""Seeded corpus of extension descriptions with outcomes known by construction.

Usage::

    python3 bench/corpus.py --workload lattice --seed 7 --out DIR
    python3 bench/corpus.py --coverage --seed 7

writes ``DIR/<case>.ext`` and ``DIR/manifest.json``.  The same workload
and seed always give byte-identical files.  Every expected verdict,
theorem path, obstruction and witness property in the manifest follows
from how the case was built (see README.md in this directory); nothing
here imports ``icckit``.

Within a workload every seed builds the same families with the same
sizes, so the cost of a pass barely moves with the seed; the seed varies
bases, labels, generator presentations and conjugating words.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import plain as P  # noqa: E402

WORKLOADS = ("lattice", "outer", "relations", "crosscheck")
RELATION_BOUND = 8  # the CLI's default --relation-bound
FC_CAP = 1_000_000  # AnalyzerLimits.product_iteration_cap

# All of trace 3 (eigenvalues (3 +- sqrt 5) / 2), so entry growth under
# powers, and with it the cost of a case, does not depend on the choice.
HYPERBOLIC = (
    ((2, 1), (1, 1)),
    ((1, 1), (1, 2)),
    ((1, -1), (-1, 2)),
    ((2, -1), (-1, 1)),
    ((0, 1), (-1, 3)),
    ((3, 1), (-1, 0)),
    ((0, -1), (1, 3)),
    ((3, -1), (1, 0)),
)
ROT4 = ((0, -1), (1, 0))
ROT3 = ((0, -1), (1, -1))
ROT6 = ((1, -1), (1, 0))
SWAP2 = ((0, 1), (1, 0))
REFLECT = ((1, 0), (0, -1))
SL2_S = ((0, -1), (1, 0))  # order 4
SL2_U = ((0, -1), (1, 1))  # order 6; with SL2_S it generates SL(2, Z)

QUOTIENT_NAMES = "tuvwpqrs"
KERNEL_NAMES = "abcdefghxyz"


class Case:
    """One input file plus everything the checker needs to judge its output."""

    def __init__(self, family, text, expect, kernel, quotient, labels,
                 actions=(), inverses=(), args=()):
        self.family = family
        self.text = text
        self.expect = expect
        self.kernel = kernel
        self.quotient = quotient
        self.labels = list(labels)
        self.actions = [_listify(a) for a in actions]
        self.inverses = [_listify(a) for a in inverses]
        self.args = list(args)

    def to_json(self, case_id):
        return {
            "id": case_id,
            "family": self.family,
            "file": case_id + ".ext",
            "args": self.args,
            "expect": self.expect,
            "kernel": self.kernel,
            "quotient": self.quotient,
            "labels": self.labels,
            "actions": self.actions,
            "inverses": self.inverses,
        }


def _listify(x):
    if isinstance(x, (tuple, list)):
        return [_listify(y) for y in x]
    return x


def expect(verdict, path, witness=None, obstruction=None, **extra):
    out = {"exit": 0, "verdict": verdict, "theorem_path": path,
           "witness": witness, "obstruction": obstruction}
    out.update(extra)
    return out


def abelian(rank, divisors=()):
    """An abelian kernel, or an abelian factor of a quotient."""
    return {"kind": "abelian", "rank": rank, "divisors": list(divisors)}


def free_kernel(names):
    return {"kind": "free", "rank": len(names), "names": list(names)}


def perm_factor(gens):
    return {"kind": "perm", "gens": [list(g) for g in gens]}


def free_factor(rank):
    return {"kind": "free", "rank": rank}


def conj_basis(rng, n, steps=None):
    if n == 1:
        return ((1,),), ((1,),)
    return P.random_unimodular(rng, n, steps if steps is not None else 3 * n, bound=2)


def conj_all(p, p_inv, mats):
    return [P.conjugate(p, p_inv, m) for m in mats]


def matrix_lines(labels, mats):
    return [f"action {l} -> {P.matrix_text(m)}" for l, m in zip(labels, mats)]


def aut_lines(labels, auts, names):
    return [f"action {l} -> {P.aut_text(a, names)}" for l, a in zip(labels, auts)]


def perm_inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def perm_sign(p):
    seen = set()
    sign = 1
    for s in range(len(p)):
        if s in seen:
            continue
        length = 0
        x = s
        while x not in seen:
            seen.add(x)
            x = p[x]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def sn_generators(rng, n):
    """A random n-cycle and a transposition of two points adjacent on it:
    together they generate the full symmetric group."""
    order = list(range(n))
    rng.shuffle(order)
    k = rng.randrange(n)
    cyc = P.perm_from_cycle(order, n)
    tr = P.perm_from_cycle([order[k], order[(k + 1) % n]], n)
    return cyc, tr


def perm_quotient_text(gens):
    return "finite perm(" + "; ".join(P.cycle_text(g) for g in gens) + ")"


# -- abelian kernels -----------------------------------------------------------


def sn_free(rng, n):
    """S_n permuting the basis of Z^n, through a free quotient: every orbit
    is finite and FC(F_2) is trivial, so a kernel vector witnesses."""
    cyc, tr = sn_generators(rng, n)
    gens = [P.perm_matrix(cyc), P.perm_matrix(tr)]
    invs = [P.perm_matrix(perm_inverse(cyc)), P.perm_matrix(perm_inverse(tr))]
    u, v = rng.sample(QUOTIENT_NAMES, 2)
    text = [f"kernel: Z^{n}", f"quotient: free({u}, {v})"] + matrix_lines((u, v), gens)
    return Case(f"sn{n}_free", text, expect("not_icc", "theorem-1(i)", "kernel_vector"),
                abelian(n), [free_factor(2)], (u, v), gens, invs)


def signed_sn_free(rng, n):
    """The signed permutation group (+-1)^n : S_n, again finite."""
    cyc, tr = sn_generators(rng, n)
    flip = [1] * n
    flip[rng.randrange(n)] = -1
    a = P.signed_perm_matrix(cyc, flip)
    b = P.perm_matrix(tr)
    a_inv = tuple(zip(*a))  # signed permutation matrices are orthogonal
    b_inv = tuple(zip(*b))
    u, v = rng.sample(QUOTIENT_NAMES, 2)
    text = [f"kernel: Z^{n}", f"quotient: free({u}, {v})"] + matrix_lines((u, v), (a, b))
    return Case(f"signed_sn{n}_free", text, expect("not_icc", "theorem-1(i)", "kernel_vector"),
                abelian(n), [free_factor(2)], (u, v), (a, b), (a_inv, b_inv))


FINITE_BLOCKS = {
    # name: (matrix, inverse)
    "neg1": (((-1,),), ((-1,),)),
    "id1": (((1,),), ((1,),)),
    "rot4": (ROT4, P.inv2(ROT4)),
    "rot3": (ROT3, P.inv2(ROT3)),
    "rot6": (ROT6, P.inv2(ROT6)),
    "swap": (SWAP2, SWAP2),
    "cyc3": (P.perm_matrix((1, 2, 0)), P.perm_matrix((2, 0, 1))),
}


def hyp_finite(rng, block):
    """Hyperbolic 2x2 block (+) a finite-order block, in a random basis:
    the finite block is exactly the finite-orbit sublattice."""
    h = rng.choice(HYPERBOLIC)
    f, f_inv = FINITE_BLOCKS[block]
    a = P.block_diag(h, f)
    a_inv = P.block_diag(P.inv2(h), f_inv)
    n = len(a)
    p, p_inv = conj_basis(rng, n)
    m, m_inv = conj_all(p, p_inv, (a, a_inv))
    (t,) = rng.sample(QUOTIENT_NAMES, 1)
    text = [f"kernel: Z^{n}", "quotient: Z"] + matrix_lines((t,), (m,))
    return Case(f"hyp_{block}", text, expect("not_icc", "theorem-1(i)", "kernel_vector"),
                abelian(n), [abelian(1)], (t,), (m,), (m_inv,))


def hyp_icc(rng, blocks):
    """Hyperbolic blocks only: no finite orbits, and the infinite-order
    action is injective on Z, so the extension is icc."""
    hs = rng.sample(HYPERBOLIC, blocks)
    a = P.block_diag(*hs)
    a_inv = P.block_diag(*(P.inv2(h) for h in hs))
    n = len(a)
    p, p_inv = conj_basis(rng, n)
    m, m_inv = conj_all(p, p_inv, (a, a_inv))
    (t,) = rng.sample(QUOTIENT_NAMES, 1)
    text = [f"kernel: Z^{n}", "quotient: Z"] + matrix_lines((t,), (m,))
    return Case(f"hyp{blocks}_icc", text, expect("icc", "theorem-1"),
                abelian(n), [abelian(1)], (t,), (m,), (m_inv,))


FINITE_ORDER = {
    # name: (matrix, inverse, order)
    "rot4": (ROT4, P.inv2(ROT4), 4),
    "rot3": (ROT3, P.inv2(ROT3), 3),
    "rot6": (ROT6, P.inv2(ROT6), 6),
    "swap": (SWAP2, SWAP2, 2),
    "cyc4": (P.perm_matrix((1, 2, 3, 0)), P.perm_matrix((3, 0, 1, 2)), 4),
    "cyc5": (P.perm_matrix((1, 2, 3, 4, 0)), P.perm_matrix((4, 0, 1, 2, 3)), 5),
    "rot4+rot3": (P.block_diag(ROT4, ROT3), P.block_diag(P.inv2(ROT4), P.inv2(ROT3)), 12),
}


def finite_order_z(rng, kind):
    """A finite-order action (not +-1) of Z: every orbit is finite, and
    t^k acts as the identity for the exact order k."""
    f, f_inv, k = FINITE_ORDER[kind]
    n = len(f)
    p, p_inv = conj_basis(rng, n)
    m, m_inv = conj_all(p, p_inv, (f, f_inv))
    (t,) = rng.sample(QUOTIENT_NAMES, 1)
    text = [f"kernel: Z^{n}", "quotient: Z"] + matrix_lines((t,), (m,))
    return Case(f"order{k}_z", text,
                expect("not_icc", "theorem-1(ii)", "quotient_lift",
                       element=f"{t}^{k}", evidence="action-identity", order=k),
                abelian(n), [abelian(1)], (t,), (m,), (m_inv,))


TORSION_CHAINS = ((2,), (3,), (2, 2), (2, 4), (3, 6), (4, 8), (2, 6), (5,), (3, 9), (2, 2, 4))


def torsion(rng, rank, quotient):
    """Torsion in the kernel refutes icc before any action is examined."""
    divisors = rng.choice(TORSION_CHAINS)
    kernel_text = " + ".join(([f"Z^{rank}"] if rank else []) + [f"Z/{d}" for d in divisors])
    bound = 1
    for d in divisors:
        bound *= d
    lines = [f"kernel: {kernel_text}"]
    if quotient == "Z":
        labels = tuple(rng.sample(QUOTIENT_NAMES, 1))
        qmodel = [abelian(1)]
        lines.append("quotient: Z")
    else:
        labels = tuple(rng.sample(QUOTIENT_NAMES, 2))
        qmodel = [free_factor(2)]
        lines.append(f"quotient: free({', '.join(labels)})")
    hs = rng.sample(HYPERBOLIC, len(labels)) if rank == 2 else []
    lines += matrix_lines(labels, hs)
    if not hs and quotient == "Z":
        labels = ("t1",)
    return Case("torsion", lines,
                expect("not_icc", "theorem-1(i)", "kernel_torsion",
                       class_bound=bound, element_order=divisors[0]),
                abelian(rank, divisors), qmodel, labels, hs, [P.inv2(h) for h in hs])


def _orthogonal_or_2x2_inverse(m):
    t = tuple(zip(*m))
    return t if P.matmul(m, t) == P.identity(len(m)) else P.inv2(m)


S3_GENS = ((1, 0, 2), (1, 2, 0))  # (1 2), (1 2 3)
D4_GENS = ((1, 2, 3, 0), (2, 1, 0, 3))  # (1 2 3 4), (1 3)


def finite_quotient(rng, kind):
    """Finite permutation quotients acting by (signed) permutation or
    rotation matrices; faithful ones leave a kernel vector witness, a
    non-faithful C_6 leaves q^3 acting as the identity."""
    if kind == "s3_perm":
        gens = S3_GENS
        mats = [P.perm_matrix(g) for g in gens]
    elif kind == "s3_sign":
        gens = S3_GENS
        mats = [P.signed_perm_matrix(g, [perm_sign(g)] * 3) for g in gens]
    elif kind == "s3_rot":
        gens = S3_GENS
        mats = [SWAP2, ROT3]
    elif kind == "d4":
        gens = D4_GENS
        mats = [ROT4, REFLECT]
    elif kind == "s4_perm":
        gens = ((1, 2, 3, 0), (1, 0, 2, 3))
        mats = [P.perm_matrix(g) for g in gens]
    elif kind == "c6_rot3":
        gens = ((1, 2, 3, 4, 5, 0),)
        mats = [ROT3]
    else:
        raise ValueError(kind)
    invs = [_orthogonal_or_2x2_inverse(m) for m in mats]
    n = len(mats[0])
    pb, pb_inv = conj_basis(rng, n)
    mats_c = conj_all(pb, pb_inv, mats)
    invs_c = conj_all(pb, pb_inv, invs)
    labels = rng.sample(QUOTIENT_NAMES, len(gens))
    text = [f"kernel: Z^{n}", f"quotient: {perm_quotient_text(gens)}"] + matrix_lines(labels, mats_c)
    if kind == "c6_rot3":
        exp = expect("not_icc", "theorem-1(ii)", "quotient_lift",
                     element=f"{labels[0]}^3", evidence="action-identity")
    else:
        exp = expect("not_icc", "theorem-1(i)", "kernel_vector")
    return Case(f"finite_{kind}", text, exp, abelian(n), [perm_factor(gens)],
                labels, mats_c, invs_c)


MIXED_FINITE = {
    # name: finite generator pair (F1, F2) and inverses, generating a finite group
    "id1": ((((1,),), ((1,),)), (((1,),), ((1,),))),
    "neg1": ((((-1,),), ((1,),)), (((-1,),), ((1,),))),
    "d4": ((ROT4, REFLECT), (P.inv2(ROT4), REFLECT)),
    "s3": ((P.perm_matrix(S3_GENS[0]), P.perm_matrix(S3_GENS[1])),
           (P.perm_matrix(S3_GENS[0]), P.perm_matrix(perm_inverse(S3_GENS[1])))),
}


def mixed_infinite(rng, kind):
    """SL(2,Z) generators (+) a finite group, through a free quotient: the
    mod-3 closure meets an infinite-order Schreier element early, the
    candidate lattice is cut to the finite block, which is then certified."""
    (f1, f2), (f1i, f2i) = MIXED_FINITE[kind]
    a = P.block_diag(SL2_S, f1)
    b = P.block_diag(SL2_U, f2)
    ai = P.block_diag(P.inv2(SL2_S), f1i)
    bi = P.block_diag(P.inv2(SL2_U), f2i)
    n = len(a)
    p, p_inv = conj_basis(rng, n)
    mats = conj_all(p, p_inv, (a, b))
    invs = conj_all(p, p_inv, (ai, bi))
    u, v = rng.sample(QUOTIENT_NAMES, 2)
    text = [f"kernel: Z^{n}", f"quotient: free({u}, {v})"] + matrix_lines((u, v), mats)
    return Case(f"mixed_{kind}", text, expect("not_icc", "theorem-1(i)", "kernel_vector"),
                abelian(n), [free_factor(2)], (u, v), mats, invs)


def sl2_icc(rng):
    """SL(2,Z) itself through a free quotient: all orbits infinite, FC
    trivial, icc."""
    p, p_inv = conj_basis(rng, 2)
    mats = conj_all(p, p_inv, (SL2_S, SL2_U))
    invs = conj_all(p, p_inv, (P.inv2(SL2_S), P.inv2(SL2_U)))
    u, v = rng.sample(QUOTIENT_NAMES, 2)
    text = ["kernel: Z^2", f"quotient: free({u}, {v})"] + matrix_lines((u, v), mats)
    return Case("sl2_icc", text, expect("icc", "theorem-1"),
                abelian(2), [free_factor(2)], (u, v), mats, invs)


def degenerate(rng, kind, n=None):
    """A trivial kernel: the verdict is the quotient's own."""
    if kind == "trivial":
        return Case("degenerate_trivial", ["kernel: Z^0", "quotient: Z^0"],
                    expect("not_icc", "degenerate", "trivial_group"),
                    abelian(0), [abelian(0)], ())
    if kind == "free":
        u, v = rng.sample(QUOTIENT_NAMES, 2)
        return Case("degenerate_free", ["kernel: Z^0", f"quotient: free({u}, {v})"],
                    expect("icc", "degenerate"), abelian(0), [free_factor(2)], (u, v))
    if kind == "z":
        return Case("degenerate_z", ["kernel: Z^0", "quotient: Z"],
                    expect("not_icc", "degenerate", "quotient_lift", element="t1",
                           evidence="action-identity"),
                    abelian(0), [abelian(1)], ("t1",))
    if kind == "finite":
        gens = sn_generators(rng, n or rng.choice((3, 4)))
        return Case("degenerate_finite", ["kernel: Z^0", f"quotient: {perm_quotient_text(gens)}"],
                    expect("not_icc", "degenerate", "quotient_lift", evidence="action-identity"),
                    abelian(0), [perm_factor(gens)], ("q1", "q2"))
    if kind == "product":
        u, v = rng.sample(QUOTIENT_NAMES, 2)
        return Case("degenerate_product", ["kernel: Z^0", f"quotient: product(free({u}, {v}), Z)"],
                    expect("not_icc", "degenerate", "quotient_lift", element="t1",
                           evidence="action-identity"),
                    abelian(0), [free_factor(2), abelian(1)], (u, v, "t1"))
    raise ValueError(kind)


# -- free kernels --------------------------------------------------------------


def inner_power(rng, e):
    """x -> x, y -> x^e y x^-e: inner, with conjugator x^e."""
    x, y = rng.sample(KERNEL_NAMES, 2)
    phi = ((1,), P.reduce_word((1,) * e + (2,) + (-1,) * e))
    phi_inv = ((1,), P.reduce_word((-1,) * e + (2,) + (1,) * e))
    (t,) = rng.sample(QUOTIENT_NAMES, 1)
    names = (x, y)
    text = [f"kernel: free({x}, {y})", "quotient: Z"] + aut_lines((t,), (phi,), names)
    return Case("inner_power", text,
                expect("not_icc", "theorem-3(ii)", "quotient_lift", element=t,
                       evidence="inner-automorphism"),
                free_kernel(names), [abelian(1)], (t,), (phi,), (phi_inv,))


def inner_word(rng, rank, length):
    """Conjugation by a random reduced word: inner."""
    names = rng.sample(KERNEL_NAMES, rank)
    w = P.random_reduced_word(rng, rank, length)
    phi = P.inner(rank, w)
    phi_inv = P.inner(rank, P.inverse_word(w))
    (t,) = rng.sample(QUOTIENT_NAMES, 1)
    text = [f"kernel: free({', '.join(names)})", "quotient: Z"] + aut_lines((t,), (phi,), names)
    return Case(f"inner_word{rank}", text,
                expect("not_icc", "theorem-3(ii)", "quotient_lift", element=t,
                       evidence="inner-automorphism"),
                free_kernel(names), [abelian(1)], (t,), (phi,), (phi_inv,))


SIGNED_PERM_AUTS = {
    # name: (images, inverse images, order); rank from len(images)
    "swap": (((2,), (1,)), ((2,), (1,)), 2),
    "quarter": (((2,), (-1,)), ((-2,), (1,)), 4),
    "negate": (((-1,), (-2,)), ((-1,), (-2,)), 2),
    "cycle3": (((2,), (3,), (1,)), ((3,), (1,), (2,)), 3),
    "twist6": (((2,), (3,), (-1,)), ((-3,), (1,), (2,)), 6),
}


# Conjugating words for c_w o sigma, by rank.
TWIST_WORDS = {2: ((1,), (1, 2), (2, 1), (-2, 1)), 3: ((1,), (1, 2), (3,), (2, -3))}


def twisted(images, inv_images, w):
    """c_w o sigma and its inverse sigma^-1 o c_w^-1."""
    rank = len(images)
    cw = P.inner(rank, w)
    cw_inv = P.inner(rank, P.inverse_word(w))
    return P.aut_compose(cw, images), P.aut_compose(inv_images, cw_inv)


def finite_outer(rng, kind, w):
    """c_w o sigma for a signed permutation sigma of order k: the outer
    order is exactly k (the abelianization has order k, and sigma^k = 1
    makes the k-th power inner).  The word w is fixed by the plan, not the
    seed: how long the powers grow, and with it the cost, depends on it."""
    images, inv_images, k = SIGNED_PERM_AUTS[kind]
    rank = len(images)
    names = rng.sample(KERNEL_NAMES, rank)
    phi, phi_inv = twisted(images, inv_images, w)
    (t,) = rng.sample(QUOTIENT_NAMES, 1)
    text = [f"kernel: free({', '.join(names)})", "quotient: Z"] + aut_lines((t,), (phi,), names)
    return Case(f"outer_{kind}", text,
                expect("not_icc", "theorem-3(ii)", "quotient_lift",
                       element=f"{t}^{k}" if k > 1 else t, evidence="inner-automorphism"),
                free_kernel(names), [abelian(1)], (t,), (phi,), (phi_inv,))


INFINITE_OUTER = {
    # infinite order in Out(F_n): rank 2 via the abelianization, rank 3 an
    # IA automorphism fixing a and b (a power is inner only if it is 1)
    "transvection": (((1, 2), (2,)), ((1, -2), (2,))),
    "shear2": (((1,), (2, 1, 1)), ((1,), (2, -1, -1))),
    "commutator": (((1,), (2,), (3, 1, 2, -1, -2)), ((1,), (2,), (3, 2, 1, -2, -1))),
}


def out_unbounded(rng, kind, w):
    """Infinite outer order: no power up to the cap is inner, so the
    search ends unknown.  The word w is fixed by the plan (see
    finite_outer)."""
    images, inv_images = INFINITE_OUTER[kind]
    rank = len(images)
    names = rng.sample(KERNEL_NAMES, rank)
    phi, phi_inv = twisted(images, inv_images, w)
    (t,) = rng.sample(QUOTIENT_NAMES, 1)
    text = [f"kernel: free({', '.join(names)})", "quotient: Z"] + aut_lines((t,), (phi,), names)
    return Case(f"unbounded_{kind}", text,
                expect("unknown", "theorem-3(ii)", obstruction="out-order-unbounded"),
                free_kernel(names), [abelian(1)], (t,), (phi,), (phi_inv,))


def perm_free(rng, kind):
    """A finite permutation quotient permuting the generators of a free
    kernel.  Faithful, never inner: icc.  C_4 through the swap: q^2 acts
    as the identity."""
    if kind == "c2":
        gens, rank, sign = ((1, 0),), 2, False
    elif kind == "s3":
        gens, rank, sign = S3_GENS, 3, False
    elif kind == "s3_signed":
        gens, rank, sign = S3_GENS, 3, True
    elif kind == "s4":
        gens, rank, sign = sn_generators(rng, 4), 4, False
    elif kind == "s5":
        gens, rank, sign = sn_generators(rng, 5), 5, False
    elif kind == "c4_swap":
        gens, rank, sign = ((1, 2, 3, 0),), 2, False
    else:
        raise ValueError(kind)
    names = rng.sample(KERNEL_NAMES, rank)
    auts, invs = [], []
    for g in gens:
        if kind == "c4_swap":
            img = ((2,), (1,))
            auts.append(img)
            invs.append(img)
            continue
        s = -1 if sign and perm_sign(g) < 0 else 1
        gi = perm_inverse(g)
        auts.append(tuple((s * (g[j] + 1),) for j in range(rank)))
        invs.append(tuple((s * (gi[j] + 1),) for j in range(rank)))
    labels = rng.sample(QUOTIENT_NAMES, len(gens))
    text = [f"kernel: free({', '.join(names)})", f"quotient: {perm_quotient_text(gens)}"]
    text += aut_lines(labels, auts, names)
    if kind == "c4_swap":
        exp = expect("not_icc", "theorem-3(ii)", "quotient_lift", element=f"{labels[0]}^2",
                     evidence="inner-automorphism")
    else:
        exp = expect("icc", "theorem-3")
    return Case(f"permfree_{kind}", text, exp, free_kernel(names), [perm_factor(gens)],
                labels, auts, invs)


def free_trivial(rng, kind):
    """F_2 with a trivial-acting generator: the generator itself is the
    witness (conjugator 1); with no quotient at all the kernel is icc."""
    x, y = rng.sample(KERNEL_NAMES, 2)
    names = (x, y)
    ident = P.aut_identity(2)
    if kind == "z":
        (t,) = rng.sample(QUOTIENT_NAMES, 1)
        text = [f"kernel: free({x}, {y})", "quotient: Z"] + aut_lines((t,), (ident,), names)
        return Case("free_trivial_z", text,
                    expect("not_icc", "theorem-3(ii)", "quotient_lift", element=t,
                           evidence="inner-automorphism"),
                    free_kernel(names), [abelian(1)], (t,), (ident,), (ident,))
    if kind == "z2":
        # (max-norm, lex) order reaches (0, -1) before any other relation
        u, v = rng.sample(QUOTIENT_NAMES, 2)
        swap = ((2,), (1,))
        text = [f"kernel: free({x}, {y})", "quotient: Z^2"] + aut_lines((u, v), (swap, ident), names)
        return Case("free_trivial_z2", text,
                    expect("not_icc", "theorem-3(ii)", "quotient_lift", element=f"{v}^-1",
                           evidence="inner-automorphism"),
                    free_kernel(names), [abelian(2)], (u, v), (swap, ident), (swap, ident))
    if kind == "none":
        return Case("free_no_quotient", [f"kernel: free({x}, {y})", "quotient: Z^0"],
                    expect("icc", "theorem-3"), free_kernel(names), [abelian(0)], ())
    raise ValueError(kind)


def z2_free_relation(rng, e, w):
    """u -> phi, v -> phi^e with phi = c_w o (a transvection) of infinite
    outer order: the relation lattice is Z (-e, 1), first met at max-norm
    e.  The word w is fixed by the plan (see finite_outer)."""
    images, inv_images = INFINITE_OUTER["transvection"]
    names = rng.sample(KERNEL_NAMES, 2)
    phi, phi_inv = twisted(images, inv_images, w)
    phi_e = P.aut_pow(phi, e, phi_inv)
    phi_e_inv = P.aut_pow(phi_inv, e, phi)
    u, v = rng.sample(QUOTIENT_NAMES, 2)
    text = [f"kernel: free({', '.join(names)})", "quotient: Z^2"]
    text += aut_lines((u, v), (phi, phi_e), names)
    if e <= RELATION_BOUND:
        exp = expect("not_icc", "theorem-3(ii)", "quotient_lift", element=f"{u}^-{e} {v}",
                     evidence="inner-automorphism")
    else:
        exp = expect("unknown", "theorem-3(ii)", obstruction="abelian-relation-bound")
    return Case("z2_free_relation", text, exp, free_kernel(names), [abelian(2)], (u, v),
                (phi, phi_e), (phi_inv, phi_e_inv))


# -- multi-generator abelian and product quotients ------------------------------


def hyp_power(h, e):
    return P.mat_pow(h, e, P.inv2(h)), P.mat_pow(P.inv2(h), e, h)


def rel_word(labels, exps):
    parts = []
    for l, x in zip(labels, exps):
        if x:
            parts.append(l if x == 1 else f"{l}^{x}")
    return " ".join(parts)


def z2_on_z2(rng, e, negate):
    """u -> H, v -> (+-)H^e: the relation lattice is Z (-e, 1), or
    Z (-2e, 2) with the sign."""
    h = rng.choice(HYPERBOLIC)
    he, he_inv = hyp_power(h, e)
    if negate:
        he, he_inv = P.neg(he), P.neg(he_inv)
    p, p_inv = conj_basis(rng, 2)
    mats = conj_all(p, p_inv, (h, he))
    invs = conj_all(p, p_inv, (P.inv2(h), he_inv))
    u, v = rng.sample(QUOTIENT_NAMES, 2)
    text = ["kernel: Z^2", "quotient: Z^2"] + matrix_lines((u, v), mats)
    rel = (-2 * e, 2) if negate else (-e, 1)
    if max(map(abs, rel)) <= RELATION_BOUND:
        exp = expect("not_icc", "theorem-1(ii)", "quotient_lift",
                     element=rel_word((u, v), rel), evidence="action-identity")
    else:
        exp = expect("unknown", "theorem-1(ii)", obstruction="abelian-relation-bound")
    return Case("z2_on_z2", text, exp, abelian(2), [abelian(2)], (u, v), mats, invs)


def z3_on_z4(rng, a, b, bound=RELATION_BOUND):
    """u -> H1 (+) 1, v -> 1 (+) H2, w -> H1^a (+) H2^b: the relation
    lattice is Z (-a, -b, 1).  Past ``bound`` the whole exponent box is
    searched."""
    h1, h2 = rng.sample(HYPERBOLIC, 2)
    i2 = P.identity(2)
    h1a, h1a_inv = hyp_power(h1, a)
    h2b, h2b_inv = hyp_power(h2, b)
    raw = (P.block_diag(h1, i2), P.block_diag(i2, h2), P.block_diag(h1a, h2b))
    raw_inv = (P.block_diag(P.inv2(h1), i2), P.block_diag(i2, P.inv2(h2)),
               P.block_diag(h1a_inv, h2b_inv))
    p, p_inv = conj_basis(rng, 4, steps=6)
    mats = conj_all(p, p_inv, raw)
    invs = conj_all(p, p_inv, raw_inv)
    labels = rng.sample(QUOTIENT_NAMES, 3)
    text = ["kernel: Z^4", "quotient: Z^3"] + matrix_lines(labels, mats)
    rel = (-a, -b, 1)
    if max(map(abs, rel)) <= bound:
        exp = expect("not_icc", "theorem-1(ii)", "quotient_lift",
                     element=rel_word(labels, rel), evidence="action-identity")
    else:
        exp = expect("unknown", "theorem-1(ii)", obstruction="abelian-relation-bound")
    args = () if bound == RELATION_BOUND else ("--relation-bound", str(bound))
    return Case("z3_on_z4", text, exp, abelian(4), [abelian(3)], labels, mats, invs, args)


def z2_torsion_quotient(rng, e):
    """Z^2 + Z/2 acting by H, H^e, -1: the first relation is (-e, 1, 0)."""
    h = rng.choice(HYPERBOLIC)
    he, he_inv = hyp_power(h, e)
    neg = P.neg(P.identity(2))
    p, p_inv = conj_basis(rng, 2)
    mats = conj_all(p, p_inv, (h, he, neg))
    invs = conj_all(p, p_inv, (P.inv2(h), he_inv, neg))
    labels = rng.sample(QUOTIENT_NAMES, 3)
    text = ["kernel: Z^2", "quotient: Z^2 + Z/2"] + matrix_lines(labels, mats)
    exp = expect("not_icc", "theorem-1(ii)", "quotient_lift",
                 element=rel_word(labels, (-e, 1, 0)), evidence="action-identity")
    return Case("z2_torsion_quotient", text, exp, abelian(2), [abelian(2, (2,))],
                labels, mats, invs)


def fixed_line(rng):
    """Two commuting actions with a common fixed line: that line is the
    finite-orbit sublattice, with trivial induced action."""
    h = rng.choice(HYPERBOLIC)
    h2, h2_inv = hyp_power(h, 2)
    raw = (P.block_diag(h, ((1,),)), P.block_diag(h2, ((1,),)))
    raw_inv = (P.block_diag(P.inv2(h), ((1,),)), P.block_diag(h2_inv, ((1,),)))
    p, p_inv = conj_basis(rng, 3)
    mats = conj_all(p, p_inv, raw)
    invs = conj_all(p, p_inv, raw_inv)
    u, v = rng.sample(QUOTIENT_NAMES, 2)
    text = ["kernel: Z^3", "quotient: Z^2"] + matrix_lines((u, v), mats)
    return Case("fixed_line", text, expect("not_icc", "theorem-1(i)", "kernel_vector"),
                abelian(3), [abelian(2)], (u, v), mats, invs)


def product_cap(rng):
    """product(Z^2, Z^2, Z^2) on Z^2: ((2B+1)^2)^3 candidates exceed the
    enumeration cap, found once each factor's candidates are built."""
    h = rng.choice(HYPERBOLIC)
    exps = rng.sample((1, 2, 3, -1, -2, -3), 6)
    mats, invs = [], []
    p, p_inv = conj_basis(rng, 2)
    for x in exps:
        m, mi = hyp_power(h, x)
        mats.append(P.conjugate(p, p_inv, m))
        invs.append(P.conjugate(p, p_inv, mi))
    labels = rng.sample(QUOTIENT_NAMES, 6)
    assert ((2 * RELATION_BOUND + 1) ** 2) ** 3 > FC_CAP
    text = ["kernel: Z^2", "quotient: product(Z^2, Z^2, Z^2)"] + matrix_lines(labels, mats)
    return Case("product_cap", text,
                expect("unknown", "theorem-1(ii)", obstruction="fc-enumeration-too-large"),
                abelian(2), [abelian(2)] * 3, labels, mats, invs)


def product_relation(rng, kind, e=0):
    """Products with an infinite factor: a relation inside the bound is
    found, otherwise the search ends unknown."""
    if kind == "z_c2":
        h = rng.choice(HYPERBOLIC)
        neg = P.neg(P.identity(2))
        p, p_inv = conj_basis(rng, 2)
        mats = conj_all(p, p_inv, (h, neg))
        invs = conj_all(p, p_inv, (P.inv2(h), neg))
        labels = rng.sample(QUOTIENT_NAMES, 2)
        text = ["kernel: Z^2", "quotient: product(Z, finite perm((1 2)))"] + matrix_lines(labels, mats)
        return Case("product_z_c2", text,
                    expect("unknown", "theorem-1(ii)", obstruction="product-relation-bound"),
                    abelian(2), [abelian(1), perm_factor(((1, 0),))], labels, mats, invs)
    if kind == "z2_c2":
        h1, h2 = rng.sample(HYPERBOLIC, 2)
        i2 = P.identity(2)
        raw = (P.block_diag(h1, i2), P.block_diag(i2, h2), P.neg(P.identity(4)))
        raw_inv = (P.block_diag(P.inv2(h1), i2), P.block_diag(i2, P.inv2(h2)), P.neg(P.identity(4)))
        p, p_inv = conj_basis(rng, 4, steps=6)
        mats = conj_all(p, p_inv, raw)
        invs = conj_all(p, p_inv, raw_inv)
        labels = rng.sample(QUOTIENT_NAMES, 3)
        text = ["kernel: Z^4", "quotient: product(Z^2, finite perm((1 2)))"] + matrix_lines(labels, mats)
        return Case("product_z2_c2", text,
                    expect("unknown", "theorem-1(ii)", obstruction="product-relation-bound"),
                    abelian(4), [abelian(2), perm_factor(((1, 0),))], labels, mats, invs)
    if kind == "z_z":
        h = rng.choice(HYPERBOLIC)
        he, he_inv = hyp_power(h, e)
        p, p_inv = conj_basis(rng, 2)
        mats = conj_all(p, p_inv, (h, he))
        invs = conj_all(p, p_inv, (P.inv2(h), he_inv))
        labels = rng.sample(QUOTIENT_NAMES, 2)
        text = ["kernel: Z^2", "quotient: product(Z, Z)"] + matrix_lines(labels, mats)
        if e <= RELATION_BOUND:
            exp = expect("not_icc", "theorem-1(ii)", "quotient_lift",
                         element=rel_word(labels, (-e, 1)), evidence="action-identity")
        else:
            exp = expect("unknown", "theorem-1(ii)", obstruction="product-relation-bound")
        return Case("product_z_z", text, exp, abelian(2), [abelian(1), abelian(1)],
                    labels, mats, invs)
    raise ValueError(kind)


# -- finite kernels --------------------------------------------------------------


def finite_kernel(rng, kind):
    """A nontrivial finite kernel is a finite normal subgroup: never icc."""
    if kind == "c3":
        gens, order = ((1, 2, 0),), 3
    elif kind == "s3":
        gens, order = S3_GENS, 6
    elif kind == "c5":
        gens, order = ((1, 2, 3, 4, 0),), 5
    else:
        raise ValueError(kind)
    first_order = 1
    g = gens[0]
    x = g
    while x != tuple(range(len(g))):
        x = P.perm_mul(g, x)
        first_order += 1
    shape = rng.choice(("Z", "free", "finite"))
    if shape == "Z":
        quotient = "Z"
    elif shape == "free":
        quotient = f"free({', '.join(rng.sample(QUOTIENT_NAMES, 2))})"
    else:
        quotient = perm_quotient_text(sn_generators(rng, rng.choice((2, 3, 4))))
    return Case(f"finite_kernel_{kind}", [f"kernel: {perm_quotient_text(gens)}", f"quotient: {quotient}"],
                expect("not_icc", "theorem-2(i)", "kernel_torsion",
                       class_bound=order, element_order=first_order),
                {"kind": "finite", "order": order}, [], ())


# -- the workloads -------------------------------------------------------------


def _lattice(rng):
    plan = []
    plan += [(sn_free, (3,))] * 8 + [(sn_free, (4,))] * 8 + [(sn_free, (5,))] * 6
    plan += [(sn_free, (6,))] * 3
    plan += [(signed_sn_free, (3,))] * 4 + [(signed_sn_free, (4,))] * 2
    for block in ("neg1", "id1", "rot4", "rot3", "rot6", "swap", "cyc3"):
        plan += [(hyp_finite, (block,))] * 3
    plan += [(hyp_icc, (1,))] * 6 + [(hyp_icc, (2,))] * 4
    for kind in FINITE_ORDER:
        plan += [(finite_order_z, (kind,))] * 2
    plan += [(torsion, (2, "Z"))] * 3 + [(torsion, (0, "Z"))] * 2
    plan += [(torsion, (2, "free"))] * 3
    for kind in ("s3_perm", "s3_sign", "s3_rot", "d4", "s4_perm", "c6_rot3"):
        plan += [(finite_quotient, (kind,))] * 2
    for kind in MIXED_FINITE:
        plan += [(mixed_infinite, (kind,))] * 2
    plan += [(sl2_icc, ())] * 4
    for kind in ("trivial", "free", "z", "finite", "product"):
        plan += [(degenerate, (kind,))]
    return plan


def _outer(rng):
    plan = []
    for e in (10, 20, 30, 40, 60, 80, 100):
        plan += [(inner_power, (e,))] * 2
    plan += [(inner_word, (2, 8))] * 6 + [(inner_word, (3, 6))] * 6
    plan += [(inner_word, (2, 4))] * 6
    for kind, (images, _, _) in SIGNED_PERM_AUTS.items():
        words = TWIST_WORDS[len(images)]
        plan += [(finite_outer, (kind, w)) for w in words]
    for kind in INFINITE_OUTER:
        # c_x3 o (x3 -> x3 [x1, x2]) is left out: its powers trip a known
        # defect of FreeAut validation (see README.md).
        plan += [(out_unbounded, (kind, w)) for w in ((), (1,), (1, 2))]
    for kind in ("c2", "s3", "s3_signed", "s4", "c4_swap"):
        plan += [(perm_free, (kind,))] * 4
    plan += [(perm_free, ("s5",))] * 1
    plan += [(free_trivial, ("z",))] * 5 + [(free_trivial, ("z2",))] * 5
    plan += [(free_trivial, ("none",))] * 3
    for e in (2, 3, 4, 5, 6, 9):
        plan += [(z2_free_relation, (e, ()))]
    plan += [(z2_free_relation, (3, (1,))), (out_unbounded, ("transvection", ()))] * 2
    return plan


def _relations(rng):
    plan = []
    for e in (1, 2, 3, 4, 5, 6, 7, 8, 9, 12):
        plan += [(z2_on_z2, (e, False))] * 2
    for e in (1, 2, 3, 4, 5):
        plan += [(z2_on_z2, (e, True))] * 2
    for e in (1, 2, 3, 4):
        plan += [(z2_on_z2, (e, False))] * 2
    for a, b in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)):
        plan += [(z3_on_z4, (a, b))] * 2
    plan += [(z3_on_z4, (1, 1)), (z3_on_z4, (2, 2))] * 2
    plan += [(z3_on_z4, (4, 3)), (z3_on_z4, (6, 2, 5))]
    for e in (1, 2, 3, 4, 5, 6):
        plan += [(z2_torsion_quotient, (e,))] * 2
    plan += [(fixed_line, ())] * 10
    plan += [(product_cap, ())]
    plan += [(product_relation, ("z_c2",))] * 10 + [(product_relation, ("z2_c2",))] * 2
    for e in (1, 2, 3, 5, 8, 9):
        plan += [(product_relation, ("z_z", e))] * 2
    return plan


def _crosscheck(rng):
    plan = []
    plan += [(hyp_icc, (1,))] * 3 + [(sl2_icc, ())] * 2
    plan += [(perm_free, ("c2",))] * 2 + [(perm_free, ("s3",))] * 1
    plan += [(hyp_finite, ("neg1",))] * 6 + [(hyp_finite, ("swap",))] * 4
    plan += [(hyp_finite, ("rot4",))] * 4
    for kind in ("rot4", "rot3", "rot6", "swap", "cyc4"):
        plan += [(finite_order_z, (kind,))] * 3
    plan += [(torsion, (2, "Z"))] * 4 + [(torsion, (2, "free"))] * 3
    plan += [(torsion, (0, "Z"))] * 2
    plan += [(finite_quotient, ("s3_perm",))] * 3 + [(finite_quotient, ("c6_rot3",))] * 3
    plan += [(finite_quotient, ("d4",))] * 3
    for kind in ("c3", "s3", "c5"):
        plan += [(finite_kernel, (kind,))] * 3
    plan += [(inner_power, (3,))] * 4 + [(inner_word, (2, 3))] * 4
    plan += [(finite_outer, ("swap", (1,)))] * 3 + [(finite_outer, ("quarter", (2,)))] * 3
    plan += [(free_trivial, ("z",))] * 4 + [(perm_free, ("c4_swap",))] * 3
    plan += [(degenerate, ("trivial",)), (degenerate, ("z",))]
    # S_3 only: a class of S_4 can need more conjugation rounds than the radius
    plan += [(degenerate, ("finite", 3))] * 2 + [(degenerate, ("product",))] * 2
    plan += [(z2_on_z2, (2, False))] * 3 + [(product_relation, ("z_z", 3))] * 2
    return plan


PLANS = {"lattice": _lattice, "outer": _outer, "relations": _relations, "crosscheck": _crosscheck}

ORACLE_RADIUS = 4


def _shipped(repo_root):
    """The shipped examples, with the outcomes their README documents."""
    ext = os.path.join(repo_root, "extensions")
    out = []
    specs = {
        "sol.ext": expect("icc", "theorem-1"),
        "klein.ext": expect("not_icc", "theorem-1(i)", "kernel_vector"),
        "swap.ext": expect("icc", "theorem-3"),
        "f2xz.ext": expect("not_icc", "theorem-3(ii)", "quotient_lift", element="t",
                           evidence="inner-automorphism"),
        "bad.ext": {"exit": 2},
    }
    models = {
        "sol.ext": (abelian(2), [abelian(1)], ("t",), [((2, 1), (1, 1))], [((1, -1), (-1, 2))]),
        "klein.ext": (abelian(1), [abelian(1)], ("t",), [((-1,),)], [((-1,),)]),
        "swap.ext": (free_kernel(("a", "b")), [perm_factor(((1, 0),))], ("q",),
                     [((2,), (1,))], [((2,), (1,))]),
        "f2xz.ext": (free_kernel(("a", "b")), [abelian(1)], ("t",),
                     [((1,), (2,))], [((1,), (2,))]),
        "bad.ext": (abelian(2), [abelian(1)], ("t",), [], []),
    }
    for name in sorted(specs):
        with open(os.path.join(ext, name), encoding="utf-8") as f:
            text = f.read()
        kernel, quotient, labels, acts, invs = models[name]
        case = Case("shipped_" + name[:-4], text.splitlines(), specs[name], kernel, quotient,
                    labels, acts, invs)
        out.append(case)
    return out


def build(workload, seed, repo_root):
    """The workload's cases for this seed, in their (seeded) run order."""
    if workload not in PLANS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"icckit-bench:{workload}:{seed}")
    cases = _shipped(repo_root) if workload == "crosscheck" else []
    texts = {tuple(c.text) for c in cases}
    for fn, params in PLANS[workload](rng):
        for _ in range(50):  # redraw the rare case whose text repeats an earlier one
            case = fn(rng, *params)
            if tuple(case.text) not in texts:
                break
        else:
            raise ValueError(f"{fn.__name__}{params} keeps repeating an input")
        texts.add(tuple(case.text))
        cases.append(case)
    if workload == "crosscheck":
        for c in cases:
            if c.expect.get("exit", 0) == 0:
                c.args += ["--oracle-radius", str(ORACLE_RADIUS)]
                c.expect["oracle"] = True
    rng.shuffle(cases)
    counts = {}
    out = []
    for c in cases:
        n = counts.get(c.family, 0)
        counts[c.family] = n + 1
        out.append((f"{c.family}-{n:02d}", c))
    return out


def write(workload, seed, out_dir, repo_root):
    """Write the case files and manifest; returns the manifest."""
    cases = build(workload, seed, repo_root)
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "cases": []}
    texts = set()
    for case_id, c in cases:
        text = "\n".join(c.text) + "\n"
        if text in texts:
            raise ValueError(f"duplicate input {case_id}")
        texts.add(text)
        with open(os.path.join(out_dir, case_id + ".ext"), "w", encoding="utf-8") as f:
            f.write(text)
        manifest["cases"].append(c.to_json(case_id))
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")
    return manifest


def coverage(seed, repo_root):
    paths, obstructions = {}, {}
    for w in WORKLOADS:
        for _, c in build(w, seed, repo_root):
            e = c.expect
            if "theorem_path" in e:
                paths.setdefault(e["theorem_path"], set()).add(w)
            if e.get("obstruction"):
                obstructions.setdefault(e["obstruction"], set()).add(w)
    return paths, obstructions


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--coverage", action="store_true",
                    help="print which workloads hit each theorem path and obstruction")
    args = ap.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if args.coverage:
        paths, obstructions = coverage(args.seed, root)
        for k in sorted(paths):
            print(f"path {k}: {', '.join(sorted(paths[k]))}")
        for k in sorted(obstructions):
            print(f"obstruction {k}: {', '.join(sorted(obstructions[k]))}")
        return 0
    if not (args.workload and args.out):
        ap.error("--workload and --out are required")
    m = write(args.workload, args.seed, args.out, root)
    print(f"{len(m['cases'])} cases written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
