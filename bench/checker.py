"""Independent checks of ``icckit check --format json`` output.

Every judgement is re-derived from the manifest's plain data with the
tuple arithmetic in ``plain.py``; nothing here imports ``icckit``.  A
case passes when the exit code, verdict, theorem path and obstruction
match the manifest and its witness re-verifies:

- ``kernel_vector``: the orbit holds the vector and is closed under every
  action matrix and its inverse;
- ``kernel_torsion``: ``class_bound`` (and the element order) match the
  kernel's torsion;
- ``quotient_lift``: the element is a nontrivial element of FC(Q) and its
  action multiplies out to the identity (``action-identity``) or to
  conjugation by the reported word (``inner-automorphism``);
- an oracle cross-check, when requested, reports ``consistent``.
"""

from __future__ import annotations

import json
import re

import plain as P

DIAGNOSTIC = re.compile(r":\d+:\d+: \[(syntax|validation)\] ")


def check(case, code, out, err):
    """Problems with one run of a case; an empty list means it passed."""
    exp = case["expect"]
    if code != exp["exit"]:
        return [f"exit code {code}, expected {exp['exit']}: {err.strip()[:200]}"]
    if code != 0:
        problems = []
        if out:
            problems.append("rejected input printed a report")
        if code == 2 and not DIAGNOSTIC.search(err):
            problems.append(f"no located diagnostic: {err.strip()[:200]}")
        return problems
    try:
        report = json.loads(out)
    except ValueError as e:
        return [f"output is not JSON: {e}"]
    return check_report(case, report)


def check_report(case, report):
    exp = case["expect"]
    problems = []
    for key in ("verdict", "theorem_path", "obstruction"):
        if report.get(key) != exp[key]:
            problems.append(f"{key} {report.get(key)!r}, expected {exp[key]!r}")
    witness = report.get("witness")
    kind = witness.get("type") if isinstance(witness, dict) else None
    if kind != exp["witness"]:
        problems.append(f"witness {kind!r}, expected {exp['witness']!r}")
    statuses = {c.get("status") for c in report.get("condition_results", ())}
    wanted = {"icc": "holds", "not_icc": "fails", "unknown": "unknown"}[exp["verdict"]]
    if wanted not in statuses or (exp["verdict"] == "icc" and statuses != {"holds"}):
        problems.append(f"condition statuses {sorted(statuses)} do not support {exp['verdict']}")
    oracle = report.get("oracle_crosscheck")
    if exp.get("oracle"):
        if not (isinstance(oracle, dict) and oracle.get("consistent") is True):
            problems.append(f"oracle cross-check not consistent: {oracle!r}")
    elif oracle is not None:
        problems.append("unrequested oracle cross-check")
    if problems or kind is None:
        return problems
    try:
        if kind == "kernel_vector":
            problems += _kernel_vector(case, witness)
        elif kind == "kernel_torsion":
            problems += _kernel_torsion(case, witness)
        elif kind == "quotient_lift":
            problems += _quotient_lift(case, witness)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        problems.append(f"malformed {kind} witness: {e!r}")
    return problems


def _actions_with_inverses(case):
    """Action data from the manifest, after checking each inverse."""
    acts = [_tuplify(a) for a in case["actions"]]
    invs = [_tuplify(a) for a in case["inverses"]]
    if case["kernel"]["kind"] == "abelian":
        ident = P.identity(case["kernel"]["rank"])
        for a, b in zip(acts, invs):
            if P.matmul(a, b) != ident:
                raise ValueError("manifest inverse is wrong")
    else:
        ident = P.aut_identity(case["kernel"]["rank"])
        for a, b in zip(acts, invs):
            if P.aut_compose(a, b) != ident:
                raise ValueError("manifest inverse is wrong")
    return acts, invs


def _tuplify(x):
    if isinstance(x, list):
        return tuple(_tuplify(y) for y in x)
    return x


def _kernel_vector(case, w):
    rank = case["kernel"]["rank"]
    v = tuple(w["vector"])
    orbit = [tuple(x) for x in w["orbit"]]
    problems = []
    if len(v) != rank or not any(v):
        problems.append(f"vector {v} is not a nonzero vector of Z^{rank}")
    if w["orbit_size"] != len(orbit) or len(set(orbit)) != len(orbit):
        problems.append("orbit_size disagrees with the listed orbit")
    members = set(orbit)
    if v not in members:
        problems.append("orbit does not contain the vector")
    acts, invs = _actions_with_inverses(case)
    for m in acts + invs:
        for x in orbit:
            if P.apply(m, x) not in members:
                return problems + [f"orbit not closed: {x} leaves it"]
    return problems


def _kernel_torsion(case, w):
    exp = case["expect"]
    problems = []
    if w["class_bound"] != exp["class_bound"]:
        problems.append(f"class_bound {w['class_bound']}, expected {exp['class_bound']}")
    if w["element_order"] != exp["element_order"]:
        problems.append(f"element_order {w['element_order']}, expected {exp['element_order']}")
    return problems


def parse_element(text, labels):
    """'u^-2 v' -> [(index, exponent), ...]; '1' is the empty word."""
    if text == "1":
        return []
    out = []
    for tok in text.split(" "):
        name, _, exp = tok.partition("^")
        out.append((labels.index(name), int(exp) if exp else 1))
    return out


def parse_kernel_word(text, names):
    """'a b^-1' (one letter per token) -> (1, -2)."""
    if text == "1":
        return ()
    out = []
    for tok in text.split(" "):
        name, _, exp = tok.partition("^")
        e = int(exp) if exp else 1
        if e not in (1, -1):
            raise ValueError(f"unexpected exponent in {tok!r}")
        out.append(e * (names.index(name) + 1))
    return P.reduce_word(out)


def _factor_slices(case):
    pos = 0
    out = []
    for f in case["quotient"]:
        n = f["rank"] + len(f.get("divisors", ())) if f["kind"] != "perm" else len(f["gens"])
        out.append((f, pos, pos + n))
        pos += n
    return out


def _element_problems(case, letters):
    """Is the element nontrivial and of finite class in the quotient?"""
    slices = _factor_slices(case)
    nontrivial = False
    for f, lo, hi in slices:
        mine = [(i - lo, e) for i, e in letters if lo <= i < hi]
        if not mine:
            continue
        if f["kind"] == "free":
            if f["rank"] >= 2:
                return ["element involves a free factor, whose FC is trivial"]
            nontrivial = nontrivial or sum(e for _, e in mine) != 0
        elif f["kind"] == "abelian":
            sums = [0] * (hi - lo)
            for i, e in mine:
                sums[i] += e
            mods = [0] * f["rank"] + list(f["divisors"])
            nontrivial = nontrivial or any(
                (s % m if m else s) != 0 for s, m in zip(sums, mods))
        else:
            gens = [tuple(g) for g in f["gens"]]
            acc = tuple(range(len(gens[0])))
            for i, e in mine:
                if e < 0:
                    raise ValueError("negative letter in a permutation word")
                for _ in range(e):
                    acc = P.perm_mul(acc, gens[i])
            nontrivial = nontrivial or acc != tuple(range(len(acc)))
    return [] if nontrivial else ["the witness element is trivial in the quotient"]


def _quotient_lift(case, w):
    exp = case["expect"]
    problems = []
    if "element" in exp and w["element"] != exp["element"]:
        problems.append(f"element {w['element']!r}, expected {exp['element']!r}")
    evidence = w["evidence"]
    if evidence["kind"] != exp["evidence"]:
        problems.append(f"evidence {evidence['kind']!r}, expected {exp['evidence']!r}")
    if "order" in exp and evidence.get("order") != exp["order"]:
        problems.append(f"order {evidence.get('order')}, expected {exp['order']}")
    letters = parse_element(w["element"], case["labels"])
    problems += _element_problems(case, letters)
    if problems:
        return problems
    kernel = case["kernel"]
    if kernel["kind"] == "abelian":
        if kernel["rank"] == 0:
            return []
        acts, invs = _actions_with_inverses(case)
        total = P.identity(kernel["rank"])
        for i, e in letters:
            total = P.matmul(total, P.mat_pow(acts[i], e, invs[i]))
        if total != P.identity(kernel["rank"]):
            return ["the element does not act as the identity"]
        return []
    acts, invs = _actions_with_inverses(case)
    total = P.aut_identity(kernel["rank"])
    for i, e in letters:
        total = P.aut_compose(total, P.aut_pow(acts[i], e, invs[i]))
    c = parse_kernel_word(evidence.get("conjugator", ""), kernel["names"])
    if total != P.inner(kernel["rank"], c):
        return ["the element's action is not conjugation by the reported word"]
    return []


# -- corrupted witnesses --------------------------------------------------------


def corruptions(case, report):
    """Deliberately broken copies of a passing report, one per way a
    witness can lie; the checker must reject every one."""
    w = report.get("witness")
    out = []

    def variant(label, mutate):
        r = json.loads(json.dumps(report))
        mutate(r)
        out.append((label, r))

    if report["verdict"] != "unknown":
        variant("flipped verdict", lambda r: r.update(
            verdict="icc" if r["verdict"] == "not_icc" else "not_icc"))
    if not isinstance(w, dict):
        return out
    if w["type"] == "kernel_vector":
        def drop(r):
            r["witness"]["orbit"].pop()
            r["witness"]["orbit_size"] -= 1

        def bump(r):
            r["witness"]["orbit"][-1][0] += 1

        variant("orbit missing a vector", drop)
        variant("orbit vector moved", bump)
    elif w["type"] == "kernel_torsion":
        variant("class bound off by one",
                lambda r: r["witness"].update(class_bound=r["witness"]["class_bound"] + 1))
    elif w["type"] == "quotient_lift":
        variant("trivial element", lambda r: r["witness"].update(element="1"))
        if w["evidence"]["kind"] == "inner-automorphism":
            first = case["kernel"]["names"][0]

            def conj(r):
                ev = r["witness"]["evidence"]
                c = ev.get("conjugator", "1")
                ev["conjugator"] = first if c == "1" else c + " " + first

            variant("wrong conjugator", conj)
    return out


def try_corruptions(case, report):
    """How many corrupted copies were tried, and the labels of those the
    checker wrongly accepted (none, when it works)."""
    variants = corruptions(case, report)
    return len(variants), [label for label, bad in variants if not check_report(case, bad)]
