"""The extension description language: parser and pretty-printer.

Line-oriented, one extension per file::

    kernel: Z^2
    quotient: Z
    action t -> [[2,1],[1,1]]

Kernel and quotient forms: ``Z^r`` (``Z`` abbreviates ``Z^1``) with an
optional torsion chain ``+ Z/d1 + Z/d2``; ``free(a, b)``;
``finite perm((1 2); (1 2 3))`` with generators separated by ``;``.
Quotients may additionally be ``product(Q1, Q2, ...)``.  One ``action``
line per quotient generator, positional; the right-hand side is a square
integer matrix for abelian kernels or a generator-image map
``(a -> b a^-1, b -> a)`` for free kernels.  Missing action lines mean
the trivial action.

All diagnostics carry a 1-based line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .catalog import (
    FgAbelianDesc,
    FiniteGroupDesc,
    FreeDesc,
    GroupDesc,
    ProductDesc,
    factor_offsets,
    generator_count,
    generator_labels,
    make_product,
)
from .extension import (
    ExtensionSpec,
    ExtensionValidationError,
    UnsupportedExtensionError,
    make_extension,
)
from .intlinalg import IntMatrix
from .words import FreeAut, render_word


class Diagnostic(Exception):
    """A located parse or validation error."""

    def __init__(self, line: int, col: int, code: str, message: str):
        super().__init__(f"line {line}, col {col}: [{code}] {message}")
        self.line = line
        self.col = col
        self.code = code  # "syntax" | "validation"
        self.message = message


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _split_top_level(text: str, sep: str) -> list[str]:
    """Split on a separator at paren/bracket depth zero."""
    if not any(ch in text for ch in "()[]"):
        return text.split(sep)
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


@dataclass
class _Cursor:
    line_no: int
    text: str
    base_col: int = 1

    def err(self, code: str, message: str, col: int | None = None) -> Diagnostic:
        return Diagnostic(self.line_no, self.base_col if col is None else col, code, message)


def _int(digits: str, cur: _Cursor) -> int:
    """The integer that ``digits`` spells, matched as decimal digits; one
    past the interpreter's limit on digits converted is a syntax
    diagnostic, not a crash."""
    try:
        return int(digits)
    except ValueError:
        raise cur.err("syntax", f"integer literal too long: {len(digits.strip())} characters") from None


def _parse_torsion_atom(atom: str, cur: _Cursor) -> int:
    m = re.fullmatch(r"Z/(\d+)", atom.strip())
    if not m:
        raise cur.err("syntax", f"expected Z/<int>, got {atom.strip()!r}")
    return _int(m.group(1), cur)


def _parse_abelian(text: str, cur: _Cursor) -> FgAbelianDesc:
    parts = [p.strip() for p in _split_top_level(text, "+")]
    head = parts[0]
    if head == "Z":
        rank = 1
    else:
        m = re.fullmatch(r"Z\^(\d+)", head)
        if m:
            rank = _int(m.group(1), cur)
        elif head.startswith("Z/"):
            rank = 0
            parts = ["Z^0"] + parts
        else:
            raise cur.err("syntax", f"expected Z, Z^<int> or Z/<int>, got {head!r}")
    divisors = tuple(_parse_torsion_atom(p, cur) for p in parts[1:])
    try:
        return FgAbelianDesc(rank, divisors)
    except ValueError as e:
        raise cur.err("validation", str(e))


def _parse_names(inner: str, cur: _Cursor) -> tuple[str, ...]:
    names = [n.strip() for n in inner.split(",")]
    for n in names:
        if not _NAME_RE.fullmatch(n):
            raise cur.err("syntax", f"bad generator name {n!r}")
    if len(set(names)) != len(names):
        raise cur.err("validation", "duplicate generator names")
    return tuple(names)


def _parse_cycles(text: str, cur: _Cursor) -> list[list[int]]:
    cycles = []
    rest = text.strip()
    while rest:
        if not rest.startswith("("):
            raise cur.err("syntax", f"expected a cycle '(...)', got {rest!r}")
        close = rest.find(")")
        if close < 0:
            raise cur.err("syntax", "unclosed cycle")
        body = rest[1:close].strip()
        points = []
        if body:
            for tok in body.split():
                point = _int(tok, cur) if tok.isdecimal() else 0
                if point < 1:
                    raise cur.err("syntax", f"cycle points are positive integers, got {tok!r}")
                points.append(point)
        if len(set(points)) != len(points):
            raise cur.err("validation", "repeated point in a cycle")
        cycles.append(points)
        rest = rest[close + 1:].strip()
    return cycles


def _perm_from_cycles(cycles: list[list[int]], degree: int) -> tuple[int, ...]:
    """Apply the cycles left to right to the identity permutation."""
    perm = list(range(degree))
    for cyc in cycles:
        step = list(range(degree))
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            step[a - 1] = b - 1
        perm = [step[perm[i]] for i in range(degree)]
    return tuple(perm)


def _parse_finite(text: str, cur: _Cursor) -> FiniteGroupDesc:
    body = text.strip()
    if not body.startswith("perm"):
        raise cur.err("syntax", f"expected 'perm(...)', got {body!r}")
    body = body[len("perm"):].strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise cur.err("syntax", "perm spec needs parentheses")
    gen_texts = _split_top_level(body[1:-1], ";")
    all_cycles = [_parse_cycles(g, cur) for g in gen_texts]
    degree = max(
        (p for cycles in all_cycles for cyc in cycles for p in cyc), default=1
    )
    gens = [_perm_from_cycles(cycles, degree) for cycles in all_cycles]
    try:
        return FiniteGroupDesc.from_generators(degree, gens)
    except ValueError as e:
        raise cur.err("validation", str(e))


def _parse_group(text: str, cur: _Cursor, allow_product: bool) -> GroupDesc:
    body = text.strip()
    if body.startswith("free"):
        inner = body[len("free"):].strip()
        if not (inner.startswith("(") and inner.endswith(")")):
            raise cur.err("syntax", "free(...) needs parentheses")
        names = _parse_names(inner[1:-1], cur)
        return FreeDesc(len(names), names)
    if body.startswith("finite"):
        return _parse_finite(body[len("finite"):], cur)
    if body.startswith("product"):
        if not allow_product:
            raise cur.err("validation", "product kernels are not supported")
        inner = body[len("product"):].strip()
        if not (inner.startswith("(") and inner.endswith(")")):
            raise cur.err("syntax", "product(...) needs parentheses")
        factor_texts = _split_top_level(inner[1:-1], ",")
        if len(factor_texts) < 2:
            raise cur.err("syntax", "product needs at least two factors")
        factors = [_parse_group(t, cur, allow_product=True) for t in factor_texts]
        return make_product(factors)
    return _parse_abelian(body, cur)


_MATRIX_CHARS_RE = re.compile(r"[-+0-9.,()\[\]\s]*")
_INT_RE = re.compile(r"\s*[-+]?[0-9]+\s*")
# a list of nonempty rows of signed decimal entries of at most 18 digits
_INT_ROWS_RE = re.compile(r"""
    \[\s*
    \[\s*[-+]?[0-9]{1,18}(?:\s*,\s*[-+]?[0-9]{1,18})*\s*\]
    (?:\s*,\s*\[\s*[-+]?[0-9]{1,18}(?:\s*,\s*[-+]?[0-9]{1,18})*\s*\])*
    \s*\]""", re.VERBOSE)


def _list_items(text: str) -> list[str] | None:
    """The top-level items of ``[a, b, ...]`` (none for ``[]``), or None
    when ``text`` is not bracketed."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        return None
    inner = text[1:-1]
    return _split_top_level(inner, ",") if inner.strip() else []


def _parse_matrix(text: str, cur: _Cursor) -> IntMatrix:
    """A square matrix ``[[a, b], [c, d]]`` of optionally signed decimal
    integers; :func:`make_extension` checks that it is unimodular.
    Malformed text is a bad literal; balanced number-like text of another
    shape (``[]``, ``[1]``, ``[[1.0]]``, ``([1],)``) is not a list of
    integer rows.

    A literal of short entries (:data:`_INT_ROWS_RE`) is read row by row
    at once; it gives the same rows as the general route, which checks
    brackets and entries one level at a time and reports what is wrong.
    """
    body = text.strip()
    if _INT_ROWS_RE.fullmatch(body):
        # each row's text ends at its "]" and its entries follow its "["
        value = [[int(x) for x in row.partition("[")[2].split(",")]
                 for row in body[1:-1].split("]")[:-1]]
    else:
        unbalanced = body.count("[") != body.count("]") or body.count("(") != body.count(")")
        if unbalanced or not _MATRIX_CHARS_RE.fullmatch(body):
            raise cur.err("syntax", f"bad matrix literal: {body!r}")
        rows = [_list_items(r) for r in _list_items(body) or ()]
        if not rows or None in rows or not all(_INT_RE.fullmatch(x) for r in rows for x in r):
            raise cur.err("syntax", "matrix must be a list of integer rows")
        value = [[_int(x, cur) for x in r] for r in rows]
    if len({len(r) for r in value}) != 1 or len(value) != len(value[0]):
        raise cur.err("validation", "matrix must be square")
    return IntMatrix._trusted(tuple(map(tuple, value)))


_EXPONENT_RE = re.compile(r"\^(-?\d+)")


def _tokenize_word(text: str, by_length: list[tuple[str, int]], cur: _Cursor) -> list[int]:
    """Greedy longest-name tokenization with optional ^<int> exponents.

    ``by_length`` holds (name, letter) pairs, longest name first.  The
    letters come back unreduced: :class:`FreeAut` reduces its images.
    """
    letters: list[int] = []
    pos = 0
    text = text.strip()
    if text == "1":
        return letters
    while pos < len(text):
        if text[pos] in " \t*.":
            pos += 1
            continue
        for name, letter in by_length:
            if text.startswith(name, pos):
                pos += len(name)
                break
        else:
            raise cur.err("syntax", f"unknown generator at ...{text[pos:]!r}")
        exp = 1
        if pos < len(text) and text[pos] == "^":
            m = _EXPONENT_RE.match(text, pos)
            if not m:
                raise cur.err("syntax", "bad exponent")
            exp = _int(m.group(1), cur)
            pos = m.end()
        letters += [letter if exp > 0 else -letter] * abs(exp)
    return letters


def _parse_autmap(text: str, kernel: FreeDesc, cur: _Cursor) -> FreeAut:
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise cur.err("syntax", "automorphism map needs parentheses")
    by_length = sorted(((name, i) for i, name in enumerate(kernel.names, 1)), key=lambda p: -len(p[0]))
    images: dict[str, list[int]] = {}
    for piece in _split_top_level(body[1:-1], ","):
        if "->" not in piece:
            raise cur.err("syntax", f"expected 'name -> word', got {piece.strip()!r}")
        name, word_text = piece.split("->", 1)
        name = name.strip()
        if name not in kernel.names:
            raise cur.err("validation", f"unknown kernel generator {name!r}")
        if name in images:
            raise cur.err("validation", f"duplicate image for {name!r}")
        images[name] = _tokenize_word(word_text, by_length, cur)
    missing = [n for n in kernel.names if n not in images]
    if missing:
        raise cur.err("validation", f"missing image for kernel generator {missing[0]!r}")
    try:
        return FreeAut(kernel.rank, tuple(images[n] for n in kernel.names))
    except ValueError as e:
        raise cur.err("validation", f"non-automorphism map: {e}")


def _relabel_quotient(quotient: GroupDesc, names: list[str], cur: _Cursor) -> GroupDesc:
    """Install the action-line names as the quotient's generator labels."""
    if isinstance(quotient, FgAbelianDesc):
        return FgAbelianDesc(quotient.rank, quotient.divisors, tuple(names))
    if isinstance(quotient, FiniteGroupDesc):
        return replace(quotient, labels=tuple(names))
    if isinstance(quotient, FreeDesc):
        for declared, used in zip(quotient.names, names):
            if declared != used:
                raise cur.err(
                    "validation",
                    f"action line names {used!r} but the quotient declares {declared!r}",
                )
        return quotient
    if isinstance(quotient, ProductDesc):
        return ProductDesc(tuple(
            _relabel_quotient(f, names[offset:offset + generator_count(f)], cur)
            for f, offset in factor_offsets(quotient)
        ))
    return quotient


def parse_extension(text: str) -> ExtensionSpec:
    """Parse and validate an extension description.

    Raises :class:`Diagnostic` with line/column on any syntax or
    validation problem.
    """
    lines = text.splitlines()
    significant = [
        (i + 1, line) for i, line in enumerate(lines) if line.strip()
    ]
    if len(significant) < 2:
        raise Diagnostic(1, 1, "syntax", "expected 'kernel:' and 'quotient:' lines")

    (k_no, k_line), (q_no, q_line) = significant[0], significant[1]
    if not k_line.strip().startswith("kernel:"):
        raise Diagnostic(k_no, 1, "syntax", "first line must start with 'kernel:'")
    if not q_line.strip().startswith("quotient:"):
        raise Diagnostic(q_no, 1, "syntax", "second line must start with 'quotient:'")

    k_cur = _Cursor(k_no, k_line, k_line.index("kernel:") + len("kernel:") + 1)
    q_cur = _Cursor(q_no, q_line, q_line.index("quotient:") + len("quotient:") + 1)
    kernel = _parse_group(k_line.strip()[len("kernel:"):], k_cur, allow_product=False)
    quotient = _parse_group(q_line.strip()[len("quotient:"):], q_cur, allow_product=True)

    names: list[str] = []
    actions: list = []
    curs: list[_Cursor] = []  # one per action line
    for line_no, line in significant[2:]:
        cur = _Cursor(line_no, line)
        stripped = line.strip()
        if not stripped.startswith("action"):
            raise cur.err("syntax", "expected an 'action <gen> -> ...' line")
        rest = stripped[len("action"):].strip()
        if "->" not in rest:
            raise cur.err("syntax", "expected 'action <gen> -> <matrix|map>'")
        name, rhs = rest.split("->", 1)
        name = name.strip()
        if not _NAME_RE.fullmatch(name):
            raise cur.err("syntax", f"bad generator name {name!r}")
        cur.base_col = line.index("->") + 3
        if isinstance(kernel, FgAbelianDesc):
            actions.append(_parse_matrix(rhs, cur))
        elif isinstance(kernel, FreeDesc):
            actions.append(_parse_autmap(rhs, kernel, cur))
        else:
            # Structurally fine but outside the catalog: surfaces as an
            # unsupported-construction error, not a parse diagnostic.
            raise UnsupportedExtensionError(
                "actions on finite kernels are not supported; omit the action lines"
            )
        names.append(name)
        curs.append(cur)
    first_cur = curs[0] if curs else q_cur
    if len(set(names)) != len(names):
        raise first_cur.err("validation", "duplicate action generator names")

    ngens = generator_count(quotient)
    if actions and len(actions) != ngens:
        raise first_cur.err(
            "validation",
            f"the quotient has {ngens} generators but {len(actions)} action lines were given",
        )
    if names and len(names) == ngens:
        quotient = _relabel_quotient(quotient, names, first_cur)

    try:
        return make_extension(kernel, quotient, tuple(actions))
    except ExtensionValidationError as e:
        raise (first_cur if e.action is None else curs[e.action]).err("validation", str(e))


def _format_perm(p) -> str:
    seen = set()
    cycles = []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            seen.add(start)
            continue
        cyc = []
        x = start
        while x not in seen:
            seen.add(x)
            cyc.append(x + 1)
            x = p[x]
        cycles.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(cycles) if cycles else "()"


def _format_group(g: GroupDesc) -> str:
    if isinstance(g, FgAbelianDesc):
        return " + ".join([f"Z^{g.rank}"] + [f"Z/{d}" for d in g.divisors])
    if isinstance(g, FreeDesc):
        return f"free({', '.join(g.names)})"
    if isinstance(g, FiniteGroupDesc):
        return "finite perm(" + "; ".join(_format_perm(p) for p in g.generators) + ")"
    if isinstance(g, ProductDesc):
        return "product(" + ", ".join(_format_group(f) for f in g.factors) + ")"
    raise TypeError(f"cannot format {g!r}")


def pretty_print(spec: ExtensionSpec) -> str:
    """Canonical text for a spec; parses back to an equal spec."""
    kernel = spec.kernel
    lines = [f"kernel: {_format_group(kernel)}", f"quotient: {_format_group(spec.quotient)}"]
    labels = generator_labels(spec.quotient)
    actions = spec.actions
    if all(a.is_identity for a in actions):
        actions = ()  # the trivial action is spelled by omission
    for label, action in zip(labels, actions):
        if isinstance(action, IntMatrix):
            body = "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in action.rows) + "]"
        else:
            assert isinstance(kernel, FreeDesc)
            body = "(" + ", ".join(
                f"{n} -> {render_word(im, kernel.names)}"
                for n, im in zip(kernel.names, action.images)
            ) + ")"
        lines.append(f"action {label} -> {body}")
    return "\n".join(lines) + "\n"
