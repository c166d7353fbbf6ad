import argparse
import builtins
import contextlib
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from icckit import cli, dsl, matgroup, oracle
from icckit.catalog import FgAbelianDesc, FiniteGroupDesc, FreeDesc
from icckit.cli import main
from icckit.dsl import Diagnostic, parse_extension, pretty_print
from icckit.intlinalg import IntMatrix
from icckit.words import FreeAut
from tests.helpers import count_calls

ROOT = Path(__file__).resolve().parent.parent
EXTENSIONS = ROOT / "extensions"
SCHEMA_PATH = ROOT / "src" / "icckit" / "report.schema.json"


# Two hyperbolic blocks on disjoint coordinates: no relation, so the
# verdict rests on the bounded exponent search.
Z2_QUOTIENT = (
    "kernel: Z^4\n"
    "quotient: Z^2\n"
    "action u -> [[2,1,0,0],[1,1,0,0],[0,0,1,0],[0,0,0,1]]\n"
    "action v -> [[1,0,0,0],[0,1,0,0],[0,0,2,1],[0,0,1,1]]\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ROUND_TRIP_FILES = sorted(p.name for p in EXTENSIONS.glob("*.ext") if p.name != "bad.ext")
ROUND_TRIP_TEXTS = {
    "torsion-kernel": "kernel: Z^2 + Z/2\nquotient: Z\naction t -> [[2,1],[1,1]]\n",
    "free-rank-one-kernel": "kernel: free(a)\nquotient: Z\naction t -> (a -> a^-1)\n",
    "finite-kernel": "kernel: finite perm((1 2 3))\nquotient: Z\n",
    "product-quotient": (
        "kernel: Z^2\nquotient: product(Z, finite perm((1 2)))\n"
        "action t -> [[2,1],[1,1]]\naction q -> [[-1,0],[0,-1]]\n"
    ),
}


def expected_identity(kernel):
    if isinstance(kernel, FgAbelianDesc):
        return IntMatrix.identity(kernel.rank)
    if isinstance(kernel, FreeDesc):
        return FreeAut.identity(kernel.rank)
    return None


class TestParsing:
    @pytest.mark.parametrize("source", ROUND_TRIP_FILES + sorted(ROUND_TRIP_TEXTS))
    def test_round_trip(self, source):
        text = ROUND_TRIP_TEXTS.get(source) or (EXTENSIONS / source).read_text()
        spec = parse_extension(text)
        assert parse_extension(pretty_print(spec)) == spec
        assert (spec.theta and spec.theta.identity) == expected_identity(spec.kernel)

    def test_relabelled_finite_quotient_keeps_its_closure(self):
        """Action-line names relabel a finite quotient, alone or as a
        product factor, and every other field stays: the elements, their
        words and the Cayley graph."""
        closed = FiniteGroupDesc.from_generators(3, [(1, 2, 0), (1, 0, 2)])
        spec = parse_extension("kernel: Z^2\nquotient: finite perm((1 2 3); (1 2))\n"
                               "action r -> [[0,-1],[1,-1]]\naction s -> [[0,1],[1,0]]\n")
        factor = parse_extension("kernel: Z^2\nquotient: product(Z, finite perm((1 2 3); (1 2)))\n"
                                 "action t -> [[1,0],[0,1]]\naction r -> [[1,0],[0,1]]\n"
                                 "action s -> [[1,0],[0,1]]\n").quotient.factors[1]
        for q in (spec.quotient, factor):
            assert q.labels == ("r", "s")
            assert (q.elements, q.element_words, q.cayley) == (
                closed.elements, closed.element_words, closed.cayley)
            assert len(q.cayley) == q.order == 6

    def test_free_action_with_inverse_letters_round_trip(self):
        spec = parse_extension(
            "kernel: free(a, b)\nquotient: Z\naction t -> (a -> b^-1, b -> a b^-1)\n"
        )
        text = pretty_print(spec)
        assert text == "kernel: free(a, b)\nquotient: Z^1\naction t -> (a -> b^-1, b -> a b^-1)\n"
        assert parse_extension(text) == spec

    def test_bad_file_diagnostic(self):
        text = (EXTENSIONS / "bad.ext").read_text()
        with pytest.raises(Diagnostic) as exc:
            parse_extension(text)
        assert exc.value.code == "validation"
        assert "non-unimodular" in exc.value.message
        assert exc.value.line == 3

    def test_syntax_diagnostic_has_location(self):
        with pytest.raises(Diagnostic) as exc:
            parse_extension("kernel: Z^2\nquotient: Z\naction t -> [[2,1],[1,1\n")
        assert exc.value.code == "syntax"
        assert exc.value.line == 3

    @pytest.mark.parametrize("literal,message", [
        ("[[2,1],[1,1]]]", "bad matrix literal"),
        ("[[2,1],[1,1", "bad matrix literal"),
        ("[[a]]", "bad matrix literal"),
        ("[]", "matrix must be a list of integer rows"),
        ("[1]", "matrix must be a list of integer rows"),
        ("[[1.0]]", "matrix must be a list of integer rows"),
        ("([1],)", "matrix must be a list of integer rows"),
        ("[[2,1],[1]]", "matrix must be square"),
        ("[[]]", "matrix must be square"),
        # Entries are decimal integers: no booleans, hex or trailing comments.
        ("[[2,1],[1,True]]", "bad matrix literal"),
        ("[[0x2,1],[1,1]]", "bad matrix literal"),
        ("[[2,1],[1,1]] # hyperbolic", "bad matrix literal"),
    ])
    def test_bad_matrix_literal(self, literal, message):
        with pytest.raises(Diagnostic) as exc:
            parse_extension(f"kernel: Z^2\nquotient: Z\naction t -> {literal}\n")
        assert exc.value.message.startswith(message)

    @pytest.mark.parametrize("literal,rows", [
        (" [ [ 2 , 1 ] , [ 1 , 1 ] ] ", [[2, 1], [1, 1]]),
        ("[[+2, -1], [-1, +1]]", [[2, -1], [-1, 1]]),
    ])
    def test_matrix_literal_spacing_and_signs(self, literal, rows):
        spec = parse_extension(f"kernel: Z^2\nquotient: Z\naction t -> {literal}\n")
        assert spec.actions[0] == IntMatrix.from_rows(rows)

    def test_short_literal_route_matches_the_general_one(self, monkeypatch):
        """A literal of short entries is read at once; the general route,
        taken when the pattern is made to match nothing, gives the same
        matrix on seeded literals with spaces, + signs and leading zeros."""
        rng = random.Random("matrix-literal")
        cur = dsl._Cursor(1, "")

        def entry():
            sign = rng.choice(("", "", "+", "-"))
            digits = "0" * rng.randrange(3) + str(rng.randrange(10 ** rng.randrange(1, 10)))
            return rng.choice(("", " ", "  ")) + sign + digits + rng.choice(("", " "))

        literals = []
        for _ in range(200):
            n = rng.randrange(1, 6)
            rows = ["[" + ",".join(entry() for _ in range(n)) + " " * rng.randrange(2) + "]"
                    for _ in range(n)]
            literals.append(rng.choice(("", " ")) + "[" + ", ".join(rows) + "]" + rng.choice(("", " ")))
        general = count_calls(monkeypatch, dsl, "_list_items")
        fast = [dsl._parse_matrix(text, cur) for text in literals]
        assert general == []
        monkeypatch.setattr(dsl, "_INT_ROWS_RE", re.compile(r"(?!)"))
        assert [dsl._parse_matrix(text, cur) for text in literals] == fast
        assert general

    def test_z_means_rank_one(self):
        spec = parse_extension("kernel: Z\nquotient: Z\naction t -> [[-1]]\n")
        assert spec.kernel.rank == 1

    def test_torsion_chain_parse(self):
        spec = parse_extension("kernel: Z^2 + Z/2 + Z/4\nquotient: Z\naction t -> [[2,1],[1,1]]\n")
        assert spec.kernel.divisors == (2, 4)

    def test_bad_divisor_chain(self):
        with pytest.raises(Diagnostic) as exc:
            parse_extension("kernel: Z^1 + Z/4 + Z/2\nquotient: Z\n")
        assert "divide" in exc.value.message

    def test_product_quotient_parse(self):
        text = (
            "kernel: Z^2\n"
            "quotient: product(Z, Z)\n"
            "action u -> [[2,1],[1,1]]\n"
            "action v -> [[1,1],[1,2]]\n"
        )
        with pytest.raises(Diagnostic):
            # non-commuting actions for an abelian product quotient
            parse_extension(text)

    def test_autmap_word_forms(self):
        text = (
            "kernel: free(a, b)\n"
            "quotient: Z\n"
            "action t -> (a -> b a b^-1, b -> b)\n"
        )
        spec = parse_extension(text)
        assert spec.actions[0].images[0] == (2, 1, -2)

    def test_autmap_names_with_a_common_prefix(self):
        """Names match greedily, longest first: with ``a`` and ``ab``,
        ``aba^2`` is ab then a^2 and ``aab`` is a then ab.  The images
        are free-reduced once, by ``FreeAut``."""
        spec = parse_extension(
            "kernel: free(a, ab)\nquotient: Z\naction t -> (a -> aba^2 a^-2, ab -> a a^-1 aab)\n"
        )
        assert spec.actions[0].images == ((2,), (1, 2))
        with pytest.raises(Diagnostic) as exc:
            parse_extension("kernel: free(a, ab)\nquotient: Z\naction t -> (a -> abc, ab -> a)\n")
        assert exc.value.message == "unknown generator at ...'c'"

    def test_missing_autmap_image(self):
        with pytest.raises(Diagnostic) as exc:
            parse_extension("kernel: free(a, b)\nquotient: Z\naction t -> (a -> b)\n")
        assert "missing image" in exc.value.message

    def test_non_automorphism_map(self):
        with pytest.raises(Diagnostic) as exc:
            parse_extension("kernel: free(a, b)\nquotient: Z\naction t -> (a -> a a, b -> b)\n")
        assert "non-automorphism" in exc.value.message

    def test_action_count_mismatch(self):
        with pytest.raises(Diagnostic):
            parse_extension("kernel: Z^2\nquotient: Z^2\naction t -> [[2,1],[1,1]]\n")

    @pytest.mark.parametrize("second,where,message", [
        ("[[1]]", (4, 12), "action matrix is 1x1, kernel rank is 2"),
        ("[[2,0],[0,1]]", (4, 12), "non-unimodular matrix, det=2"),
        ("[[1,1],[0,1]]", (3, 12), "relation violation: abelian quotient, non-commuting actions"),
    ])
    def test_action_diagnostic_on_its_own_line(self, second, where, message):
        """A fault of one action is reported on that action's line; a
        relation violation, which no one action owns, on the first."""
        with pytest.raises(Diagnostic) as exc:
            parse_extension(f"kernel: Z^2\nquotient: Z^2\naction a -> [[0,-1],[1,0]]\naction b -> {second}\n")
        assert (exc.value.line, exc.value.col, exc.value.message) == (*where, message)

    def test_action_count_reported_before_singular_matrix(self):
        with pytest.raises(Diagnostic) as exc:
            parse_extension("kernel: Z^2\nquotient: Z^2\naction t -> [[2,0],[0,2]]\n")
        assert exc.value.message == "the quotient has 2 generators but 1 action lines were given"

    def test_free_quotient_name_mismatch(self):
        with pytest.raises(Diagnostic):
            parse_extension(
                "kernel: Z^2\nquotient: free(u, v)\n"
                "action x -> [[2,1],[1,1]]\naction v -> [[1,1],[1,2]]\n"
            )

    def test_finite_quotient_relabel(self):
        spec = parse_extension(
            "kernel: free(a, b)\nquotient: finite perm((1 2))\naction s -> (a -> b, b -> a)\n"
        )
        assert spec.quotient.labels == ("s",)


class TestCliRuns:
    def test_klein_json(self, capsys):
        code, out, err = run(capsys, "check", str(EXTENSIONS / "klein.ext"), "--format", "json")
        assert code == 0 and not err
        data = json.loads(out)
        assert data["verdict"] == "not_icc"
        assert data["witness"]["type"] == "kernel_vector"
        assert sorted(map(tuple, data["witness"]["orbit"])) == [(-1,), (1,)]

    def test_sol_text(self, capsys):
        code, out, err = run(capsys, "check", str(EXTENSIONS / "sol.ext"))
        assert code == 0
        assert "verdict: icc" in out
        assert "theorem-1" in out

    def test_bad_exits_2(self, capsys):
        code, out, err = run(capsys, "check", str(EXTENSIONS / "bad.ext"))
        assert code == 2
        assert "non-unimodular" in err
        assert not out

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "check", str(EXTENSIONS / "nope.ext"))
        assert code == 2 and err

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        f = tmp_path / "latin1.ext"
        f.write_bytes(b"kernel: Z\xff\nquotient: Z\n")
        code, out, err = run(capsys, "check", str(f))
        assert code == 2 and not out
        assert err.startswith(f"{f}: ") and err.count("\n") == 1

    def test_unwritable_growth_file_exits_2(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "x.csv"
        code, out, err = run(capsys, "check", str(EXTENSIONS / "sol.ext"),
                             "--emit-growth", str(target), "--oracle-radius", "2")
        assert code == 2 and not out
        assert err.startswith(f"{target}: ") and err.count("\n") == 1

    def test_out_order_cap_is_gone(self, capsys):
        """The outer order is read off the abelianization; no cap option."""
        with pytest.raises(SystemExit) as exc:
            cli.run(["check", str(EXTENSIONS / "swap.ext"), "--out-order-cap", "8"])
        assert exc.value.code == 2 and not capsys.readouterr().out

    def test_unsupported_exits_3(self, tmp_path, capsys):
        f = tmp_path / "finite_action.ext"
        f.write_text(
            "kernel: finite perm((1 2))\nquotient: Z\naction t -> [[1]]\n"
        )
        code, _, err = run(capsys, "check", str(f))
        assert code == 3
        assert "unsupported" in err

    def test_assert_flag(self, capsys):
        code, *_ = run(capsys, "check", str(EXTENSIONS / "sol.ext"), "--assert", "icc")
        assert code == 0
        code, *_ = run(capsys, "check", str(EXTENSIONS / "sol.ext"), "--assert", "not_icc")
        assert code == 1

    def test_json_deterministic(self, capsys):
        args = ("check", str(EXTENSIONS / "sol.ext"), "--format", "json", "--oracle-radius", "4")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1.encode() == out2.encode()

    def test_emit_growth(self, tmp_path, capsys):
        target = tmp_path / "growth.csv"
        code, *_ = run(
            capsys, "check", str(EXTENSIONS / "klein.ext"),
            "--oracle-radius", "4", "--emit-growth", str(target),
        )
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "radius,size,status"
        assert lines[1] == "0,1,growing"
        assert lines[-1].endswith("closed")

    @pytest.mark.parametrize("name", ["sol", "swap", "klein"])
    def test_growth_walk_only_on_request(self, name, tmp_path, capsys, monkeypatch):
        """The report is the same with and without --emit-growth; only with
        it does a sample ball run as a full walk (witness balls always do).
        A sample whose inverse was sampled before it is not walked."""
        calls = count_calls(monkeypatch, oracle, "conjugacy_ball")

        def walks():
            closure_only = [kwargs.get("closure_only", False) for _, kwargs in calls]
            calls.clear()
            return closure_only

        args = ("check", str(EXTENSIONS / f"{name}.ext"), "--format", "json", "--oracle-radius", "4")
        lean = run(capsys, *args)
        lean_walks = walks()
        full = run(capsys, *args, "--emit-growth", str(tmp_path / "growth.csv"))
        full_walks = walks()
        assert lean == full and lean[0] == 0
        if json.loads(lean[1])["oracle_crosscheck"]["mode"] == "samples":
            group = oracle.materialize(parse_extension((EXTENSIONS / f"{name}.ext").read_text()))
            samples = group.sample_nontrivial(20)
            walked = sum(group.inv(x) not in samples[:i] for i, x in enumerate(samples))
            assert len(samples) == 20 and 0 < walked < 20
            assert lean_walks == [True] * walked
            assert full_walks == [False] + [True] * (walked - 1)
        else:
            assert lean_walks == full_walks == [False]

    @pytest.mark.parametrize("flag", ["--relation-bound"])
    def test_negative_limit_is_a_usage_error(self, flag, tmp_path, capsys):
        # A Z^2 quotient: a negative bound used to reach the exponent
        # search and raise IndexError there.
        f = tmp_path / "z2.ext"
        f.write_text(Z2_QUOTIENT)
        with pytest.raises(SystemExit) as exc:
            cli.run(["check", str(f), flag, "-1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and not captured.out
        assert f"argument {flag}: must be >= 0, got -1" in captured.err

    @pytest.mark.parametrize("flag", ["--relation-bound"])
    def test_zero_limit_accepted(self, flag, tmp_path, capsys):
        f = tmp_path / "z2.ext"
        f.write_text(Z2_QUOTIENT)
        code, out, err = run(capsys, "check", str(f), flag, "0", "--format", "json")
        assert code == 0 and not err
        assert json.loads(out)["obstruction"] == "abelian-relation-bound"

    @pytest.mark.parametrize("flag,value,low", [
        ("--oracle-cap", "0", 1), ("--oracle-cap", "-1", 1), ("--oracle-radius", "-1", 0)])
    def test_bad_oracle_flag_is_a_usage_error(self, flag, value, low, capsys):
        # A cap below 1 used to stop every ball after one round, so an icc
        # verdict read consistent; a negative radius turned the oracle off.
        with pytest.raises(SystemExit) as exc:
            cli.run(["check", str(EXTENSIONS / "sol.ext"), "--format", "json", flag, value])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and not captured.out
        assert f"argument {flag}: must be >= {low}, got {value}" in captured.err

    def test_smallest_oracle_flags_accepted(self, capsys):
        sol = str(EXTENSIONS / "sol.ext")
        code, out, err = run(capsys, "check", sol, "--format", "json", "--oracle-radius", "0")
        assert code == 0 and not err
        assert json.loads(out)["oracle_crosscheck"] is None
        code, out, err = run(capsys, "check", sol, "--format", "json",
                             "--oracle-radius", "2", "--oracle-cap", "1")
        assert code == 0 and not err
        assert json.loads(out)["oracle_crosscheck"]["cap"] == 1

    def test_non_integer_limit_message(self, capsys):
        with pytest.raises(SystemExit):
            cli.run(["check", str(EXTENSIONS / "sol.ext"), "--relation-bound", "x"])
        assert "argument --relation-bound: invalid int value: 'x'" in capsys.readouterr().err

    def test_emit_growth_needs_oracle(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "check", str(EXTENSIONS / "klein.ext"),
            "--emit-growth", str(tmp_path / "x.csv"),
        )
        assert code == 2 and "--oracle-radius" in err

    def test_emit_growth_without_oracle_fails_before_reading(self, tmp_path, capsys, monkeypatch):
        """The usage error comes first: no file is read and nothing is
        analyzed."""
        analyzed = []
        monkeypatch.setattr(cli, "analyze", lambda *a: analyzed.append(a))
        code, out, err = run(capsys, "check", str(tmp_path / "missing.ext"),
                             "--emit-growth", str(tmp_path / "x.csv"))
        assert (code, out, err) == (2, "", "--emit-growth requires --oracle-radius > 0\n")
        assert not analyzed and not (tmp_path / "x.csv").exists()

    def test_unknown_verdict_run(self, tmp_path, capsys):
        f = tmp_path / "unknown.ext"
        f.write_text(
            "kernel: Z^4\n"
            "quotient: Z^2\n"
            "action u -> [[2,1,0,0],[1,1,0,0],[0,0,1,0],[0,0,0,1]]\n"
            "action v -> [[1,0,0,0],[0,1,0,0],[0,0,2,1],[0,0,1,1]]\n"
        )
        code, out, _ = run(capsys, "check", str(f), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "unknown"
        assert data["obstruction"] == "abelian-relation-bound"


LONG_INT = "7" * 5000  # past the interpreter's limit on digits converted

UNREADABLE_INTEGERS = {
    "rank": f"kernel: Z^{LONG_INT}\nquotient: Z\n",
    "torsion-divisor": f"kernel: Z^2 + Z/{LONG_INT}\nquotient: Z\n",
    "cycle-point": f"kernel: Z\nquotient: finite perm((1 {LONG_INT}))\n",
    "matrix-entry": f"kernel: Z^2\nquotient: Z\naction t -> [[{LONG_INT},1],[1,1]]\n",
    "word-exponent": f"kernel: free(a, b)\nquotient: Z\naction t -> (a -> a^{LONG_INT}, b -> b)\n",
    # A digit to str.isdigit, but no decimal digit: int() rejects it.
    "superscript-cycle-point": "kernel: Z\nquotient: finite perm((1 \u00b2))\n",
}


class TestIntegerLiterals:
    @pytest.mark.parametrize("site", sorted(UNREADABLE_INTEGERS))
    def test_unreadable_integer_is_a_located_syntax_error(self, site, tmp_path, capsys):
        f = tmp_path / "spec.ext"
        f.write_text(UNREADABLE_INTEGERS[site], encoding="utf-8")
        code, out, err = run(capsys, "check", str(f))
        assert code == 2 and not out
        assert re.match(rf"{re.escape(str(f))}:\d+:\d+: \[syntax\] ", err) and err.count("\n") == 1


class TestModuleEntryPoint:
    @pytest.mark.parametrize("extra", [(), ("--assert", "not_icc")], ids=("plain", "assert-fails"))
    def test_python_m_matches_run(self, extra, capsys):
        """``python -m icckit.cli`` runs the CLI: the same stdout and exit
        code as ``cli.run`` in-process."""
        argv = ["check", str(EXTENSIONS / "sol.ext"), *extra]
        want = run(capsys, *argv)[:2]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        got = subprocess.run([sys.executable, "-m", "icckit.cli", *argv],
                             capture_output=True, text=True, env=env, timeout=60)
        assert (got.returncode, got.stdout) == want
        assert want[1] and want[0] == (1 if extra else 0)


class TestValidateOnce:
    """Unimodularity is checked once per input matrix, by ``make_extension``;
    every matrix derived from a checked one is trusted."""

    @pytest.fixture
    def det_calls(self, monkeypatch):
        return count_calls(monkeypatch, IntMatrix, "det")

    @pytest.mark.parametrize("text,options,count", [
        ("kernel: Z^2\nquotient: Z^2\naction u -> [[-1,0],[0,-1]]\naction v -> [[2,1],[1,1]]\n",
         ("--oracle-radius", "2"), 2),
        ("kernel: Z^40\nquotient: Z\n", (), 0),
    ])
    def test_one_det_per_input_matrix(self, tmp_path, capsys, det_calls, text, options, count):
        f = tmp_path / "spec.ext"
        f.write_text(text)
        code, _, err = run(capsys, "check", str(f), "--format", "json", *options)
        assert code == 0 and not err
        assert len(det_calls) == count

    def test_det_is_called_only_in_extension(self):
        """``.det(`` appears in extension.py only, and nothing is left of
        a second unimodularity test."""
        pattern = re.compile(r"\.det\(|is_unimodular")
        found = {path.name: [line for line in path.read_text(encoding="utf-8").splitlines()
                             if pattern.search(line)]
                 for path in sorted(Path(cli.__file__).parent.glob("*.py"))}
        assert found.pop("extension.py"), "the pattern finds make_extension's own check"
        assert {name: lines for name, lines in found.items() if lines} == {}
        assert not hasattr(IntMatrix, "is_unimodular")


# D_4 acting faithfully on Z^2 by matrices that permute no basis: every
# vector has a finite orbit, so the witness is a kernel vector whose
# exact class the oracle closes with the analyzer's action matrices.
D4_ON_Z2 = (
    "kernel: Z^2\n"
    "quotient: finite perm((1 2 3 4); (1 3))\n"
    "action u -> [[1,-1],[2,-1]]\n"
    "action q -> [[-1,0],[-2,1]]\n"
)


class TestCompileOnce:
    @pytest.mark.parametrize("name", ["sol", "d4"])
    def test_one_eval_per_action_matrix(self, name, tmp_path, capsys, monkeypatch):
        """The analyzer's basis orbits and the oracle's exact class read the
        same action matrix objects, and each is compiled once.  ``sol.ext``
        is decided without an orbit closure and compiles nothing."""
        text = D4_ON_Z2 if name == "d4" else (EXTENSIONS / "sol.ext").read_text()
        f = tmp_path / "spec.ext"
        f.write_text(text)
        monkeypatch.setattr(matgroup, "eval", builtins.eval, raising=False)
        evals = count_calls(monkeypatch, matgroup, "eval")
        compiled = count_calls(monkeypatch, matgroup, "_row_applier")
        code, out, err = run(capsys, "check", str(f), "--format", "json", "--oracle-radius", "4")
        assert code == 0 and not err
        matrices = [args[0] for args, _ in compiled]
        assert len({id(m) for m in matrices}) == len(matrices)
        if name == "d4":
            check = json.loads(out)["oracle_crosscheck"]
            assert check["witness_check"]["kind"] == "witness-exact-class" and check["consistent"]
            assert len(evals) == 2
        else:
            assert evals == []


TRIVIAL_ACTION_QUOTIENTS = ["Z", "Z^2", "finite perm((1 2); (1 2 3))", "product(Z, Z/2)"]


class TestTrivialActionIsFree:
    """Omitted action lines default to the identity, which satisfies every
    relation and adds nothing to the action's image: no product, HNF or
    lattice restriction is spent on it, at any kernel rank."""

    @pytest.mark.parametrize("quotient", TRIVIAL_ACTION_QUOTIENTS)
    def test_no_matmul_hnf_or_restriction(self, tmp_path, capsys, monkeypatch, quotient):
        import icckit.intlinalg as intlinalg_mod
        import icckit.matgroup as matgroup_mod

        calls = {"matmul": count_calls(monkeypatch, IntMatrix, "__matmul__"),
                 "hnf": count_calls(monkeypatch, intlinalg_mod, "hnf"),
                 "restrict": count_calls(monkeypatch, matgroup_mod, "restrict_to_lattice")}
        f = tmp_path / "spec.ext"
        f.write_text(f"kernel: Z^40\nquotient: {quotient}\n")
        code = cli.run(["check", str(f), "--format", "json"])
        out, err = capsys.readouterr()
        assert code == 0 and not err
        assert json.loads(out)["verdict"] == "not_icc"
        assert calls == {"matmul": [], "hnf": [], "restrict": []}

    @pytest.mark.parametrize("actions, element", [
        ("", "q1"),
        ("action s -> (a -> a, b -> b)\naction t -> (a -> a, b -> b)\n", "s"),
    ], ids=["omitted", "identity-lines"])
    def test_free_kernel_finite_quotient_composes_nothing(self, tmp_path, capsys, monkeypatch,
                                                          actions, element):
        """S_7 has 10 080 Cayley-graph edges; identity actions compose none
        of them, in validation or in the FC search."""
        compose = count_calls(monkeypatch, FreeAut, "compose")
        f = tmp_path / "spec.ext"
        f.write_text("kernel: free(a, b)\nquotient: finite perm((1 2); (1 2 3 4 5 6 7))\n" + actions)
        code = cli.run(["check", str(f), "--format", "json"])
        out, err = capsys.readouterr()
        assert code == 0 and not err
        report = json.loads(out)
        assert (report["verdict"], report["theorem_path"]) == ("not_icc", "theorem-3(ii)")
        assert report["witness"] == {"type": "quotient_lift", "element": element,
                                     "evidence": {"kind": "inner-automorphism", "conjugator": "1"}}
        assert compose == []

    def test_oracle_applies_no_identity(self, tmp_path, capsys, monkeypatch):
        """The oracle treats a trivial theta as none: its balls move kernel
        parts by no matrix at all."""
        applied = count_calls(monkeypatch, IntMatrix, "apply")
        f = tmp_path / "spec.ext"
        f.write_text("kernel: Z^40\nquotient: Z\n")
        code = cli.run(["check", str(f), "--format", "json", "--oracle-radius", "2"])
        out, err = capsys.readouterr()
        assert code == 0 and not err
        report = json.loads(out)
        assert report["verdict"] == "not_icc" and report["oracle_crosscheck"]["consistent"]
        assert applied == []

    def test_rank_400_under_s3_in_bounded_time_and_memory(self, tmp_path):
        """A 2-line input must not blow up: 1 GiB of address space, 20 s."""
        import resource

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        f = tmp_path / "spec.ext"
        f.write_text("kernel: Z^400\nquotient: finite perm((1 2); (1 2 3))\n")
        code, out, err = fresh_interpreter_run("check", str(f), "--format", "json",
                                               timeout=20, preexec_fn=limit_memory)
        assert code == 0, err
        assert json.loads(out)["verdict"] == "not_icc"


def readme_check_synopsis():
    """The README's ``icckit check`` synopsis: from its first line to the
    end of its code block."""
    text = (ROOT / "README.md").read_text()
    start = text.index("icckit check FILE")
    return text[start:text.index("```", start)]


class TestReadmeSynopsis:
    def test_names_exactly_the_check_options(self):
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {o for a in sub.choices["check"]._actions for o in a.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"--[a-z][a-z-]*", readme_check_synopsis())) == options


FRESH_RUN = "import sys; from icckit.cli import run; sys.exit(run(sys.argv[1:]))"


def fresh_interpreter_run(*argv, timeout=120, preexec_fn=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, *argv],
        capture_output=True, text=True, env=env, timeout=timeout, preexec_fn=preexec_fn,
    )
    return out.returncode, out.stdout, out.stderr


class TestRepeatedRuns:
    def test_runs_in_one_process_match_fresh_interpreters(self, capsys):
        """The parser is built once and shared: no parsed state may carry
        over from one ``run`` to the next."""
        sol, klein = str(EXTENSIONS / "sol.ext"), str(EXTENSIONS / "klein.ext")
        sequence = [
            ("check", sol, "--assert", "icc"),
            ("check", klein),  # not_icc: exits 1 if the --assert above leaked
            ("check", klein, "--format", "json", "--oracle-radius", "2"),
            ("check", klein, "--format", "json"),
            ("check", sol, "--bogus"),
            ("check", sol),
        ]
        for argv in sequence:
            try:
                code = cli.run(list(argv))
            except SystemExit as e:
                code = e.code
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == fresh_interpreter_run(*argv), argv


GOLDEN_JSON = sorted((ROOT / "tests" / "golden").glob("*.json"))


class TestJsonText:
    """``cli._json_text`` writes what ``json.dumps(obj, indent=2)`` writes,
    without leaving reference cycles behind."""

    @pytest.mark.parametrize("path", GOLDEN_JSON, ids=lambda p: p.stem)
    def test_golden_reports(self, path):
        text = path.read_text(encoding="utf-8")
        obj = json.loads(text)
        assert cli._json_text(obj) == json.dumps(obj, indent=2) == text.rstrip("\n")

    @pytest.mark.parametrize(
        "obj",
        [
            {}, [], {"a": {}, "b": [], "c": [[]], "d": [{}]},
            [[1, [2, [3, []]]], [[]]],
            {"caf\u00e9": "\u00fcber \u2192 \U0001d4b5", "quote\"\n": "tab\t\\"},
            {"none": None, "yes": True, "no": False, "int": -7, "float": 0.5},
            None, True, 3, "plain", ("tuple", [1, 2]),
        ],
    )
    def test_edge_values(self, obj):
        assert cli._json_text(obj) == json.dumps(obj, indent=2)

    def test_json_run_leaves_no_more_garbage_than_text(self):
        argv = ["check", str(EXTENSIONS / "sol.ext"), "--format"]

        def garbage_after(fmt):
            gc.collect()
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run(argv + [fmt]) == 0
            return gc.collect()

        for fmt in ("json", "text"):  # warm the parser and caches
            garbage_after(fmt)
        enabled = gc.isenabled()
        gc.disable()
        try:
            json_garbage, text_garbage = garbage_after("json"), garbage_after("text")
        finally:
            if enabled:
                gc.enable()
        assert json_garbage <= text_garbage


class TestNoReferenceCycles:
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_matrix_file_run_leaves_no_cyclic_garbage(self, fmt):
        """Matrix literals are parsed without ``ast``, whose evaluator
        left 11 cyclic objects per literal for the collector."""
        argv = ["check", str(EXTENSIONS / "sol.ext"), "--format", fmt]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(argv) == 0
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run(argv) == 0
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestSchema:
    @pytest.fixture()
    def validator(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA_PATH.read_text())
        return lambda doc: jsonschema.validate(doc, schema)

    @pytest.mark.parametrize(
        "name,flags",
        [
            ("klein.ext", ()),
            ("sol.ext", ()),
            ("swap.ext", ()),
            ("f2xz.ext", ()),
            ("klein.ext", ("--oracle-radius", "4")),
            ("sol.ext", ("--oracle-radius", "4")),
            ("f2xz.ext", ("--oracle-radius", "4")),
        ],
    )
    def test_reports_validate(self, capsys, validator, name, flags):
        code, out, _ = run(
            capsys, "check", str(EXTENSIONS / name), "--format", "json", *flags
        )
        assert code == 0
        validator(json.loads(out))

    @pytest.mark.parametrize("field", ["radius", "cap"])
    def test_oracle_bounds_below_one_invalid(self, validator, field):
        import jsonschema

        doc = json.loads((ROOT / "tests" / "golden" / "oracle_sol.json").read_text())
        validator(doc)
        doc["oracle_crosscheck"][field] = 0
        with pytest.raises(jsonschema.ValidationError):
            validator(doc)
