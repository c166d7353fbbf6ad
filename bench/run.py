#!/usr/bin/env python3
"""Seeded benchmark of the ``icckit check`` pipeline.

    python3 bench/run.py --workload lattice --seed 1 --seconds 25 --trace 0

Builds the workload's corpus from the seed, then runs it as a closed loop
with one caller (one process, one thread): each case is one in-process
call of ``icckit.cli.run(["check", FILE, "--format", "json", ...])`` with
stdout captured, and the next case starts when the previous one returns.
Passes over the corpus repeat until ``--seconds`` have gone by (the
first pass always completes).  Every output is checked by ``checker.py``
against the outcome the corpus was built to have.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  Failed case ids
and diagnostics go to stderr.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import checker  # noqa: E402
import corpus  # noqa: E402
import plain  # noqa: E402

CASE_LIMIT_S = 30.0  # per-case time limit; a case past it fails
HARD_STOP_S = 140.0  # stop starting cases this long after launch
SETUP_REPEATS = 7
# Reported times are scaled to a machine that runs reference_block() in this
# time (a shared 2-vCPU Xeon VM under Python 3.11 in a quiet spell).
REF_NOMINAL_S = 0.0004

END_TO_END = (
    ("setup_s", "s"),
    ("cases_per_s", "1/s"),
    ("case_ms_p50", "ms"),
    ("case_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("decided_frac", "ratio"),
)

# Per-layer metrics of the traced run: (name, unit, source).  Sources:
# ("calls"|"self_s"|"total_s", span) or ("value", key) or ("layer", module).
PER_LAYER = (
    ("matgroup.group_is_finite.calls", "count", ("calls", "matgroup.group_is_finite")),
    ("matgroup.group_is_finite.self_s", "s", ("self_s", "matgroup.group_is_finite")),
    ("matgroup.image_elements", "count", ("value", "matgroup.image_elements")),
    ("matgroup.finite_orbit_sublattice.self_s", "s", ("self_s", "matgroup.finite_orbit_sublattice")),
    ("matgroup.orbit_bfs.calls", "count", ("calls", "matgroup.orbit_bfs")),
    ("matgroup.orbit_bfs.self_s", "s", ("self_s", "matgroup.orbit_bfs")),
    ("matgroup.orbit_vectors", "count", ("value", "matgroup.orbit_vectors")),
    ("matgroup.matrix_order.self_s", "s", ("self_s", "matgroup.matrix_order")),
    ("intlinalg.matmul.calls", "count", ("calls", "intlinalg.matmul")),
    ("intlinalg.hnf.calls", "count", ("calls", "intlinalg.hnf")),
    ("intlinalg.hnf.self_s", "s", ("self_s", "intlinalg.hnf")),
    ("intlinalg.inverse_unimodular.calls", "count", ("calls", "intlinalg.inverse_unimodular")),
    ("intlinalg.charpoly.self_s", "s", ("self_s", "intlinalg.charpoly")),
    ("intlinalg.cyclotomic_orders.self_s", "s", ("self_s", "intlinalg.cyclotomic_orders")),
    ("intlinalg.lattice_intersect.calls", "count", ("calls", "intlinalg.lattice_intersect")),
    ("intlinalg.lattice_intersect.self_s", "s", ("self_s", "intlinalg.lattice_intersect")),
    ("words.is_inner.calls", "count", ("calls", "words.is_inner")),
    ("words.is_inner.self_s", "s", ("self_s", "words.is_inner")),
    ("words.is_inner.hit_ratio", "ratio", ("ratio", "words.is_inner.hits", "words.is_inner")),
    ("words.word_mul.calls", "count", ("calls", "words.word_mul")),
    ("words.nielsen_reduce.calls", "count", ("calls", "words.nielsen_reduce")),
    ("words.nielsen_reduce.self_s", "s", ("self_s", "words.nielsen_reduce")),
    ("words.freeaut_compose.calls", "count", ("calls", "words.freeaut_compose")),
    ("words.freeaut_power.calls", "count", ("calls", "words.freeaut_power")),
    ("words.freeaut_inverse.calls", "count", ("calls", "words.freeaut_inverse")),
    ("words.freeaut_apply.calls", "count", ("calls", "words.freeaut_apply")),
    ("analyzer.analyze.total_s", "s", ("total_s", "analyzer.analyze")),
    ("analyzer.thm1_check.self_s", "s", ("self_s", "analyzer.thm1_check")),
    ("analyzer.thm3_check.self_s", "s", ("self_s", "analyzer.thm3_check")),
    ("analyzer.theta_fc_injective.calls", "count", ("calls", "analyzer.theta_fc_injective")),
    ("analyzer.theta_fc_injective.self_s", "s", ("self_s", "analyzer.theta_fc_injective")),
    ("analyzer.fc_candidates", "count", ("value", "analyzer.fc_candidates")),
    ("oracle.crosscheck.self_s", "s", ("self_s", "oracle.crosscheck")),
    ("oracle.conjugacy_ball.calls", "count", ("calls", "oracle.conjugacy_ball")),
    ("oracle.conjugacy_ball.self_s", "s", ("self_s", "oracle.conjugacy_ball")),
    ("oracle.ball_elements", "count", ("value", "oracle.ball_elements")),
    ("oracle.conjugations", "count", ("calls", "oracle.conjugations")),
    ("oracle.ball_yield", "ratio", ("ratio", "oracle.ball_elements", "oracle.conjugations")),
    ("oracle.group_mul.calls", "count", ("calls", "oracle.group_mul")),
    ("oracle.exact_abelian_class.self_s", "s", ("self_s", "oracle.exact_abelian_class")),
    ("dsl.parse_extension.self_s", "s", ("self_s", "dsl.parse_extension")),
    ("extension.make_extension.self_s", "s", ("self_s", "extension.make_extension")),
    ("catalog.from_generators.self_s", "s", ("self_s", "catalog.from_generators")),
    ("catalog.fc_subgroup.calls", "count", ("calls", "catalog.fc_subgroup")),
    ("cli.report_json.self_s", "s", ("self_s", "cli.report_json")),
    ("cli.run.total_s", "s", ("total_s", "cli.run")),
) + tuple(
    (f"layer.{m}.self_s", "s", ("layer", m))
    for m in ("cli", "dsl", "extension", "catalog", "intlinalg", "matgroup", "words",
              "analyzer", "oracle")
) + (("trace.overhead_ratio", "ratio", ("overhead",)),)


class SetupError(Exception):
    """The benchmark cannot run here (no sources, a broken corpus, ...)."""


class CaseTimeout(BaseException):
    """Raised in the main thread when a case outlives CASE_LIMIT_S."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


_REF_MATRIX = ((2, 1, 0), (1, 1, 1), (0, 1, 1))
_REF_WORD = (1, 2, -1, 3, 2, -3, 1, 1, -2, 3) * 4


def reference_block():
    """Time a fixed slice of plain-Python work of the package's kind (tuple
    matrix products, word reduction, set inserts), with the collector off.

    A shared VM's speed drifts by up to 2x over seconds to minutes.  One
    block runs after every case, and each case time is divided by the
    median of the five blocks around it, which cancels the drift while
    leaving any change to the package's own code in full view."""
    was_enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = plain.identity(3)
    for _ in range(12):
        acc = plain.matmul(acc, _REF_MATRIX)
    seen = set()
    v = (1, 0, 0)
    for _ in range(60):
        v = tuple(x % 97 for x in plain.apply(_REF_MATRIX, v))
        seen.add(v)
    for _ in range(8):
        plain.reduce_word(_REF_WORD + plain.inverse_word(_REF_WORD[:20]))
    elapsed = time.perf_counter() - t0
    if was_enabled:
        gc.enable()
    return elapsed


def machine_factor(blocks):
    """How much slower than nominal the machine ran these reference blocks."""
    return statistics.median(blocks) / REF_NOMINAL_S


def child_import_seconds():
    """Time of a cold ``import icckit`` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import icckit; print(time.perf_counter() - t); print(icckit.__file__)")
    try:
        r = subprocess.run([sys.executable, "-I", "-c", code, SRC], capture_output=True,
                           text=True, timeout=60, cwd=ROOT)
    except subprocess.TimeoutExpired as e:
        raise SetupError("import of icckit timed out") from e
    if r.returncode != 0:
        raise SetupError(f"cannot import icckit from {SRC}: {r.stderr.strip()[-300:]}")
    seconds, path = r.stdout.split()
    if not os.path.abspath(path).startswith(SRC + os.sep):
        raise SetupError(f"icckit came from {path}, not from {SRC}")
    return float(seconds)


def setup(workload, seed, corpus_dir):
    """Import cost plus corpus generation, SETUP_REPEATS times, each scaled
    by reference blocks run just before and after it; returns the median
    and the manifest of the last build."""
    samples = []
    manifest = None
    for _ in range(SETUP_REPEATS):
        blocks = [reference_block() for _ in range(5)]
        imp = child_import_seconds()
        t0 = time.perf_counter()
        shutil.rmtree(corpus_dir, ignore_errors=True)
        try:
            manifest = corpus.write(workload, seed, corpus_dir, ROOT)
        except (OSError, ValueError) as e:
            raise SetupError(f"cannot build the corpus: {e}") from e
        raw = imp + time.perf_counter() - t0
        blocks += [reference_block() for _ in range(5)]
        samples.append(raw / machine_factor(blocks))
    return statistics.median(samples), manifest


def import_icckit():
    if not os.path.isdir(os.path.join(SRC, "icckit")):
        raise SetupError(f"no icckit sources under {SRC}")
    sys.path.insert(0, SRC)
    import icckit.cli

    if not os.path.abspath(icckit.cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"icckit came from {icckit.cli.__file__}, not from {SRC}")
    return icckit.cli


class Loop:
    """Runs cases, checks every output and keeps per-case timings."""

    def __init__(self, cli, cases, corpus_dir, launched):
        self.cli = cli
        self.cases = cases
        self.dir = corpus_dir
        self.launched = launched
        self.runs = []  # in order: (case index, seconds, reference block seconds, passed)
        self.last = [None] * len(cases)  # seconds of each case's latest run
        self.good = [None] * len(cases)  # (code, out, err) that passed the checker
        self.verdicts = [None] * len(cases)
        self.failures = []  # (case index, problem)
        self.attempted = 0
        self.tracer = None

    def run_case(self, i):
        case = self.cases[i]
        argv = ["check", os.path.join(self.dir, case["file"]), "--format", "json"] + case["args"]
        out, err = io.StringIO(), io.StringIO()
        code = None
        problem = None
        if self.tracer is not None:
            self.tracer.case = i
        signal.setitimer(signal.ITIMER_REAL, CASE_LIMIT_S)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run(argv)
        except CaseTimeout:
            problem = f"timed out after {CASE_LIMIT_S:g} s"
            if self.tracer is not None:
                self.tracer.drop_open_spans()
        except (Exception, SystemExit):  # a crash fails this case, the run goes on
            problem = "raised " + traceback.format_exc(limit=3).strip().replace("\n", " | ")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        if problem is None:
            result = (code, out.getvalue(), err.getvalue())
            if result != self.good[i]:
                problems = checker.check(case, *result)
                if problems:
                    problem = "; ".join(problems)
                else:
                    self.good[i] = result
                    self.verdicts[i] = json.loads(result[1])["verdict"] if code == 0 else None
        self.runs.append((i, elapsed, reference_block(), problem is None))
        self.last[i] = elapsed
        if problem is not None:
            self.failures.append((i, problem))
            self.verdicts[i] = None

    def skip(self, i, why):
        self.attempted += 1
        self.failures.append((i, why))
        self.verdicts[i] = None

    def one_pass(self, deadline=None):
        """One pass in manifest order.  With a deadline, stops before a case
        whose last time would carry the run past it, and returns False."""
        for i in range(len(self.cases)):
            now = time.perf_counter()
            if now - self.launched > HARD_STOP_S:
                self.skip(i, "not started: run out of time")
                continue
            if deadline is not None and self.last[i] is not None and now + self.last[i] > deadline:
                return False
            self.run_case(i)
        return True

    def corruption_check(self):
        """Feed the checker corrupted copies of one report per kind of
        witness seen; returns how many it rejected and the ones it missed."""
        missed = []
        rejected = 0
        seen = set()
        for i, good in enumerate(self.good):
            if good is None or good[0] != 0:
                continue
            report = json.loads(good[1])
            w = report.get("witness")
            key = (w or {}).get("type"), ((w or {}).get("evidence") or {}).get("kind"), report["verdict"]
            if key in seen:
                continue
            seen.add(key)
            tried, accepted = checker.try_corruptions(self.cases[i], report)
            rejected += tried - len(accepted)
            missed += [f"{self.cases[i]['id']}: {m}" for m in accepted]
        return rejected, missed

    def scaled(self, lo=0, hi=None):
        """Per case, the passing runs among runs[lo:hi], each divided by the
        machine factor of the five reference blocks around it."""
        runs = self.runs
        hi = len(runs) if hi is None else hi
        out = [[] for _ in self.cases]
        for k in range(lo, hi):
            i, seconds, _, passed = runs[k]
            if passed:
                near = [r[2] for r in runs[max(0, k - 2):k + 3]]
                out[i].append(seconds / machine_factor(near))
        return out

    def rep_times(self, lo=0, hi=None):
        """Per case, the median of its scaled runs (None if none passed)."""
        return [statistics.median(t) if t else None for t in self.scaled(lo, hi)]


def end_to_end(loop, setup_s):
    reps = [r for r in loop.rep_times() if r is not None]
    n = len(loop.cases)
    ms = sorted(r * 1000 for r in reps)
    failed = len(loop.failures)
    decided = sum(v in ("icc", "not_icc") for v in loop.verdicts)
    return {
        "setup_s": setup_s,
        "cases_per_s": len(reps) / sum(reps) if reps else 0.0,
        "case_ms_p50": statistics.median(ms) if ms else 0.0,
        "case_ms_p90": statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else sum(ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (loop.attempted - failed) / loop.attempted,
        "decided_frac": decided / n,
    }


def per_layer(passes, overhead):
    """Counts from the first traced pass, times as medians over passes."""
    out = {}
    first = passes[0]
    for name, _, src in PER_LAYER:
        kind = src[0]
        if kind == "calls":
            v = first["calls"].get(src[1], 0)
        elif kind == "value":
            v = first["values"].get(src[1], 0)
        elif kind == "ratio":
            num = first["values"].get(src[1], 0)
            den = first["calls"].get(src[2], 0)
            v = num / den if den else 0.0
        elif kind in ("self_s", "total_s"):
            v = statistics.median(p[kind].get(src[1], 0.0) for p in passes)
        elif kind == "layer":
            v = statistics.median(p["layers"].get(src[1], 0.0) for p in passes)
        else:
            v = overhead
        out[name] = v
    return out


def _scaled_totals(totals, factor):
    return {k: v / factor for k, v in totals.items()}


def traced_run(loop, seconds, started):
    """Untraced warm-up and reference passes, then traced passes until the
    deadline.  Returns per-layer metrics; times are scaled by each pass's
    reference blocks like the end-to-end ones."""
    from tracer import Tracer

    deadline = started + seconds
    loop.one_pass()
    mark = len(loop.runs)
    loop.one_pass()
    untraced = loop.rep_times(mark, len(loop.runs))
    tracer = Tracer().install()
    loop.tracer = tracer
    passes = []
    first_traced = len(loop.runs)
    while True:
        start = len(loop.runs)
        tracer.reset_totals()
        tracer.enabled = True
        loop.one_pass()
        tracer.enabled = False
        factor = machine_factor([r[2] for r in loop.runs[start:]])
        passes.append({"calls": dict(tracer.calls), "values": dict(tracer.values),
                       "self_s": _scaled_totals(tracer.self_s, factor),
                       "total_s": _scaled_totals(tracer.total_s, factor),
                       "layers": _scaled_totals(tracer.layer_totals(), factor)})
        # Past half the hard stop, another traced pass could run into it.
        if time.perf_counter() >= deadline or time.perf_counter() - loop.launched > HARD_STOP_S / 2:
            break
    traced = loop.rep_times(first_traced)
    pairs = [(a, b) for a, b in zip(traced, untraced) if a is not None and b is not None]
    overhead = sum(a for a, _ in pairs) / sum(b for _, b in pairs) if pairs else 0.0
    return per_layer(passes, overhead), tracer


def main(argv=None):
    launched = time.perf_counter()
    ap = argparse.ArgumentParser(description="Benchmark of the icckit check pipeline.")
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    run_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    corpus_dir = os.path.join(run_dir, "corpus")
    try:
        setup_s, manifest = setup(args.workload, args.seed, corpus_dir)
        cli = import_icckit()
    except (SetupError, OSError) as e:
        shutil.rmtree(run_dir, ignore_errors=True)
        print(f"bench: {e}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    cases = manifest["cases"]
    loop = Loop(cli, cases, corpus_dir, launched)
    try:
        started = time.perf_counter()
        if args.trace:
            metrics, tracer = traced_run(loop, args.seconds, started)
            os.makedirs(WORK, exist_ok=True)
            spans_path = os.path.join(WORK, f"spans-{args.workload}-s{args.seed}.tsv.gz")
            tracer.write_spans(spans_path, [c["id"] for c in cases])
            print(f"bench: {len(tracer.span_start)} spans written to {spans_path}",
                  file=sys.stderr)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            deadline = started + args.seconds
            loop.one_pass()
            while loop.one_pass(deadline):
                pass
            factor = machine_factor([r[2] for r in loop.runs])
            print(f"bench: {len(cases)} cases, {loop.attempted} runs in "
                  f"{time.perf_counter() - started:.1f} s, machine factor {factor:.3f}",
                  file=sys.stderr)
            metrics = end_to_end(loop, setup_s)
            units = dict(END_TO_END)
        rejected, missed = loop.corruption_check()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for i, problem in loop.failures:
        print(f"bench: FAILED {cases[i]['id']}: {problem}", file=sys.stderr)
    for m in missed:
        print(f"bench: checker accepted a corrupted witness: {m}", file=sys.stderr)
    print(f"bench: checker rejected {rejected} corrupted witnesses", file=sys.stderr)
    result = {
        "correct": not loop.failures and not missed,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
