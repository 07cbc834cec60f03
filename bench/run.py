"""gcs2d benchmark: per-sketch latency of the whole pipeline, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends one sketch at a time and waits for the answer (a closed
loop in a single process).  Every sketch is JSON text, built from ``--seed``
by ``sketches.py``; every answer is checked by ``checks.py``, which never
calls into gcs2d.  Workloads:

  search-laman     ``solve`` op, as ``gcs2d solve --all --limit 16``, on
                   measured fully reducible Laman graphs: branch search
                   dominates and its time is heavy-tailed, so each sketch
                   has a deadline and a miss is a failure.
  decompose-laman  ``classify`` op, as ``gcs2d analyze`` plus ``classify``,
                   on Laman graphs rich in edge splits: the decomposition
                   fixpoint dominates and search never runs.
  cli-catalog      ``gcs2d.cli.main`` in-process on small mixed sketches
                   (analyze, classify, solve --all, solve --branch, render,
                   generate): per-call overhead dominates.

The corpus of a workload has a fixed size.  The run repeats it a fixed
number of passes, ``--seconds`` over the time one pass takes on the baseline
(``Workload.pass_seconds``).  The pass count does not depend on the speed of
the code under test, so every version is measured with the same estimator;
only a run that would pass 1.5 times ``--seconds`` (code or machine that
slow) stops early, to end in time.

Times are gauge-normalised.  On a shared virtual machine the speed of the
same pure-Python code drifts by up to 2x over seconds and minutes, with
other tenants' load; a run is too short to wait that out.  So after every
``GAUGE_EVERY`` sketches the run times ``gauge_work``, a fixed piece of
pure-Python work that calls nothing in gcs2d, and scales the latencies of
the sketches in between by ``GAUGE_SECONDS`` over the mean of the two
readings around them: a time in ms is what the sketch took, expressed at the
machine speed where ``gauge_work`` takes ``GAUGE_SECONDS``.  Code under test
that gets slower reads slower by the same factor; only the machine's drift
is divided out.  A sketch's latency is the median over passes;
``sketches_per_s`` divides the sketches completed by the median normalised
wall time of the unchecked passes.  The first stdout line shows the raw
p50 and the gauge's median beside the normalised figures.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` one untraced and one traced pass run, and it holds the
per-layer metrics from the spans of the traced pass (raw times).  Per-sketch
rows (id, n, normalised and raw latency, outcome, digest) and the spans go
to ``bench/out/``.

A sketch fails on a deadline miss, an error where an answer was known to
exist, an exit code other than the known one, an unexpected exception, a
solution count that changes with the sketch's scale, or an output that fails
a check.  ``correct`` is false only for the last kind: an answer the program
returned that is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(SRC))

try:
    import gcs2d.cli
    from gcs2d.decompose import AlignCluster, TriangleMerge
    from gcs2d.errors import (
        BadBranchError, EmptyIntersectionError, GcsError, NotReducibleError,
        UnderDeterminedError, UnsupportedStepError, VerificationError,
    )
except ImportError as exc:
    sys.exit(f"bench: cannot import gcs2d from {SRC}: {exc}")
if not Path(gcs2d.cli.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"bench: gcs2d was imported from {gcs2d.cli.__file__}, not from {SRC}")

import checks  # noqa: E402  (needs the path set above)
import sketches  # noqa: E402
import spans  # noqa: E402

SOLVE_LIMIT = 16
SOLVE_TOL = 1e-9
SETUP_STARTS = 21
GAUGE_EVERY = 10  # sketches between two gauge readings
GAUGE_SECONDS = 0.0003  # gauge_work() on an idle 2-vCPU Xeon VM, Python 3.11

# Reasons the solve op reports, as gcs2d solve names them.
REASONS = {
    NotReducibleError: "not_reducible",
    EmptyIntersectionError: "empty_intersection",
    UnderDeterminedError: "under_determined",
    UnsupportedStepError: "unsupported_step",
    BadBranchError: "bad_branch",
    VerificationError: "verification_failed",
}
ERROR_REASONS = ("empty_intersection", "under_determined", "not_reducible",
                 "unsupported_step", "verification_failed", "bad_branch",
                 "under_constrained", "over_constrained")


class DeadlineMiss(Exception):
    """Raised from SIGALRM when a sketch runs past its deadline."""


def _expire(signum, frame):
    raise DeadlineMiss


@contextmanager
def deadline(seconds: float):
    """Interrupt the block after ``seconds``, in-process: no thread or child."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Result:
    """One sketch in one pass.  ``facts`` holds what the digest covers and the
    per-layer counts; ``output`` is everything the program returned, reduced
    to a fingerprint once the pass has checked it."""

    latency: float
    outcome: str = "ok"
    facts: dict | None = None
    output: str = ""
    gauge: float = GAUGE_SECONDS  # gauge reading around this sketch

    @property
    def failed(self) -> bool:
        return self.outcome != "ok"

    @property
    def normalised(self) -> float:
        return self.latency * GAUGE_SECONDS / self.gauge


def digest(facts: dict | None) -> str:
    if facts is None:
        return ""
    keys = ("verdict", "class", "merges", "selectors")
    text = json.dumps([facts.get(k) for k in keys])
    return hashlib.sha1(text.encode()).hexdigest()[:16]


# -------------------------------------------------------------- speed gauge


def gauge_work() -> float:
    """Fixed pure-Python work of the kind gcs2d does (dicts, sets, float
    math, small sorts, calls) that calls nothing in gcs2d."""
    table: dict[int, float] = {}
    seen: set[int] = set()
    total = 0.0
    for i in range(400):
        key = (i * 7919) % 211
        table[key] = table.get(key, 0.0) + math.hypot(i, key)
        seen ^= {key, i % 17}
        total += sorted((key, i % 13, len(seen)))[1]
    return total + sum(table.values())


def gauge() -> float:
    """Seconds ``gauge_work`` takes now, the faster of two tries, so that a
    single interrupt does not count as a slow machine."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        gauge_work()
        best = min(best, perf_counter() - t0)
    return best


# ------------------------------------------------------------- direct ops


def _reason(exc: GcsError) -> str:
    return next((name for klass, name in REASONS.items() if isinstance(exc, klass)),
                type(exc).__name__)


def solve_op(api, text: str, facts: dict) -> str:
    """parse -> diagnose_pebble -> decompose -> extract_plan ->
    enumerate_solutions(limit 16, tol 1e-9), then JSON-encode the solutions.
    ``facts`` fills up as the op goes, so a deadline miss keeps what was done."""
    g = api.parse(text)
    verdict = facts["verdict"] = api.diagnose_pebble(g).verdict.value
    if verdict != "well":
        facts["reason"] = f"{verdict}_constrained"
        return ""
    try:
        result = api.decompose(g)
        facts.update({"class": result.reducibility.value, "merges": len(result.merge_log),
                      "final": len(result.final_clusters)})
        plan = api.extract_plan(result, g)
        facts["steps"] = len(plan.steps)
        facts["recombination"] = sum(isinstance(s, (AlignCluster, TriangleMerge))
                                     for s in plan.steps)
        found = api.enumerate_solutions(plan, g, limit=SOLVE_LIMIT, tol=SOLVE_TOL)
    except GcsError as exc:
        facts["reason"] = _reason(exc)
        return ""
    facts["selectors"] = [list(selector) for selector, _ in found]
    return json.dumps([api.solution_to_dict(s) for _, s in found])


def classify_op(api, text: str, facts: dict) -> str:
    """parse -> diagnose_pebble -> decompose, then JSON-encode the result."""
    g = api.parse(text)
    facts["verdict"] = api.diagnose_pebble(g).verdict.value
    result = api.decompose(g)
    facts.update({"class": result.reducibility.value, "merges": len(result.merge_log),
                  "final": len(result.final_clusters)})
    return json.dumps(api.decomposition_to_dict(result))


def run_direct(op, budget: float, sketch, api, tracer) -> Result:
    facts: dict = {}
    t0 = perf_counter()
    try:
        with deadline(budget):
            if tracer is None:
                output = op(api, sketch.text, facts)
            else:
                with tracer.span("bench.op"):
                    output = op(api, sketch.text, facts)
    except DeadlineMiss:
        return Result(perf_counter() - t0, "deadline", facts)
    latency = perf_counter() - t0
    if "reason" in facts:
        return Result(latency, "error:" + facts["reason"], facts)
    return Result(latency, "ok", facts, output)


def check_search(sketch, res: Result) -> str | None:
    if res.facts.get("verdict") != "well" or res.facts.get("class") != "fully_reducible":
        return "a Henneberg-I graph must be well-constrained and fully reducible"
    solutions = json.loads(res.output)
    if not solutions:
        return "no solution, but the measured embedding is one"
    doc = json.loads(sketch.text)
    res.facts["valid"] = checks.valid_solutions(doc, solutions, SOLVE_TOL)
    return (checks.check_solutions(doc, solutions, SOLVE_TOL)
            or checks.check_realizations(sketch.expect["embedding"], solutions, SOLVE_LIMIT))


def check_decompose(sketch, res: Result) -> str | None:
    if res.facts["verdict"] != "well":
        return "a Henneberg graph must be well-constrained"
    return checks.check_decomposition(json.loads(sketch.text), json.loads(res.output), False)


# ---------------------------------------------------------------- CLI op


def cli_call(argv: list[str], stdin: str, tracer, name: str) -> tuple[int, str, float]:
    """One ``gcs2d.cli.main`` call with stdin and stdout redirected."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        if tracer is None:
            code = gcs2d.cli.main(argv)
        else:
            with tracer.span(name):
                code = gcs2d.cli.main(argv)
        return code, sys.stdout.getvalue(), perf_counter() - t0
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


class CliMismatch(Exception):
    """A request ended with another exit code than the known answer."""


class CliWrong(Exception):
    """A request returned output that fails an independent check."""


def run_cli_item(sketch, check: bool, tracer, truth: Callable) -> Result:
    """All requests of one catalog item; the latency is their sum."""
    spent = 0.0
    outputs: list[str] = []
    facts: dict = {}

    def call(argv, stdin, name, expect_code=None):
        nonlocal spent
        code, out, took = cli_call(argv, stdin, tracer, name)
        spent += took
        outputs.append(f"{code}:{out}")
        if check and expect_code is not None and code != expect_code:
            raise CliMismatch(f"{name} exited {code}, expected {expect_code}")
        return code, out

    try:
        with deadline(30.0):
            if sketch.kind == "generate":
                _, out = call(sketch.expect["argv"], "", "cli.generate", 0)
                if check:
                    problem = _check_generated(sketch.n, json.loads(out), truth)
                    if problem:
                        raise CliWrong(problem)
            else:
                _cli_sketch(sketch, call, check, truth, facts)
    except DeadlineMiss:
        return Result(spent, "deadline")
    except CliMismatch as exc:
        return Result(spent, "exit:" + str(exc), facts, "\n".join(outputs))
    except CliWrong as exc:
        return Result(spent, "wrong:" + str(exc), facts, "\n".join(outputs))
    except Exception as exc:  # any escape from cli.main is a failed sketch
        return Result(spent, f"exception:{type(exc).__name__}: {exc}", facts)
    if facts.get("gave_up"):
        return Result(spent, "error:" + facts["reason"], facts, "\n".join(outputs))
    return Result(spent, "ok", facts, "\n".join(outputs))


def _check_generated(n: int, doc: dict, truth: Callable) -> str | None:
    cons = doc["constraints"]
    if len(doc["entities"]) != n or len(cons) != 2 * n - 3:
        return "generated graph does not have n points and 2n - 3 constraints"
    if any(c["kind"] != "distance" for c in cons) or truth(doc)["verdict"] != "well":
        return "generated graph is not minimally rigid"
    return None


def _expected_solve(sketch, verdict: str):
    if verdict != "well":
        return f"{verdict}_constrained"
    if sketch.kind in ("fixture", "scaled"):
        known = checks.KNOWN[sketch.expect["fixture"]]["solve"]
        return checks.SOME if sketch.kind == "scaled" and isinstance(known, int) else known
    return None  # a random sketch: solutions or any numeric failure reason


def _cli_sketch(sketch, call, check: bool, truth: Callable, facts: dict) -> None:
    text, tol = sketch.text, f"{sketch.expect['tol']!r}"
    doc = json.loads(text)
    known = checks.KNOWN.get(sketch.expect.get("fixture"), {})
    expect = truth(doc) if check else {"verdict": None}
    verdict = expect["verdict"]

    _, out = call(["analyze", "-"], text, "cli.analyze", 0 if verdict == "well" else 2)
    if check:
        problem = checks.check_analysis(doc, json.loads(out), expect)
        if not problem and "verdict" in known and known["verdict"] != verdict:
            problem = f"recount says {verdict}, the fixture table {known['verdict']}"
        _wrong_if(problem)
    facts["verdict"] = json.loads(out).get("diagnosis")

    _, out = call(["classify", "-"], text, "cli.classify", 0)
    result = json.loads(out)
    facts.update({"class": result["class"], "merges": len(result["merge_log"]),
                  "final": len(result["final_clusters"])})
    if check:
        _wrong_if(checks.check_decomposition(doc, result, verdict == "over"))
        if "class" in known and result["class"] != known["class"]:
            _wrong_if(f"class {result['class']}, expected {known['class']}")
        if "nontrivial" in known and result["nontrivial_cluster_count"] != known["nontrivial"]:
            _wrong_if("wrong nontrivial cluster count")

    code, out = call(["solve", "-", "--all", "--limit", str(SOLVE_LIMIT), "--tol", tol,
                      "--emit-plan"], text, "cli.solve_all")
    if code not in (0, 2):
        if check:
            raise CliMismatch(f"solve --all exited {code}")
        return
    answer = json.loads(out)
    solutions = answer.get("solutions") if code == 0 else None
    if code == 2:
        facts["reason"] = answer["error"]["reason"]
    if solutions is not None:
        steps = [s["type"] for s in answer["plan"]["steps"]]
        facts.update({"selectors": [s["branches"] for s in solutions],
                      "steps": len(steps),
                      "recombination": sum(t != "place_by_two_loci" for t in steps)})
    if check:
        want = _expected_solve(sketch, verdict)
        reason = facts.get("reason")
        if solutions is not None:
            facts["valid"] = checks.valid_solutions(doc, solutions, float(tol))
            _wrong_if(checks.check_solutions(doc, solutions, float(tol)))
            if want is not None:
                _wrong_if(checks.check_solve_answer(want, solutions, None))
            flagged = all(s["degenerate_steps"] for s in solutions)
            if sketch.kind == "fixture" and known.get("degenerate") and not flagged:
                _wrong_if("tangent root not flagged")
        elif want is None or want == checks.SOME or isinstance(want, int):
            if reason not in checks.NUMERIC_REASONS:
                _wrong_if(f"reason {reason} for a well-constrained sketch")
            facts["gave_up"] = want is not None
        else:
            _wrong_if(checks.check_solve_answer(want, None, reason))

    for sol in solutions or ():
        selector = ",".join(str(b) for b in sol["branches"])
        _, out = call(["solve", "-", "--branch", selector, "--tol", tol], text,
                      "cli.solve_branch", 0)
        if check and json.loads(out)["solutions"] != [sol]:
            _wrong_if(f"--branch {selector} does not replay its solution")

    _, out = call(["render", "-", "--format", "dot"], text, "cli.render", 0)
    if check and (not out.startswith("graph ") or out.count(" -- ") != len(doc["constraints"])):
        _wrong_if("DOT output does not draw one edge per constraint")

    if solutions:
        path = OUT / "cli-solution.json"
        path.write_text(json.dumps(answer), encoding="utf-8")
        _, out = call(["render", "-", "--format", "svg", "--solution", str(path), "--tol", tol],
                      text, "cli.render", 0)
        points = sum(1 for e in doc["entities"] if e["kind"] == "point")
        if check and (not out.startswith("<svg") or out.count('fill="crimson"') != points):
            _wrong_if("SVG output does not draw every point")


def _wrong_if(problem: str | None) -> None:
    if problem:
        raise CliWrong(problem)


def check_scaled_groups(catalog, results: dict[str, Result]) -> None:
    """Scaled copies must reproduce the solution count of their k = 0 copy.

    A copy that does not fails, but is not a wrong answer: every solution it
    returned was verified, and the table does not say which count is right.
    """
    base: dict[str, int] = {}
    for sketch in catalog:
        if sketch.kind != "scaled":
            continue
        res = results[sketch.id]
        count = len(res.facts["selectors"]) if res.facts and "selectors" in res.facts else None
        group = sketch.expect["group"]
        if sketch.expect["k"] == 0:
            base[group] = count
        elif res.outcome == "ok" and base.get(group) is not None and count != base[group]:
            res.outcome = f"scale:{count} solutions at k={sketch.expect['k']}, {base[group]} at k=0"


# -------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    make: Callable  # seed -> sketches
    run: Callable  # (sketch, check, api, tracer, truth) -> Result
    check: Callable | None  # (sketch, result) -> problem, for ops that returned
    pass_seconds: float  # one pass on the baseline, 2-vCPU VM


def _direct(op, budget):
    return lambda sketch, check, api, tracer, truth: run_direct(op, budget, sketch, api, tracer)


WORKLOADS = {
    # 280 sketches per size n = 16..20: the slowest tenth is heavy-tailed
    # (p90 / p50 ranged 2.3-3.0 over ten seeds of 700 sketches), so its 90th
    # percentile needs well over a thousand sketches to repeat across seeds.
    # The slowest of 2800 sketches (seeds 1-4) took 0.26 s; the 2 s
    # deadline stops a runaway search, and is far enough out that whether a
    # sketch fails does not depend on how busy the machine is.
    "search-laman": Workload(lambda seed: sketches.search_laman(seed, 1400),
                             _direct(solve_op, 2.0), check_search, 8.2),
    # 20 sketches per size n = 16..30, so the slowest tenth blends several
    # sizes.
    "decompose-laman": Workload(lambda seed: sketches.decompose_laman(seed, 300),
                                _direct(classify_op, 30.0), check_decompose, 5.0),
    "cli-catalog": Workload(lambda seed: sketches.cli_catalog(seed, 2),
                            lambda sketch, check, api, tracer, truth:
                            run_cli_item(sketch, check, tracer, truth), None, 3.5),
}


def run_pass(workload: Workload, corpus, check: bool, tracer=None):
    """One closed-loop pass over the corpus; checks only when ``check``.

    With a ``tracer`` every sketch also runs traced, right before or after
    its untraced run (alternately), so both see the same machine state and
    their time difference is the tracing overhead.  Returns the untraced
    results, the traced ones (None without a tracer) and the pass's wall
    time without the gauge readings, gauge-normalised.
    """
    OUT.mkdir(exist_ok=True)
    memo: dict[str, dict] = {}

    def truth(doc: dict) -> dict:
        # The recount depends on structure only, so scaled copies share it.
        key = json.dumps([doc["entities"], [(c["kind"], c["between"]) for c in doc["constraints"]]])
        if key not in memo:
            memo[key] = checks.recount(doc)
        return memo[key]

    def traced_run(sketch) -> Result:
        tracer.sketch = sketch.id
        with spans.patched_cli(tracer):
            res = workload.run(sketch, False, spans.layer_api(), tracer, truth)
        _settle(res, False)
        return res

    api = spans.layer_api()
    results, traced = {}, ({} if tracer is not None else None)
    reading, block, wall = gauge(), [], 0.0
    block_start = perf_counter()
    for i, sketch in enumerate(corpus):
        if tracer is not None and i % 2:
            traced[sketch.id] = traced_run(sketch)
        res = workload.run(sketch, check, api, None, truth)
        if check and workload.check is not None and res.outcome == "ok":
            problem = workload.check(sketch, res)
            if problem:
                res.outcome = "wrong:" + problem
        _settle(res, check)
        results[sketch.id] = res
        if tracer is not None and not i % 2:
            traced[sketch.id] = traced_run(sketch)
        block.append(res)
        if len(block) == GAUGE_EVERY or i == len(corpus) - 1:
            spent = perf_counter() - block_start
            previous, reading = reading, gauge()
            for r in block:
                r.gauge = (previous + reading) / 2
            wall += spent * GAUGE_SECONDS / block[0].gauge
            block, block_start = [], perf_counter()
    if check:
        check_scaled_groups(corpus, results)
    return results, traced, wall


def _settle(res: Result, keep_facts: bool) -> None:
    """Reduce a result to what later steps read: a fingerprint of the answer
    and its digest, plus the facts of the checked pass only.  Held answers
    would otherwise make peak_rss_mb grow with the number of passes."""
    res.output = hashlib.sha1((res.output + digest(res.facts)).encode()).hexdigest()
    if not keep_facts:
        res.facts = None


def _compare(first: dict[str, Result], again: dict[str, Result]) -> None:
    """Later passes must return the same answers as the checked first pass."""
    for sid, res in again.items():
        ref = first[sid]
        # A first pass that stopped at a failed check sent fewer requests.
        if res.outcome == "deadline" or not (ref.outcome == "ok" or ref.outcome.startswith("error")):
            continue
        if res.output != ref.output:
            ref.outcome = "wrong:answer changed between passes"


# ---------------------------------------------------------------- metrics


SETUP_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import gcs2d, gcs2d.cli\n"
    "gcs2d.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


def cold_starts(count: int) -> list[float]:
    """Seconds a fresh interpreter takes through ``import gcs2d`` and
    ``build_parser()``, which every CLI call pays, ``count`` times, each
    gauge-normalised by the readings just before and after it."""
    times = []
    before = gauge()
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        after = gauge()
        times.append(float(done.stdout) * GAUGE_SECONDS * 2 / (before + after))
        before = after
    return times


def end_to_end(corpus, passes: list[dict[str, Result]], walls: list[float],
               setup: list[float]) -> dict:
    """``walls`` holds the normalised wall time of each pass after the
    checked first."""
    first = passes[0]
    latencies = [statistics.median(p[s.id].normalised for p in passes) for s in corpus]
    completed = sum(1 for s in corpus if first[s.id].outcome != "deadline")
    ok = sum(1 for s in corpus if not first[s.id].failed)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "sketch_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "sketch_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1000.0, "ms"),
        "sketches_per_s": (completed / statistics.median(walls), "1/s"),
        "ok_share": (ok / len(corpus), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(results: dict[str, Result], tracer: spans.Tracer,
              plain: float, traced: float) -> dict:
    """Per-layer metrics: times from the traced pass's spans, counts from the
    checked untraced pass ``results`` (both passes return the same answers)."""
    calls = tracer.durations()
    facts = [r.facts or {} for r in results.values()]
    outcomes = [r.outcome for r in results.values()]
    returned = sum(len(f.get("selectors", ())) for f in facts)
    valid = sum(f.get("valid", 0) for f in facts)
    busy = tracer.self_time_by_layer()
    total = sum(busy.values()) or 1.0
    out = {
        "solve.enumerate_ms": (spans.median_ms(calls["solve.enumerate_solutions"]), "ms"),
        "solve.enumerate_p90_ms": (spans.p90_ms(calls["solve.enumerate_solutions"]), "ms"),
        "solve.solutions": (returned, "count"),
        "solve.valid_ratio": (valid / returned if returned else 0.0, "share"),
        "solve.deadline_misses": (outcomes.count("deadline"), "count"),
    }
    for reason in ERROR_REASONS:
        out[f"solve.errors.{reason}"] = (sum(f.get("reason") == reason for f in facts), "count")
    out.update({
        "decompose.decompose_ms": (spans.median_ms(calls["decompose.decompose"]), "ms"),
        "decompose.decompose_p90_ms": (spans.p90_ms(calls["decompose.decompose"]), "ms"),
        "decompose.merges": (sum(f.get("merges", 0) for f in facts), "count"),
        "decompose.final_clusters": (sum(f.get("final", 0) for f in facts), "count"),
        "decompose.extract_plan_ms": (spans.median_ms(calls["decompose.extract_plan"]), "ms"),
        "decompose.plan_steps": (sum(f.get("steps", 0) for f in facts), "count"),
        "decompose.recombination_steps": (sum(f.get("recombination", 0) for f in facts), "count"),
        "graph.parse_ms": (spans.median_ms(calls["graph.parse"]), "ms"),
        "graph.parse_calls": (len(calls["graph.parse"]), "count"),
        "rigidity.diagnose_pebble_ms": (spans.median_ms(calls["rigidity.diagnose_pebble"]), "ms"),
        "rigidity.diagnose_pebble_calls": (len(calls["rigidity.diagnose_pebble"]), "count"),
    })
    for request in ("analyze", "classify", "solve_all", "solve_branch", "render", "generate"):
        out[f"cli.{request}_ms"] = (spans.median_ms(calls[f"cli.{request}"]), "ms")
    out["cli.calls"] = (sum(len(v) for k, v in calls.items() if k.startswith("cli.")), "count")
    out["cli.exit_mismatches"] = (sum(o.startswith("exit:") for o in outcomes), "count")
    for layer in ("bench", "cli", "graph", "rigidity", "decompose", "solve", "henneberg", "render"):
        out[f"{layer}.self_share"] = (busy.get(layer, 0.0) / total, "share")
    out["trace.overhead_share"] = (traced / plain - 1.0, "share")
    return out


def write_rows(path: Path, corpus, first: dict[str, Result], latency, raw) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for s in corpus:
            res = first[s.id]
            handle.write(json.dumps({"id": s.id, "kind": s.kind, "n": s.n,
                                     "latency_ms": round(latency(s.id) * 1000.0, 4),
                                     "raw_ms": round(raw(s.id) * 1000.0, 4),
                                     "outcome": res.outcome, "digest": digest(res.facts)}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    corpus = workload.make(args.seed)
    tag = f"{args.workload}-{args.seed}"

    if args.trace:
        tracer = spans.Tracer()
        first, traced, _ = run_pass(workload, corpus, check=True, tracer=tracer)
        _compare(first, traced)
        tracer.write(OUT / f"{tag}.spans.jsonl")
        passes = [first]
    else:
        # The first start compiles bytecode: not a cold start.
        setup = cold_starts(SETUP_STARTS + 1)[1:]
        count = max(3, round(args.seconds / workload.pass_seconds))
        passes, walls = [], []
        started = last = perf_counter()
        while len(passes) < count:
            results, _, wall = run_pass(workload, corpus, check=not passes)
            if passes:
                walls.append(wall)
                _compare(passes[0], results)
            passes.append(results)
            now = perf_counter()
            if len(passes) >= 3 and now - started + (now - last) > 1.5 * args.seconds:
                break
            last = now
        first = passes[0]

    failed = sum(1 for s in corpus if first[s.id].failed)
    wrong = [s.id for s in corpus if first[s.id].outcome.startswith("wrong")]
    if args.trace:
        plain = sum(r.latency for r in first.values())
        metrics = per_layer(first, tracer, plain, sum(r.latency for r in traced.values()))
        write_rows(OUT / f"{tag}-trace.rows.jsonl", corpus, first,
                   lambda sid: traced[sid].latency, lambda sid: traced[sid].latency)
    else:
        metrics = end_to_end(corpus, passes, walls, setup)
        write_rows(OUT / f"{tag}.rows.jsonl", corpus, first,
                   lambda sid: statistics.median(p[sid].normalised for p in passes),
                   lambda sid: statistics.median(p[sid].latency for p in passes))

    kinds: dict[str, int] = {}
    for s in corpus:
        if first[s.id].failed:
            key = first[s.id].outcome.split(" ")[0]
            kinds[key] = kinds.get(key, 0) + 1
    runs = "an untraced and a traced pass" if args.trace else f"{len(passes)} passes"
    if not args.trace:
        raw = statistics.median(statistics.median(p[s.id].latency for p in passes) for s in corpus)
        gauges = statistics.median(r.gauge for p in passes for r in p.values())
        runs += f" (raw p50 {raw * 1000:.3f} ms, gauge median {gauges * 1000:.3f} ms)"
    print(f"{tag}: {len(corpus)} sketches x {runs}, {failed} failed {kinds}"
          + (f", wrong answers on {wrong[:5]}" if wrong else ""))
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(corpus),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
