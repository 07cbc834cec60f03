"""Command-line interface.

Exit codes: 0 on success, 1 on input or system errors, 2 on well-formed runs
with a negative verdict (under- or over-constrained, not reducible, no
numeric solution).  Library errors are handled once, in :func:`main`: an
error whose class names a ``reason`` prints ``{"error": {"reason",
"message"[, "entity"]}}`` and exits 2; any other error writes one line to
stderr, leaves stdout empty and exits 1.  Every command writes parseable
output (JSON, DOT or SVG) to stdout; diagnostics go to stderr.  JSON output
is ``json.dumps(doc, indent=2)`` byte for byte, from ``graph.indented_json``.
All path arguments accept ``-`` for stdin, one of them per call.  The
environment variable GCS_TOL overrides the default residual tolerance of
1e-9.  A reader that closes stdout early (``gcs2d generate --n 3000 |
head``) ends the run with one stderr line and exit 1.

:func:`main` returns the exit code and may be called any number of times in
one process, and no call's output depends on the calls before it.  Three
things carry across calls:

- the parser, built on the first call, with the namespaces of the 256 argv
  lists used last that parsed (a usage error or ``--help`` prints again);
- the document parsed last, as its text and graph: a call that reads the
  same text again parses nothing;
- the diagnosis, decomposition, plan and compiled program of the structure
  analysed last, which the library keeps by structure
  (``ConstraintGraph._kept``), a plan or program only for the same
  decomposition or plan object it was built from, so a sketch and its
  re-valued or rescaled copies share them.

Every call still reads its files and stdin, and ``GCS_TOL``, and runs the
numeric search, verification and output.

Importing this module loads what ``analyze``, ``classify`` and ``solve`` run.
Two modules load on first use instead: ``gcs2d.henneberg`` on the first
``generate`` or ``fixture`` call and ``gcs2d.render`` on the first ``render``
call.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cached_property, lru_cache

from .decompose import decompose, decomposition_to_dict, extract_plan, plan_to_dict
from .errors import GcsError, UnderDeterminedError
from .geometry import Placement
from .graph import ConstraintGraph, graph_to_dict, indented_json, parse
from .rigidity import Diagnosis, Verdict, diagnose_pebble
from .solve import (
    DEFAULT_TOL,
    ResidualReport,
    enumerate_solutions,
    execute,
    solution_from_dict,
    solution_to_dict,
    verify,
)


# Only generate, fixture and render call into henneberg and render, so those
# modules are imported on the first call rather than with the CLI.  The
# commands call through these module attributes, which bench/spans.py wraps,
# so they are never rebound to the functions they call.
def random_laman(n: int, seed: int, p_h2: float) -> ConstraintGraph:
    from . import henneberg

    return henneberg.random_laman(n, seed, p_h2)


def fixture(name: str) -> ConstraintGraph:
    from . import henneberg

    return henneberg.fixture(name)


def to_dot(g: ConstraintGraph) -> str:
    from . import render

    return render.to_dot(g)


def to_svg(g: ConstraintGraph, placements: dict[str, Placement]) -> str:
    from . import render

    return render.to_svg(g, placements)


class _Failure(Exception):
    """An exit the CLI decides itself: with a ``verdict`` a negative verdict
    (exit 2), else an input error whose message goes to stderr (exit 1)."""

    def __init__(self, message: str = "", verdict: dict | None = None):
        super().__init__(message)
        self.verdict = verdict


def _write(text: str) -> None:
    # Two writes, the last character on its own: with unbuffered stdout
    # (python -u) a text stream drops what a pipe left unwritten when its
    # reader went away, and only the next write raises the BrokenPipeError
    # that main reports.
    sys.stdout.write(text[:-1])
    sys.stdout.write(text[-1:])


def _emit(doc: dict) -> None:
    _write(indented_json(doc) + "\n")  # encoded at once, not written per chunk


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _Failure(f"cannot read {path!r}: {exc}") from exc


# The document parsed last, as (text, graph): a call that reads the same
# text again gets the same graph object, with all the library keeps on it.
_last_document: tuple[str | None, ConstraintGraph | None] = (None, None)


def _read_graph(path: str) -> ConstraintGraph:
    """The graph in the document at ``path``, which is read on every call
    and parsed again only when its text differs from the last document's."""
    global _last_document
    text = _read_text(path)
    # One read of the pair, as graph._last_structure is read: the graph
    # returned is the one stored with ``text``.
    last_text, g = _last_document
    if text != last_text:
        g = parse(text)
        _last_document = (text, g)
    return g


def _tolerance(args: argparse.Namespace) -> float:
    tol, env = getattr(args, "tol", None), os.environ.get("GCS_TOL")
    if tol is None and env:
        try:
            tol = float(env)
        except ValueError as exc:
            raise _Failure(f"GCS_TOL is not a number: {env!r}") from exc
    if tol is not None and not tol >= 0.0:  # NaN fails the comparison too
        raise _Failure(f"the tolerance must be a non-negative number, got {tol}")
    return DEFAULT_TOL if tol is None else tol


def _require_passed(report: ResidualReport) -> None:
    if not report.passed:  # a NaN residual is reported as null: stdout stays strict JSON
        raise _Failure(verdict={"reason": "verification_failed", "max_abs_residual":
                                None if math.isnan(report.max_abs) else report.max_abs})


def _evidence(diagnosis: Diagnosis) -> dict:
    """The deficit or witness of a structural diagnosis, when it has one."""
    fields: dict = {}
    if diagnosis.deficit is not None:
        fields["deficit"] = diagnosis.deficit
    if diagnosis.witness is not None:
        fields["witness"] = sorted(diagnosis.witness)
    return fields


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = _read_graph(args.path)
    diagnosis = diagnose_pebble(g)
    _emit({"diagnosis": diagnosis.verdict.value, **_evidence(diagnosis)})
    return 0 if diagnosis.verdict is Verdict.WELL_CONSTRAINED else 2


def _cmd_classify(args: argparse.Namespace) -> int:
    g = _read_graph(args.path)
    _emit(decomposition_to_dict(decompose(g)))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _read_graph(args.path)
    tol = _tolerance(args)
    try:
        branches = tuple(int(x) for x in args.branch.split(",")) if args.branch else ()
    except ValueError as exc:
        raise _Failure("--branch must be a comma-separated integer list") from exc
    if args.limit < 1:
        raise _Failure(f"--limit must be at least 1, got {args.limit}")

    diagnosis = diagnose_pebble(g)
    if diagnosis.verdict is not Verdict.WELL_CONSTRAINED:
        reason = f"{diagnosis.verdict.value}_constrained"
        raise _Failure(verdict={"reason": reason, **_evidence(diagnosis)})

    plan = extract_plan(decompose(g), g)
    if args.all or not args.branch:  # without either, the first solution the walk finds
        found = enumerate_solutions(plan, g, limit=args.limit if args.all else 1, tol=tol)
        solutions = [sol for _, sol in found]
    else:  # a replay of one path
        sol = execute(plan, g, branches)
        _require_passed(verify(g, sol, tol))
        solutions = [sol]

    doc: dict = {"solutions": [solution_to_dict(s) for s in solutions]}
    if args.emit_plan:
        doc["plan"] = plan_to_dict(plan, g)
    _emit(doc)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    _emit(graph_to_dict(random_laman(args.n, args.seed, args.p_h2)))
    return 0


def _cmd_fixture(args: argparse.Namespace) -> int:
    _emit(graph_to_dict(fixture(args.name)))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    if args.format == "svg" and args.path == args.solution == "-":
        raise _Failure("the graph and --solution cannot both be read from stdin (-)")
    g = _read_graph(args.path)
    if args.format == "dot":
        _write(to_dot(g))
        return 0
    if not args.solution:
        raise _Failure("--format svg needs --solution")
    try:
        doc = json.loads(_read_text(args.solution))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise _Failure(f"invalid solution JSON: {exc}") from exc
    if isinstance(doc, dict) and "solutions" in doc:
        entries = doc["solutions"]
        if not isinstance(entries, list) or not entries:
            raise _Failure("solution document lists no solutions")
        doc = entries[0]
    solution = solution_from_dict(doc)
    _require_passed(verify(g, solution, _tolerance(args)))
    _write(to_svg(g, solution.placements))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems are input errors: exit 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)

    @cached_property
    def parsed(self):
        """:meth:`parse_args` of an argv tuple, kept for the 256 argv tuples
        used last that parsed.  A usage error or ``--help`` exits through
        SystemExit, so it is never kept and prints again on the next call."""
        return lru_cache(maxsize=256)(self.parse_args)


def build_parser() -> _Parser:
    parser = _Parser(prog="gcs2d", description="2D geometric constraint graph toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural diagnosis of a graph file")
    p.add_argument("path", help="graph JSON file, or - for stdin")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("classify", help="decompose a graph and report reducibility")
    p.add_argument("path")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("solve", help="extract and execute a construction plan")
    p.add_argument("path")
    p.add_argument("--branch", default="", help="comma-separated root choices")
    p.add_argument("--all", action="store_true", help="enumerate all solution branches")
    p.add_argument("--limit", type=int, default=16)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--emit-plan", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("generate", help="random minimally rigid point graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p-h2", type=float, default=0.3, dest="p_h2")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("fixture", help="emit a named example graph")
    p.add_argument("name")
    p.set_defaults(func=_cmd_fixture)

    p = sub.add_parser("render", help="render a graph as DOT, or a solution as SVG")
    p.add_argument("path")
    p.add_argument("--format", choices=("dot", "svg"), default="dot")
    p.add_argument("--solution", default=None, help="solution JSON (for svg)")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_render)

    return parser


_parser: _Parser | None = None  # built by the first main() call


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # Send what stdout still buffers to /dev/null, so that the
        # interpreter's own flush at exit cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.stderr.write("gcs2d: stdout was closed before the output was written\n")
        return 1
    return code


def _run(argv: list[str] | None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:  # each call gets its own copy of the kept namespace
        args = argparse.Namespace(**vars(_parser.parsed(tuple(argv))))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _Failure as failure:
        message, verdict = str(failure), failure.verdict
    except GcsError as exc:
        message, verdict = str(exc), None
        if exc.reason is not None:
            verdict = {"reason": exc.reason, "message": message}
            if isinstance(exc, UnderDeterminedError):
                verdict["entity"] = exc.entity
    if verdict is None:
        sys.stderr.write(message + "\n")
        return 1
    _emit({"error": verdict})
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
