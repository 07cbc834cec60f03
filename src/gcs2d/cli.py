"""Command-line interface.

Exit codes: 0 on success, 1 on input or system errors, 2 on well-formed runs
with a negative verdict (under- or over-constrained, not reducible, no
numeric solution).  Every command writes parseable output (JSON, DOT or SVG)
to stdout; diagnostics go to stderr.  All path arguments accept ``-`` for
stdin.  The environment variable GCS_TOL overrides the default residual
tolerance of 1e-9.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .decompose import decompose, decomposition_to_dict, extract_plan, plan_to_dict
from .errors import (
    BadBranchError,
    EmptyIntersectionError,
    GcsError,
    NotReducibleError,
    UnderDeterminedError,
    UnsupportedStepError,
    VerificationError,
)
from .graph import ConstraintGraph, graph_to_dict, parse
from .henneberg import fixture, random_laman
from .render import to_dot, to_svg
from .rigidity import Verdict, diagnose_pebble
from .solve import (
    DEFAULT_TOL,
    enumerate_solutions,
    execute,
    solution_from_dict,
    solution_to_dict,
    verify,
)


class _Failure(Exception):
    def __init__(self, code: int, payload: dict | None = None, message: str | None = None):
        super().__init__(message or "")
        self.code = code
        self.payload = payload
        self.message = message


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _Failure(1, message=f"cannot read {path!r}: {exc}") from exc


def _load_graph(path: str) -> ConstraintGraph:
    try:
        return parse(_read_text(path))
    except GcsError as exc:
        raise _Failure(1, message=str(exc)) from exc


def _tolerance(args: argparse.Namespace) -> float:
    if getattr(args, "tol", None) is not None:
        return args.tol
    env = os.environ.get("GCS_TOL")
    if env:
        try:
            return float(env)
        except ValueError as exc:
            raise _Failure(1, message=f"GCS_TOL is not a number: {env!r}") from exc
    return DEFAULT_TOL


_SOLVE_REASONS = {
    NotReducibleError: "not_reducible",
    EmptyIntersectionError: "empty_intersection",
    UnderDeterminedError: "under_determined",
    UnsupportedStepError: "unsupported_step",
    BadBranchError: "bad_branch",
    VerificationError: "verification_failed",
}


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_graph(args.path)
    try:
        diagnosis = diagnose_pebble(g)
    except GcsError as exc:
        raise _Failure(1, message=str(exc)) from exc
    doc: dict = {"diagnosis": diagnosis.verdict.value}
    if diagnosis.deficit is not None:
        doc["deficit"] = diagnosis.deficit
    if diagnosis.witness is not None:
        doc["witness"] = sorted(diagnosis.witness)
    _emit(doc)
    return 0 if diagnosis.verdict is Verdict.WELL_CONSTRAINED else 2


def _cmd_classify(args: argparse.Namespace) -> int:
    g = _load_graph(args.path)
    try:
        result = decompose(g)
    except GcsError as exc:
        raise _Failure(1, message=str(exc)) from exc
    _emit(decomposition_to_dict(result))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _load_graph(args.path)
    tol = _tolerance(args)
    try:
        branches = tuple(int(x) for x in args.branch.split(",")) if args.branch else ()
    except ValueError as exc:
        raise _Failure(1, message="--branch must be a comma-separated integer list") from exc

    try:
        diagnosis = diagnose_pebble(g)
    except GcsError as exc:
        raise _Failure(1, message=str(exc)) from exc
    if diagnosis.verdict is not Verdict.WELL_CONSTRAINED:
        reason = f"{diagnosis.verdict.value}_constrained"
        payload: dict = {"error": {"reason": reason}}
        if diagnosis.deficit is not None:
            payload["error"]["deficit"] = diagnosis.deficit
        if diagnosis.witness is not None:
            payload["error"]["witness"] = sorted(diagnosis.witness)
        raise _Failure(2, payload=payload)

    try:
        result = decompose(g)
        plan = extract_plan(result, g)
        if args.all:
            found = enumerate_solutions(plan, g, limit=args.limit, tol=tol)
            solutions = [sol for _, sol in found]
        else:
            sol = execute(plan, g, branches)
            report = verify(g, sol, tol)
            if not report.passed:
                raise _Failure(
                    2,
                    payload={
                        "error": {
                            "reason": "verification_failed",
                            "max_abs_residual": report.max_abs,
                        }
                    },
                )
            solutions = [sol]
    except _Failure:
        raise
    except GcsError as exc:
        reason = next(
            (name for klass, name in _SOLVE_REASONS.items() if isinstance(exc, klass)),
            None,
        )
        if reason is None:
            raise _Failure(1, message=str(exc)) from exc
        body: dict = {"reason": reason, "message": str(exc)}
        if isinstance(exc, UnderDeterminedError):
            body["entity"] = exc.entity
        raise _Failure(2, payload={"error": body}) from exc

    doc: dict = {"solutions": [solution_to_dict(s) for s in solutions]}
    if args.emit_plan:
        doc["plan"] = plan_to_dict(plan, g)
    _emit(doc)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    try:
        g = random_laman(args.n, args.seed, args.p_h2)
    except GcsError as exc:
        raise _Failure(1, message=str(exc)) from exc
    _emit(graph_to_dict(g))
    return 0


def _cmd_fixture(args: argparse.Namespace) -> int:
    try:
        g = fixture(args.name)
    except GcsError as exc:
        raise _Failure(1, message=str(exc)) from exc
    _emit(graph_to_dict(g))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    g = _load_graph(args.path)
    if args.format == "dot":
        sys.stdout.write(to_dot(g))
        return 0
    if not args.solution:
        raise _Failure(1, message="--format svg needs --solution")
    try:
        doc = json.loads(_read_text(args.solution))
    except json.JSONDecodeError as exc:
        raise _Failure(1, message=f"invalid solution JSON: {exc}") from exc
    if isinstance(doc, dict) and "solutions" in doc:
        entries = doc["solutions"]
        if not isinstance(entries, list) or not entries:
            raise _Failure(1, message="solution document lists no solutions")
        doc = entries[0]
    try:
        solution = solution_from_dict(doc)
        report = verify(g, solution, _tolerance(args))
    except GcsError as exc:
        raise _Failure(1, message=str(exc)) from exc
    if not report.passed:
        raise _Failure(
            2,
            payload={
                "error": {
                    "reason": "verification_failed",
                    "max_abs_residual": report.max_abs,
                }
            },
        )
    sys.stdout.write(to_svg(g, solution.placements))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems are input errors: exit 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _Failure as failure:
        if failure.payload is not None:
            _emit(failure.payload)
        if failure.message:
            sys.stderr.write(failure.message + "\n")
        return failure.code


if __name__ == "__main__":
    raise SystemExit(main())
