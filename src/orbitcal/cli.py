"""Command-line surface.

Subcommands: gen, decide, closure, degree, oracle, crosscheck; only
crosscheck, on the paper's system, needs a conic orbit and b != 0.
Exit codes: 0 in-closure (or agreement), 1 not-in-closure, 2 bad
parameters, 3 violated precondition (crosscheck only), 4 resource limit
(the decider's system size, the elimination's pair budget), 5
inconsistent degree data, 6 oracle disagreement, 7 internal error (any
other exception, such as a certificate that fails its exact plug-back).
`cli.main(argv)` returns the exit code for every outcome, including usage
errors, and a process builds its parser once.
ORBITCAL_MAX_NNZ, a positive integer, overrides the system size limit."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback

from orbitcal import decider, degbound, elim, repmodel, torusoracle
from orbitcal.errors import (
    InconsistentDataError,
    PreconditionError,
    ResourceLimitError,
)

EXIT_IN_CLOSURE = 0
EXIT_NOT_IN_CLOSURE = 1
EXIT_BAD_PARAMS = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4
EXIT_INCONSISTENT = 5
EXIT_DISAGREEMENT = 6
EXIT_INTERNAL = 7


def _parse_weights(text: str):
    chunks = [chunk.strip() for chunk in text.split(";")]
    if "" in chunks:
        raise ValueError(f"empty weight in {text!r}")
    return [tuple(int(w) for w in chunk.split(",")) for chunk in chunks]


def _emit(payload: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
            if not payload.endswith("\n"):
                fh.write("\n")
    else:
        print(payload)


def _max_nnz() -> int:
    raw = os.environ.get("ORBITCAL_MAX_NNZ") or str(decider.DEFAULT_MAX_NNZ)
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"ORBITCAL_MAX_NNZ must be a positive integer, not {raw!r}")
    return int(raw)


def cmd_gen(args) -> int:
    if args.kind == "sl2":
        if args.h is None:
            raise ValueError("gen sl2 requires --h")
        rep = repmodel.sl2_binary_forms(args.h)
    else:
        if not args.weights:
            raise ValueError("gen torus requires --weights")
        rep = repmodel.torus_diagonal(_parse_weights(args.weights))
    if args.label:
        rep.label = args.label
    _emit(json.dumps(rep.to_json(), indent=2), args.out)
    return 0


def _load_problem(args, conic_asserted=False):
    rep = repmodel.RepresentationData.load(args.rep)
    a = repmodel.parse_vector(args.a)
    b = repmodel.parse_vector(args.b)
    if len(a) != rep.n or len(b) != rep.n:
        raise ValueError(f"vectors must have length {rep.n}")
    if args.conify:
        return decider.conic_problem(rep, a, b, degree_bound_override=args.degree_bound)
    return decider.DecisionProblem(
        rep,
        a,
        b,
        degree_bound_override=args.degree_bound,
        conic_asserted=conic_asserted,
    )


def cmd_decide(args) -> int:
    problem = _load_problem(args)
    decision = decider.decide(problem, seed=args.seed, max_nnz=_max_nnz())
    payload = decision.to_json()
    if not args.verbose:
        payload.pop("transcript", None)
    _emit(json.dumps(payload, indent=2), args.out)
    return EXIT_IN_CLOSURE if decision.in_closure else EXIT_NOT_IN_CLOSURE


def cmd_closure(args) -> int:
    rep = repmodel.RepresentationData.load(args.rep)
    if args.point is not None:
        point = repmodel.parse_vector(args.point)
        if len(point) != rep.n:
            raise ValueError(f"point must have length {rep.n}")
        tau = elim.SubspaceMap.point(point)
    else:
        tau = elim.SubspaceMap.load(args.subspace)
    equations = elim.closure_equations(rep, tau)
    _emit(
        json.dumps([elim.format_equation(q, rep.n) for q in equations], indent=2),
        args.out,
    )
    return 0


def cmd_degree(args) -> int:
    if args.kind == "sl2":
        if args.h is None:
            raise ValueError("degree sl2 requires --h")
        value = degbound.kazarnovskii_sl2(args.h)
    elif args.kind == "kazarnovskii":
        if not args.data:
            raise ValueError("degree kazarnovskii requires --data")
        value = degbound.kazarnovskii(degbound.ReductiveData.load(args.data))
    elif args.kind == "binary-orbit":
        if args.h is None or not args.mults:
            raise ValueError("degree binary-orbit requires --h and --mults")
        mults = [int(m) for m in args.mults.split(",")]
        value = degbound.binary_form_orbit_degree(args.h, mults, args.stab)
    else:
        if not args.rep:
            raise ValueError("degree parametric requires --rep")
        rep = repmodel.RepresentationData.load(args.rep)
        value = degbound.parametric_degree_bound(rep)
    print(value)
    return 0


def cmd_oracle(args) -> int:
    weights = _parse_weights(args.weights)
    a = repmodel.parse_vector(args.a)
    b = repmodel.parse_vector(args.b)
    if len(a) != len(weights) or len(b) != len(weights):
        raise ValueError(f"vectors must have length {len(weights)}")
    verdict = torusoracle.torus_decide(weights, a, b)
    print(decider.IN_CLOSURE if verdict else decider.NOT_IN_CLOSURE)
    return EXIT_IN_CLOSURE if verdict else EXIT_NOT_IN_CLOSURE


def cmd_crosscheck(args) -> int:
    problem = _load_problem(args, args.assume_conic)
    rep_w, a_w, b_w = problem.rep, problem.a, problem.b

    results = {}
    decision = decider.paper_decide(problem, seed=args.seed, max_nnz=_max_nnz())
    results["decider"] = decision.in_closure

    equations = elim.closure_equations(rep_w, elim.SubspaceMap.point(b_w))
    results["elimination"] = elim.point_in_closure(equations, a_w)

    weights = repmodel.diagonal_weights(rep_w)
    if weights is not None:
        results["torus"] = torusoracle.torus_decide(weights, a_w, b_w)

    agree = len(set(results.values())) == 1
    report = {
        "a": repmodel.format_vector(a_w),
        "b": repmodel.format_vector(b_w),
        "verdicts": {k: (decider.IN_CLOSURE if v else decider.NOT_IN_CLOSURE) for k, v in results.items()},
        "agree": agree,
    }
    if not agree or args.verbose:
        report["decider_transcript"] = decision.transcript
        report["closure_equations"] = [
            elim.format_equation(q, rep_w.n) for q in equations
        ]
    _emit(json.dumps(report, indent=2), args.out)
    return EXIT_IN_CLOSURE if agree else EXIT_DISAGREEMENT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitcal",
        description="exact orbit-closure membership decisions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a representation file")
    p.add_argument("kind", choices=["sl2", "torus"])
    p.add_argument("--h", type=int, default=None, help="binary-form degree")
    p.add_argument("--weights", help="semicolon-separated integer tuples, e.g. '1,0;0,1'")
    p.add_argument("--label", default="")
    p.add_argument("--out")

    # the options of decide and crosscheck
    question = argparse.ArgumentParser(add_help=False)
    question.add_argument("--rep", required=True)
    question.add_argument("--a", required=True, help="comma-separated rationals")
    question.add_argument("--b", required=True, help="comma-separated rationals")
    question.add_argument("--degree-bound", type=int, default=None)
    question.add_argument("--conify", action="store_true", help="apply the conic reduction first")
    question.add_argument("--seed", type=int, default=0)
    question.add_argument("--verbose", action="store_true")
    question.add_argument("--out")

    sub.add_parser("decide", parents=[question], help="decide closure membership")

    p = sub.add_parser("closure", help="emit defining equations of an orbit/subspace closure")
    p.add_argument("--rep", required=True)
    swept = p.add_mutually_exclusive_group(required=True)
    swept.add_argument("--point", help="comma-separated rationals")
    swept.add_argument("--subspace", help="path to a subspace JSON file")
    p.add_argument("--out")

    p = sub.add_parser("degree", help="exact degree values and bounds")
    p.add_argument("kind", choices=["sl2", "kazarnovskii", "binary-orbit", "parametric"])
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--data", help="reductive data JSON file")
    p.add_argument("--mults", help="comma-separated multiplicities")
    p.add_argument("--stab", type=int, default=1)
    p.add_argument("--rep")

    p = sub.add_parser("oracle", help="independent oracles")
    oracle_sub = p.add_subparsers(dest="oracle_kind", required=True)
    q = oracle_sub.add_parser("torus", help="diagonal torus criterion")
    q.add_argument("--weights", required=True)
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)

    p = sub.add_parser("crosscheck", parents=[question], help="run all applicable oracles and compare")
    p.add_argument("--assume-conic", action="store_true", help="assert that the orbit of b is conic")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import; main never changes it
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (2) or --help (0)
        return exc.code
    # looked up on every call, not stored in the parser, so that a cmd_*
    # function replaced after the parser was built (as perfbench's tracer
    # does) is the one that runs
    handler = {
        "gen": cmd_gen,
        "decide": cmd_decide,
        "closure": cmd_closure,
        "degree": cmd_degree,
        "oracle": cmd_oracle,
        "crosscheck": cmd_crosscheck,
    }[args.command]
    try:
        return handler(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InconsistentDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
