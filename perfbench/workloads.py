"""The benchmark's three workloads.

Each workload does its set-up in the constructor and hands out passes:
a pass is the list of ops that make up one unit of work, run one at a
time in a closed loop.  An op's ``run`` is the timed call into orbitcal;
its ``check`` runs afterwards, outside the timed region, and raises
WrongAnswer on a wrong verdict, certificate, equation set or exit code.

Ops call orbitcal through module attributes (``decider.decide``, not a
name imported from it), so that a traced run sees them through the
tracer's wrappers.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb

from checks import WrongAnswer, check_closure, check_decision

from orbitcal import cli, decider, degbound, elim, fixtures, repmodel
from orbitcal import torusoracle
from orbitcal.errors import ResourceLimitError

# Pair budget of the quartic-cone elimination in elim-cones.  At this
# budget the elimination aborts; a Buchberger that closes the cone
# within it turns the abort into a checked equation set.
QUARTIC_PAIR_BUDGET = 20_000

# Closure of the cone over the cubes, as pinned in tests/test_extended.py:
# z4^2 - 3*z3*z5, z3*z4 - 9*z2*z5, z3^2 - 3*z2*z4.
CUBIC_CONE_EQUATIONS = [
    {(0, 0, 0, 2, 0): 1, (0, 0, 1, 0, 1): -3},
    {(0, 0, 1, 1, 0): 1, (0, 1, 0, 0, 1): -9},
    {(0, 0, 2, 0, 0): 1, (0, 1, 0, 1, 0): -3},
]

# Image degrees of binary forms of degree 1..6 (README, acceptance suite).
SL2_DEGREES = (2, 8, 54, 64, 250, 216)


class Op:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def _power_form(h: int, p, q, scale=1):
    """Conified coefficient vector of scale * (p*z1 + q*z2)^h."""
    return (Fraction(scale),) + tuple(
        Fraction(scale * comb(h, i) * p ** (h - i) * q**i) for i in range(h + 1)
    )


def _fmt(vector) -> str:
    return ",".join(str(Fraction(x)) for x in vector)


def _cli(argv):
    """cli.main in-process with its output captured: (exit code, stdout)."""
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    return code, out.getvalue()


def _expect_code(want):
    def check(result):
        if result[0] != want:
            raise WrongAnswer(f"exit code {result[0]}, expected {want}")

    return check


def _expect_printed(value):
    def check(result):
        code, printed = result
        if code != 0 or printed.strip() != str(value):
            raise WrongAnswer(f"printed {printed.strip()!r} with exit code {code}, expected {value}")

    return check


class DecideSparse:
    """Quadratic forms around (z1+z2)^2 at degree bounds 3 and 4, every
    decide re-checked by the benchmark's own certificate plug-back.  The
    base has no zero coordinate, so nothing is scrambled; the systems are
    1001 x 280 and 3060 x 840 with 9 and 16 nonzeros per row.  The seed
    sets decide's random choices."""

    degree_bounds = (3, 4)
    cases = (((0, 1, 0), False), ((1, 0, 0), True))  # (a, expected in closure)

    def __init__(self, seed: int, workdir):
        self.seed = seed
        rep = repmodel.sl2_binary_forms(2)
        self.problems = [
            (f"d{d}-{_fmt(a)}", decider.conic_problem(rep, a, (1, 2, 1), degree_bound_override=d), expected)
            for d in self.degree_bounds
            for a, expected in self.cases
        ]

    def make_pass(self, index: int):
        return [
            Op(
                name,
                lambda problem=problem: decider.decide(problem, seed=self.seed, keep_system=True),
                lambda result, expected=expected: check_decision(result, expected),
            )
            for name, problem, expected in self.problems
        ]


class ElimCones:
    """Closure equations of the cubic cone from three cube bases, and the
    quartic cone under a fixed pair budget."""

    def __init__(self, seed: int, workdir):
        cubic = repmodel.sl2_binary_forms(3)
        self.cones = []
        for base in ((1, 0, 0, 0), (1, 3, 3, 1), (8, 12, 6, 1)):
            rep2, _, b2 = repmodel.make_conic(cubic, (0,) * 4, base)
            self.cones.append((f"cubic-{_fmt(base)}", rep2, elim.SubspaceMap.point(b2)))
        quartic = repmodel.sl2_binary_forms(4)
        rep4, _, b4 = repmodel.make_conic(quartic, (0,) * 5, (1, 0, 0, 0, 0))
        self.quartic = ("quartic-1,0,0,0,0", rep4, elim.SubspaceMap.point(b4))
        rng = random.Random(seed)
        self.quartic_on = [_power_form(4, 1, 0)] + [
            _power_form(4, rng.randint(-3, 3), rng.randint(1, 3), rng.randint(1, 4)) for _ in range(3)
        ]

    def make_pass(self, index: int):
        ops = [
            Op(name, lambda rep=rep, tau=tau: elim.closure_equations(rep, tau), self._check_cubic)
            for name, rep, tau in self.cones
        ]
        name, rep4, tau4 = self.quartic

        def run_quartic():
            try:
                return elim.closure_equations(rep4, tau4, max_pairs=QUARTIC_PAIR_BUDGET)
            except ResourceLimitError as exc:
                return exc

        ops.append(Op(name, run_quartic, self._check_quartic))
        return ops

    @staticmethod
    def _check_cubic(equations):
        if equations != CUBIC_CONE_EQUATIONS:
            raise WrongAnswer(f"cubic cone equations {equations}")

    def _check_quartic(self, result):
        """The abort at the pair budget is this op's expected outcome; a
        finished elimination must cut out the cone over fourth powers."""
        if isinstance(result, ResourceLimitError):
            return
        if not result:
            raise WrongAnswer("quartic cone without equations")
        check_closure(result, self.quartic_on, [(1, 1, 0, 0, 0, 1)])  # z1^4 + z2^4


class Battery:
    """Many small questions, one round per pass, with fresh seeded points
    every round (121 ops):

    - the 16-case quadric battery through ``orbitcal crosscheck``
      (42 verdicts from decide, elimination and the torus criterion,
      checked by verdict only: crosscheck keeps no certificate);
    - the 15-case diagonal battery through ``orbitcal oracle torus``;
    - two orbit, two limit and two random points on each monomial-curve
      cone k = 1..4 through decide, point_in_closure and torus_decide;
    - the two swept-line closures (the only y-block elimination order);
    - ``orbitcal degree sl2`` and ``degree kazarnovskii`` for h = 1..6.
    """

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        rep_files = {}
        self.crosschecks = []
        for case in fixtures.decision_battery():
            path = rep_files.get(id(case.rep))
            if path is None:
                path = rep_files[id(case.rep)] = workdir / f"rep-{len(rep_files)}.json"
                case.rep.save(path)
            diagonal = repmodel.diagonal_weights(case.rep) is not None
            self.crosschecks.append((case, path, 3 if diagonal else 2))
        self.diagonals = fixtures.diagonal_battery()
        self.reductive = []
        for h in range(1, 7):
            path = workdir / f"reductive-{h}.json"
            path.write_text(json.dumps(degbound.sl2_reductive_data(h).to_json()), encoding="utf-8")
            self.reductive.append(path)
        self.curves = []
        rng = random.Random(seed)
        for k in (1, 2, 3, 4):
            rep2, _, b2 = repmodel.make_conic(repmodel.torus_diagonal([(1,), (k,)]), (0, 0), (1, 1))
            kinds = ["orbit", "limit", "random"] * 2
            rng.shuffle(kinds)
            self.curves.append((k, rep2, b2, elim.SubspaceMap.point(b2), [(1, 0), (1, 1), (1, k)], kinds))
        line_rep = repmodel.torus_diagonal([(1,), (2,)])
        self.swept = [
            (line_rep, elim.SubspaceMap(1, ["y1", "1"]), []),
            (line_rep, elim.SubspaceMap(1, ["y1", "0"]), [{(0, 1): 1}]),
        ]

    def make_pass(self, index: int):
        rng = random.Random(self.seed * 1_000_003 + index)
        round_seed = rng.randrange(2**31)
        ops = []
        for number, (case, rep_path, verdicts) in enumerate(self.crosschecks):
            # one report file per op, absent until the op writes it
            out = self.workdir / f"crosscheck-{number}.json"
            out.unlink(missing_ok=True)
            argv = [
                "crosscheck", "--rep", str(rep_path), "--a", _fmt(case.a), "--b", _fmt(case.b),
                "--conify", "--degree-bound", "2", "--seed", str(round_seed), "--out", str(out),
            ]
            ops.append(Op(f"crosscheck-{case.name}", lambda argv=argv: _cli(argv),
                          self._crosscheck_check(out, case.expected_in_closure, verdicts)))
        for case in self.diagonals:
            weights = ";".join(",".join(str(w) for w in wt) for wt in case.weights)
            argv = ["oracle", "torus", "--weights", weights, "--a", _fmt(case.a), "--b", _fmt(case.b)]
            ops.append(Op(f"oracle-{case.name}", lambda argv=argv: _cli(argv),
                          _expect_code(0 if case.expected_in_closure else 1)))
        for curve in self.curves:
            ops.extend(self._curve_ops(rng, round_seed, *curve))
        for rep, tau, expected in self.swept:
            ops.append(Op("swept-line", lambda rep=rep, tau=tau: elim.closure_equations(rep, tau),
                          self._equal_check(expected)))
        for h, path in enumerate(self.reductive, start=1):
            ops.append(Op(f"degree-sl2-{h}", lambda h=h: _cli(["degree", "sl2", "--h", str(h)]),
                          _expect_printed(SL2_DEGREES[h - 1])))
            ops.append(Op(f"degree-kazarnovskii-{h}",
                          lambda path=path: _cli(["degree", "kazarnovskii", "--data", str(path)]),
                          _expect_printed(SL2_DEGREES[h - 1])))
        return ops

    @staticmethod
    def _crosscheck_check(out, expected_in, verdicts):
        want = "IN_CLOSURE" if expected_in else "NOT_IN_CLOSURE"

        def check(result):
            if result[0] != 0:
                raise WrongAnswer(f"crosscheck exit code {result[0]}")
            try:
                report = json.loads(out.read_text(encoding="utf-8"))["verdicts"]
            except FileNotFoundError:
                raise WrongAnswer(f"crosscheck wrote no report to {out.name}") from None
            out.unlink()
            if len(report) != verdicts or set(report.values()) != {want}:
                raise WrongAnswer(f"crosscheck verdicts {report}, expected {verdicts} x {want}")

        return check

    @staticmethod
    def _equal_check(expected):
        def check(equations):
            if equations != expected:
                raise WrongAnswer(f"swept closure {equations}, expected {expected}")

        return check

    def _curve_ops(self, rng, round_seed, k, rep2, b2, tau, weights2, kinds):
        """Two orbit, two limit and two random points on the cone over the
        degree-k monomial curve, fresh every round, in an order fixed for
        the run.  The closure is z2^k = z1^(k-1) z3, so every point's
        verdict is known without the program."""
        state = {}

        def closure():
            state["equations"] = elim.closure_equations(rep2, tau)
            return state["equations"]

        on_curve = [(u0, u0 * u1, u0 * u1**k) for u0, u1 in ((1, 1), (2, 3), (-1, 2), (3, -1))]
        ops = [Op(f"closure-curve-{k}", closure, lambda eqs: check_closure(eqs, on_curve, [(1, 2, 1)]))]
        for kind in kinds:
            if kind == "orbit":
                u0, u1 = (Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)) for _ in range(2))
                a2 = (u0, u0 * u1, u0 * u1**k)
            elif kind == "limit":
                a2 = (Fraction(rng.choice([-3, -1, 1, 2])), Fraction(0), Fraction(0))
            else:
                a2 = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(3))
            expected = a2[1] ** k == a2[0] ** (k - 1) * a2[2]
            problem = decider.DecisionProblem(rep2, a2, b2, degree_bound_override=k, conic_asserted=True)
            ops += [
                Op(f"points-curve-{k}", lambda a2=a2: elim.point_in_closure(state["equations"], a2),
                   self._verdict_check(expected)),
                Op(f"torus-curve-{k}", lambda a2=a2: torusoracle.torus_decide(weights2, a2, b2),
                   self._verdict_check(expected)),
                Op(f"decide-curve-{k}",
                   lambda problem=problem: decider.decide(problem, seed=round_seed, keep_system=True),
                   lambda result, expected=expected: check_decision(result, expected)),
            ]
        return ops

    @staticmethod
    def _verdict_check(expected):
        def check(verdict):
            if verdict is not expected:
                raise WrongAnswer(f"verdict {verdict}, expected {expected}")

        return check


WORKLOADS = {
    "decide-sparse": DecideSparse,
    "elim-cones": ElimCones,
    "battery": Battery,
}
