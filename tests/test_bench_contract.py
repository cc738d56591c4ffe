"""What the benchmark in perfbench/ relies on.

perfbench/checks.py re-checks each decide by its own Fraction plug-back;
here it runs on the decide-sparse problems and on rational questions
whose system is cleared by a denominator D > 1: a pair through decide,
and a scrambled pair through the paper's system, which crosscheck runs.
The tracer binds the program's functions by name, so those names must
exist, apart from an explicit set of retired ones, and every term-dict
kernel must be one of the names it binds."""

import importlib.util
import inspect
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from orbitcal import _kernels, decider, exactmath, repmodel

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
tracer = _load("tracer")

# Span names of functions that are gone: their metrics read 0 until the
# benchmark retires them.  Nothing else may fail to resolve.
RETIRED = {
    "polyring.generic_substitute",
    "decider.build_generic_H",
    "repmodel.change_basis",
    "elim._chain_criterion",
    "elim._primitive",
    "torusoracle.cone_inequalities",
    "polyring.kernels.terms_mul",
    "exactmath.rank",
}


def _sparse_problems():
    # the decide-sparse workload: quadratic forms around (z1+z2)^2
    sl2 = repmodel.sl2_binary_forms(2)
    for d in (3, 4):
        for a, expected_in in (((0, 1, 0), False), ((1, 0, 0), True)):
            yield pytest.param(
                decider.conic_problem(sl2, a, (1, 2, 1), degree_bound_override=d),
                expected_in,
                False,
                id=f"sparse-d{d}-{'IN' if expected_in else 'NOT'}",
            )


# (z1/2 + z2)^2 lies on the cone of squares, z1^2/2 + z2^2 does not
SQUARE = (Fraction(1, 4), 1, 1)
NOT_SQUARE = (Fraction(1, 2), 0, 1)


def _scrambled(a):
    # the base z1^2 has zero coordinates, so paper_decide scrambles the basis
    return decider.conic_problem(repmodel.sl2_binary_forms(2), a, (1, 0, 0), degree_bound_override=2)


@pytest.mark.parametrize(
    "problem, expected_in, rational",
    [
        *_sparse_problems(),
        pytest.param(_scrambled(SQUARE), True, True, id="scrambled-IN"),
        pytest.param(_scrambled(NOT_SQUARE), False, True, id="scrambled-NOT"),
    ],
)
def test_benchmark_check_accepts_decisions(problem, expected_in, rational):
    engine = decider.paper_decide if rational else decider.decide
    decision, system = engine(problem, seed=11, keep_system=True)
    checks.check_decision((decision, system), expected_in)
    if rational:
        assert decision.transcript["scramble"] is not None
        one = system.row_monomials.index((0,) * len(system.row_monomials[0]))
        assert system.rhs[one] > 1


@pytest.mark.parametrize("a, expected_in", [(SQUARE, True), (NOT_SQUARE, False)], ids=["IN", "NOT"])
def test_benchmark_check_accepts_rational_evaluation_decisions(a, expected_in):
    # the conified targets (1, 1/4, 1, 1) and (1, 1/2, 0, 1) clear with
    # D = 4 and D = 2, and the base (1, 1, 0, 0) has integer pullbacks:
    # the evaluation row holds D^|q| a^q
    problem = _scrambled(a)
    decision, system = decider.decide(problem, seed=11, keep_system=True)
    checks.check_decision((decision, system), expected_in)
    D = lcm(*(x.denominator for x in problem.a))
    assert D > 1
    last = system.matrix.row_terms[-1]
    for j, q in enumerate(system.col_keys):
        value = D ** sum(q)
        for x, e in zip(problem.a, q):
            value *= x**e
        assert last.get(j, 0) == value
    assert system.row_monomials[-1] is None and system.rhs == [0] * (system.matrix.rows - 1) + [1]


@pytest.mark.parametrize("a, expected_in", [(NOT_SQUARE, False), (SQUARE, True)], ids=["SOLUTION", "REFUTATION"])
def test_benchmark_check_rejects_a_bumped_certificate(a, expected_in):
    # column 0, the constant z^0, is not zero, so bumping x_0 moves A x
    # off v; bumping u_i on a row i that the entries view holds moves u A
    # off 0
    decision, system = decider.decide(_scrambled(a), keep_system=True)
    checks.check_decision((decision, system), expected_in)
    w = list(decision.certificate.vector)
    w[min(key[0] for key in system.matrix.entries) if expected_in else 0] += 1
    decision.certificate = exactmath.ConsistencyWitness(decision.certificate.kind, w)
    with pytest.raises(checks.WrongAnswer):
        checks.check_decision((decision, system), expected_in)


@pytest.mark.parametrize("problem, expected_in, rational", [*_sparse_problems()])
def test_kept_system_is_the_evaluation_system_built_in_full(problem, expected_in, rational):
    # the benchmark reads system.matrix outside its timed region, so
    # decide must return it fully built: equal to evaluation_system's,
    # with its rows a plain list of dicts when the call returns
    _, system = decider.decide(problem, keep_system=True)
    assert type(system.matrix.row_terms) is list
    assert all(type(row) is dict for row in system.matrix.row_terms)
    pullbacks = repmodel.coordinate_pullbacks(problem.rep, problem.b)
    d = problem.degree_bound_override
    want = decider.evaluation_system(d, problem.a, pullbacks, problem.rep.ambient.nvars)
    assert system.matrix.entries == want.matrix.entries
    assert (system.rhs, system.row_keys, system.col_keys) == (want.rhs, want.row_keys, want.col_keys)


def _resolves(span):
    if span.startswith(tracer.KERNEL_PREFIX):
        owner, path = _kernels, span[len(tracer.KERNEL_PREFIX) :].split(".")
    else:
        module, *path = span.split(".")
        owner = importlib.import_module(f"orbitcal.{module}")
    for attr in path:
        owner = getattr(owner, attr, None)
    return callable(owner)


def test_names_the_tracer_binds_exist():
    # the tracer skips a name that does not resolve, so a rename would
    # silently zero a per-layer metric
    assert _kernels.BACKEND == "pure"
    spans = {span for span, _ in tracer.SPAN_METRICS.values()}
    spans |= {f"elim.{helper}" for helper in tracer.ELIM_HELPERS}
    missing = {span for span in spans if not _resolves(span)}
    assert missing <= RETIRED, sorted(missing - RETIRED)
    # and every kernel is traced: the tracer wraps only the kernels it names
    kernels = {name for name, value in vars(_kernels).items() if inspect.isfunction(value) and not name.startswith("_")}
    assert kernels <= set(tracer.KERNELS), sorted(kernels - set(tracer.KERNELS))
    # decide calls the solver through the name it imported
    assert callable(decider.solve_or_refute)


def test_benchmark_selftest_passes():
    # the benchmark's own self-tests call the program (decide, the tracer
    # around orbit_dimension and solve_or_refute, the battery), so a
    # change to what they call fails here rather than in a benchmark run
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=_PERFBENCH.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
