import gc
import hashlib
import json
import logging
import random
import re
from fractions import Fraction
from itertools import product
from math import comb, lcm

import pytest

from orbitcal import decider, exactmath, polyring, repmodel
from orbitcal.decider import (
    IN_CLOSURE,
    NOT_IN_CLOSURE,
    DecisionProblem,
    assemble_system,
    conic_problem,
    decide,
    generic_coefficient_count,
    paper_decide,
)
from orbitcal.elim import SubspaceMap, closure_equations, point_in_closure
from orbitcal.errors import PreconditionError, ResourceLimitError
from orbitcal.exactmath import REFUTATION, SOLUTION, ConsistencyWitness, solve_or_refute
from orbitcal.fixtures import decision_battery, diagonal_battery, parabola_rep
from orbitcal.polyring import Ambient, evaluate_terms, substitute
from orbitcal.repmodel import coordinate_pullbacks, make_conic, torus_diagonal, vector
from orbitcal.torusoracle import torus_decide
from support import act, convolve, product_of_powers


def test_build_generic_smallest_case():
    # (psi - 3)c - 1 with psi = x1 + 2: rows x1 and x1^0, one column
    amb = Ambient(1, 0)
    system = assemble_system(1, (Fraction(3),), [amb.parse("x1 + 2")], 1)
    assert system.row_monomials == [(0,), (1,)]
    assert system.col_keys == [(0, (0,))]
    assert system.matrix.entries == {(0, 0): Fraction(-1), (1, 0): Fraction(1)}
    assert system.rhs == [1, 0]


def test_generic_coefficient_count():
    # monomials of degree <= 2 in 3 variables: 10 per polynomial
    assert generic_coefficient_count(3, 2) == 30
    rep2, a2, b2 = make_conic(parabola_rep(), (1, 0), (1, 1))
    system = assemble_system(2, a2, coordinate_pullbacks(rep2, b2), 2)
    assert len(system.col_keys) == 30


def test_generic_origin_case():
    # at alpha = 0 no column reaches x^0 when the pullbacks have no
    # constant term: the row 0 = 1 refutes at once
    pullbacks = coordinate_pullbacks(torus_diagonal([(1,), (2,)]), (1, 1))
    system = assemble_system(2, (0, 0), pullbacks, 1)
    assert system.row_monomials[0] == (0,)
    assert not any(i == 0 for i, _ in system.matrix.entries)
    assert system.rhs[0] == 1 and not any(system.rhs[1:])


def test_assemble_drops_zero_columns_and_cancelled_entries():
    # psi = (x1 + 1, 0) at alpha = (1, 0): the column of c[(0, 0)] is
    # (x1 + 1) - 1 = x1, whose constant entry cancels, and the column of
    # c[(1, 0)] is zero; x^0 stays a row with nothing but its 1
    amb = Ambient(1, 0)
    pullbacks = [amb.parse("x1 + 1"), {}]
    system = assemble_system(1, (1, 0), pullbacks, 1)
    assert system.col_keys == [(0, (0, 0))]
    assert system.row_monomials == [(0,), (1,)]
    assert system.matrix.entries == {(1, 0): Fraction(1)}
    assert system.rhs == [1, 0]
    with pytest.raises(ValueError):
        assemble_system(1, (1,), pullbacks, 1)
    with pytest.raises(ValueError):
        assemble_system(0, (1, 0), pullbacks, 1)

    # mirrored, so the first pullback is zero: the exponent width is the
    # count passed in, not read from the first pullback's terms
    mirrored = pullbacks[::-1]
    system = assemble_system(1, (0, 1), mirrored, 1)
    assert system.col_keys == [(1, (0, 0))]
    assert system.row_monomials == [(0,), (1,)]
    assert system.matrix.entries == {(1, 0): 1}
    assert system.rhs == [1, 0]
    system = assemble_system(2, (0, 1), mirrored, 1)
    assert system.col_keys == [(1, (0, 0)), (1, (0, 1)), (1, (0, 2))]
    assert system.row_monomials == [(0,), (1,), (2,), (3,)]
    assert system.matrix.entries == {(1, 0): 1, (1, 1): 1, (2, 1): 1, (1, 2): 1, (2, 2): 2, (3, 2): 1}
    assert system.rhs == [1, 0, 0, 0]


def _reference_system(d, alpha, pullbacks, nvars):
    """(rows, cols, entries, rhs, row_monomials, col_keys) of the system
    from the schoolbook product of support.py, which shares no code with
    monomial_images: column (p, q) is D^(2d-1) (psi_p - alpha_p) psi^q
    for |q| <= 2d - 2, zero columns dropped, rows sorted by (degree,
    exponent), and D^(2d-1) on x^0."""
    n = len(pullbacks)
    D = _denominator(alpha, pullbacks)
    scale = D ** (2 * d - 1)
    one = (0,) * nvars
    columns = {}
    for q in product(range(2 * d - 1), repeat=n):
        if sum(q) > 2 * d - 2:
            continue
        power = product_of_powers(nvars, pullbacks, q)
        for p in range(n):
            shifted = dict(pullbacks[p])
            shifted[one] = shifted.get(one, 0) - alpha[p]
            column = {e: c * scale for e, c in convolve(shifted, power).items()}
            if column:
                columns[(p, q)] = column
    row_monomials = sorted({one}.union(*columns.values()), key=lambda e: (sum(e), e))
    row_index = {exp: i for i, exp in enumerate(row_monomials)}
    col_keys = sorted(columns)
    entries = {}
    for j, key in enumerate(col_keys):
        for exp, coef in columns[key].items():
            assert coef.denominator == 1
            entries[(row_index[exp], j)] = int(coef)
    rhs = [0] * len(row_monomials)
    rhs[row_index[one]] = scale
    return len(row_monomials), max(1, len(col_keys)), entries, rhs, row_monomials, col_keys


@pytest.mark.parametrize(
    "rep, a, b",
    [
        # the two d = 3 problems of the decide-sparse benchmark
        (repmodel.sl2_binary_forms(2), (0, 1, 0), (1, 2, 1)),
        (repmodel.sl2_binary_forms(2), (1, 0, 0), (1, 2, 1)),
        # a negative weight and denominators in both the pullbacks and a
        (torus_diagonal([(1, 0), (1, -2), (0, 1)]), (Fraction(1, 2), 3, -1), (Fraction(2, 3), 1, 5)),
    ],
)
def test_assembled_system_equals_laurent_reference(rep, a, b):
    problem = conic_problem(rep, a, b, degree_bound_override=3)
    pullbacks = coordinate_pullbacks(problem.rep, problem.b)
    system = assemble_system(3, problem.a, pullbacks, problem.rep.ambient.nvars)
    got = (
        system.matrix.rows,
        system.matrix.cols,
        system.matrix.entries,
        system.rhs,
        system.row_monomials,
        system.col_keys,
    )
    assert got == _reference_system(3, problem.a, pullbacks, problem.rep.ambient.nvars)


def test_pullbacks_match_action():
    rep = torus_diagonal([(1,), (2,)])
    amb = rep.ambient
    assert coordinate_pullbacks(rep, (1, 1)) == [
        amb.parse("x1"),
        amb.parse("x1^2"),
    ]
    rep2, _, b2 = make_conic(rep, (0, 0), (1, 1))
    amb2 = rep2.ambient
    assert coordinate_pullbacks(rep2, b2) == [
        amb2.parse("x1"),
        amb2.parse("x1*x2"),
        amb2.parse("x1*x2^2"),
    ]


def test_assemble_dense_one_dimensional_orbit():
    # single weight-1 coordinate: the punctured line is dense in the line,
    # so the system is inconsistent for every target value
    rep = torus_diagonal([(1,)])
    for alpha in (0, 1, Fraction(-7, 3)):
        system = assemble_system(1, (alpha,), coordinate_pullbacks(rep, (1,)), 1)
        w = solve_or_refute(system.matrix, system.rhs)
        assert w.kind == REFUTATION


def test_assemble_conified_parabola_sizes_and_verdicts():
    rep2, a2, b2 = make_conic(torus_diagonal([(1,), (2,)]), (1, 0), (1, 1))
    system = assemble_system(2, a2, coordinate_pullbacks(rep2, b2), 2)
    assert generic_coefficient_count(3, 2) == 30
    assert len(system.row_monomials) <= 28  # degrees 0..3 x 0..6 minus gaps
    w = solve_or_refute(system.matrix, system.rhs)
    assert w.kind == SOLUTION  # consistent: not in the closure

    rep2, a2, b2 = make_conic(torus_diagonal([(1,), (2,)]), (0, 0), (1, 1))
    system = assemble_system(2, a2, coordinate_pullbacks(rep2, b2), 2)
    w = solve_or_refute(system.matrix, system.rhs)
    assert w.kind == REFUTATION  # inconsistent: in the closure


def test_decide_battery_against_expected_quadrics():
    for case in decision_battery():
        problem = conic_problem(
            case.rep, case.a, case.b, degree_bound_override=case.degree_bound
        )
        decision = decide(problem)
        assert decision.in_closure == case.expected_in_closure, case.name
        if decision.verdict == IN_CLOSURE:
            assert decision.certificate.kind == REFUTATION
        elif decision.verdict == NOT_IN_CLOSURE:
            assert decision.certificate.kind == SOLUTION


def _checked(engine, problem, **kwargs):
    decision, system = engine(problem, keep_system=True, **kwargs)
    assert decision.certificate.verify(system.matrix, system.rhs)
    return decision


def test_decide_requires_nonzero_base():
    # the scramble needs b != 0, so paper_decide refuses; decide answers,
    # since the orbit of 0 is {0}
    rep = parabola_rep()
    problem = DecisionProblem(rep, (1, 1), (0, 0), conic_asserted=True)
    with pytest.raises(PreconditionError):
        paper_decide(problem)
    for a in ((1, 1), (0, 1), (1, 0), (0, 0)):
        for conic_asserted in (False, True):
            decision = _checked(decide, DecisionProblem(rep, a, (0, 0), conic_asserted=conic_asserted))
            assert decision.in_closure == (a == (0, 0))
            assert decision.transcript["orbit_dimension"] == 0


def test_decide_requires_conic_assertion():
    # the paper's system needs a conic orbit; decide ignores the assertion
    rep = parabola_rep()
    problem = DecisionProblem(rep, (1, 1), (1, 1))
    with pytest.raises(PreconditionError):
        paper_decide(problem)
    # the closure of {(t, t^2)} is z2 = z1^2, not conic
    for a, expected in (((1, 1), True), ((2, 4), True), ((0, 0), True), ((1, 2), False), ((2, 2), False)):
        decision = _checked(decide, DecisionProblem(rep, a, (1, 1)))
        assert decision.in_closure == expected, a
        assert decision.transcript["degree_bound_source"] == "parametric"


def test_decide_trivially_dense():
    # the orbit of 1 under t fills the line: X = V, of degree 1
    rep = torus_diagonal([(1,)])
    problem = DecisionProblem(rep, (5,), (1,), conic_asserted=True)
    for engine in (decide, paper_decide):
        decision = _checked(engine, problem)
        assert decision.verdict == IN_CLOSURE
        assert decision.in_closure
        assert decision.certificate.kind == REFUTATION
        assert decision.transcript["orbit_dimension"] == 1
        assert (decision.transcript["degree_bound"], decision.transcript["degree_bound_source"]) == (1, "dense")
    # the dense bound comes ahead of an override
    problem = DecisionProblem(rep, (5,), (1,), degree_bound_override=3, conic_asserted=True)
    assert decide(problem).transcript["degree_bound_source"] == "dense"


def test_conified_linear_forms_are_trivially_dense():
    # the scaled orbit of z1 fills k^3; b has a zero coordinate
    problem = conic_problem(repmodel.sl2_binary_forms(1), (0, 0), (1, 0))
    for engine in (decide, paper_decide):
        decision = _checked(engine, problem)
        assert decision.verdict == IN_CLOSURE
        assert decision.certificate.kind == REFUTATION
        assert decision.transcript["orbit_dimension"] == 3
        assert (decision.transcript["degree_bound"], decision.transcript["degree_bound_source"]) == (1, "dense")


@pytest.mark.parametrize("engine", [decide, paper_decide])
@pytest.mark.parametrize(
    "rep, b",
    [
        (torus_diagonal([(1,)]), (1,)),
        (torus_diagonal([(1, 0), (0, 1)]), (1, 1)),
        (repmodel.sl2_binary_forms(1), (1, 0)),
    ],
    ids=["torus-1", "torus-2", "sl2-h1"],
)
@pytest.mark.parametrize("conify", [False, True])
def test_dense_orbits_are_refuted_at_degree_one(engine, rep, b, conify):
    for a in ((0,) * rep.n, (3,) * rep.n, tuple(range(rep.n))):
        if conify:
            problem = conic_problem(rep, a, b)
        else:
            problem = DecisionProblem(rep, a, b, conic_asserted=True)
        decision = _checked(engine, problem)
        assert decision.verdict == IN_CLOSURE and decision.certificate.kind == REFUTATION
        assert (decision.transcript["degree_bound"], decision.transcript["degree_bound_source"]) == (1, "dense")


def _raw_questions():
    for case in diagonal_battery():
        yield pytest.param(torus_diagonal(case.weights), case.a, case.b, case.weights, id=f"diagonal-{case.name}")
    for case in decision_battery():
        yield pytest.param(case.rep, case.a, case.b, None, id=f"battery-{case.name}")


@pytest.mark.parametrize("rep, a, b, weights", list(_raw_questions()))
def test_decide_answers_raw_questions(rep, a, b, weights):
    # no conic reduction and no override: the representation's bound or
    # the parametric fallback, and the verdict of elimination and of the
    # torus criterion on the question as posed
    decision = _checked(decide, DecisionProblem(rep, a, b))
    assert decision.transcript["degree_bound_source"] in ("representation", "parametric", "dense")
    assert decision.in_closure == point_in_closure(closure_equations(rep, SubspaceMap.point(b)), a)
    if weights is not None:
        assert decision.in_closure == torus_decide(weights, a, b)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "weights, b, a",
    [
        ([(1,)], (1,), (0,)),
        ([(1,)], (1,), (5,)),
        ([(1, 0), (0, 1)], (1, 1), (0, 0)),
        ([(1, 0), (0, 1)], (1, 1), (2, 3)),
        ([(1, 0), (0, 1)], (1, 1), (0, 4)),
    ],
)
def test_under_reported_dense_orbit_is_refuted(monkeypatch, weights, b, a, d):
    # A sampled orbit dimension can only under-report.  A dense orbit
    # reported as smaller gets the override instead of d = 1, and the
    # system must then be inconsistent: no H vanishing on a dense orbit
    # can equal -1 at a.
    # The same holds for the evaluation system: no equation vanishes on a
    # dense orbit, so (a^q) lies in the row space of M.
    monkeypatch.setattr(repmodel, "orbit_dimension", lambda pullbacks, nvars, seed=0: 0)
    problem = DecisionProblem(
        torus_diagonal(weights), a, b, degree_bound_override=d, conic_asserted=True
    )
    for engine in (paper_decide, decide):
        decision, system = engine(problem, keep_system=True)
        assert decision.transcript["orbit_dimension"] == 0
        assert decision.verdict == IN_CLOSURE
        assert decision.certificate.kind == REFUTATION
        assert decision.certificate.verify(system.matrix, system.rhs)


def test_decide_diagonal_line_with_parametric_bound():
    # orbit {(t, t)} is conic; the fallback degree bound is exact here
    rep = torus_diagonal([(1,), (1,)])
    problem = DecisionProblem(rep, (2, 3), (1, 1), conic_asserted=True)
    decision = decide(problem)
    assert decision.verdict == NOT_IN_CLOSURE
    assert decision.transcript["degree_bound_source"] == "parametric"
    assert decision.transcript["degree_bound"] == 1
    problem = DecisionProblem(rep, (2, 2), (1, 1), conic_asserted=True)
    assert decide(problem).verdict == IN_CLOSURE


def test_decide_uses_representation_bound_when_present():
    rep2, a2, b2 = make_conic(torus_diagonal([(1,), (2,)]), (0, 0), (1, 1))
    rep2.degree_bound = 2
    problem = DecisionProblem(rep2, a2, b2, conic_asserted=True)
    decision = decide(problem)
    assert decision.transcript["degree_bound_source"] == "representation"
    assert decision.verdict == IN_CLOSURE


def test_conified_questions_keep_the_representation_bound():
    # the scaled orbit closure is a cone over the projective closure of
    # the original one, of the same degree: sl2 h = 2 keeps d = 8, and a
    # torus, with no bound of its own, still falls back
    sl2 = repmodel.sl2_binary_forms(2)
    for a, verdict in (((0, 1, 0), NOT_IN_CLOSURE), ((1, -2, 1), IN_CLOSURE)):
        decision = _checked(decide, conic_problem(sl2, a, (1, 2, 1)))
        assert decision.verdict == verdict
        assert (decision.transcript["degree_bound"], decision.transcript["degree_bound_source"]) == (8, "representation")
    assert make_conic(torus_diagonal([(1,), (2,)]), (0, 0), (1, 1))[0].degree_bound is None


def test_decide_orbit_points_land_in_closure():
    rng = random.Random(51)
    rep2, _, b2 = make_conic(torus_diagonal([(1,), (2,)]), (0, 0), (1, 1))
    problem_template = dict(degree_bound_override=2)
    for _ in range(20):
        u = [
            Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)),
            Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)),
        ]
        a2 = act(rep2, u, b2)
        problem = DecisionProblem(
            rep2, a2, b2, conic_asserted=True, **problem_template
        )
        assert decide(problem).verdict == IN_CLOSURE


def test_scaling_invariance_of_verdicts():
    rng = random.Random(53)
    cases = [c for c in decision_battery() if c.name.startswith("parabola")][:3]
    for case in cases:
        base = decide(
            conic_problem(case.rep, case.a, case.b, degree_bound_override=2)
        ).in_closure
        rep2, a2, b2 = make_conic(case.rep, case.a, case.b)
        for _ in range(10):
            lam = Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 3))
            scaled = tuple(lam * x for x in a2)
            problem = DecisionProblem(
                rep2, scaled, b2, degree_bound_override=2, conic_asserted=True
            )
            assert decide(problem).in_closure == base, case.name


def test_seed_independence_with_forced_scrambling():
    # base vector with a zero coordinate forces a basis change
    rep = torus_diagonal([(1,), (2,)])
    rep2, a2, b2 = make_conic(rep, (1, 0), (1, 0))
    assert not all(b2)
    verdicts = set()
    scrambles = []
    for seed in range(5):
        problem = DecisionProblem(
            rep2, a2, b2, degree_bound_override=2, conic_asserted=True
        )
        decision = paper_decide(problem, seed=seed)
        verdicts.add(decision.verdict)
        scrambles.append(decision.transcript["scramble"])
    assert verdicts == {IN_CLOSURE}
    assert all(s is not None for s in scrambles)

    # and a negative instance under the same scrambling pressure
    problem = DecisionProblem(
        rep2, (1, 0, 1), b2, degree_bound_override=2, conic_asserted=True
    )
    assert all(
        paper_decide(problem, seed=seed).verdict == NOT_IN_CLOSURE for seed in range(5)
    )


def test_degree_bound_monotonicity_on_parabola():
    rep2, a2, b2 = make_conic(parabola_rep(), (1, 0), (1, 1))
    verdicts = []
    for d in (2, 3, 4):
        problem = DecisionProblem(
            rep2, a2, b2, degree_bound_override=d, conic_asserted=True
        )
        verdicts.append(decide(problem).verdict)
    assert verdicts == [NOT_IN_CLOSURE] * 3


def test_undersized_degree_bound_documented_failure():
    # d=1 truncates the generic polynomials to constants and the system
    # wrongly reports membership; the elimination oracle disagrees.  The
    # evaluation system at d = 1 holds only linear equations, and none
    # vanishes on the parabola's cone, so it errs the same way.
    rep2, a2, b2 = make_conic(parabola_rep(), (1, 0), (1, 1))
    problem = DecisionProblem(
        rep2, a2, b2, degree_bound_override=1, conic_asserted=True
    )
    assert paper_decide(problem).verdict == IN_CLOSURE  # wrong, by design of the test
    assert decide(problem).verdict == IN_CLOSURE
    eqs = closure_equations(rep2, SubspaceMap.point(b2))
    assert not point_in_closure(eqs, a2)


def test_transitivity_chain_on_quadratics():
    from orbitcal.repmodel import sl2_binary_forms

    sl2 = sl2_binary_forms(2)
    c = (1, 2, 1)  # squared binomial
    b = (1, 0, 0)  # squared variable: same closure (the discriminant cone)
    a = (0, 0, 0)
    pairs = [(a, b), (b, c), (a, c), (c, b)]
    for lo, hi in pairs:
        problem = conic_problem(sl2, lo, hi, degree_bound_override=2)
        assert decide(problem).in_closure, (lo, hi)


def test_resource_limit():
    rep2, a2, b2 = make_conic(parabola_rep(), (1, 0), (1, 1))
    problem = DecisionProblem(
        rep2, a2, b2, degree_bound_override=2, conic_asserted=True
    )
    with pytest.raises(ResourceLimitError):
        decide(problem, max_nnz=10)




def test_resource_limit_after_assembly():
    # 30 c-variables pass the early guard; the 50 assembled nonzeros do not
    rep2, a2, b2 = make_conic(parabola_rep(), (1, 0), (1, 1))
    problem = DecisionProblem(
        rep2, a2, b2, degree_bound_override=2, conic_asserted=True
    )
    with pytest.raises(ResourceLimitError, match=r"50 nonzeros \(limit 30\)"):
        paper_decide(problem, max_nnz=generic_coefficient_count(3, 2))

def test_resource_guard_fires_before_building_H(monkeypatch):
    def unreachable(*args, **kwargs):
        raise RuntimeError("assemble_system reached past the size guard")

    monkeypatch.setattr(decider, "assemble_system", unreachable)
    # no degree bound on the conified torus (1,0;1,1;1,2): parametric
    # d = 64, 4 C(130, 4) c-variables
    problem = conic_problem(torus_diagonal([(1, 0), (1, 1), (1, 2)]), (0, 1, 0), (1, 1, 1))
    with pytest.raises(ResourceLimitError, match=f"{4 * comb(130, 4)} c-variables at degree bound d = 64"):
        paper_decide(problem)

def test_certificates_verify_and_reject_tampering():
    rng = random.Random(59)
    rep2, a2, b2 = make_conic(parabola_rep(), (1, 0), (1, 1))
    problem = DecisionProblem(
        rep2, a2, b2, degree_bound_override=2, conic_asserted=True
    )
    decision, system = decide(problem, keep_system=True)
    assert decision.verdict == NOT_IN_CLOSURE
    assert decision.certificate.kind == SOLUTION
    assert decision.certificate.verify(system.matrix, system.rhs)
    for _ in range(50):
        vec = list(decision.certificate.vector)
        idx = rng.randrange(len(vec))
        bump = Fraction(rng.randint(1, 5))
        vec[idx] += bump
        tampered = ConsistencyWitness(decision.certificate.kind, vec)
        assert not tampered.verify(system.matrix, system.rhs)

    problem = DecisionProblem(
        rep2, (1, 0, 0), b2, degree_bound_override=2, conic_asserted=True
    )
    decision, system = decide(problem, keep_system=True)
    assert decision.verdict == IN_CLOSURE
    assert decision.certificate.kind == REFUTATION
    zeroed = ConsistencyWitness(REFUTATION, [0] * len(decision.certificate.vector))
    assert not zeroed.verify(system.matrix, system.rhs)


def test_decide_plugs_each_certificate_back_once(monkeypatch):
    # solve_or_refute returns a witness only after its plug-back, and
    # neither decide nor paper_decide checks it again: on the
    # decide-sparse problems and on one scrambled problem, each makes
    # one verify call.  decide solves the transposed evaluation system,
    # so it checks the witness of the other kind on the transpose, whose
    # rows are the certificate's columns
    calls = []
    plug_back = ConsistencyWitness.verify
    transposed = {REFUTATION: SOLUTION, SOLUTION: REFUTATION}

    def spy(self, matrix, rhs):
        calls.append((self.kind, matrix.rows))
        return plug_back(self, matrix, rhs)

    monkeypatch.setattr(ConsistencyWitness, "verify", spy)
    sl2 = repmodel.sl2_binary_forms(2)
    problems = [
        conic_problem(sl2, a, (1, 2, 1), degree_bound_override=d)
        for d in (3, 4)
        for a in ((0, 1, 0), (1, 0, 0))
    ]
    # the base z1^2 has zero coordinates, so decide scrambles the basis
    problems.append(conic_problem(sl2, (1, 2, 1), (1, 0, 0), degree_bound_override=2))
    for engine in (decide, paper_decide):
        for problem in problems:
            calls.clear()
            decision, system = engine(problem, keep_system=True)
            kind = decision.certificate.kind
            if engine is decide:
                assert calls == [(transposed[kind], system.matrix.cols)]
            else:
                assert calls == [(kind, system.matrix.rows)]
    assert decision.transcript["scramble"] is not None


def test_the_column_pass_stops_at_the_first_violated_equation(monkeypatch, caplog):
    # decide's pass reads the columns (phi^q | beta^q) of the evaluation
    # system in (degree, exponent) order, as the rows of its transpose,
    # and stops at the first equation that a violates: at d = 4 the
    # decide-sparse NOT reads 9 of its 70 columns, up to a quadric, and
    # the IN all 70; the DEBUG line says so, from the witness
    eliminate = exactmath._eliminate_mod
    running, read = [], []

    def spy(rows, values, ncols, p):
        running.append(p)
        try:
            profile, vector = eliminate(rows, values, ncols, p)
        finally:
            running.pop()
        if not running and any(values):  # not the rank of orbit_dimension
            read.append((len(profile), len(rows)))
        return profile, vector

    monkeypatch.setattr(exactmath, "_eliminate_mod", spy)
    sl2 = repmodel.sl2_binary_forms(2)
    for a, columns, degree in (((0, 1, 0), 9, 2), ((1, 0, 0), 70, 4)):
        read.clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="orbitcal.decider"):
            decision = decide(conic_problem(sl2, a, (1, 2, 1), degree_bound_override=4))
        assert read and set(read) == {(columns, 70)}
        (line,) = [r.getMessage() for r in caplog.records if r.name == "orbitcal.decider"]
        assert line.endswith(f"; pass read {columns} of 70 columns, to degree {degree}")
        if decision.certificate.kind == SOLUTION:
            assert max(j for j, g in enumerate(decision.certificate.vector) if g) == columns - 1


def test_decide_certificates_equal_the_row_pass_on_the_evaluation_system():
    # a solution u of the transpose is the refutation (u, 1), and a
    # refutation g the solution g / (beta . g); each is the only witness
    # with its support, so decide's certificate is the one the pass over
    # the rows of [M ; beta^q] gives: on tori and binary forms, conified
    # and raw, with zero and rational coordinates, a = 0, b = 0 and a
    # dense orbit
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coordinates = st.sampled_from((0, 0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3)))

    @st.composite
    def questions(draw):
        if draw(st.booleans()):
            rep = repmodel.sl2_binary_forms(draw(st.integers(1, 3)))
        else:
            rank = draw(st.integers(1, 2))
            n = draw(st.integers(1, 3))
            rep = torus_diagonal([tuple(draw(st.integers(-2, 2)) for _ in range(rank)) for _ in range(n)])
        a = [draw(coordinates) for _ in range(rep.n)]
        b = [draw(coordinates) for _ in range(rep.n)]
        d = draw(st.integers(1, 4))
        if draw(st.booleans()):
            return conic_problem(rep, a, b, degree_bound_override=d)
        return DecisionProblem(rep, a, b, degree_bound_override=d)

    sl2 = repmodel.sl2_binary_forms(2)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(questions())
    @hypothesis.example(conic_problem(sl2, (0, 0, 0), (1, 2, 1), degree_bound_override=2))
    @hypothesis.example(DecisionProblem(sl2, (1, 0, 0), (0, 0, 0), degree_bound_override=2))
    @hypothesis.example(conic_problem(sl2, (1, 0, 0), (0, 1, 0), degree_bound_override=3))
    @hypothesis.example(conic_problem(sl2, (Fraction(1, 4), 1, 1), (1, 2, 1), degree_bound_override=2))
    @hypothesis.example(DecisionProblem(torus_diagonal([(1, 0), (0, 1)]), (3, Fraction(1, 2)), (1, 2),
                                        degree_bound_override=3))
    def check(problem):
        decision, system = decide(problem, keep_system=True)
        assert decision.certificate == solve_or_refute(system.matrix, system.rhs)
        assert decision.in_closure == (decision.certificate.kind == REFUTATION)

    check()


def test_decision_json_round_trip():
    # both certificate kinds: a2 = (1, 1, 0) is off the conified
    # parabola's closure (a SOLUTION) and (1, 0, 0) on it (a REFUTATION)
    rep2, a2, b2 = make_conic(parabola_rep(), (1, 0), (1, 1))
    kinds = set()
    for a in (a2, (1, 0, 0)):
        problem = DecisionProblem(rep2, a, b2, degree_bound_override=2, conic_asserted=True)
        decision = decide(problem)
        payload = decision.to_json()
        back = json.loads(json.dumps(payload))
        assert back == payload and back["verdict"] == decision.verdict
        cert = back["certificate"]
        assert ConsistencyWitness(cert["kind"], map(Fraction, cert["vector"])) == decision.certificate
        assert back["transcript"]["degree_bound"] == 2
        kinds.add(cert["kind"])
    assert kinds == {SOLUTION, REFUTATION}


@pytest.mark.parametrize(
    "rep, a, b, d, verdict, digest",
    [
        # the d = 4 decide-sparse problems, 3060 x 840
        (
            repmodel.sl2_binary_forms(2), (0, 1, 0), (1, 2, 1), 4, NOT_IN_CLOSURE,
            "7d81356badba4133591e4d341dd38bcbb8c7a9e79b398ef7eb16ce82fb090429",
        ),
        (
            repmodel.sl2_binary_forms(2), (1, 0, 0), (1, 2, 1), 4, IN_CLOSURE,
            "1a22d935f4b01de67d69a5f359f327b4e4182622874f44926a4c81dabfb8a8a4",
        ),
        # the README's cubic decides around z1^3, 651 x 630
        (
            repmodel.sl2_binary_forms(3), (0, 0, 1, 0), (1, 0, 0, 0), 3, NOT_IN_CLOSURE,
            "ad70912c0bf63c59fb71cf65b4f008dfe878004922b753c9b8207bcf1d2cbe44",
        ),
        (
            repmodel.sl2_binary_forms(3), (1, 3, 3, 1), (1, 0, 0, 0), 3, IN_CLOSURE,
            "80c0277834afa39c1be52b1ec7e0bf06f0e207628981160fb7a8942d619f4945",
        ),
    ],
)
def test_certificates_of_large_systems_are_pinned(rep, a, b, d, verdict, digest):
    # sha256 of the certificate JSON taken before the modular pass
    # skipped dependent rows; these systems are too large for the
    # Fraction reference in test_exactmath_modular.py
    decision = paper_decide(conic_problem(rep, a, b, degree_bound_override=d))
    assert decision.verdict == verdict
    payload = json.dumps(decision.to_json()["certificate"]).encode()
    assert hashlib.sha256(payload).hexdigest() == digest


def test_decide_and_substitute_leave_no_garbage_cycles():
    # the pullback images are cached in term dicts only; a cache held by
    # a self-referencing closure would stay alive until the cyclic
    # collector ran
    problem = conic_problem(repmodel.sl2_binary_forms(2), (0, 1, 0), (1, 2, 1), degree_bound_override=3)
    amb = Ambient(2, 0)
    poly = amb.parse("x1^5*x2^3 + 3*x2^4")
    values = [amb.parse("x1 + 2*x2"), amb.parse("x1*x2 - 1")]
    gc.collect()
    gc.disable()
    try:
        assert decide(problem).verdict == NOT_IN_CLOSURE
        substitute(poly, values, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_evaluation_guard_fires_before_building_the_system(monkeypatch):
    def unreachable(*args, **kwargs):
        raise RuntimeError("the images were built past the size guard")

    monkeypatch.setattr(decider, "monomial_images", unreachable)
    # no degree bound on the conified torus (1,0;1,1;1,2): parametric
    # d = 64 and C(68, 4) columns, under the limit; a' = (1,1,1,1) has no
    # zero coordinate, so the evaluation row has as many entries again
    rep = torus_diagonal([(1, 0), (1, 1), (1, 2)])
    problem = conic_problem(rep, (1, 1, 1), (1, 1, 1))
    columns = comb(68, 4)
    assert columns < decider.DEFAULT_MAX_NNZ < 2 * columns
    with pytest.raises(
        ResourceLimitError,
        match=f"before assembly: {columns} columns \\+ {columns} evaluation-row entries at degree bound d = 64",
    ):
        decide(problem)
    # a zero coordinate of a shrinks the row: beta^q = 0 once q meets it
    with pytest.raises(ResourceLimitError, match=f"{columns} columns \\+ {comb(66, 2)} evaluation-row entries"):
        decide(conic_problem(rep, (0, 1, 0), (1, 1, 1)), max_nnz=columns + comb(66, 2) - 1)


def test_evaluation_guard_after_assembly():
    # the conified parabola at d = 2: C(5, 2) = 10 columns, and a' =
    # (1, 1, 0) gives C(4, 2) = 6 evaluation-row entries; the images are
    # monomials, so the count 16 is the system's nonzeros
    rep2, a2, b2 = make_conic(parabola_rep(), (1, 0), (1, 1))
    problem = DecisionProblem(rep2, a2, b2, degree_bound_override=2, conic_asserted=True)
    for limit in (9, 10, 15):
        with pytest.raises(ResourceLimitError, match=rf"10 columns \+ 6 evaluation-row entries at degree bound d = 2 \(limit {limit} nonzeros\)"):
            decide(problem, max_nnz=limit)
    decision = decide(problem, max_nnz=16)
    assert (decision.transcript["rows"], decision.transcript["columns"], decision.transcript["nonzeros"]) == (10, 10, 16)
    # conified quadratic forms at d = 2: images with several terms, so the
    # system has more nonzeros than the count and the guard after
    # assembly trips
    problem = conic_problem(repmodel.sl2_binary_forms(2), (1, 0, 0), (1, 2, 1), degree_bound_override=2)
    decision = decide(problem)
    count = comb(6, 2) + comb(4, 2)
    nonzeros = decision.transcript["nonzeros"]
    assert count < nonzeros
    with pytest.raises(ResourceLimitError, match=rf"{nonzeros} nonzeros \(limit {count}\), {decision.transcript['rows']} rows x 15 columns"):
        decide(problem, max_nnz=count)


@pytest.mark.parametrize("engine", [decide, paper_decide])
def test_nonzero_guard_fires_before_the_matrix_is_filled(monkeypatch, engine):
    # conified quadratic forms at d = 2 pass the counts checked before
    # assembly (15 columns + 6 evaluation-row entries; 60 c-variables),
    # but their systems hold more nonzeros: the builder raises with the
    # system's shape before it makes the SparseMatrix
    problem = conic_problem(repmodel.sl2_binary_forms(2), (1, 0, 0), (1, 2, 1), degree_bound_override=2)
    limit = comb(6, 2) + comb(4, 2) if engine is decide else generic_coefficient_count(4, 2)
    _, system = engine(problem, keep_system=True)
    nonzeros, rows, cols = system.matrix.nnz, system.matrix.rows, len(system.col_keys)
    assert limit < nonzeros

    def unreachable(*args, **kwargs):
        raise RuntimeError("a SparseMatrix was made past the nonzero guard")

    monkeypatch.setattr(decider, "SparseMatrix", unreachable)
    with pytest.raises(ResourceLimitError, match=rf"^linear system too large: {nonzeros} nonzeros \(limit {limit}\), {rows} rows x {cols} columns$"):
        engine(problem, max_nnz=limit)


def test_override_below_the_representations_bound_is_noted():
    # the conified cubic question of the README: its closure is a quartic
    # and the representation's bound is 54, so IN at d = 3 rests on an
    # unchecked degree
    conic = make_conic(repmodel.sl2_binary_forms(3), (-1, 2, -1, -1), (-1, 1, 0, 2))
    problem = DecisionProblem(*conic, degree_bound_override=3, conic_asserted=True)
    note = "override d = 3 below the representation's bound 54: IN is sound only if the closure has degree <= 3"
    decision = decide(problem)
    assert decision.verdict == IN_CLOSURE
    assert decision.transcript["degree_bound_note"] == note
    assert paper_decide(problem).transcript["degree_bound_note"] == note
    # an override equal to the bound gets no note
    problem = conic_problem(repmodel.sl2_binary_forms(2), (0, 1, 0), (1, 2, 1), degree_bound_override=8)
    decision = decide(problem)
    assert (decision.verdict, decision.transcript["degree_bound_source"]) == (NOT_IN_CLOSURE, "override")
    assert "degree_bound_note" not in decision.transcript


def _denominator(alpha, pullbacks):
    return lcm(*(Fraction(c).denominator for c in [*alpha, *(c for psi in pullbacks for c in psi.values())]))


def _reference_evaluation_system(d, alpha, pullbacks, nvars):
    """(rows, cols, entries, rhs, row_monomials, col_keys) of [M ; beta^q]
    from the schoolbook product of support.py: column q, |q| <= d in
    (degree, exponent) order, is D^|q| psi^q over the rows of its
    support sorted by (degree, exponent), and D^|q| alpha^q in the last
    row, whose right-hand side is 1."""
    n = len(pullbacks)
    D = _denominator(alpha, pullbacks)
    col_keys = sorted((q for q in product(range(d + 1), repeat=n) if sum(q) <= d), key=lambda q: (sum(q), q))
    columns = [product_of_powers(nvars, pullbacks, q) for q in col_keys]
    monomials = sorted(set().union(*columns), key=lambda e: (sum(e), e))
    row_index = {exp: i for i, exp in enumerate(monomials)}
    entries = {}
    for j, (q, column) in enumerate(zip(col_keys, columns)):
        for exp, coef in column.items():
            value = coef * D ** sum(q)
            assert value.denominator == 1
            entries[(row_index[exp], j)] = int(value)
        value = D ** sum(q)
        for a, e in zip(alpha, q):
            value *= Fraction(a) ** e
        assert value.denominator == 1
        if value:
            entries[(len(monomials), j)] = int(value)
    rhs = [0] * len(monomials) + [1]
    return len(monomials) + 1, len(col_keys), entries, rhs, monomials + [None], col_keys


@pytest.mark.parametrize(
    "problem",
    [
        # the two d = 3 problems of the decide-sparse benchmark
        conic_problem(repmodel.sl2_binary_forms(2), (0, 1, 0), (1, 2, 1), degree_bound_override=3),
        conic_problem(repmodel.sl2_binary_forms(2), (1, 0, 0), (1, 2, 1), degree_bound_override=3),
        # (z1/2 + z2)^2 around z1^2, cleared by D = 4
        conic_problem(repmodel.sl2_binary_forms(2), (Fraction(1, 4), 1, 1), (1, 0, 0), degree_bound_override=2),
    ],
    ids=["sparse-d3-NOT", "sparse-d3-IN", "rational-z1^2"],
)
def test_evaluation_system_equals_schoolbook_expansion(problem):
    decision, system = decide(problem, keep_system=True)
    pullbacks = coordinate_pullbacks(problem.rep, problem.b)
    d = decision.transcript["degree_bound"]
    got = (system.matrix.rows, system.matrix.cols, system.matrix.entries, system.rhs, system.row_monomials, system.col_keys)
    assert got == _reference_evaluation_system(d, problem.a, pullbacks, problem.rep.ambient.nvars)


def _equation(problem, decision, system):
    """The equation f = sum_q g_q D^|q| z^q that a NOT certificate g spells out."""
    D = _denominator(problem.a, coordinate_pullbacks(problem.rep, problem.b))
    return {q: g * D ** sum(q) for q, g in zip(system.col_keys, decision.certificate.vector) if g}


def _is_violated_equation(f, problem):
    """f vanishes on the orbit, f(psi) = 0, and f(a) = 1."""
    pullbacks = coordinate_pullbacks(problem.rep, problem.b)
    composed = substitute(f, pullbacks, problem.rep.ambient.nvars)
    return not composed and evaluate_terms(f, problem.a) == 1


def _not_problems():
    for case in decision_battery():
        if not case.expected_in_closure:
            problem = conic_problem(case.rep, case.a, case.b, degree_bound_override=case.degree_bound)
            yield pytest.param(problem, id=case.name)
    for case in diagonal_battery():
        if not case.expected_in_closure:
            problem = conic_problem(torus_diagonal(case.weights), case.a, case.b, degree_bound_override=2)
            yield pytest.param(problem, id=f"diagonal-{case.name}")
    sl2 = repmodel.sl2_binary_forms(2)
    for d in (3, 4):
        yield pytest.param(conic_problem(sl2, (0, 1, 0), (1, 2, 1), degree_bound_override=d), id=f"sparse-d{d}")
    # the README's cubic decide: z1*z2^2 is not a cube
    cubic = conic_problem(repmodel.sl2_binary_forms(3), (0, 0, 1, 0), (1, 0, 0, 0), degree_bound_override=3)
    yield pytest.param(cubic, id="cubic")


@pytest.mark.parametrize("problem", list(_not_problems()))
def test_not_certificates_read_back_as_violated_equations(problem):
    decision, system = decide(problem, keep_system=True)
    assert decision.verdict == NOT_IN_CLOSURE and decision.certificate.kind == SOLUTION
    f = _equation(problem, decision, system)
    assert _is_violated_equation(f, problem)
    # a bumped coefficient breaks f(psi) = 0 or f(a) = 1: the solution
    # lives on pivot columns, none of which is zero in both M and the
    # evaluation row
    for q in f:
        bumped = dict(f)
        bumped[q] += 1
        assert not _is_violated_equation(bumped, problem), q


def _verdict_problems():
    for seed in (0, 1):
        for case in decision_battery():
            yield seed, conic_problem(case.rep, case.a, case.b, degree_bound_override=case.degree_bound)
    for case in diagonal_battery():
        yield 0, conic_problem(torus_diagonal(case.weights), case.a, case.b, degree_bound_override=2)
    sl2 = repmodel.sl2_binary_forms(2)
    for d in (3, 4):
        for a in ((0, 1, 0), (1, 0, 0)):
            yield 0, conic_problem(sl2, a, (1, 2, 1), degree_bound_override=d)
    for a in ((0, 0, 1, 0), (1, 3, 3, 1)):
        yield 0, conic_problem(repmodel.sl2_binary_forms(3), a, (1, 0, 0, 0), degree_bound_override=3)
    # the monomial-curve cones z2^k = z1^(k-1) z3 at d = k
    for k in (1, 2, 3, 4):
        rep2, _, b2 = make_conic(torus_diagonal([(1,), (k,)]), (0, 0), (1, 1))
        for a2 in ((1, 2, 2**k), (2, 0, 0), (1, 1, 2), (0, 0, 1)):
            yield 0, DecisionProblem(rep2, a2, b2, degree_bound_override=k, conic_asserted=True)


def test_decide_verdicts_equal_the_papers():
    verdicts = set()
    for seed, problem in _verdict_problems():
        verdict = _checked(decide, problem, seed=seed).verdict
        assert verdict == _checked(paper_decide, problem, seed=seed).verdict, (problem.rep.label, problem.a, problem.b)
        verdicts.add(verdict)
    assert verdicts == {IN_CLOSURE, NOT_IN_CLOSURE}


def _decision_groups():
    """The decisions whose JSON is pinned, by group: the decide-sparse
    problems; the 16-case battery through paper_decide and decide,
    conified at d = 2, and through decide raw at its own bound; the 15
    diagonal cases through decide, conified at d = 3; and three points
    on each monomial-curve cone z2^k = z1^(k-1) z3, at d = k."""
    sl2 = repmodel.sl2_binary_forms(2)
    battery = decision_battery()
    conified = [conic_problem(case.rep, case.a, case.b, degree_bound_override=2) for case in battery]
    curves = []
    for k in (1, 2, 3, 4):
        rep2, _, b2 = make_conic(torus_diagonal([(1,), (k,)]), (0, 0), (1, 1))
        curves += [DecisionProblem(rep2, a2, b2, degree_bound_override=k, conic_asserted=True)
                   for a2 in ((1, 2, 2**k), (2, 0, 0), (1, 1, 2))]
    return {
        "sparse": lambda: [decide(conic_problem(sl2, a, (1, 2, 1), degree_bound_override=d))
                           for d in (3, 4) for a in ((0, 1, 0), (1, 0, 0))],
        "battery-paper": lambda: list(map(paper_decide, conified)),
        "battery-decide": lambda: list(map(decide, conified)),
        "battery-raw": lambda: [decide(DecisionProblem(case.rep, case.a, case.b)) for case in battery],
        "diagonal": lambda: [decide(conic_problem(torus_diagonal(case.weights), case.a, case.b, degree_bound_override=3))
                             for case in diagonal_battery()],
        "curves": lambda: list(map(decide, curves)),
    }


# sha256 of json.dumps of each group's Decision.to_json() list, taken
# while the rows were still sorted by their decoded exponents: a changed
# verdict, certificate or transcript shows which group moved
DECISION_PINS = {
    "sparse": "0270573b41557204f1e8c04fae471ad550d57145acf874bc271242661737ec03",
    "battery-paper": "0325d552c4bea5a3720bc36b8a6869351b77ed3dce54666e7cd0eed5a0b51f4a",
    "battery-decide": "3de906f4ca97d6b7df914f55b02598d340d60cd3fad6df9d056a95f891017259",
    "battery-raw": "036f3bebf23251fa76e68d50f1b40ebc8aff5e837399be998f5baaf1cbdbf6f5",
    "diagonal": "b5a8897dc328bbdad00624952ee339f32a27fb60d1f4cf529cdea50c1778ccb7",
    "curves": "3cc4ce437f1a80b78dfaa26da4f141eb8750154a332739708ff1a4c9759514ad",
}


@pytest.mark.parametrize("group", list(DECISION_PINS))
def test_decisions_are_pinned(group):
    decisions = _decision_groups()[group]()
    payload = json.dumps([decision.to_json() for decision in decisions]).encode()
    assert hashlib.sha256(payload).hexdigest() == DECISION_PINS[group]


@pytest.mark.parametrize(
    "problem",
    [
        conic_problem(repmodel.sl2_binary_forms(2), (0, 1, 0), (1, 2, 1), degree_bound_override=3),
        conic_problem(repmodel.sl2_binary_forms(2), (1, 0, 0), (1, 2, 1), degree_bound_override=3),
        # a negative weight and denominators in both the pullbacks and a
        conic_problem(torus_diagonal([(1, 0), (1, -2), (0, 1)]), (Fraction(1, 2), 3, -1), (Fraction(2, 3), 1, 5),
                      degree_bound_override=2),
    ],
    ids=["sparse-d3-NOT", "sparse-d3-IN", "laurent-rational"],
)
def test_systems_are_built_and_solved_without_decoding(monkeypatch, problem):
    # both deciders sort and fill their rows on packed keys: the decoder
    # that monomial_images hands them runs only when row_monomials is
    # read, once per row and read, and then gives the schoolbook rows
    keys = []

    def spied(*args):
        image, decode = polyring.monomial_images(*args)
        return image, lambda key: keys.append(key) or decode(key)

    monkeypatch.setattr(decider, "monomial_images", spied)
    decision, system = decide(problem, keep_system=True)
    paper, paper_system = paper_decide(problem, keep_system=True)
    assert keys == [] and paper.transcript["scramble"] is None
    pullbacks = coordinate_pullbacks(problem.rep, problem.b)
    nvars = problem.rep.ambient.nvars
    d = decision.transcript["degree_bound"]
    assert system.row_monomials == _reference_evaluation_system(d, problem.a, pullbacks, nvars)[4]
    assert paper_system.row_monomials == _reference_system(d, problem.a, pullbacks, nvars)[4]
    assert keys == system.row_keys + paper_system.row_keys
    assert system.row_monomials == system.row_monomials
    assert len(keys) == 3 * len(system.row_keys) + len(paper_system.row_keys)


def test_one_debug_line_per_system(caplog):
    # rows, columns and nonzeros as the transcript records them, and the
    # two timings, which stay out of the transcript
    problem = conic_problem(repmodel.sl2_binary_forms(2), (1, 0, 0), (1, 2, 1), degree_bound_override=3)
    quiet = [decide(problem).to_json(), paper_decide(problem).to_json()]
    with caplog.at_level(logging.DEBUG, logger="orbitcal.decider"):
        decision, paper = decide(problem), paper_decide(problem)
    lines = [r.getMessage() for r in caplog.records if r.name == "orbitcal.decider"]
    shape = r"(\d+) rows x (\d+) columns, (\d+) nonzeros; images \d+\.\d\d ms, matrix \d+\.\d\d ms"
    assert len(lines) == 2
    # decide's line also says how far its pass over the columns read: an
    # IN reads them all
    read = r"; pass read (\d+) of (\d+) columns, to degree (\d+)"
    evaluation = re.fullmatch("evaluation_system: " + shape + read, lines[0])
    assembled = re.fullmatch("assemble_system: " + shape, lines[1])
    t = decision.transcript
    assert tuple(map(int, evaluation.groups())) == (t["rows"], t["columns"], t["nonzeros"], t["columns"],
                                                    t["columns"], t["degree_bound"])
    t = paper.transcript
    assert tuple(map(int, assembled.groups())) == (t["monomials"], t["c_variables"], t["nonzeros"])
    assert [decision.to_json(), paper.to_json()] == quiet
