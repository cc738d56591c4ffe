"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import json
import random
import time
from fractions import Fraction

from orbitcal import cli
from orbitcal.decider import (
    IN_CLOSURE,
    DecisionProblem,
    conic_problem,
    decide,
    paper_decide,
)
from orbitcal.degbound import binary_form_orbit_degree, kazarnovskii, sl2_reductive_data
from orbitcal.elim import (
    SubspaceMap,
    buchberger,
    closure_equations,
    normal_form,
    parse_equation,
    point_in_closure,
)
from orbitcal.exactmath import REFUTATION, SOLUTION, ConsistencyWitness
from orbitcal.fixtures import decision_battery, diagonal_battery, parabola_rep
from orbitcal.polyring import evaluate_terms, format_terms, parse_terms
from orbitcal.repmodel import (
    make_conic,
    sl2_binary_forms,
    torus_diagonal,
)
from orbitcal.torusoracle import torus_decide
from support import binary_substitution_matrix, reducers, s_pair, sl2_parameter_matrix


def _criterion(number, description):
    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException:
                print(f"FAIL criterion {number}: {description}")
                raise
            print(f"PASS criterion {number}: {description}")

        run.__name__ = fn.__name__
        return run

    return wrap


def _run_cli(args):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


@_criterion(1, "closed-form and integral degree values agree, under 1 s")
def test_criterion_1_degree_values():
    start = time.perf_counter()
    expected = [2, 8, 54, 64, 250, 216]
    for h, want in zip(range(1, 7), expected):
        code, out = _run_cli(["degree", "sl2", "--h", str(h)])
        assert code == 0 and int(out.strip()) == want, (h, out)
        assert kazarnovskii(sl2_reductive_data(h)) == want
    assert time.perf_counter() - start < 1.0


@_criterion(2, "generated matrix entries and the action law agree at 100 points")
def test_criterion_2_parametrization_fidelity():
    start = time.perf_counter()
    rep = sl2_binary_forms(2)
    assert format_terms(rep.rho[1][1], rep.ambient.names) == "1 + 2*x1^-2*x2*x3"

    def mat_mul(A, B):
        return [
            [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))
        ]

    rng = random.Random(101)
    for h in (1, 2, 3):
        rep = sl2_binary_forms(h)
        for _ in range(100):
            u1 = [
                Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)),
                Fraction(rng.randint(-3, 3)),
                Fraction(rng.randint(-3, 3)),
            ]
            u2 = [
                Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)),
                Fraction(rng.randint(-3, 3)),
                Fraction(rng.randint(-3, 3)),
            ]
            g1, g2 = sl2_parameter_matrix(u1), sl2_parameter_matrix(u2)
            lhs = mat_mul(
                binary_substitution_matrix(g1, h), binary_substitution_matrix(g2, h)
            )
            rhs = binary_substitution_matrix(mat_mul(g1, g2), h)
            assert lhs == rhs
            sym = [[evaluate_terms(e, u1) for e in row] for row in rep.rho]
            assert sym == binary_substitution_matrix(g1, h)
    assert time.perf_counter() - start < 10.0


@_criterion(3, "general orbit-degree formula collapses to 2h(h-1)(h-2) at simple roots")
def test_criterion_3_orbit_degree():
    for h in range(3, 9):
        got = binary_form_orbit_degree(h, (1,) * h, stab_order=1)
        assert got == 2 * h * (h - 1) * (h - 2), h


@_criterion(4, "linear-system and elimination oracles agree on the whole battery")
def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    battery = decision_battery()
    assert len(battery) >= 12
    equation_cache = {}
    for case in battery:
        problem = conic_problem(
            case.rep, case.a, case.b, degree_bound_override=case.degree_bound
        )
        decision = decide(problem)
        key = (id(case.rep), case.b)
        if key not in equation_cache:
            rep2, _, b2 = make_conic(case.rep, case.a, case.b)
            equation_cache[key] = (rep2, b2, closure_equations(rep2, SubspaceMap.point(b2)))
        rep2, b2, equations = equation_cache[key]
        _, a2, _ = make_conic(case.rep, case.a, case.b)
        oracle = point_in_closure(equations, a2)
        assert decision.in_closure == oracle == case.expected_in_closure, case.name
    assert time.perf_counter() - start < 300.0


@_criterion(5, "torus criterion matches the elimination oracle on all diagonal fixtures")
def test_criterion_5_torus_oracle():
    battery = diagonal_battery()
    names = [case.name for case in battery]
    assert "parabola-partial-support" in names  # the documented instance
    for case in battery:
        combinatorial = torus_decide(case.weights, case.a, case.b)
        rep = torus_diagonal(case.weights)
        eqs = closure_equations(rep, SubspaceMap.point(case.b))
        groebner = point_in_closure(eqs, case.a)
        assert combinatorial == groebner == case.expected_in_closure, case.name
    assert not torus_decide([(1,), (2,)], (1, 0), (1, 1))


@_criterion(6, "certificates verify exactly and 100 fuzzed tamperings are rejected")
def test_criterion_6_certificate_soundness():
    rng = random.Random(103)
    systems = []
    for case in decision_battery():
        problem = conic_problem(
            case.rep, case.a, case.b, degree_bound_override=case.degree_bound
        )
        decision, system = decide(problem, keep_system=True)
        if decision.certificate is None:
            continue
        assert decision.certificate.kind == (REFUTATION if decision.verdict == IN_CLOSURE else SOLUTION), case.name
        assert decision.certificate.verify(system.matrix, system.rhs), case.name
        systems.append((decision, system))
    rejected = 0
    while rejected < 100:
        decision, system = systems[rng.randrange(len(systems))]
        vec = list(decision.certificate.vector)
        idx = rng.randrange(len(vec))
        delta = Fraction(rng.randint(1, 7), rng.randint(1, 3))
        vec[idx] += delta
        tampered = ConsistencyWitness(decision.certificate.kind, vec)
        assert not tampered.verify(system.matrix, system.rhs)
        rejected += 1


@_criterion(7, "verdicts invariant under scaling, scrambling seeds, and degree bumps")
def test_criterion_7_invariances():
    rng = random.Random(107)

    # scaling invariance on three conic fixtures
    for case in decision_battery()[:3]:
        rep2, a2, b2 = make_conic(case.rep, case.a, case.b)
        base = decide(
            DecisionProblem(rep2, a2, b2, degree_bound_override=case.degree_bound,
                            conic_asserted=True)
        ).in_closure
        for _ in range(10):
            lam = Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 3))
            problem = DecisionProblem(
                rep2, tuple(lam * x for x in a2), b2,
                degree_bound_override=case.degree_bound, conic_asserted=True,
            )
            assert decide(problem).in_closure == base, case.name

    # scrambling-seed independence on a base vector with zero coordinates
    # (only the paper's system scrambles)
    rep2, a2, b2 = make_conic(parabola_rep(), (1, 0), (1, 0))
    for target, expected in ((a2, True), ((1, 0, 1), False)):
        verdicts = {
            engine(
                DecisionProblem(rep2, target, b2, degree_bound_override=2,
                                conic_asserted=True),
                seed=seed,
            ).in_closure
            for seed in range(5)
            for engine in (paper_decide, decide)
        }
        assert verdicts == {expected}

    # degree-bound monotonicity on the parabola fixture
    rep2, a2, b2 = make_conic(parabola_rep(), (1, 0), (1, 1))
    verdicts = [
        decide(
            DecisionProblem(rep2, a2, b2, degree_bound_override=d, conic_asserted=True)
        ).verdict
        for d in (2, 3, 4)
    ]
    assert verdicts == ["NOT_IN_CLOSURE"] * 3

    # the undersized bound d=1 is a documented failure caught by crosscheck
    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "par.json")
        code, _ = _run_cli(["gen", "torus", "--weights", "1;2", "--out", path])
        assert code == 0
        code, out = _run_cli(
            ["crosscheck", "--rep", path, "--a", "1,0", "--b", "1,1", "--conify",
             "--degree-bound", "1"]
        )
        assert code == 6
        assert not json.loads(out)["agree"]


@_criterion(8, "elimination layer: canonical bases and the three hand fixtures")
def test_criterion_8_groebner_layer():
    start = time.perf_counter()
    from orbitcal.elim import OrderedRing

    ring = OrderedRing(("x", "y"), ((0,), (1,)))

    def poly(text):
        return {e: Fraction(c) for e, c in parse_terms(text, ("x", "y")).items()}

    # buchberger and normal_form work over Z/p
    p = (1 << 61) - 1
    gens = [poly("x^2 + y"), poly("x*y - 1"), poly("y^3 - x")]
    reference = [dict(g) for g in buchberger(gens, ring, p)]
    rng = random.Random(109)
    for _ in range(4):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        basis = buchberger(shuffled, ring, p)
        assert [dict(g) for g in basis] == reference
        # normal_form and s_polynomial work on packed monomials
        basis = [{ring.pack(e): c for e, c in g.items()} for g in basis]
        for i, f in enumerate(basis):
            for g in basis[i + 1 :]:
                assert normal_form(s_pair(f, g, ring), reducers(basis), ring, p) == {}

    # parabola
    eqs = closure_equations(parabola_rep(), SubspaceMap.point((1, 1)))
    assert eqs == [parse_equation("z1^2 - z2", 2)]

    # quadric cone over the parabola
    rep2, _, b2 = make_conic(parabola_rep(), (0, 0), (1, 1))
    eqs = closure_equations(rep2, SubspaceMap.point(b2))
    assert eqs == [parse_equation("z2^2 - z1*z3", 3)]

    # discriminant cone: zero-set equality against the reference quadric
    # by two-sided sampling, 1000 points per side
    rep2, _, b2 = make_conic(sl2_binary_forms(2), (0, 0, 0), (1, 2, 1))
    eqs = closure_equations(rep2, SubspaceMap.point(b2))
    disc = parse_equation("z3^2 - 4*z2*z4", 4)
    for _ in range(1000):
        w0 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        u, v = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
        point = (w0, s * u * u, 2 * s * u * v, s * v * v)
        assert evaluate_terms(disc, point) == 0
        assert point_in_closure(eqs, point)
    for _ in range(1000):
        point = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(4))
        assert point_in_closure(eqs, point) == (evaluate_terms(disc, point) == 0)
    assert time.perf_counter() - start < 60.0
