"""Heavier cross-checks on binary cubics and quartics: the closure of
the triple-root cone is a determinantal variety needing three
equations, the quartic one needs six, which exercises elimination and
the linear-system decider well beyond the quadratic battery."""

from fractions import Fraction
from math import comb

import pytest

from orbitcal.decider import DecisionProblem, decide, paper_decide
from orbitcal.elim import (
    SubspaceMap,
    closure_equations,
    parse_equation,
    point_in_closure,
)
from orbitcal.errors import ResourceLimitError
from orbitcal.repmodel import make_conic, sl2_binary_forms

CUBE = (1, 0, 0, 0)  # the cubic z1^3 in the basis z1^3, z1^2 z2, z1 z2^2, z2^3


def test_cubic_cone_equations_and_oracle_agreement():
    sl2 = sl2_binary_forms(3)
    rep2, _, b2 = make_conic(sl2, (0, 0, 0, 0), CUBE)
    equations = closure_equations(rep2, SubspaceMap.point(b2))
    assert equations == [
        parse_equation("z4^2 - 3*z3*z5", 5),
        parse_equation("z3*z4 - 9*z2*z5", 5),
        parse_equation("z3^2 - 3*z2*z4", 5),
    ]

    cases = [
        ((0, 0, 1, 0), False),  # z1*z2^2 has only a double root
        ((1, 3, 3, 1), True),  # (z1+z2)^3 is another cube
        ((0, 0, 0, 0), True),
        ((8, 12, 6, 1), True),  # (2*z1+z2)^3
        ((1, 0, 0, 1), False),  # z1^3 + z2^3 has three simple roots
    ]
    for a, expected in cases:
        _, a2, _ = make_conic(sl2, a, CUBE)
        assert point_in_closure(equations, a2) == expected, a

    # one full decider run against the same fixture (degree of the
    # twisted-cubic cone is 3)
    problem = DecisionProblem(
        *make_conic(sl2, (0, 0, 1, 0), CUBE),
        degree_bound_override=3,
        conic_asserted=True,
    )
    assert decide(problem).verdict == "NOT_IN_CLOSURE"


def test_scrambled_cube_decide_stays_sparse():
    # the elementary scramble adds the scaling coordinate x0 into each
    # zero coordinate; random unitriangular scrambles built 124,374
    # nonzeros here
    problem = DecisionProblem(
        *make_conic(sl2_binary_forms(3), (0, 1, 0, 0), CUBE),
        degree_bound_override=3,
        conic_asserted=True,
    )
    decision = paper_decide(problem)
    assert decision.verdict == "NOT_IN_CLOSURE"
    assert decision.transcript["nonzeros"] <= 22_650


def test_scrambled_cubic_question_answers():
    # random scrambles built 1.3M nonzeros and exited on the size guard;
    # a NOT verdict holds for every degree bound
    conic = make_conic(sl2_binary_forms(3), (-1, 2, -1, -1), (-1, 1, 0, 2))
    problem = DecisionProblem(*conic, degree_bound_override=3, conic_asserted=True)
    decision = paper_decide(problem)
    assert decision.verdict == "NOT_IN_CLOSURE"
    assert decision.transcript["nonzeros"] <= 72_304
    # The closure is the quartic hypersurface disc(f) = s^4 disc(b), so
    # the evaluation system needs d = 4: at d = 3 it holds no equation of
    # the closure and says IN, while the paper's system, whose
    # equations reach degree 2d - 1 = 5, finds the quartic.
    assert decide(problem).verdict == "IN_CLOSURE"
    problem = DecisionProblem(*conic, degree_bound_override=4, conic_asserted=True)
    assert decide(problem).verdict == "NOT_IN_CLOSURE"


def test_quartic_cone_closes_within_default_budget():
    # the cone over fourth powers s*(p*z1 + q*z2)^4: the 2x2 minors of
    # the binomially scaled 2x4 Hankel matrix
    sl2 = sl2_binary_forms(4)
    rep2, _, b2 = make_conic(sl2, (0,) * 5, (1, 0, 0, 0, 0))
    equations = closure_equations(rep2, SubspaceMap.point(b2))
    assert equations == [
        parse_equation(text, 6)
        for text in (
            "z5^2 - 8/3*z4*z6",
            "z4*z5 - 6*z3*z6",
            "z3*z5 - 16*z2*z6",
            "z4^2 - 36*z2*z6",
            "z3*z4 - 6*z2*z5",
            "z3^2 - 8/3*z2*z4",
        )
    ]

    for w0, s, p, q in ((1, 1, 1, 0), (2, 3, 1, 1), (-1, Fraction(1, 2), 2, -3), (5, -2, 3, 1)):
        power = tuple(s * comb(4, k) * Fraction(p) ** (4 - k) * q**k for k in range(5))
        assert point_in_closure(equations, (w0,) + power), (s, p, q)
    assert not point_in_closure(equations, (1, 1, 0, 0, 0, 1))  # z1^4 + z2^4


def test_quartic_cone_pair_limit_message():
    # the quartic closes after forming 1,006 pairs, so a budget of half
    # that aborts; the counters in the message pin the pair sequence: a
    # change of normalization, of the selection strategy or of the block
    # layout that reorders or drops a pair moves them
    rep2, _, b2 = make_conic(sl2_binary_forms(4), (0,) * 5, (1, 0, 0, 0, 0))
    with pytest.raises(ResourceLimitError) as info:
        closure_equations(rep2, SubspaceMap.point(b2), max_pairs=500)
    assert str(info.value) == (
        "buchberger: pair limit 500 exceeded (basis 55 elements, 84 S-polynomials reduced)"
    )
