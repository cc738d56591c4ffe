"""Randomized differential testing across the three procedures on
families with independently known answers."""

import random
from fractions import Fraction

from orbitcal.decider import DecisionProblem, decide
from orbitcal.elim import SubspaceMap, closure_equations, point_in_closure
from orbitcal.repmodel import coordinate_pullbacks, make_conic, orbit_dimension, torus_diagonal
from orbitcal.torusoracle import torus_decide
from support import act, rank


def test_three_oracles_on_monomial_curve_cones():
    """The scaled orbit of the all-ones vector under the weights (1, k)
    is the cone over a degree-k monomial curve, so the exact bound for
    the decider is k; points are drawn from the orbit, from face
    limits, and off the variety."""
    rng = random.Random(71)
    checked = 0
    for k in (1, 2, 3, 4):
        rep = torus_diagonal([(1,), (k,)])
        b = (1, 1)
        rep2, _, b2 = make_conic(rep, (0, 0), b)
        equations = closure_equations(rep2, SubspaceMap.point(b2))
        weights2 = [(1, 0), (1, 1), (1, k)]
        for _ in range(6):
            kind = rng.choice(("orbit", "limit", "random"))
            if kind == "orbit":
                u = [
                    Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)),
                    Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)),
                ]
                a2 = act(rep2, u, b2)
            elif kind == "limit":
                s = Fraction(rng.choice([-3, -1, 1, 2]))
                a2 = (s, 0, 0)
            else:
                a2 = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(3))
            from_equations = point_in_closure(equations, a2)
            from_torus = torus_decide(weights2, a2, b2)
            problem = DecisionProblem(
                rep2, a2, b2, degree_bound_override=k, conic_asserted=True
            )
            from_decider = decide(problem).in_closure
            assert from_decider == from_equations == from_torus, (k, kind, a2)
            checked += 1
    assert checked == 24


def test_orbit_dimension_equals_weight_rank():
    """For a diagonal action on an all-nonzero vector, the sampled orbit
    dimension is the rank of the weight matrix."""
    rng = random.Random(73)
    for _ in range(15):
        r = rng.randint(1, 3)
        n = rng.randint(1, 4)
        weights = [tuple(rng.randint(-2, 2) for _ in range(r)) for _ in range(n)]
        rep = torus_diagonal(weights)
        b = tuple(Fraction(rng.choice([-2, -1, 1, 2])) for _ in range(n))
        expected = rank(weights)
        assert orbit_dimension(coordinate_pullbacks(rep, b), r) == expected, weights
