import itertools
import random
from fractions import Fraction

import pytest

from orbitcal.elim import SubspaceMap, closure_equations, point_in_closure
from orbitcal.errors import ResourceLimitError
from orbitcal.fixtures import diagonal_battery
from orbitcal.repmodel import torus_diagonal
from orbitcal.torusoracle import (
    WeightedVector,
    cone_inequalities,
    face_test,
    in_cone,
    scaling_exists,
    support,
    torus_decide,
)


def test_support_examples():
    assert support(WeightedVector([(1,), (-1,)], (1, 0))) == {(1,)}
    assert support(WeightedVector([(1,), (-1,)], (0, 0))) == set()
    # aggregation: the weight-1 projection (1, -1) is nonzero
    assert support(WeightedVector([(1,), (1,), (2,)], (1, -1, 5))) == {(1,), (2,)}
    assert support(WeightedVector([(1,), (1,), (2,)], (1, 1, 0))) == {(1,)}


def test_in_cone_rank_one():
    assert in_cone((3,), [(1,)])
    assert not in_cone((-3,), [(1,)])
    assert in_cone((0,), [])
    assert not in_cone((1,), [])
    assert in_cone((-2,), [(1,), (-1,)])


def test_cone_inequalities_describe_the_cone():
    rng = random.Random(41)
    for _ in range(25):
        gens = [
            (rng.randint(-2, 2), rng.randint(-2, 2))
            for _ in range(rng.randint(1, 4))
        ]
        ineqs = cone_inequalities(gens, 2)
        for g in gens:
            assert all(sum(u * x for u, x in zip(row, g)) >= 0 for row in ineqs)
        # points satisfying all inequalities are in the cone and vice versa
        for _ in range(20):
            pt = (rng.randint(-3, 3), rng.randint(-3, 3))
            satisfied = all(sum(u * x for u, x in zip(row, pt)) >= 0 for row in ineqs)
            assert satisfied == in_cone(pt, gens)


def test_face_test_examples():
    ok, _ = face_test([(1,)], [(1,), (-1,)])
    assert not ok  # the full line has no proper ray face
    ok, functional = face_test([], [(1,), (2,)])
    assert ok  # the origin is a face of a pointed cone
    assert functional is not None
    ok, functional = face_test([(1,), (2,)], [(1,), (2,)])
    assert ok and functional == (0,)  # improper face


def test_face_test_zero_cone_of_line_fails():
    ok, _ = face_test([], [(1,), (-1,)])
    assert not ok  # lineality is the whole line, not the origin


def _brute_force_face(Sa, Sb, rank):
    """Search small integer functionals u valid on cone(Sb) and check
    whether one cuts exactly cone(Sa); the improper face is always
    checked directly."""
    if all(in_cone(s, Sb) for s in Sa) and all(in_cone(s, Sa) for s in Sb):
        return True
    grid = range(-6, 7)
    for u in itertools.product(grid, repeat=rank):
        if not any(u):
            continue
        if any(sum(a * b for a, b in zip(u, s)) < 0 for s in Sb):
            continue
        face_gens = [s for s in Sb if sum(a * b for a, b in zip(u, s)) == 0]
        if all(in_cone(s, Sa) for s in face_gens) and all(
            in_cone(s, face_gens) for s in Sa
        ):
            return True
    return False


def test_face_test_against_brute_force():
    rng = random.Random(43)
    for _ in range(40):
        rank = rng.randint(1, 2)
        Sb = [
            tuple(rng.randint(-2, 2) for _ in range(rank))
            for _ in range(rng.randint(1, 3))
        ]
        if rng.random() < 0.5:
            Sa = [s for s in Sb if rng.random() < 0.5]
        else:
            Sa = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rng.randint(0, 2))]
        got, _ = face_test(Sa, Sb, rank)
        assert got == _brute_force_face(Sa, Sb, rank)


def test_scaling_exists_examples():
    assert scaling_exists([((1,), 5)])
    assert scaling_exists([((1,), 2), ((2,), 4)])
    assert not scaling_exists([((1,), 2), ((2,), 5)])
    with pytest.raises(ValueError):
        scaling_exists([((1,), 0)])


def test_scaling_exists_lattice_basis_invariance():
    # replacing the weights by another basis of the same lattice, with
    # correspondingly transformed ratios, preserves the answer
    pairs = [((2, 1), Fraction(4)), ((1, 1), Fraction(2))]
    # transformed basis: (1, 0) = (2,1) - (1,1), (1, 1)
    transformed = [((1, 0), Fraction(4, 2)), ((1, 1), Fraction(2))]
    assert scaling_exists(pairs) == scaling_exists(transformed) is True
    pairs = [((1, 0), Fraction(2)), ((2, 0), Fraction(5))]
    transformed = [((1, 0), Fraction(2)), ((1, 0), Fraction(5, 2))]
    assert scaling_exists(pairs) == scaling_exists(transformed) is False


def test_torus_decide_parabola():
    weights = [(1,), (2,)]
    assert torus_decide(weights, (0, 0), (1, 1))
    assert not torus_decide(weights, (1, 0), (1, 1))
    assert torus_decide(weights, (3, 9), (1, 1))


def test_torus_decide_hyperbola():
    weights = [(1,), (-1,)]
    assert torus_decide(weights, (2, Fraction(1, 2)), (1, 1))
    assert not torus_decide(weights, (0, 0), (1, 1))
    assert not torus_decide(weights, (2, 2), (1, 1))


def test_torus_decide_matches_orbit_points():
    rng = random.Random(47)
    weights = [(1, 0), (0, 1), (1, 1)]
    b = (1, -2, 3)
    for _ in range(25):
        g = (
            Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)),
            Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)),
        )
        a = tuple(
            x * g[0] ** w[0] * g[1] ** w[1] for w, x in zip(weights, b)
        )
        assert torus_decide(weights, a, b)


def test_torus_decide_agrees_with_elimination_on_battery():
    for case in diagonal_battery():
        got = torus_decide(case.weights, case.a, case.b)
        assert got == case.expected_in_closure, case.name
        rep = torus_diagonal(case.weights)
        eqs = closure_equations(rep, SubspaceMap.point(case.b))
        assert point_in_closure(eqs, case.a) == case.expected_in_closure, case.name


def test_rank_guard():
    weights = [tuple(1 if i == j else 0 for i in range(9)) for j in range(9)]
    with pytest.raises(ResourceLimitError, match="elimination guard 8"):
        torus_decide(weights, (1,) * 9, (1,) * 9)
