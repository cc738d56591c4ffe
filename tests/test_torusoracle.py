import itertools
import random
import time
from fractions import Fraction

import pytest

from orbitcal.elim import SubspaceMap, closure_equations, point_in_closure
from orbitcal.exactmath import det
from orbitcal.fixtures import diagonal_battery
from orbitcal.repmodel import torus_diagonal
from orbitcal.torusoracle import (
    _nonnegative_solution,
    _weight_spaces,
    scaling_exists,
    torus_decide,
)


def _dot(u, w):
    return sum(x * y for x, y in zip(u, w))


def _in_cone(point, gens):
    """Reference cone membership (Caratheodory): the point lies in
    cone(gens) iff it is a nonnegative combination of some linearly
    independent set of at most rank generators.  That combination is
    unique, and Cramer's rule on the Gram matrix finds it."""
    point = [Fraction(x) for x in point]
    for size in range(len(point) + 1):
        for span in itertools.combinations(gens, size):
            gram = [[_dot(s, t) for t in span] for s in span]
            g = det(gram)
            if not g:
                continue  # dependent generators
            rhs = [_dot(s, point) for s in span]
            lam = [
                det([row[:i] + [rhs[k]] + row[i + 1 :] for k, row in enumerate(gram)]) / g
                for i in range(size)
            ]
            combo = [sum(c * t[j] for c, t in zip(lam, span)) for j in range(len(point))]
            if min(lam, default=0) >= 0 and combo == point:
                return True
    return False


def _support(weights, components):
    return {wt for wt, comp in _weight_spaces(weights, components).items() if any(comp)}


def test_support_examples():
    assert _support([(1,), (-1,)], (1, 0)) == {(1,)}
    assert _support([(1,), (-1,)], (0, 0)) == set()
    # aggregation: the weight-1 projection (1, -1) is nonzero
    assert _support([(1,), (1,), (2,)], (1, -1, 5)) == {(1,), (2,)}
    assert _support([(1,), (1,), (2,)], (1, 1, 0)) == {(1,)}
    assert _weight_spaces([(1,), (1,), (2,)], (1, -1, 5)) == {(1,): [1, -1], (2,): [5]}


def test_torus_decide_checks_its_input():
    with pytest.raises(ValueError, match="weights and components must have equal length"):
        torus_decide([(1,), (2,)], (1, 0, 0), (1, 1))
    with pytest.raises(ValueError, match="weights and components must have equal length"):
        torus_decide([(1,), (2,)], (1, 0), (1,))
    with pytest.raises(ValueError, match="inconsistent weight lengths"):
        torus_decide([(1, 0), (1,)], (1, 1), (1, 1))


def test_in_cone_rank_one():
    assert _in_cone((3,), [(1,)])
    assert not _in_cone((-3,), [(1,)])
    assert _in_cone((0,), [])
    assert not _in_cone((1,), [])
    assert _in_cone((-2,), [(1,), (-1,)])
    assert _in_cone((1, 1), [(1, 0), (0, 1)])
    assert not _in_cone((1, 1), [(1, 0), (2, 0)])


def _checked_solution(columns, rhs):
    """_nonnegative_solution's answer, with a returned y checked here:
    nonnegative, and exactly rhs when plugged back."""
    y = _nonnegative_solution(columns, rhs)
    if y is not None:
        assert len(y) == len(columns) and min(y, default=0) >= 0
        assert [sum(c * col[i] for c, col in zip(y, columns)) for i in range(len(rhs))] == list(rhs)
    return y


def test_nonnegative_solution_matches_caratheodory():
    rng = random.Random(41)
    for _ in range(40):
        rank = rng.randint(1, 3)
        gens = [
            tuple(rng.randint(-2, 2) for _ in range(rank))
            for _ in range(rng.randint(1, 5))
        ]
        assert _checked_solution(gens, (0,) * rank) is not None
        for _ in range(20):
            pt = tuple(rng.randint(-3, 3) for _ in range(rank))
            assert (_checked_solution(gens, pt) is not None) == _in_cone(pt, gens), (gens, pt)


def test_nonnegative_solution_examples():
    assert _checked_solution([], (0, 0)) == []
    assert _checked_solution([], (1, 0)) is None
    assert _checked_solution([(2,)], (-1,)) is None
    assert _checked_solution([(2,), (-3,)], (-1,)) is not None
    # the convexity row: no convex combination of (1,) and (2,) is 0
    assert _checked_solution([(1, 1), (2, 1)], (0, 1)) is None
    assert _checked_solution([(1, 1), (-2, 1)], (0, 1)) == [Fraction(2, 3), Fraction(1, 3)]


def _checked_dependence(weights):
    """Weights y >= 0 with sum 1 and sum y_w w = 0, found by the LP and
    checked by plug-back: 0 is then a convex combination of the weights,
    so their cone is not pointed."""
    return _checked_solution([(*w, 1) for w in weights], (0,) * len(weights[0]) + (1,))


def _unit_question(Sa, Sb):
    """torus_decide's answer on unit components supported on Sa and Sb;
    all ratios are 1, so only the face condition is tested."""
    weights = sorted(set(Sa) | set(Sb))
    a = [int(w in Sa) for w in weights]
    b = [int(w in Sb) for w in weights]
    return torus_decide(weights, a, b)


def test_face_test_examples():
    assert not _unit_question([(1,)], [(1,), (-1,)])  # the full line has no proper ray face
    assert _unit_question([], [(1,), (2,)])  # the origin is a face of a pointed cone
    assert _unit_question([(1,), (2,)], [(1,), (2,)])  # improper face
    assert not _unit_question([(1,)], [(1,), (2,)])  # (2,) lies on the same ray
    assert _unit_question([(1, 0)], [(1, 0), (0, 1), (1, 1)])
    assert not _unit_question([(1, 1)], [(1, 0), (0, 1), (1, 1)])


def test_face_test_zero_cone_of_line_fails():
    assert not _unit_question([], [(1,), (-1,)])  # lineality is the whole line, not the origin


def _brute_force_face(Sa, Sb, rank):
    """Search small integer functionals u valid on cone(Sb), the zero
    functional cutting the improper face, for one whose zero set on Sb
    is exactly Sa."""
    for u in itertools.product(range(-6, 7), repeat=rank):
        if any(_dot(u, s) < 0 for s in Sb):
            continue
        if {s for s in Sb if _dot(u, s) == 0} == set(Sa):
            return True
    return False


def test_face_test_against_brute_force():
    rng = random.Random(43)
    for _ in range(60):
        rank = rng.randint(1, 2)
        Sb = [
            tuple(rng.randint(-2, 2) for _ in range(rank))
            for _ in range(rng.randint(1, 3))
        ]
        if rng.random() < 0.5:
            Sa = [s for s in Sb if rng.random() < 0.5]
        else:
            Sa = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rng.randint(0, 2))]
        assert _unit_question(Sa, Sb) == _brute_force_face(Sa, Sb, rank), (Sa, Sb)


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


def test_rank_nine_identity_answers():
    # the coordinate torus of rank 9, where the orthant is the cone
    weights = [tuple(1 if i == j else 0 for i in range(9)) for j in range(9)]
    for a in ((1,) * 9, (0,) * 9):
        start = time.perf_counter()
        assert torus_decide(weights, a, (1,) * 9)
        assert time.perf_counter() - start < 1


@pytest.mark.parametrize("rank, count", [(4, 6), (3, 13), (8, 20)])
def test_wide_cones_answer_within_time_bound(rank, count):
    # seeds on which plain Fourier-Motzkin asked for 56k to 49.6M
    # combinations, and on which a facet enumeration tried C(20, 7) sets
    for seed in range(3):
        rng = random.Random(seed)
        weights = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(count)]
        start = time.perf_counter()
        got = torus_decide(weights, (0,) * count, (1,) * count)
        assert time.perf_counter() - start < 1
        # 0 lies in the orbit closure of the all-ones vector iff the cone
        # of the weights is pointed: no weight w with -w in the cone
        if rank == 8:
            # Caratheodory over 20 generators is out of reach; a checked
            # convex dependence shows that these cones are not pointed
            assert not got and _checked_dependence(weights) is not None, seed
            continue
        nonzero = [w for w in weights if any(w)]
        pointed = len(nonzero) == count and not any(
            _in_cone([-x for x in w], nonzero) for w in nonzero
        )
        assert got == pointed, (rank, count, seed)


def _random_weights(rng):
    rank = rng.randint(1, 3)
    return [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rng.randint(2, 4))]


def _torus_point(rng, weights, b, face):
    """b moved by a random torus element, with the coordinates off the
    face (face[i] False) set to zero."""
    t = [Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.randint(1, 2)) for _ in weights[0]]
    out = []
    for wt, x, keep in zip(weights, b, face):
        for ti, e in zip(t, wt):
            x *= ti**e
        out.append(x if keep else 0)
    return out


def test_torus_decide_agrees_with_elimination_on_random_weights():
    rng = random.Random(53)
    compared = inside = 0
    for _ in range(60):
        weights = _random_weights(rng)
        n = len(weights)
        b = [Fraction(rng.choice([0, 1, 1, -1, 2])) for _ in range(n)]
        if not any(b):
            continue
        equations = closure_equations(torus_diagonal(weights), SubspaceMap.point(b))
        points = [_torus_point(rng, weights, b, [True] * n)]
        for _ in range(4):
            # the limit along a one-parameter subgroup lam that is
            # nonnegative on supp(b) keeps the coordinates where it is 0
            lam = [rng.randint(-2, 2) for _ in weights[0]]
            values = [_dot(lam, wt) for wt, x in zip(weights, b) if x]
            if min(values) >= 0:
                points.append(_torus_point(rng, weights, b, [_dot(lam, wt) == 0 for wt in weights]))
        points += [[rng.choice([0, 0, 1, -1, 2]) for _ in range(n)] for _ in range(6)]
        for k, a in enumerate(points):
            got = torus_decide(weights, a, b)
            assert got == point_in_closure(equations, a), (weights, a, b)
            if k < len(points) - 6:
                assert got, (weights, a, b)
            compared += 1
            inside += got
    assert compared >= 500 and inside >= 120
