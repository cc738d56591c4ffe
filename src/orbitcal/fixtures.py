"""Bundled fixture battery shared by the test suite and the cross-check
harness: small actions whose orbit closures are quadrics or lines, with
hand-derived expected verdicts."""

from __future__ import annotations

from fractions import Fraction

from orbitcal.repmodel import RepresentationData, torus_diagonal, sl2_binary_forms, vector


class DecisionCase:
    __slots__ = ("name", "rep", "a", "b", "degree_bound", "expected_in_closure")

    def __init__(self, name, rep, a, b, degree_bound, expected_in_closure):
        self.name = name
        self.rep = rep
        self.a = vector(a)
        self.b = vector(b)
        self.degree_bound = degree_bound
        self.expected_in_closure = expected_in_closure

    def __repr__(self):
        return f"DecisionCase({self.name})"


def hyperbola_rep() -> RepresentationData:
    return torus_diagonal([(1,), (-1,)])


def parabola_rep() -> RepresentationData:
    return torus_diagonal([(1,), (2,)])


def decision_battery() -> list[DecisionCase]:
    """Conic membership instances with verdicts pinned by the defining
    quadrics of the closures:

    - scaled hyperbola orbit {(s, st, s/t)}: closure z2*z3 = z1^2,
    - scaled parabola orbit {(s, st, st^2)}: closure z2^2 = z1*z3,
    - quadratic binary forms under scaling and linear substitutions,
      base orbit of a squared linear form: closure is the cone of
      discriminant-zero quadratics.
    """
    hyp = hyperbola_rep()
    par = parabola_rep()
    sl2 = sl2_binary_forms(2)
    half = Fraction(1, 2)
    third = Fraction(1, 3)
    cases = [
        DecisionCase("hyperbola-same-point", hyp, (1, 1), (1, 1), 2, True),
        DecisionCase("hyperbola-orbit-point", hyp, (2, half), (1, 1), 2, True),
        DecisionCase("hyperbola-zero-vector", hyp, (0, 0), (1, 1), 2, False),
        DecisionCase("hyperbola-orbit-point-3", hyp, (3, third), (1, 1), 2, True),
        DecisionCase("hyperbola-off-quadric", hyp, (1, 2), (1, 1), 2, False),
        DecisionCase("parabola-zero-vector", par, (0, 0), (1, 1), 2, True),
        DecisionCase("parabola-off-closure", par, (1, 0), (1, 1), 2, False),
        DecisionCase("parabola-orbit-point", par, (4, 16), (1, 1), 2, True),
        DecisionCase("parabola-same-point", par, (1, 1), (1, 1), 2, True),
        DecisionCase("parabola-axis-point", par, (0, 1), (1, 1), 2, False),
        DecisionCase("quadratic-cross-term", sl2, (0, 1, 0), (1, 2, 1), 2, False),
        DecisionCase("quadratic-pure-square", sl2, (1, 0, 0), (1, 2, 1), 2, True),
        DecisionCase("quadratic-zero-vector", sl2, (0, 0, 0), (1, 2, 1), 2, True),
        DecisionCase("quadratic-same-point", sl2, (1, 2, 1), (1, 2, 1), 2, True),
        DecisionCase("quadratic-nondegenerate", sl2, (1, 2, 2), (1, 2, 1), 2, False),
        DecisionCase("quadratic-other-square", sl2, (1, -2, 1), (1, 2, 1), 2, True),
    ]
    return cases


class DiagonalCase:
    __slots__ = ("name", "weights", "a", "b", "expected_in_closure")

    def __init__(self, name, weights, a, b, expected_in_closure):
        self.name = name
        self.weights = [tuple(w) for w in weights]
        self.a = vector(a)
        self.b = vector(b)
        self.expected_in_closure = expected_in_closure

    def __repr__(self):
        return f"DiagonalCase({self.name})"


def diagonal_battery() -> list[DiagonalCase]:
    """Raw (non-conified) diagonal instances for the torus criterion,
    including the rank-1 instance where the orbit of (1,1) under the
    weights (1,2) does not degenerate onto (1,0)."""
    half = Fraction(1, 2)
    quad = [(1, 0), (0, 1), (1, 1)]  # closure of the (1,1,1)-orbit: z3 = z1*z2
    return [
        DiagonalCase("parabola-origin", [(1,), (2,)], (0, 0), (1, 1), True),
        DiagonalCase("parabola-partial-support", [(1,), (2,)], (1, 0), (1, 1), False),
        DiagonalCase("parabola-orbit-point", [(1,), (2,)], (3, 9), (1, 1), True),
        DiagonalCase("parabola-off-curve", [(1,), (2,)], (2, 5), (1, 1), False),
        DiagonalCase("hyperbola-orbit-point", [(1,), (-1,)], (2, half), (1, 1), True),
        DiagonalCase("hyperbola-origin", [(1,), (-1,)], (0, 0), (1, 1), False),
        DiagonalCase("hyperbola-partial-support", [(1,), (-1,)], (1, 0), (1, 1), False),
        DiagonalCase("multiplicity-aggregate", [(1,), (1,), (2,)], (2, -2, 4), (1, -1, 1), True),
        DiagonalCase("multiplicity-broken-ratio", [(1,), (1,), (2,)], (2, -1, 4), (1, -1, 1), False),
        DiagonalCase("rank2-surface-point", quad, (2, 3, 6), (1, 1, 1), True),
        DiagonalCase("rank2-face-point", quad, (1, 0, 0), (1, 1, 1), True),
        DiagonalCase("rank2-off-surface", quad, (1, 1, 2), (1, 1, 1), False),
        DiagonalCase("rank2-origin", quad, (0, 0, 0), (1, 1, 1), True),
        DiagonalCase("fixed-component", [(0,), (1,)], (2, 0), (2, 1), True),
        DiagonalCase("fixed-component-mismatch", [(0,), (1,)], (1, 0), (2, 1), False),
    ]
