"""Differential check of the modular orbit dimension against sympy.

orbit_dimension specializes the Jacobian of the coordinate pullbacks at
one point mod a prime; here it must equal the rank of the symbolic
Jacobian over the rational function field, and in particular never
exceed it, on binary forms of degree 1-4 with bases that have zero
coordinates, on conified diagonal tori of rank 1-3, and on orbit points
g.b of both."""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from sympy.polys.matrices import DomainMatrix  # noqa: E402

from orbitcal.repmodel import (  # noqa: E402
    coordinate_pullbacks,
    make_conic,
    orbit_dimension,
    sl2_binary_forms,
    torus_diagonal,
)
from support import act  # noqa: E402

_units = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3))
_entries = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))


@st.composite
def _cases(draw):
    if draw(st.booleans()):
        rep = sl2_binary_forms(draw(st.integers(1, 4)))
        b = [draw(_entries) for _ in range(rep.n)]
        b[draw(st.integers(0, rep.n - 1))] = 0
    else:
        rank = draw(st.integers(1, 3))
        n = draw(st.integers(1, 4))
        weights = [tuple(draw(st.integers(-2, 2)) for _ in range(rank)) for _ in range(n)]
        b = [draw(_entries) for _ in range(n)]
        rep, _, b = make_conic(torus_diagonal(weights), [0] * n, b)
    if draw(st.booleans()):
        point = [draw(_units) for _ in range(rep.r)] + [
            Fraction(draw(st.integers(-3, 3))) for _ in range(rep.s)
        ]
        b = act(rep, point, b)
    return rep, b, draw(st.integers(0, 2**32))


def _symbolic_rank(pullbacks, nvars):
    xs = sympy.symbols(f"x1:{nvars + 1}")
    psi = [
        sum(
            (
                sympy.Rational(c.numerator, c.denominator) * sympy.prod(x**e for x, e in zip(xs, exp))
                for exp, c in p.items()
            ),
            sympy.Integer(0),
        )
        for p in pullbacks
    ]
    return DomainMatrix.from_Matrix(sympy.Matrix(psi).jacobian(xs)).rank()


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.given(_cases())
def test_orbit_dimension_matches_symbolic_jacobian_rank(case):
    rep, b, seed = case
    pullbacks = coordinate_pullbacks(rep, b)
    expected = _symbolic_rank(pullbacks, rep.ambient.nvars)
    got = orbit_dimension(pullbacks, rep.ambient.nvars, seed=seed)
    assert got <= expected, (rep.label, b)
    assert got == expected, (rep.label, b)
