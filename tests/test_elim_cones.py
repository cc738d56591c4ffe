"""Conified binary-form orbits whose eliminations need the sugar strategy
to close at the default pair budget: the cubic z1^2 z2, the quintic z1^5
and the quartic z1^3 z2.

Each equation set is checked the way the benchmark checks a closure:
every equation vanishes at scaled orbit points (s, s*v), where v is the
coefficient vector of a form with the cone's root pattern, and the
equations do not all vanish at a form with distinct roots."""

from fractions import Fraction

import pytest

from orbitcal.elim import DEFAULT_MAX_PAIRS, SubspaceMap, closure_equations, evaluate_equation
from orbitcal.repmodel import make_conic, sl2_binary_forms

# linear forms p*z1 + q*z2, pairwise independent, and scales s
LINEAR_FORMS = ((1, 0), (0, 1), (1, 1), (2, -3), (-1, 4), (3, 5))
SCALES = (1, -2, Fraction(1, 3))


def _coefficients(factors):
    """Coefficients of the product of the (p, q, multiplicity) factors in
    the basis z1^h, z1^(h-1) z2, ..., z2^h."""
    coefs = [Fraction(1)]
    for p, q, mult in factors:
        for _ in range(mult):
            out = [Fraction(0)] * (len(coefs) + 1)
            for k, c in enumerate(coefs):
                out[k] += p * c
                out[k + 1] += q * c
            coefs = out
    return coefs


def _cone_points(multiplicities):
    """Scaled points (s, s*v) of forms whose distinct roots have the given
    multiplicities."""
    points = []
    for shift in range(len(LINEAR_FORMS)):
        forms = [LINEAR_FORMS[(shift + k) % len(LINEAR_FORMS)] for k in range(len(multiplicities))]
        v = _coefficients([(p, q, m) for (p, q), m in zip(forms, multiplicities)])
        points.extend((Fraction(s),) + tuple(s * c for c in v) for s in SCALES)
    return points


@pytest.mark.parametrize(
    "multiplicities, degrees",
    [
        ((2, 1), [4]),  # the discriminant of the binary cubic
        ((5,), [2] * 10),  # the cone over the rational normal quintic
        ((3, 1), [2, 3, 4]),
    ],
    ids=["cubic-z1^2z2", "quintic-z1^5", "quartic-z1^3z2"],
)
def test_cone_closes_at_default_budget(multiplicities, degrees):
    h = sum(multiplicities)
    base = _coefficients([(1, 0, multiplicities[0])] + [(0, 1, m) for m in multiplicities[1:]])
    rep2, _, b2 = make_conic(sl2_binary_forms(h), (0,) * (h + 1), base)
    equations = closure_equations(rep2, SubspaceMap.point(b2), max_pairs=DEFAULT_MAX_PAIRS)
    assert sorted(max(map(sum, q)) for q in equations) == degrees

    for point in _cone_points(multiplicities):
        assert all(evaluate_equation(q, point) == 0 for q in equations), point
    # distinct roots 0, -1, ..., -(h-1): the product of z1 + k*z2
    distinct = (Fraction(1),) + tuple(_coefficients([(1, k, 1) for k in range(h)]))
    assert any(evaluate_equation(q, distinct) for q in equations)
