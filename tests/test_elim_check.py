"""elim._vanish_on, the check f(psi) = 0 behind every returned equation,
sums in integers: with D the lcm of the images' denominators it expands
f on D*psi, each term scaled by L*D^(deg f - |e|).  It must agree with
the sum over Fractions in tests/support.py on images with denominators
and negative exponents, for equations that vanish on them and for the
same equations perturbed."""

from fractions import Fraction

import pytest

from orbitcal.elim import _vanish_on
from support import convolve, vanish_on_fractions

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

RATIONALS = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 6))


def _laurent(nvars):
    exps = st.tuples(*[st.integers(-2, 2)] * nvars)
    return st.dictionaries(exps, RATIONALS, min_size=1, max_size=3)


def _add(*terms):
    out = {}
    for poly in terms:
        for e, c in poly.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


@st.composite
def _questions(draw):
    """Images psi1, psi2 and psi3 = a*psi1*psi2 + b*psi1^2 + c*psi2, and
    equations h*(z3 - a*z1*z2 - b*z1^2 - c*z2) that vanish on them, each
    h a random polynomial in z, with one of them perturbed or not."""
    nvars = draw(st.integers(1, 2))
    psi1, psi2 = draw(_laurent(nvars)), draw(_laurent(nvars))
    a, b, c = (draw(RATIONALS) for _ in range(3))
    psi3 = _add(
        {e: a * v for e, v in convolve(psi1, psi2).items()},
        {e: b * v for e, v in convolve(psi1, psi1).items()},
        {e: c * v for e, v in psi2.items()},
    )
    relation = {(0, 0, 1): Fraction(1), (1, 1, 0): -a, (2, 0, 0): -b, (0, 1, 0): -c}
    zexp = st.tuples(*[st.integers(0, 2)] * 3)
    equations = []
    for _ in range(draw(st.integers(1, 3))):
        h = draw(st.dictionaries(zexp, RATIONALS, min_size=1, max_size=3))
        equations.append(convolve(relation, h))
    perturbed = draw(st.booleans())
    if perturbed:
        k = draw(st.integers(0, len(equations) - 1))
        equations[k] = _add(equations[k], {draw(zexp): draw(RATIONALS)})
    return equations, [psi1, psi2, psi3], nvars, perturbed


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
@hypothesis.given(_questions())
def test_integer_check_matches_fractions(question):
    equations, images, nvars, perturbed = question
    expected = vanish_on_fractions(equations, images, nvars)
    assert _vanish_on(equations, images, nvars) == expected
    if not perturbed:
        assert expected


def test_perturbed_equation_fails_both_checks():
    # psi = (x/2, 3/x) and z1*z2 - 3/2 vanishes on it; a constant term
    # or a scaled coefficient breaks it
    images = [{(1,): Fraction(1, 2)}, {(-1,): Fraction(3)}]
    good = {(1, 1): Fraction(1), (0, 0): Fraction(-3, 2)}
    assert _vanish_on([good], images, 1) and vanish_on_fractions([good], images, 1)
    for bad in ({(1, 1): Fraction(1), (0, 0): Fraction(-3, 4)}, {(1, 1): Fraction(2, 3), (0, 0): Fraction(-3, 2)}):
        assert not _vanish_on([good, bad], images, 1)
        assert not vanish_on_fractions([good, bad], images, 1)
    assert _vanish_on([], images, 1)
