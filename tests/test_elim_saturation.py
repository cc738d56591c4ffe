"""closure_equations saturates by the parameters that psi inverts, not by
every invertible one: with S the invertible x_k that some clearing
monomial x^m_p contains, the ring carries 1 - t*x^S, or no t at all when
S is empty.  The saturated ideal is the same either way, so over Z/p the
z-only elements must equal those of the saturation by x1*...*xr, which
tests/support.py computes independently."""

from contextlib import contextmanager
from fractions import Fraction

import pytest

from orbitcal import elim
from orbitcal.elim import SubspaceMap, closure_equations
from orbitcal.exactmath import RANK_PRIME
from orbitcal.repmodel import make_conic, sl2_binary_forms, torus_diagonal
from support import joined_images, residues, saturated_by_all

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@contextmanager
def _spy_buchberger():
    """Record the generators and the ring of every buchberger run."""
    calls = []
    real = elim.buchberger

    def spy(generators, ring, p, **kwargs):
        calls.append((generators, ring))
        return real(generators, ring, p, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elim, "buchberger", spy)
        yield calls


def _inverted(rep, tau):
    """The invertible parameters k < r with a negative exponent in psi."""
    return {k for image in joined_images(rep, tau) for e in image for k in range(rep.r) if e[k] < 0}


def _check(rep, tau):
    """closure_equations agrees mod RANK_PRIME with the saturation by
    x1*...*xr, and its ring has t exactly when psi inverts a parameter,
    saturated by 1 - t*x^S.  Returns S."""
    with _spy_buchberger() as calls:
        equations = closure_equations(rep, tau)
    assert [residues(q, RANK_PRIME) for q in equations] == saturated_by_all(rep, tau, RANK_PRIME)

    inverted = _inverted(rep, tau)
    generators, ring = calls[0]
    width = len(ring.names)
    assert ring.names[0] == "t" if inverted else "t" not in ring.names
    assert len(generators) == rep.n + bool(inverted)
    if inverted:
        assert ring.blocks[0] == (0,)
        x_s = tuple(int(k in inverted) for k in range(rep.r))
        assert generators[-1] == {
            (0,) * width: Fraction(1),
            (1,) + x_s + (0,) * (width - 1 - rep.r): Fraction(-1),
        }
    return inverted


def _conified(rep, b):
    rep2, _, b2 = make_conic(rep, (0,) * rep.n, b)
    return rep2, SubspaceMap.point(b2)


@pytest.mark.parametrize(
    "question, inverted",
    [
        # the scaling x1 enters with nonnegative exponents, sl2's x1 does not
        (lambda: _conified(sl2_binary_forms(3), (1, 0, 0, 0)), {1}),
        (lambda: _conified(torus_diagonal([(1,), (-1,)]), (1, 1)), {1}),
        # the monomial-curve cone k = 3: psi is polynomial, no t
        (lambda: _conified(torus_diagonal([(1,), (3,)]), (1, 1)), set()),
        # a swept sl2 h = 2 line: x1 is the only invertible parameter
        (lambda: (sl2_binary_forms(2), SubspaceMap(1, ["y1", "1", "0"])), {0}),
    ],
    ids=["cubic-cone", "conified-hyperbola", "curve-cone-3", "swept-sl2-line"],
)
def test_saturation_by_inverted_parameters_matches_all(question, inverted):
    assert _check(*question()) == inverted


@st.composite
def _torus_questions(draw):
    n = draw(st.integers(1, 3))
    r = draw(st.integers(1, 2))
    weights = [tuple(draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))) for _ in range(n)]
    b = tuple(draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n)))
    hypothesis.assume(any(b))
    rep = torus_diagonal(weights)
    return _conified(rep, b) if draw(st.booleans()) else (rep, SubspaceMap.point(b))


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
@hypothesis.given(_torus_questions())
def test_torus_saturation_matches_all(question):
    _check(*question)
