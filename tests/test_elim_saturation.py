"""closure_equations saturates by the parameters that psi inverts, not by
every invertible one: with S the invertible x_k that some clearing
monomial x^m_p contains, the ring carries 1 - t*x^S, or no t at all when
S is empty.  Before that it substitutes out every parameter x_k that a
coordinate's image equals up to a nonzero scalar, psi_p = c*x_k: x_k
becomes z_p/c in the other generators, 1 - t*x^S included, and p's
generator is dropped, and its blocks are x_N | t, x_S | y | z: the
group parameters outside S, then t and those in S in one grevlex block.
None of this changes the ideal in Q[z] or its reduced basis, so over
Z/p the z-only elements must equal those of the unsubstituted
saturation by x1*...*xr under t | x | y | z in the natural x order,
which tests/support.py computes independently."""

import logging
from contextlib import contextmanager
from fractions import Fraction
from math import comb

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


def _taken(rep, tau):
    """Per parameter k that some psi_p equals up to a scalar, c*x_k: the
    first such coordinate p and c."""
    taken = {}
    for p, image in enumerate(joined_images(rep, tau)):
        if len(image) == 1:
            ((e, c),) = image.items()
            support = [k for k, a in enumerate(e) if a]
            if len(support) == 1 and e[support[0]] == 1:
                taken.setdefault(support[0], (p, c))
    return taken


def _check(rep, tau):
    """closure_equations agrees mod RANK_PRIME with the saturation by
    x1*...*xr; no generator has a substituted parameter, the ring has t
    exactly when psi inverts a parameter, saturated by 1 - t*x^S with
    each substituted x_k replaced by z_p/c, and its blocks are x_N, then
    t and x_S, then y and z, an empty block dropped.  Returns S."""
    with _spy_buchberger() as calls:
        equations = closure_equations(rep, tau)
    assert [residues(q, RANK_PRIME) for q in equations] == saturated_by_all(rep, tau, RANK_PRIME)

    inverted, taken = _inverted(rep, tau), _taken(rep, tau)
    if len(taken) == rep.n:  # every generator substituted away
        assert calls == [] and equations == []
        return inverted
    generators, ring = calls[0]
    params = rep.ambient.names + tau.ambient.names
    assert ring.names == ("t",) * bool(inverted) + params + tuple(f"z{i + 1}" for i in range(rep.n))
    # x_N, then t and x_S, each in index order, then y and z
    t, group, z = int(bool(inverted)), rep.ambient.nvars, len(ring.names) - rep.n
    blocks = (
        tuple(k + t for k in range(group) if k not in inverted),
        (0,) * t + tuple(k + t for k in sorted(inverted)),
        tuple(range(t + group, z)),
        tuple(range(z, len(ring.names))),
    )
    assert ring.blocks == tuple(b for b in blocks if b)
    assert len(generators) == rep.n - len(taken) + bool(inverted)
    assert not any(e[k + bool(inverted)] for g in generators for e in g for k in taken)
    if inverted:
        exp = [1] + [int(k in inverted and k not in taken) for k in range(len(params))] + [0] * rep.n
        coef = Fraction(-1)
        for k in inverted & taken.keys():
            p, c = taken[k]
            exp[1 + len(params) + p] += 1
            coef /= c
        assert generators[-1] == {(0,) * len(exp): Fraction(1), tuple(exp): coef}
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
        # psi_1 = 2*x1 and psi_2 = -1/3*x2 are substituted with c != 1
        (lambda: (torus_diagonal([(1, 0), (0, 1), (1, 1)]), SubspaceMap.point((2, Fraction(-1, 3), 5))), set()),
        (lambda: (torus_diagonal([(1, 0), (0, 1), (1, -2)]), SubspaceMap.point((2, Fraction(-1, 3), 5))), {1}),
        # psi_1 = 3*x1, and x1 is inverted: 1 - t*x1 becomes 1 - t*z1/3
        (lambda: (torus_diagonal([(1,), (-1,)]), SubspaceMap.point((3, 1))), {0}),
        # psi_1 = y1 in a swept line: y1 becomes z1
        (lambda: (torus_diagonal([(0,), (1,), (2,)]), SubspaceMap(1, ["y1", "y1", "y1"])), set()),
        # psi = (c*x1): no generator is left and the closure is the line
        (lambda: (torus_diagonal([(1,)]), SubspaceMap.point((Fraction(-2, 3),))), set()),
        # conified sl2: its inverted parameter, x2 here, goes after the
        # scaling x1 and after x3, x4
        (lambda: _conified(sl2_binary_forms(4), (1, 0, 0, 0, 0)), {1}),
        # raw sl2: x1 goes after x2 and x3
        (lambda: (sl2_binary_forms(3), SubspaceMap.point((1, 3, 3, 1))), {0}),
    ],
    ids=[
        "cubic-cone", "conified-hyperbola", "curve-cone-3", "swept-sl2-line",
        "torus-scaled", "torus-scaled-inverted", "hyperbola-inverted", "swept-line-y1", "scaled-line",
        "quartic-cone", "raw-cubic-power",
    ],
)
def test_saturation_by_inverted_parameters_matches_all(question, inverted):
    assert _check(*question()) == inverted


@pytest.mark.parametrize(
    "question, blocks, layout",
    [
        # S empty: x | y | z, no t
        (
            lambda: (torus_diagonal([(0,), (1,), (2,)]), SubspaceMap(1, ["y1", "y1", "y1"])),
            ((0,), (1,), (2, 3, 4)),
            "x1 | y1 | z1..z3",
        ),
        # x_N empty: t and x_S come first
        (lambda: (torus_diagonal([(1,), (-1,)]), SubspaceMap.point((3, 1))), ((0, 1), (2, 3)), "t,x1 | z1,z2"),
        # conified sl2: the scaling x1 and x3, x4, then t and the inverted x2
        (
            lambda: _conified(sl2_binary_forms(3), (1, 0, 0, 0)),
            ((1, 3, 4), (0, 2), (5, 6, 7, 8, 9)),
            "x1,x3,x4 | t,x2 | z1..z5",
        ),
    ],
    ids=["no-t", "no-x_N", "cubic-cone"],
)
def test_block_layout(question, blocks, layout, caplog):
    rep, tau = question()
    with _spy_buchberger() as calls, caplog.at_level(logging.DEBUG, logger="orbitcal.elim"):
        closure_equations(rep, tau)
    assert calls[0][1].blocks == blocks
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("closure_equations:")]
    assert f", blocks {layout}, coefficients up to " in line


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


@st.composite
def _sl2_questions(draw):
    """A nonzero quadratic form, or a cubic or quartic power of a linear
    form: the generic raw cubic takes minutes to eliminate."""
    h = draw(st.integers(2, 4))
    if h == 2:
        b = tuple(draw(st.lists(st.integers(-2, 2), min_size=3, max_size=3)))
        hypothesis.assume(any(b))
    else:
        p, q = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        hypothesis.assume(p or q)
        scale = draw(st.sampled_from([1, -1, 2]))
        b = tuple(scale * comb(h, i) * p ** (h - i) * q**i for i in range(h + 1))
    rep = sl2_binary_forms(h)
    return _conified(rep, b) if draw(st.booleans()) else (rep, SubspaceMap.point(b))


@hypothesis.settings(max_examples=15, deadline=None, derandomize=True, database=None)
@hypothesis.given(_sl2_questions())
def test_sl2_saturation_matches_all(question):
    _check(*question)
