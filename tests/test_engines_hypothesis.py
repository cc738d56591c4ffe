"""decide, the paper's system and elimination agree on small random
questions (derandomized hypothesis), and so does the torus criterion on
diagonal representations.

Each question is conified and asked at the largest degree of elim's
closure equations.  Those cut the closure out, so every point off it
violates one of degree <= d, which the evaluation system (equations of
degree <= d) and the paper's (degree <= 2d - 1) both hold: at that
bound each engine answers exactly."""

from fractions import Fraction
from math import comb

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from orbitcal import repmodel, torusoracle  # noqa: E402
from orbitcal.decider import DecisionProblem, decide, paper_decide  # noqa: E402
from orbitcal.elim import SubspaceMap, closure_equations, point_in_closure  # noqa: E402
from support import act  # noqa: E402

_settings = hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
_small = st.integers(-2, 2)
_units = st.sampled_from([Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(2)])


def _verdicts(rep, a, b):
    """The verdicts of decide, paper_decide and elim on the conified
    question, at the largest degree of elim's equations, and the conified
    representation and points."""
    rep2, a2, b2 = repmodel.make_conic(rep, a, b)
    equations = closure_equations(rep2, SubspaceMap.point(b2))
    d = max((sum(e) for q in equations for e in q), default=1)
    problem = DecisionProblem(rep2, a2, b2, degree_bound_override=d, conic_asserted=True)
    verdicts = [decide(problem).in_closure, paper_decide(problem).in_closure, point_in_closure(equations, a2)]
    return verdicts, rep2, a2, b2


@st.composite
def _targets(draw, rep, b):
    """a: a random vector, a point of the orbit of b, or such a point
    with some coordinates set to zero (often a limit point)."""
    kind = draw(st.sampled_from(["random", "orbit", "limit"]))
    if kind == "random":
        return tuple(draw(st.lists(_small, min_size=rep.n, max_size=rep.n)))
    point = draw(st.lists(_units, min_size=rep.ambient.nvars, max_size=rep.ambient.nvars))
    a = act(rep, point, b)
    if kind == "limit":
        keep = draw(st.lists(st.booleans(), min_size=rep.n, max_size=rep.n))
        a = tuple(x if k else 0 for x, k in zip(a, keep))
    return a


@st.composite
def _diagonal_questions(draw):
    n = draw(st.integers(2, 3))
    rank = draw(st.integers(1, 2))
    weights = [tuple(draw(st.lists(st.integers(-1, 2), min_size=rank, max_size=rank))) for _ in range(n)]
    rep = repmodel.torus_diagonal(weights)
    b = tuple(draw(st.lists(st.sampled_from([-2, -1, 0, 1, 2]), min_size=n, max_size=n).filter(any)))
    return weights, rep, draw(_targets(rep, b)), b


@_settings
@hypothesis.given(_diagonal_questions())
def test_engines_agree_on_diagonal_representations(question):
    weights, rep, a, b = question
    verdicts, rep2, a2, b2 = _verdicts(rep, a, b)
    verdicts.append(torusoracle.torus_decide(repmodel.diagonal_weights(rep2), a2, b2))
    assert len(set(verdicts)) == 1, (weights, a, b, verdicts)


@st.composite
def _sl2_questions(draw):
    """Binary forms of degree h = 2, 3 around a power of a linear form,
    or for h = 2 around any nonzero form.  (Linear forms have a dense
    conified orbit.)"""
    h = draw(st.integers(2, 3))
    rep = repmodel.sl2_binary_forms(h)
    if h == 2 and draw(st.booleans()):
        b = tuple(draw(st.lists(_small, min_size=h + 1, max_size=h + 1).filter(any)))
    else:
        p, q = draw(st.tuples(_small, _small).filter(any))
        b = tuple(comb(h, i) * p ** (h - i) * q**i for i in range(h + 1))
    return h, rep, draw(_targets(rep, b)), b


@_settings
@hypothesis.given(_sl2_questions())
def test_engines_agree_on_binary_forms(question):
    h, rep, a, b = question
    verdicts, _, _, _ = _verdicts(rep, a, b)
    assert len(set(verdicts)) == 1, (h, a, b, verdicts)
