"""Differential check of buchberger against sympy's Groebner bases.

With one variable per block the block order is lex, and the reduced
monic basis of an ideal is unique, so both must agree term for term."""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from orbitcal.elim import OrderedRing, buchberger  # noqa: E402


def _poly(n):
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) <= 3)
    coefs = st.integers(-3, 3).filter(bool)
    return st.dictionaries(exps, coefs, min_size=1, max_size=4)


@st.composite
def _ideals(draw):
    n = draw(st.integers(2, 3))
    return n, draw(st.lists(_poly(n), min_size=1, max_size=3))


def _monic_dict(terms):
    terms = {tuple(e): Fraction(int(c.p), int(c.q)) for e, c in terms}
    lc = terms[max(terms)]  # lex order is tuple order on exponents
    return {e: c / lc for e, c in terms.items()}


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(_ideals())
def test_lex_basis_matches_sympy(ideal):
    n, gens = ideal
    names = [f"x{i}" for i in range(n)]
    lex = OrderedRing(names, [(i,) for i in range(n)])
    ours = sorted((dict(g) for g in buchberger(gens, lex)), key=max)

    xs = sympy.symbols(names)
    exprs = [
        sum(c * sympy.prod(x**k for x, k in zip(xs, e)) for e, c in g.items())
        for g in gens
    ]
    reference = sympy.groebner(exprs, *xs, order="lex", domain="QQ")
    theirs = sorted(
        (_monic_dict(sympy.Poly(g, *xs).terms()) for g in reference.exprs), key=max
    )
    assert ours == theirs
