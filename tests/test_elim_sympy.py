"""Differential checks of buchberger and normal_form against sympy.

With one variable per block the block order is lex, and with a single
block it is grevlex.  The reduced monic basis of an ideal is unique in
either order, so both must agree term for term; so must the remainder
of division by a Groebner basis.  elim computes both over Z/p; the
buchberger and normal_form below lift its results to Q over several
primes, so the comparisons with sympy stay exact over Q."""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from orbitcal import elim  # noqa: E402
from orbitcal.elim import OrderedRing  # noqa: E402
from support import lift, reducers, residues  # noqa: E402


def buchberger(gens, ring):
    """elim.buchberger's reduced basis, lifted from Z/p to Q."""
    return lift(lambda p: elim.buchberger(gens, ring, p))


def normal_form(poly, basis, ring):
    """elim.normal_form's remainder on rational input, lifted from Z/p to Q."""
    return lift(lambda p: [elim.normal_form(residues(poly, p), reducers([residues(g, p) for g in basis]), ring, p)])[0]


def _poly(n):
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) <= 3)
    coefs = st.integers(-3, 3).filter(bool)
    return st.dictionaries(exps, coefs, min_size=1, max_size=4)


@st.composite
def _ideals(draw):
    n = draw(st.integers(2, 3))
    return n, draw(st.lists(_poly(n), min_size=1, max_size=3))


def _lex(n):
    names = [f"x{i}" for i in range(n)]
    return OrderedRing(names, [(i,) for i in range(n)]), sympy.symbols(names)


def _expr(poly, xs):
    return sum(c * sympy.prod(x**k for x, k in zip(xs, e)) for e, c in poly.items())


def _terms(expr, xs):
    return {tuple(e): Fraction(int(c.p), int(c.q)) for e, c in sympy.Poly(expr, *xs).terms() if c}


def _monic_dict(terms):
    lc = terms[max(terms)]  # lex order is tuple order on exponents
    return {e: c / lc for e, c in terms.items()}


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(_ideals())
def test_lex_basis_matches_sympy(ideal):
    n, gens = ideal
    lex, xs = _lex(n)
    ours = sorted((dict(g) for g in buchberger(gens, lex)), key=max)

    exprs = [_expr(g, xs) for g in gens]
    reference = sympy.groebner(exprs, *xs, order="lex", domain="QQ")
    theirs = sorted(
        (_monic_dict(_terms(g, xs)) for g in reference.exprs), key=max
    )
    assert ours == theirs


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(_ideals())
def test_grevlex_basis_matches_sympy(ideal):
    n, gens = ideal
    names = [f"x{i}" for i in range(n)]
    grevlex, xs = OrderedRing(names, [tuple(range(n))]), sympy.symbols(names)
    ours = [dict(g) for g in buchberger(gens, grevlex)]

    def lead(terms):  # int order of packed monomials is the ring's order
        return max(map(grevlex.pack, terms))

    def monic(terms):
        lc = terms[grevlex.unpack(lead(terms))]
        return {e: c / lc for e, c in terms.items()}

    exprs = [_expr(g, xs) for g in gens]
    reference = sympy.groebner(exprs, *xs, order="grevlex", domain="QQ")
    theirs = sorted((monic(_terms(g, xs)) for g in reference.exprs), key=lead)
    assert ours == theirs


@st.composite
def _ideal_and_poly(draw):
    n, gens = draw(_ideals())
    return n, gens, draw(_poly(n))


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(_ideal_and_poly())
def test_normal_form_matches_sympy_reduced(case):
    # the remainder on division by a Groebner basis does not depend on
    # the order of the divisors, so sympy's must equal ours
    n, gens, f = case
    lex, xs = _lex(n)
    basis = buchberger(gens, lex)
    f = {e: Fraction(c) for e, c in f.items()}
    # normal_form works on packed monomials
    packed = [{lex.pack(e): c for e, c in g.items()} for g in basis]
    ours = normal_form({lex.pack(e): c for e, c in f.items()}, packed, lex)
    ours = {lex.unpack(e): c for e, c in ours.items()}
    _, remainder = sympy.reduced(
        _expr(f, xs), [_expr(g, xs) for g in basis], *xs, order="lex", domain="QQ"
    )
    assert ours == _terms(remainder, xs)
