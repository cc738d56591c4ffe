import random
from fractions import Fraction

import pytest

from orbitcal.polyring import (
    Ambient,
    evaluate_terms,
    format_terms,
    monomial_images,
    parse_terms,
    substitute,
)
from orbitcal.repmodel import combine

AMB = Ambient(1, 2)


def P(text):
    return AMB.parse(text)


def _product(factors, q):
    """prod_i factors[i]**q[i], multiplied by monomial_images."""
    image, decode = monomial_images(factors, AMB.nvars, sum(q))
    return {decode(key): c for key, c in image(q).items()}


def _plus(p, q):
    """p + q, coefficient by coefficient."""
    return AMB.check({e: p.get(e, 0) + q.get(e, 0) for e in p | q})


def test_unit_times_inverse():
    assert _product([P("x1^-1"), P("x1")], (1, 1)) == P("1")


def test_binomial_square():
    assert _product([P("1 + 2*x1^-2*x2*x3")], (2,)) == P("1 + 4*x1^-2*x2*x3 + 4*x1^-4*x2^2*x3^2")
    assert _product([P("1 + x1^-2*x2*x3")], (2,)) == P("1 + 2*x1^-2*x2*x3 + x1^-4*x2^2*x3^2")


def test_additive_identity():
    # the sums of coordinate_pullbacks and of decide's scramble
    p = P("3/4*x1^2 - x2")
    assert combine([p, {}], (1, 1)) == p
    assert combine([p, P("x2")], (1, 0)) == p
    assert combine([p, p], (1, -1)) == {}


def test_ambient_mismatch_rejected():
    # substitute's values must all have the exponent width it is given,
    # and its polynomial one nonnegative exponent entry per value
    other = Ambient(2, 2)
    poly = Ambient(0, 2, names=("u1", "u2")).parse("u1*u2")
    with pytest.raises(ValueError):
        substitute(poly, [P("x1"), other.parse("x1")], AMB.nvars)
    with pytest.raises(ValueError):
        substitute(poly, [P("x1")], AMB.nvars)
    with pytest.raises(ValueError):
        substitute({(-1, 0): 1}, [P("x1"), P("x2")], AMB.nvars)


def test_sign_restriction_enforced():
    # Ambient.check itself; tests/test_repmodel.py checks that the places
    # where polynomials enter call it
    with pytest.raises(ValueError):
        AMB.check({(0, -1, 0): Fraction(1)})
    with pytest.raises(ValueError):
        AMB.check({(1, 0): Fraction(1)})
    # invertible position may go negative
    assert AMB.check({(-3, 0, 0): 2, (1, 1, 1): 0}) == {(-3, 0, 0): Fraction(2)}


def _random_poly(rng, ambient, nterms=4):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        exp = tuple(
            rng.randint(-3, 3) if k < ambient.r else rng.randint(0, 3)
            for k in range(ambient.nvars)
        )
        terms[exp] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return ambient.check(terms)


def test_ring_axioms_on_random_triples():
    rng = random.Random(5)
    for _ in range(40):
        a, b, c = (_random_poly(rng, AMB) for _ in range(3))
        ab = _product([a, b], (1, 1))
        assert ab == _product([b, a], (1, 1))
        assert _product([ab, c], (1, 1)) == _product([a, _product([b, c], (1, 1))], (1, 1))
        assert _product([ab, c], (1, 1)) == _product([a, b, c], (1, 1, 1))
        assert _product([a, _plus(b, c)], (1, 1)) == _plus(ab, _product([a, c], (1, 1)))
        assert _product([a], (3,)) == _product([a, a, a], (1, 1, 1))


def _random_point(rng, ambient):
    pt = []
    for k in range(ambient.nvars):
        if k < ambient.r:
            pt.append(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)))
        else:
            pt.append(Fraction(rng.randint(-3, 3)))
    return pt


def test_evaluate_examples():
    assert evaluate_terms(P("1 + 2*x1^-2*x2*x3"), [Fraction(1)] * 3) == 3
    amb1 = Ambient(1, 0)
    assert evaluate_terms(amb1.parse("x1^-1"), [Fraction(2)]) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        evaluate_terms(amb1.parse("x1^-1"), [Fraction(0)])


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(9)
    for _ in range(30):
        p, q = _random_poly(rng, AMB), _random_poly(rng, AMB)
        at = _random_point(rng, AMB)
        p_at, q_at = evaluate_terms(p, at), evaluate_terms(q, at)
        assert evaluate_terms(_product([p, q], (1, 1)), at) == p_at * q_at
        assert evaluate_terms(_product([p, q], (2, 1)), at) == p_at**2 * q_at
        assert evaluate_terms(_plus(p, q), at) == p_at + q_at


def test_canonical_equality_is_term_map_identity():
    assert P("x1 + x2") == P("x2 + x1")
    assert P("2*x1 - x1") == P("x1")
    assert P("x1 - x1") == P("0")


def test_parse_format_round_trip():
    rng = random.Random(13)
    for _ in range(30):
        p = _random_poly(rng, AMB)
        assert P(format_terms(p, AMB.names)) == p


def test_parse_whitespace_and_rationals():
    assert P("1+2*x1^-2*x2*x3") == P(" 1 + 2 * x1 ^ -2 * x2 * x3 ")
    assert P("1/2*x1") == {(1, 0, 0): Fraction(1, 2)}
    assert P("-x1 + 3/4") == {(1, 0, 0): Fraction(-1), (0, 0, 0): Fraction(3, 4)}
    with pytest.raises(ValueError):
        P("x9")
    with pytest.raises(ValueError):
        P("")


def test_print_storage_order():
    assert format_terms(P("1 + 2*x1^-2*x2*x3"), AMB.names) == "1 + 2*x1^-2*x2*x3"
    assert format_terms(P("x1^-1*x3 + x1"), AMB.names) == "x1 + x1^-1*x3"
    assert format_terms(parse_terms("y2 - y1^2", ("y1", "y2")), ("y1", "y2")) == "-y1^2 + y2"


def test_substitute_composition():
    lam = Ambient(0, 2, names=("l1", "l2"))
    poly = Ambient(0, 2, names=("u1", "u2")).parse("u1^2*u2")
    vals = [lam.parse("l1 + l2"), lam.parse("l1")]
    assert substitute(poly, vals, lam.nvars) == lam.parse(
        "l1^3 + 2*l1^2*l2 + l1*l2^2"
    )


