import random
from fractions import Fraction

import pytest

from orbitcal.polyring import (
    Ambient,
    LaurentPoly,
    format_terms,
    parse_terms,
    substitute,
)

AMB = Ambient(1, 2)


def P(text):
    return LaurentPoly.parse(text, AMB)


def test_unit_times_inverse():
    assert P("x1^-1") * P("x1") == LaurentPoly.const(AMB, 1)


def test_binomial_square():
    assert P("1 + 2*x1^-2*x2*x3") ** 2 == P("1 + 4*x1^-2*x2*x3 + 4*x1^-4*x2^2*x3^2")
    assert P("1 + x1^-2*x2*x3") ** 2 == P("1 + 2*x1^-2*x2*x3 + x1^-4*x2^2*x3^2")


def test_additive_identity():
    p = P("3/4*x1^2 - x2")
    assert p + LaurentPoly.zero(AMB) == p
    assert p + 0 == p
    assert p - p == LaurentPoly.zero(AMB)


def test_ambient_mismatch_rejected():
    other = Ambient(2, 1)
    with pytest.raises(ValueError):
        P("x1") + LaurentPoly.parse("x1", other)


def test_sign_restriction_enforced():
    with pytest.raises(ValueError):
        LaurentPoly(AMB, {(0, -1, 0): Fraction(1)})
    # invertible position may go negative
    LaurentPoly(AMB, {(-3, 0, 0): Fraction(1)})


def _random_poly(rng, ambient, nterms=4):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        exp = tuple(
            rng.randint(-3, 3) if k < ambient.r else rng.randint(0, 3)
            for k in range(ambient.nvars)
        )
        terms[exp] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return LaurentPoly(ambient, terms)


def test_ring_axioms_on_random_triples():
    rng = random.Random(5)
    for _ in range(40):
        a, b, c = (_random_poly(rng, AMB) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def _random_point(rng, ambient):
    pt = []
    for k in range(ambient.nvars):
        if k < ambient.r:
            pt.append(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)))
        else:
            pt.append(Fraction(rng.randint(-3, 3)))
    return pt


def test_evaluate_examples():
    assert P("1 + 2*x1^-2*x2*x3").evaluate([1, 1, 1]) == 3
    amb1 = Ambient(1, 0)
    assert LaurentPoly.parse("x1^-1", amb1).evaluate([2]) == Fraction(1, 2)
    with pytest.raises(ValueError):
        LaurentPoly.parse("x1^-1", amb1).evaluate([0])


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(9)
    for _ in range(30):
        p, q = _random_poly(rng, AMB), _random_poly(rng, AMB)
        at = _random_point(rng, AMB)
        assert (p * q).evaluate(at) == p.evaluate(at) * q.evaluate(at)
        assert (p + q).evaluate(at) == p.evaluate(at) + q.evaluate(at)


def test_canonical_equality_is_term_map_identity():
    assert P("x1 + x2") == P("x2 + x1")
    assert P("2*x1 - x1") == P("x1")
    assert P("x1 - x1") == P("0")


def test_parse_format_round_trip():
    rng = random.Random(13)
    for _ in range(30):
        p = _random_poly(rng, AMB)
        assert LaurentPoly.parse(str(p), AMB) == p


def test_parse_whitespace_and_rationals():
    assert P("1+2*x1^-2*x2*x3") == P(" 1 + 2 * x1 ^ -2 * x2 * x3 ")
    assert P("1/2*x1") == LaurentPoly(AMB, {(1, 0, 0): Fraction(1, 2)})
    assert P("-x1 + 3/4") == LaurentPoly(
        AMB, {(1, 0, 0): Fraction(-1), (0, 0, 0): Fraction(3, 4)}
    )
    with pytest.raises(ValueError):
        P("x9")
    with pytest.raises(ValueError):
        P("")


def test_print_storage_order():
    assert str(P("1 + 2*x1^-2*x2*x3")) == "1 + 2*x1^-2*x2*x3"
    assert str(P("x1^-1*x3 + x1")) == "x1 + x1^-1*x3"
    assert format_terms(parse_terms("y2 - y1^2", ("y1", "y2")), ("y1", "y2")) == "-y1^2 + y2"


def test_substitute_composition():
    lam = Ambient(0, 2, names=("l1", "l2"))
    poly = LaurentPoly.parse("u1^2*u2", Ambient(0, 2, names=("u1", "u2")))
    vals = [LaurentPoly.parse("l1 + l2", lam), LaurentPoly.parse("l1", lam)]
    assert substitute(poly, vals) == LaurentPoly.parse(
        "l1^3 + 2*l1^2*l2 + l1*l2^2", lam
    )


