"""The term-dict kernels on fixed cases, and their ring laws on random
term dicts (derandomized hypothesis): terms_mul is commutative,
associative and distributive over add_scaled_inplace, and
term_times_into, on int keys whose sum is the product of monomials, is
terms_mul by a monomial."""

from fractions import Fraction

import pytest

from orbitcal import _kernels

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

_settings = hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
_exponents = st.tuples(st.integers(-2, 2), st.integers(0, 2))
_coefficients = st.one_of(
    st.integers(-5, 5).filter(bool),
    st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4)),
)
_terms = st.dictionaries(_exponents, _coefficients, max_size=5)


def _pack(exp):
    """A linear int key of an exponent pair, as term_times_into takes:
    the key of a sum is the sum of the keys while |exp[1]| < 2**15."""
    return (exp[0] << 16) + exp[1]


def _packed(terms):
    return {_pack(e): v for e, v in terms.items()}


def test_pure_kernels_basic():
    a = {(1, 0): Fraction(2), (0, 1): Fraction(1)}
    b = {(1, 0): Fraction(1), (0, 0): Fraction(-1)}
    assert _kernels.terms_mul(a, b) == {
        (2, 0): Fraction(2),
        (1, 0): Fraction(-2),
        (1, 1): Fraction(1),
        (0, 1): Fraction(-1),
    }
    acc = dict(a)
    _kernels.add_scaled_inplace(acc, a, Fraction(-1))
    assert acc == {}
    acc = {}
    _kernels.term_times_into(acc, _packed(b), _pack((2, 2)), Fraction(3))
    assert acc == _packed({(3, 2): Fraction(3), (2, 2): Fraction(-3)})

    # int values, as in the decider's columns, stay ints
    c = {(1,): 2, (0,): 3}
    product = _kernels.terms_mul(c, {(1,): 3, (0,): -2})
    assert product == {(2,): 6, (1,): 5, (0,): -6}
    assert all(type(v) is int for v in product.values())
    _kernels.add_scaled_inplace(product, {(1,): 1, (0,): -1}, -5)
    assert product == {(2,): 6, (0,): -1}
    assert all(type(v) is int for v in product.values())


def test_exact_cancellation_drops_keys():
    a = {(0,): Fraction(1, 3)}
    acc = {(0,): Fraction(-1, 3)}
    _kernels.add_scaled_inplace(acc, a, Fraction(1))
    assert acc == {}


def test_backend_is_reported():
    assert _kernels.BACKEND == "pure"


def _plus(a, b, scale=1):
    out = dict(a)
    _kernels.add_scaled_inplace(out, b, scale)
    return out


@_settings
@hypothesis.given(_terms, _terms, _terms)
def test_terms_mul_is_commutative_and_associative(a, b, c):
    mul = _kernels.terms_mul
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@_settings
@hypothesis.given(_terms, _terms, _terms, _coefficients)
def test_terms_mul_distributes_over_add_scaled(a, b, c, scale):
    mul = _kernels.terms_mul
    assert mul(a, _plus(b, c, scale)) == _plus(mul(a, b), mul(a, c), scale)
    assert all(mul(a, _plus(b, c, scale)).values())


@_settings
@hypothesis.given(_terms, _terms, _exponents, _coefficients)
def test_term_times_into_is_a_product_by_a_monomial(acc, src, shift, scale):
    want = _plus(acc, _kernels.terms_mul(src, {shift: 1}), scale)
    acc = _packed(acc)
    _kernels.term_times_into(acc, _packed(src), _pack(shift), scale)
    assert acc == _packed(want)
