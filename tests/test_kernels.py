"""The term-dict kernels on fixed cases, and on random term dicts
(derandomized hypothesis): term_times_into, on int keys whose sum is
the product of monomials, is a product by a monomial, against a naive
convolution on exponent tuples in this file."""

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
    acc = {}
    for key, coef in _packed(a).items():
        _kernels.term_times_into(acc, _packed(b), key, coef)
    assert acc == _packed({(2, 0): 2, (1, 0): -2, (1, 1): 1, (0, 1): -1})
    acc = dict(a)
    _kernels.add_scaled_inplace(acc, a, Fraction(-1))
    assert acc == {}
    acc = {}
    _kernels.term_times_into(acc, _packed(b), _pack((2, 2)), Fraction(3))
    assert acc == _packed({(3, 2): Fraction(3), (2, 2): Fraction(-3)})

    # int values, as in the decider's columns, stay ints
    product = {}
    for key, coef in {1: 2, 0: 3}.items():
        _kernels.term_times_into(product, {1: 3, 0: -2}, key, coef)
    assert product == {2: 6, 1: 5, 0: -6}
    assert all(type(v) is int for v in product.values())
    _kernels.add_scaled_inplace(product, {1: 1, 0: -1}, -5)
    assert product == {2: 6, 0: -1}
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


def _convolve(a, b):
    """The product of two term dicts on exponent tuples, term by term."""
    out = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + va * vb
    return {e: v for e, v in out.items() if v}


@_settings
@hypothesis.given(_terms, _terms, _exponents, _coefficients)
def test_term_times_into_is_a_product_by_a_monomial(acc, src, shift, scale):
    want = _plus(acc, _convolve(src, {shift: 1}), scale)
    acc = _packed(acc)
    _kernels.term_times_into(acc, _packed(src), _pack(shift), scale)
    assert acc == _packed(want)

