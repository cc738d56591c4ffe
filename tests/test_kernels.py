from fractions import Fraction

from orbitcal import _kernels


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
    _kernels.term_times_into(acc, b, (2, 2), Fraction(3))
    assert acc == {(3, 2): Fraction(3), (2, 2): Fraction(-3)}

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
