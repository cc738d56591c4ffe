"""monomial_images and substitute on random data.  Every image, decoded
key by key, equals the product of powers computed by the schoolbook
convolution of support.py on exponent tuples, also with negative
exponents on the invertible variables, empty term dicts and one
variable; the keys of all images sort as ints in (degree, exponent)
order, one key per exponent; a request above the degree bound raises
ValueError; and substitute equals the sum of its terms' products of
powers."""

from fractions import Fraction
from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from orbitcal.polyring import monomial_images, substitute  # noqa: E402
from support import product_of_powers as _reference  # noqa: E402

_settings = hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
_shapes = st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2)])
_coefficients = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6)),
)


def _terms(r, s, max_size=4):
    exponents = st.tuples(*[st.integers(-3, 3)] * r, *[st.integers(0, 3)] * s)
    return st.dictionaries(exponents, _coefficients, max_size=max_size)


@st.composite
def _images(draw):
    """(exponent width, term dicts, top, requests with |q| <= top)."""
    r, s = draw(_shapes)
    count = draw(st.integers(1, 3))
    images = [draw(_terms(r, s)) for _ in range(count)]
    top = draw(st.integers(0, 4))
    requests = draw(
        st.lists(
            st.tuples(*[st.integers(0, top)] * count).filter(lambda q: sum(q) <= top),
            max_size=6,
        )
    )
    return r + s, images, top, requests


@_settings
@hypothesis.given(_images())
def test_images_equal_laurent_products(data):
    nvars, images, top, requests = data
    image, decode = monomial_images(images, nvars, top)
    for q in [(0,) * len(images), *requests]:
        got = image(q)
        decoded = {decode(key): coef for key, coef in got.items()}
        # no two keys decode to the same exponent, and none is a zero
        assert len(decoded) == len(got) and all(decoded.values())
        assert decoded == _reference(nvars, images, q), q


@_settings
@hypothesis.given(_images())
def test_keys_sort_in_degree_then_exponent_order(data):
    # for every q with |q| <= top the decoded image is the product, and
    # the keys of all the images together, sorted as ints, decode to
    # distinct exponents in strictly increasing (degree, exponent) order:
    # one key per exponent, and each image's keys in that order
    nvars, images, top, _ = data
    image, decode = monomial_images(images, nvars, top)
    exponents = {}
    for q in product(range(top + 1), repeat=len(images)):
        if sum(q) <= top:
            got = image(q)
            assert {decode(key): coef for key, coef in got.items()} == _reference(nvars, images, q), q
            exponents.update((key, decode(key)) for key in got)
    ranks = [(sum(e), e) for _, e in sorted(exponents.items())]
    assert all(a < b for a, b in zip(ranks, ranks[1:]))


@_settings
@hypothesis.given(_images(), st.integers(1, 3), st.data())
def test_request_above_the_bound_raises(data, excess, pick):
    nvars, images, top, _ = data
    image, _ = monomial_images(images, nvars, top)
    slot = pick.draw(st.integers(0, len(images) - 1))
    q = [0] * len(images)
    q[slot] = top + excess
    with pytest.raises(ValueError):
        image(tuple(q))
    with pytest.raises(ValueError):
        image((-1,) + (1,) * (len(images) - 1))


def test_empty_images_and_the_constant():
    image, decode = monomial_images([{}, {}], 1, 3)
    ((key, coef),) = image((0, 0)).items()
    assert decode(key) == (0,) and coef == 1
    assert image((2, 1)) == {} and image((0, 3)) == {}
    image, decode = monomial_images([{(-2, 1): 3}, {}], 2, 0)
    (key,) = image((0, 0))
    assert decode(key) == (0, 0)
    with pytest.raises(ValueError):
        image((1, 0))


@st.composite
def _substitutions(draw):
    r, s = draw(_shapes)
    k = draw(st.integers(1, 3))
    poly = draw(_terms(0, k, max_size=5))
    values = [draw(_terms(r, s)) for _ in range(k)]
    return poly, values, r + s


@_settings
@hypothesis.given(_substitutions())
def test_substitute_equals_laurent_reference(data):
    poly, values, nvars = data
    want = {}
    for exp, coef in poly.items():
        for e, c in _reference(nvars, values, exp).items():
            want[e] = want.get(e, 0) + coef * c
    assert substitute(poly, values, nvars) == {e: c for e, c in want.items() if c}
