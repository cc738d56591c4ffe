"""The text and JSON formats read back what they write: on random data,
Ambient.parse(format_terms(p)) == p, parse_equation(format_equation(q)) == q
and RepresentationData.from_json(to_json()) reproduces the representation,
also through a json.dumps/json.loads pass.  Every prefix of a printed
polynomial either parses or raises ValueError."""

import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from orbitcal.elim import format_equation, parse_equation  # noqa: E402
from orbitcal.polyring import Ambient, format_terms  # noqa: E402
from orbitcal.repmodel import RepresentationData  # noqa: E402

_settings = hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
_coefficients = st.builds(Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 12))
_shapes = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda rs: sum(rs) > 0)


def _terms(r, s):
    exponents = st.tuples(*[st.integers(-4, 4)] * r, *[st.integers(0, 4)] * s)
    return st.dictionaries(exponents, _coefficients, max_size=6)


@st.composite
def _polys(draw):
    r, s = draw(_shapes)
    ambient = Ambient(r, s)
    return ambient, ambient.check(draw(_terms(r, s)))


@st.composite
def _equations(draw):
    n = draw(st.integers(1, 5))
    return n, draw(_terms(0, n))


@st.composite
def _representations(draw):
    r, s = draw(_shapes)
    n = draw(st.integers(1, 3))
    rho = [[draw(_terms(r, s)) for _ in range(n)] for _ in range(n)]
    bound = draw(st.one_of(st.none(), st.integers(1, 50)))
    label = draw(st.text("abc-(),;0123456789", max_size=12))
    return RepresentationData(n, r, s, rho, degree_bound=bound, label=label)


@_settings
@hypothesis.given(_polys())
def test_laurent_poly_text_round_trip(case):
    ambient, p = case
    assert ambient.parse(format_terms(p, ambient.names)) == p


@_settings
@hypothesis.given(_polys())
def test_every_prefix_parses_or_raises_value_error(case):
    ambient, p = case
    text = format_terms(p, ambient.names)
    for end in range(len(text) + 1):
        try:
            ambient.parse(text[:end])
        except ValueError:
            pass


@_settings
@hypothesis.given(_equations())
def test_equation_text_round_trip(case):
    n, q = case
    assert parse_equation(format_equation(q, n), n) == q


@_settings
@hypothesis.given(_representations())
def test_representation_json_round_trip(rep):
    payload = rep.to_json()
    for data in (payload, json.loads(json.dumps(payload))):
        back = RepresentationData.from_json(data)
        assert (back.n, back.r, back.s, back.degree_bound, back.label) == (
            rep.n, rep.r, rep.s, rep.degree_bound, rep.label
        )
        assert back.rho == rep.rho
        assert back.to_json() == payload
