"""Randomized comparisons of the multimodular solve_or_refute with the
Fraction elimination it replaced, and of the integer plug-back of
ConsistencyWitness.verify with a Fraction plug-back: random sparse
rational systems with denominators 1-6, handed to exactmath with one
common denominator cleared."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from test_exactmath_modular import (  # noqa: E402
    _assert_matches_reference,
    _cleared,
    _left_mul,
    _mul,
    _reference_verify,
)

from orbitcal.exactmath import (  # noqa: E402
    REFUTATION,
    SOLUTION,
    ConsistencyWitness,
    solve_or_refute,
)

_entries = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def _systems(draw, max_rows=12):
    """The rows of a rational matrix."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, 12))
    cells = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), _entries)
    return draw(st.lists(st.lists(cells, min_size=cols, max_size=cols), min_size=rows, max_size=rows))


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(_systems(max_rows=11), st.data())
def test_witnesses_equal_the_fraction_loop(A, data):
    x = data.draw(st.lists(_entries, min_size=len(A[0]), max_size=len(A[0])))
    consistent = _mul(A, x)
    assert _assert_matches_reference(A, consistent).kind == SOLUTION

    arbitrary = data.draw(st.lists(_entries, min_size=len(A), max_size=len(A)))
    _assert_matches_reference(A, arbitrary)

    # a last row that combines the others, with its rhs off by one
    c = data.draw(st.lists(_entries, min_size=len(A), max_size=len(A)))
    extended = A + [_left_mul(A, c)]
    rhs = consistent + [sum(ci * bi for ci, bi in zip(c, consistent)) + 1]
    assert _assert_matches_reference(extended, rhs).kind == REFUTATION


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(_systems(), st.data())
def test_integer_plug_back_agrees_with_fractions(A, data):
    rhs = data.draw(st.lists(_entries, min_size=len(A), max_size=len(A)))
    matrix, cleared = _cleared(A, rhs)
    valid = solve_or_refute(matrix, cleared)
    assert valid.verify(matrix, cleared) and _reference_verify(valid, A, rhs)

    # arbitrary witnesses of both kinds
    for kind, length in ((SOLUTION, len(A[0])), (REFUTATION, len(A))):
        vector = data.draw(st.lists(_entries, min_size=length, max_size=length))
        w = ConsistencyWitness(kind, vector)
        assert w.verify(matrix, cleared) == _reference_verify(w, A, rhs)

    rows_used = {i for i, row in enumerate(A) if any(row)}
    cols_used = {j for j, col in enumerate(zip(*A)) if any(col)}
    for k in range(len(valid.vector)):
        bumped = list(valid.vector)
        bumped[k] += data.draw(_entries.filter(bool))
        w = ConsistencyWitness(valid.kind, bumped)
        assert w.verify(matrix, cleared) == _reference_verify(w, A, rhs)
        # the bump moves A x by a nonzero column, or u A by a nonzero row
        if k in (cols_used if valid.kind == SOLUTION else rows_used):
            assert not w.verify(matrix, cleared)
    for i in range(len(A)):
        bumped = list(rhs)
        if valid.kind == SOLUTION:
            bumped[i] += data.draw(_entries.filter(bool))
        elif valid.vector[i]:
            # the bump that makes u v vanish
            bumped[i] -= sum(u * b for u, b in zip(valid.vector, rhs)) / valid.vector[i]
        else:
            continue
        assert not valid.verify(*_cleared(A, bumped))
        assert not _reference_verify(valid, A, bumped)
