import random
from fractions import Fraction

import pytest

from orbitcal.errors import CertificateError
from orbitcal.exactmath import (
    REFUTATION,
    SOLUTION,
    ConsistencyWitness,
    SparseMatrix,
    det,
    integer_left_kernel,
    rank_mod,
    solve_or_refute,
)
from support import rank, sparse_matrix
from test_exactmath_modular import _cleared, _left_mul, _mul, _random_rational_rows, _reference_solve


def test_solution_for_trivial_system():
    w = solve_or_refute(sparse_matrix([[1, 0]]), [0])
    assert w.kind == SOLUTION
    assert w.vector == (0, 0)


def test_refutation_for_zero_equals_one():
    w = solve_or_refute(sparse_matrix([[0, 0]]), [1])
    assert w.kind == REFUTATION
    assert w.vector == (1,)


def test_refutation_for_proportional_rows():
    # 2*row1 - row2 gives 0 = -1
    A = sparse_matrix([[1, 1], [2, 2]])
    w = solve_or_refute(A, [1, 3])
    assert w.kind == REFUTATION
    assert w.verify(A, [1, 3])
    assert w.vector == (-2, 1)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        solve_or_refute(sparse_matrix([[1, 0]]), [1, 2])
    with pytest.raises(ValueError):
        solve_or_refute(SparseMatrix(0, 0), [])


def test_witnesses_verify_on_random_systems():
    # rational (A, v) with one common denominator cleared; the witness is
    # the Fraction loop's on the rational system
    rng = random.Random(7)
    solutions = refutations = 0
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = _random_rational_rows(rng, nrows, ncols)
        if rng.random() < 0.5:
            v = _mul(rows, [Fraction(rng.randint(-4, 4)) for _ in range(ncols)])  # consistent
        else:
            v = [Fraction(rng.randint(-4, 4)) for _ in range(nrows)]
        A, b = _cleared(rows, v)
        w = solve_or_refute(A, b)
        assert w.verify(A, b)
        assert w == _reference_solve(rows, v)
        if w.kind == SOLUTION:
            solutions += 1
            assert _mul(rows, w.vector) == v
        else:
            refutations += 1
            assert not any(_left_mul(rows, w.vector))
            assert sum(u * c for u, c in zip(w.vector, v)) != 0
    assert solutions and refutations


def test_tampered_witnesses_fail_verification():
    A = sparse_matrix([[1, 2], [0, 1]])
    v = [3, 1]
    w = solve_or_refute(A, v)
    assert w.kind == SOLUTION
    bumped = list(w.vector)
    bumped[0] += 1
    assert not ConsistencyWitness(SOLUTION, bumped).verify(A, v)
    assert not ConsistencyWitness(REFUTATION, [0, 0]).verify(A, v)


def test_rank_basic():
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert rank([[0] * 4 for _ in range(3)]) == 0
    assert rank([[1, 2], [2, 4]]) == 1


def test_rank_of_transpose_matches():
    rng = random.Random(11)
    for _ in range(40):
        rows = _random_rational_rows(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rank(rows) == rank([list(col) for col in zip(*rows)])


def test_rank_mod_matches_the_rank_over_q():
    rng = random.Random(5)
    for _ in range(40):
        rows = [[rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(5)] for _ in range(rng.randint(1, 6))]
        assert rank_mod([{j: v for j, v in enumerate(row) if v} for row in rows]) == rank(rows)


def test_rank_with_fractional_entries():
    assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]) == 1


def test_integer_left_kernel_examples():
    assert integer_left_kernel([[1], [2]]) == [(2, -1)]
    assert integer_left_kernel([[1, 0], [0, 1]]) == []
    assert integer_left_kernel([[0], [0]]) == [(1, 0), (0, 1)]


def test_integer_left_kernel_properties():
    rng = random.Random(3)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 4)
        M = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        basis = integer_left_kernel(M)
        for c in basis:
            prod = [sum(ci * M[i][j] for i, ci in enumerate(c)) for j in range(cols)]
            assert not any(prod)
        assert len(basis) == rows - rank(M)


def test_rank_of_large_sparse_matrix():
    big = [[0] * 150 for _ in range(150)]
    for k in range(149):
        big[k][k + 1] = k + 1
    assert rank(big) == 149


def test_failed_plug_back_raises_certificate_error(monkeypatch):
    monkeypatch.setattr(ConsistencyWitness, "verify", lambda self, matrix, rhs: False)
    with pytest.raises(CertificateError, match="refutation"):
        solve_or_refute(sparse_matrix([[0, 0]]), [1])
    with pytest.raises(CertificateError, match="solution"):
        solve_or_refute(sparse_matrix([[1, 0]]), [0])


def test_det():
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[0, 2, 0], [3, 0, 0], [0, 0, Fraction(1, 5)]]) == Fraction(-6, 5)  # one row swap
