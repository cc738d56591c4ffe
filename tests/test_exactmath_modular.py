"""The multimodular solve_or_refute against the Fraction elimination it
replaced, and the integer plug-back of ConsistencyWitness.verify against
a Fraction plug-back.

`_reference_solve` is the row reduction over Fractions that
solve_or_refute used to run: rows in order, each reduced against the
pivots from the lowest column up, pivot on the lowest remaining column,
free variables at zero, the row history carried for the refutation.
The modular solver must return the same witness, term for term.
The randomized comparisons with hypothesis are in
test_exactmath_hypothesis.py."""

import logging
import random
from fractions import Fraction
from itertools import islice

import pytest

from orbitcal import decider, exactmath, repmodel
from orbitcal.exactmath import (
    REFUTATION,
    SOLUTION,
    ConsistencyWitness,
    SparseMatrix,
    solve_or_refute,
)

FIRST_PRIME = next(exactmath._primes())


def _reference_solve(matrix, rhs):
    rhs = [Fraction(x) for x in rhs]
    pivots = {}
    for idx, row in enumerate(matrix.row_dicts()):
        row = dict(row)
        b = rhs[idx]
        hist = {idx: Fraction(1)}
        while row:
            hit = [c for c in row if c in pivots]
            if not hit:
                break
            col = min(hit)
            factor = row[col]
            prow, pb, phist = pivots[col]
            for target, source in ((row, prow), (hist, phist)):
                for j, v in source.items():
                    cur = target.get(j, 0) - factor * v
                    if cur:
                        target[j] = cur
                    else:
                        target.pop(j, None)
            b -= factor * pb
        if not row:
            if b:
                u = [Fraction(0)] * matrix.rows
                for j, v in hist.items():
                    u[j] = v
                return ConsistencyWitness(REFUTATION, u)
            continue
        col = min(row)
        inv = 1 / row[col]
        pivots[col] = (
            {j: v * inv for j, v in row.items()},
            b * inv,
            {j: v * inv for j, v in hist.items()},
        )
    x = [Fraction(0)] * matrix.cols
    for col in sorted(pivots, reverse=True):
        row, b, _ = pivots[col]
        x[col] = b - sum(v * x[j] for j, v in row.items() if j != col)
    return ConsistencyWitness(SOLUTION, x)


def _reference_verify(witness, matrix, rhs):
    """Fraction plug-back, the check verify() ran before it went to integers."""
    rhs = [Fraction(x) for x in rhs]
    if len(rhs) != matrix.rows:
        return False
    if witness.kind == SOLUTION:
        return len(witness.vector) == matrix.cols and matrix.mul_vector(witness.vector) == rhs
    if len(witness.vector) != matrix.rows or any(matrix.left_mul_vector(witness.vector)):
        return False
    return sum(u * b for u, b in zip(witness.vector, rhs)) != 0


def _assert_matches_reference(matrix, rhs):
    ours = solve_or_refute(matrix, rhs)
    assert ours == _reference_solve(matrix, rhs)
    return ours


@pytest.fixture
def primes_used(monkeypatch):
    """The primes solve_or_refute eliminates with, and their profiles."""
    calls = []
    eliminate = exactmath._eliminate_mod

    def spy(rows, values, scales, ncols, p):
        profile, vector = eliminate(rows, values, scales, ncols, p)
        calls.append((p, profile))
        return profile, vector

    monkeypatch.setattr(exactmath, "_eliminate_mod", spy)
    return calls


def test_denominator_divisible_by_the_first_prime_skips_it(primes_used):
    A = SparseMatrix.from_rows([[Fraction(1, FIRST_PRIME), 1], [1, 1]])
    _assert_matches_reference(A, [1, 2])
    assert primes_used and FIRST_PRIME not in [p for p, _ in primes_used]


@pytest.mark.parametrize(
    "rows, rhs",
    [
        # mod the first prime the pivot moves to column 1 and x = (0, 1)
        # plugs back exactly; only the second prime's smaller profile
        # gives the Fraction loop's (1/p, 0)
        ([[FIRST_PRIME, 1]], [1]),
        # mod the first prime the row reads 0 = 1
        ([[FIRST_PRIME]], [1]),
        # the second row reduces to 0 = 0 mod the first prime only
        ([[1, 1], [1, 1 + FIRST_PRIME]], [1, 2]),
    ],
)
def test_pivot_equal_to_the_first_prime(primes_used, rows, rhs):
    _assert_matches_reference(SparseMatrix.from_rows(rows), rhs)
    (p, first_profile), (_, second_profile) = primes_used[:2]
    assert p == FIRST_PRIME
    assert second_profile < first_profile


@pytest.mark.parametrize(
    "rows, rhs, kind",
    [
        ([[1, 0], [0, 3]], [2**80 + 1, 2**81], SOLUTION),
        ([[1], [2**80 + 1]], [1, 0], REFUTATION),
        ([[3**50, 1], [0, 7]], [2**80, 1], SOLUTION),
    ],
)
def test_witness_of_80_bits_needs_several_primes(primes_used, rows, rhs, kind):
    w = _assert_matches_reference(SparseMatrix.from_rows(rows), rhs)
    assert w.kind == kind
    assert max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in w.vector) >= 80
    assert len(primes_used) >= 3


def _miller_rabin(n):
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # exact below 3.3e24
    if n in bases:
        return True
    if n < 2 or any(n % q == 0 for q in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        y = pow(a, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def test_first_twenty_primes_are_prime():
    try:
        from sympy import isprime
    except ImportError:
        isprime = _miller_rabin
    drawn = list(islice(exactmath._primes(), 20))
    assert all(isprime(p) for p in drawn)
    assert drawn == sorted(drawn, reverse=True) and drawn[0] < 2**62
    assert drawn[-1] > 2**62 - 2**12


def test_one_debug_line_per_solve(caplog):
    A = SparseMatrix.from_rows([[1, 1], [2, 2], [0, 1]])
    with caplog.at_level(logging.DEBUG, logger="orbitcal.exactmath"):
        solve_or_refute(A, [1, 2, 3])
        solve_or_refute(A, [1, 3, 0])
    messages = [r.getMessage() for r in caplog.records if r.name == "orbitcal.exactmath"]
    assert messages == [
        "solve 3x2 nnz=5: SOLUTION, pivots=2, primes=2, witness_bits=2",
        "solve 3x2 nnz=5: REFUTATION, pivots=1, primes=2, witness_bits=2",
    ]


def _problems():
    sl2 = repmodel.sl2_binary_forms(2)
    for a, verdict in (((1, 0, 0), decider.IN_CLOSURE), ((0, 1, 0), decider.NOT_IN_CLOSURE)):
        yield decider.conic_problem(sl2, a, (1, 2, 1), degree_bound_override=3), verdict, False
    # the base z1^2 has zero coordinates, so decide scrambles the basis
    yield decider.conic_problem(sl2, (1, 2, 1), (1, 0, 0), degree_bound_override=2), decider.IN_CLOSURE, True


@pytest.mark.parametrize("problem, verdict, scrambled", list(_problems()))
def test_decide_certificates_equal_the_fraction_loop(problem, verdict, scrambled):
    decision, system = decider.decide(problem, seed=1, keep_system=True)
    assert decision.verdict == verdict
    assert (decision.transcript["scramble"] is not None) == scrambled
    assert decision.certificate == _reference_solve(system.matrix, system.rhs)


def test_random_systems_of_both_kinds_match():
    rng = random.Random(5)
    kinds = set()
    for _ in range(200):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        A = SparseMatrix(rows, cols)
        for i in range(rows):
            for j in range(cols):
                if rng.random() < 0.4:
                    A[i, j] = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        rhs = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(rows)]
        kinds.add(_assert_matches_reference(A, rhs).kind)
    assert kinds == {SOLUTION, REFUTATION}
