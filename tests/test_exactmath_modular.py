"""The multimodular solve_or_refute against the Fraction elimination it
replaced, and the integer plug-back of ConsistencyWitness.verify against
a Fraction plug-back.

`_reference_solve` is the row reduction over Fractions that
solve_or_refute used to run, on a dense rational system: rows in order,
each reduced against the pivots from the lowest column up, pivot on the
lowest remaining column, free variables at zero, the row history
carried for the refutation.  The modular solver, given the same system
with one common denominator cleared, must return the same witness, term
for term.  The randomized comparisons with hypothesis are in
test_exactmath_hypothesis.py."""

import logging
import random
from fractions import Fraction
from itertools import islice
from math import lcm

import pytest

from orbitcal import decider, exactmath, repmodel
from orbitcal.errors import CertificateError
from orbitcal.exactmath import (
    REFUTATION,
    SOLUTION,
    ConsistencyWitness,
    SparseMatrix,
    solve_or_refute,
)
from orbitcal.fixtures import decision_battery, hyperbola_rep
from support import sparse_matrix

# the primes of solve_or_refute's passes, in order
PRIMES = tuple(islice(exactmath._primes(), 8))
FIRST_PRIME, SECOND_PRIME = PRIMES[:2]


def _dense(matrix):
    """The rows of a SparseMatrix as lists."""
    rows = [[0] * matrix.cols for _ in range(matrix.rows)]
    for (i, j), v in matrix.entries.items():
        rows[i][j] = v
    return rows


def _mul(rows, x):
    return [sum(a * b for a, b in zip(row, x)) for row in rows]


def _left_mul(rows, u):
    return [sum(ui * row[j] for ui, row in zip(u, rows)) for j in range(len(rows[0]))]


def _cleared(rows, rhs, factor=1):
    """The integer system factor * D * (A, v), where D is the lcm of
    every denominator of the rational system (A, v) given by its rows."""
    values = [v for row in rows for v in row] + list(rhs)
    scale = factor * lcm(*(Fraction(v).denominator for v in values))
    matrix = sparse_matrix([[int(v * scale) for v in row] for row in rows])
    return matrix, [int(b * scale) for b in rhs]


def _reference_solve(rows, rhs):
    rhs = [Fraction(x) for x in rhs]
    pivots = {}
    for idx, row in enumerate(rows):
        row = {j: Fraction(v) for j, v in enumerate(row) if v}
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
                u = [Fraction(0)] * len(rows)
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
    x = [Fraction(0)] * len(rows[0])
    for col in sorted(pivots, reverse=True):
        row, b, _ = pivots[col]
        x[col] = b - sum(v * x[j] for j, v in row.items() if j != col)
    return ConsistencyWitness(SOLUTION, x)


def _reference_verify(witness, rows, rhs):
    """Fraction plug-back on the rational system, the check verify()
    ran before it went to integers."""
    rhs = [Fraction(x) for x in rhs]
    if len(rhs) != len(rows):
        return False
    if witness.kind == SOLUTION:
        return len(witness.vector) == len(rows[0]) and _mul(rows, witness.vector) == rhs
    if len(witness.vector) != len(rows) or any(_left_mul(rows, witness.vector)):
        return False
    return sum(u * b for u, b in zip(witness.vector, rhs)) != 0


def _assert_matches_reference(rows, rhs, factor=1):
    """Solve the rational system with factor * D cleared, and check the
    witness against the Fraction loop on the system as given."""
    ours = solve_or_refute(*_cleared(rows, rhs, factor))
    assert ours == _reference_solve(rows, rhs)
    return ours


@pytest.fixture
def primes_used(monkeypatch):
    """The primes of the passes over the whole system that
    solve_or_refute runs, and their profiles; a refutation's transposed
    pass runs inside one of them and is not recorded."""
    calls = []
    running = []
    eliminate = exactmath._eliminate_mod

    def spy(rows, values, ncols, p):
        running.append(p)
        try:
            profile, vector = eliminate(rows, values, ncols, p)
        finally:
            running.pop()
        if not running:
            calls.append((p, profile))
        return profile, vector

    monkeypatch.setattr(exactmath, "_eliminate_mod", spy)
    return calls


def _assert_restarted_on(primes_used, restarted):
    """The passes ran modulo the first primes in order, at least one
    after the pass modulo PRIMES[restarted], whose profile was larger
    than the one of every other pass; the lift restarted on it and on
    the pass after it."""
    primes = [p for p, _ in primes_used]
    profiles = [profile for _, profile in primes_used]
    assert len(primes) > restarted + 1 and primes == list(PRIMES[: len(primes)])
    wrong = profiles.pop(restarted)
    assert profiles == [profiles[0]] * len(profiles) and wrong > profiles[0]


def test_system_multiplied_by_the_first_prime_drops_its_profile(primes_used):
    # the common denominator is the first prime: mod it the cleared
    # system [[1, p], [p, p]] loses its second pivot, so the pass modulo
    # the first prime ends on a larger profile, whose witness fails the
    # plug-back, and the lift restarts on the second prime
    _assert_matches_reference([[Fraction(1, FIRST_PRIME), 1], [1, 1]], [1, 2])
    _assert_restarted_on(primes_used, 0)


@pytest.mark.parametrize(
    "rows, rhs",
    [
        # mod the first prime the pivot moves to column 1 and the second
        # row reads 0 = 1
        ([[FIRST_PRIME, 1], [0, 1]], [1, 2]),
        # mod the first prime the row reads 0 = 1
        ([[FIRST_PRIME]], [1]),
        # the second row reduces to 0 = 0 mod the first prime only
        ([[1, 1], [1, 1 + FIRST_PRIME]], [1, 2]),
        # the second row reads 0 = p, which is 0 = 0 mod the first prime
        ([[1], [1]], [1, 1 + FIRST_PRIME]),
    ],
)
def test_pivot_equal_to_the_first_prime(primes_used, rows, rhs):
    # the pass modulo the first prime meets the pivot or final b p1,
    # which is zero there; its witness fails the plug-back, and the
    # passes from the second prime on give the reference witness
    _assert_matches_reference(rows, rhs)
    _assert_restarted_on(primes_used, 0)


def test_larger_profile_can_give_another_exact_witness(primes_used):
    # mod the first prime the pivot of [[p1, 1]] x = [1] moves to column
    # 1, and x = (0, 1) plugs back exactly: an exact certificate, though
    # not the Fraction loop's (1/p1, 0)
    rows, rhs = [[FIRST_PRIME, 1]], [1]
    assert solve_or_refute(sparse_matrix(rows), rhs) == ConsistencyWitness(SOLUTION, [0, 1])
    assert _reference_solve(rows, rhs) == ConsistencyWitness(SOLUTION, [Fraction(1, FIRST_PRIME), 0])
    assert primes_used == [(FIRST_PRIME, [1])]


@pytest.mark.parametrize(
    "rows, rhs",
    [
        ([[SECOND_PRIME, 1], [0, 1]], [1, 2]),
        ([[SECOND_PRIME]], [1]),
        ([[1, 1], [1, 1 + SECOND_PRIME]], [1, 2]),
        # a refutation with coefficient -1/3^40: the second row reads
        # 0 = p2, which is 0 = 0 mod the second prime
        ([[3**40], [1]], [0, SECOND_PRIME]),
    ],
)
def test_pivot_equal_to_the_second_prime(caplog, primes_used, rows, rhs):
    # the witness has a denominator of 62 bits or more, which the first
    # prime alone does not lift; the second prime meets a pivot or final
    # b that is zero there, and its larger profile replaces the first
    # prime's residues.  The third prime restarts on the right profile
    with caplog.at_level(logging.DEBUG, logger="orbitcal.exactmath"):
        _assert_matches_reference(rows, rhs)
    _assert_restarted_on(primes_used, 1)
    assert ", restarts=2," in caplog.records[-1].getMessage()


def _echelon_pass(rows, values, ncols, p):
    """The pass before it skipped rows by a kernel fingerprint: every
    row is reduced against the pivots until it stops at its lowest
    column without a pivot, and the solution is back-substituted."""
    pivots = {}
    profile = []
    for idx, src in enumerate(rows):
        row = {j: r for j, v in src.items() if (r := v % p)}
        col, b = exactmath._reduce(row, values[idx] % p, pivots, p)
        if col is None:
            if b:
                profile.append(ncols)
                return profile, exactmath._refutation(rows, profile, p)
            profile.append(ncols + 1)
            continue
        profile.append(col)
        pivots[col] = exactmath._normalized(row, b, col, p)
    x = [0] * ncols
    for col in sorted(pivots, reverse=True):
        row, b = pivots[col]
        x[col] = (b - sum(v * x[j] for j, v in row.items())) % p
    return profile, x


@pytest.fixture
def reductions(monkeypatch):
    """The rows a pass reduces: the calls of _reduce outside a
    refutation's transposed pass."""
    calls = []
    transposing = []
    reduce, refutation = exactmath._reduce, exactmath._refutation

    def counting(row, b, pivots, p):
        if not transposing:
            calls.append(p)
        return reduce(row, b, pivots, p)

    def transposed(*args):
        transposing.append(True)
        try:
            return refutation(*args)
        finally:
            transposing.pop()

    monkeypatch.setattr(exactmath, "_reduce", counting)
    monkeypatch.setattr(exactmath, "_refutation", transposed)
    return calls


def _fingerprint_row(profile, nrows, ncols):
    """The row at which a pass builds its fingerprint: the first that
    reads 0 = 0 while more rows remain than columns without a pivot;
    None if there is none."""
    free = ncols
    for idx, col in enumerate(profile):
        if col == ncols + 1 and nrows - idx - 1 > free:
            return idx
        free -= col < ncols
    return None


def _assert_pass_equals_echelon(rows, values, ncols, reductions):
    """The pass equals the echelon pass, profile and residues, modulo
    each of the first two primes, and reduces every row up to the one at
    which it builds its fingerprint and after it only the rows that do
    not end as 0 = 0; returns the profiles."""
    profiles = []
    for p in (FIRST_PRIME, SECOND_PRIME):
        want = _echelon_pass(rows, values, ncols, p)
        reductions.clear()
        assert exactmath._eliminate_mod(rows, values, ncols, p) == want
        profile = want[0]
        first = _fingerprint_row(profile, len(rows), ncols)
        first = len(profile) if first is None else first + 1
        assert len(reductions) == first + sum(c != ncols + 1 for c in profile[first:])
        profiles.append(profile)
    return profiles


def _random_tall_system(rng, ncols):
    """Integer rows with many dependent ones: 0 = 0 rows before the
    first pivot, then independent rows among multiples of one earlier
    row and combinations of two or three, right-hand side included, and
    now and then a combination whose right-hand side is off by one,
    which refutes."""
    rows, rhs = [], []
    for _ in range(rng.randint(0, 2)):
        rows.append({})
        rhs.append(0)
    for _ in range(rng.randint(10, 40)):
        kind = rng.random()
        if len(rows) < 3 or kind < 0.2:
            rows.append({j: v for j in range(ncols) if rng.random() < 0.4 and (v := rng.randint(-5, 5))})
            rhs.append(rng.randint(-5, 5))
            continue
        picked = rng.sample(range(len(rows)), rng.choice((1, 2, 3)))
        coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in picked]
        row = {}
        for i, c in zip(picked, coeffs):
            for j, v in rows[i].items():
                row[j] = row.get(j, 0) + c * v
        rows.append({j: v for j, v in row.items() if v})
        rhs.append(sum(c * rhs[i] for i, c in zip(picked, coeffs)) + (kind > 0.97))
    return rows, rhs


def test_skipping_pass_equals_the_echelon_pass(reductions):
    # the decide-sparse systems at d = 3 and 4, the paper's and the
    # evaluation system
    sl2 = repmodel.sl2_binary_forms(2)
    for d in (3, 4):
        for a in ((0, 1, 0), (1, 0, 0)):
            problem = decider.conic_problem(sl2, a, (1, 2, 1), degree_bound_override=d)
            for engine in (decider.paper_decide, decider.decide):
                _, system = engine(problem, keep_system=True)
                ncols = system.matrix.cols
                profiles = _assert_pass_equals_echelon(system.matrix.row_terms, system.rhs, ncols, reductions)
                assert len(profiles) == 2 and profiles[0].count(ncols + 1) > 100

    # tall random systems: the switch at the first 0 = 0 row, skipped
    # rows after it, and refutations after the switch
    rng = random.Random(16)
    skipped = refuted = 0
    for _ in range(300):
        ncols = rng.randint(3, 12)
        rows, rhs = _random_tall_system(rng, ncols)
        for profile in _assert_pass_equals_echelon(rows, rhs, ncols, reductions):
            zeros = profile.count(ncols + 1)
            skipped += zeros > 1
            refuted += profile[-1] == ncols and zeros > 0
    assert skipped > 200 and refuted > 20

    # wide systems, every row a pivot: no switch
    for _ in range(50):
        ncols = rng.randint(5, 20)
        rows = [{j: rng.randint(1, 9) for j in range(ncols) if rng.random() < 0.6} for _ in range(ncols // 2)]
        rows = [row for row in rows if row]
        rhs = [rng.randint(-9, 9) for _ in rows]
        for profile in _assert_pass_equals_echelon(rows, rhs, ncols, reductions):
            assert all(c < ncols for c in profile)


def _random_wide_system(rng, ncols):
    """At most ncols integer rows, a third of them or more 0 = 0 rows:
    multiples of an earlier row, right-hand side included, among rows
    drawn at random."""
    rows, rhs = [], []
    for _ in range(rng.randint(3, ncols)):
        if len(rows) > 1 and rng.random() < 0.4:
            i = rng.randrange(len(rows))
            c = rng.choice((-2, -1, 2, 3))
            rows.append({j: c * v for j, v in rows[i].items()})
            rhs.append(c * rhs[i])
        else:
            rows.append({j: v for j in range(ncols) if rng.random() < 0.3 and (v := rng.randint(-5, 5))})
            rhs.append(rng.randint(-5, 5))
    return rows, rhs


def test_a_pass_builds_the_fingerprint_only_when_more_rows_remain_than_free_columns(monkeypatch, reductions):
    # z is built at the first 0 = 0 row after which more rows remain than
    # columns without a pivot, so some later row must read 0 = 0 too; a
    # system with no more rows than columns never builds it
    fingerprint = exactmath._fingerprint
    calls = []

    def counted(pivots, ncols, p):
        calls.append(p)
        return fingerprint(pivots, ncols, p)

    monkeypatch.setattr(exactmath, "_fingerprint", counted)

    def built(rows, values, ncols):
        calls.clear()
        profiles = _assert_pass_equals_echelon(rows, values, ncols, reductions)
        return len(calls), profiles

    # x0 = 1 twice, then x1 = 2 once: one row and one free column remain,
    # so no z; with x1 = 2 twice, z is built at the second row
    assert built([{0: 1}, {0: 1}, {1: 1}], [1, 1, 2], 2)[0] == 0
    assert built([{0: 1}, {0: 1}, {1: 1}, {1: 1}], [1, 1, 2, 2], 2)[0] == 2

    # wide random systems with 0 = 0 rows, and decide's transposed
    # evaluation systems, whose passes stop at the first violated
    # equation, are reduced row by row
    rng = random.Random(36)
    zero_rows = 0
    for _ in range(100):
        ncols = rng.randint(4, 14)
        rows, rhs = _random_wide_system(rng, ncols)
        count, profiles = built(rows, rhs, ncols)
        assert count == 0
        zero_rows += profiles[0].count(ncols + 1)
    assert zero_rows > 100
    sl2 = repmodel.sl2_binary_forms(2)
    problems = [decider.conic_problem(sl2, a, (1, 2, 1), degree_bound_override=d)
                for d in (3, 4) for a in ((0, 1, 0), (1, 0, 0))]
    calls.clear()
    for problem in problems:
        decider.decide(problem)
    # the transposes of the monomial-curve cones have one row more than
    # columns, and their 0 = 0 row comes with as many rows left as free
    # columns
    for k in (1, 2, 3, 4):
        rep2, _, b2 = repmodel.make_conic(repmodel.torus_diagonal([(1,), (k,)]), (0, 0), (1, 1))
        decider.decide(decider.DecisionProblem(rep2, (2, 6, 2 * 3**k), b2, degree_bound_override=k))
    assert calls == []

    # the paper's 210 x 60 battery systems and decide's systems in their
    # own orientation build z at their first 0 = 0 row, once per pass,
    # and skip every 0 = 0 row after it
    tall = [decider.paper_decide(decider.conic_problem(case.rep, case.a, case.b, degree_bound_override=2),
                                  keep_system=True)[1]
            for case in decision_battery() if case.name.startswith("quadratic")]
    assert {(system.matrix.rows, system.matrix.cols) for system in tall} == {(210, 60)}
    tall += [decider.decide(problem, keep_system=True)[1] for problem in problems]
    skipped = []
    for system in tall:
        ncols = system.matrix.cols
        count, profiles = built(system.matrix.row_terms, system.rhs, ncols)
        assert count == 2 and profiles[0] == profiles[1]
        profile = profiles[0]
        assert _fingerprint_row(profile, system.matrix.rows, ncols) == profile.index(ncols + 1)
        skipped.append(profile.count(ncols + 1) - 1)
    assert sum(count > 100 for count in skipped) == 6


def test_false_zero_in_the_first_pass_keeps_the_witness(monkeypatch, primes_used):
    # a fingerprint of zeros reads every row after the first 0 = 0 row
    # as 0 = 0, independent rows included; the pass modulo the first
    # prime then ends on a larger profile, whose witness fails the
    # plug-back, and the pass modulo the second gives the reference
    # witness
    small = [
        # x0 = 1 twice, then x1 = 2 twice: both are skipped
        ([[1, 0], [1, 0], [0, 1], [0, 1]], [1, 1, 2, 2]),
        # the refuting last row and the pivot before it are skipped
        ([[1, 0], [1, 0], [0, 1], [1, 1]], [1, 1, 2, 4]),
    ]
    cases = [(sparse_matrix(rows), rhs, _reference_solve(rows, rhs)) for rows, rhs in small]
    # the d = 3 decide-sparse systems, the paper's and the evaluation
    # system, whose witnesses
    # test_decide_certificates_equal_the_fraction_loop pins
    sl2 = repmodel.sl2_binary_forms(2)
    for a in ((0, 1, 0), (1, 0, 0)):
        problem = decider.conic_problem(sl2, a, (1, 2, 1), degree_bound_override=3)
        for engine in (decider.paper_decide, decider.decide):
            _, system = engine(problem, keep_system=True)
            cases.append((system.matrix, system.rhs, solve_or_refute(system.matrix, system.rhs)))

    fingerprint = exactmath._fingerprint
    calls = []

    def zero_once(pivots, ncols, p):
        z, users = fingerprint(pivots, ncols, p)
        calls.append(p)
        return ([0] * len(z) if len(calls) == 1 else z), users

    monkeypatch.setattr(exactmath, "_fingerprint", zero_once)
    for matrix, rhs, want in cases:
        calls.clear()
        primes_used.clear()
        assert solve_or_refute(matrix, rhs) == want
        assert [p for p, _ in primes_used] == [FIRST_PRIME, SECOND_PRIME]
        first, second = (profile for _, profile in primes_used)
        assert first > second


def test_transposed_pass_pivots_on_its_diagonal(monkeypatch):
    # a refutation's transposed system, in pivot-row order, is solved on
    # its diagonal with no 0 = 0 row and no refutation, so it always
    # closes; small primes make zero pivots frequent in the pass over A
    eliminate = exactmath._eliminate_mod
    running, transposed = [], []

    def spy(rows, values, ncols, p):
        running.append(p)
        try:
            profile, vector = eliminate(rows, values, ncols, p)
        finally:
            running.pop()
        if running:
            transposed.append((profile, ncols))
        return profile, vector

    monkeypatch.setattr(exactmath, "_eliminate_mod", spy)
    rng = random.Random(3)
    for _ in range(300):
        ncols = rng.randint(3, 12)
        rows, rhs = _random_tall_system(rng, ncols)
        for p in (FIRST_PRIME, SECOND_PRIME, 7, 13):
            profile, u = exactmath._eliminate_mod(rows, rhs, ncols, p)
            if profile[-1] == ncols:
                assert all(sum(ui * row.get(j, 0) for ui, row in zip(u, rows)) % p == 0 for j in range(ncols))
                assert sum(ui * b for ui, b in zip(u, rhs)) % p
    assert len(transposed) > 100
    assert all(profile == list(range(n)) for profile, n in transposed)


def test_refutation_after_many_zero_rows():
    # each of three independent rows is followed by 20 consistent
    # combinations of the rows so far, which reduce to 0 = 0; then a
    # copy of the last row reads 0 = 1/3, and the pass never reaches
    # the rows after it
    base = [[1, 2, 0, 0, 3, 0], [0, 1, 0, Fraction(1, 2), 0, 1], [2, 0, 0, 1, 1, -1]]
    rng = random.Random(7)
    rows, rhs = [], []
    for k in range(3):
        rows.append(base[k])
        rhs.append(k + 1)
        for _ in range(20):
            coeffs = [rng.randint(-3, 3) for _ in range(k + 1)]
            rows.append([sum(c * base[i][j] for i, c in enumerate(coeffs)) for j in range(6)])
            rhs.append(sum(c * (i + 1) for i, c in enumerate(coeffs)))
    rows += [rows[-1], [1] * 6, [0, 0, 1, 0, 0, 0]]
    rhs += [rhs[-1] + Fraction(1, 3), 0, 5]
    w = _assert_matches_reference(rows, rhs)
    assert w.kind == REFUTATION
    assert {i for i, v in enumerate(w.vector) if v} <= {0, 21, 42, 63}
    assert w.vector[63] == 1


@pytest.mark.parametrize(
    "rows, rhs, kind",
    [
        ([[1, 0], [0, 3]], [2**80 + 1, 2**81], SOLUTION),
        ([[1], [2**80 + 1]], [1, 0], REFUTATION),
        ([[3**50, 1], [0, 7]], [2**80, 1], SOLUTION),
    ],
)
def test_witness_of_80_bits_needs_several_primes(primes_used, rows, rhs, kind):
    w = _assert_matches_reference(rows, rhs)
    assert w.kind == kind
    assert max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in w.vector) >= 80
    assert len(primes_used) >= 3


@pytest.mark.parametrize(
    "rows, rhs, kind",
    [
        # the 80-bit cases above with a copy of their first row, which
        # reads 0 = 0 and builds the fingerprint that skips the next row
        # (the first case also with a copy of its last row, so that more
        # rows than free columns remain after the copy)
        ([[1, 0], [1, 0], [0, 3], [0, 3]], [2**80 + 1, 2**80 + 1, 2**81, 2**81], SOLUTION),
        ([[1], [1], [2**80 + 1]], [1, 1, 0], REFUTATION),
    ],
)
def test_false_zero_after_partial_residues_restarts_the_lift(monkeypatch, caplog, primes_used, rows, rhs, kind):
    # the first pass is on the right profile but too short to lift the
    # 80-bit witness; a fingerprint of zeros in the second pass reads
    # the last row as 0 = 0, a larger profile, which replaces the first
    # pass's residues.  The third pass restarts on the right profile and
    # the fifth completes the lift
    fingerprint = exactmath._fingerprint
    calls = []

    def zero_second(pivots, ncols, p):
        z, users = fingerprint(pivots, ncols, p)
        calls.append(p)
        return ([0] * len(z) if len(calls) == 2 else z), users

    monkeypatch.setattr(exactmath, "_fingerprint", zero_second)
    with caplog.at_level(logging.DEBUG, logger="orbitcal.exactmath"):
        w = _assert_matches_reference(rows, rhs)
    assert w.kind == kind
    assert calls == list(PRIMES[:5])
    _assert_restarted_on(primes_used, 1)
    assert "primes=5, restarts=2," in caplog.records[-1].getMessage()


def _spy_verify(monkeypatch, failures):
    """Make ConsistencyWitness.verify answer False on its first
    `failures` calls and record every answer."""
    verify = ConsistencyWitness.verify
    answers = []

    def spy(self, matrix, rhs):
        answers.append(len(answers) >= failures and verify(self, matrix, rhs))
        return answers[-1]

    monkeypatch.setattr(ConsistencyWitness, "verify", spy)
    return answers


SMALL_SYSTEMS = [([[1, 0], [0, 3]], [1, 2]), ([[1, 1], [2, 2]], [1, 3])]


@pytest.mark.parametrize("rows, rhs", SMALL_SYSTEMS)
def test_witness_failing_one_plug_back_is_lifted_by_the_next_pass(monkeypatch, primes_used, rows, rhs):
    # the second pass lifts the same witness, and verify accepts it
    answers = _spy_verify(monkeypatch, 1)
    assert solve_or_refute(sparse_matrix(rows), rhs) == _reference_solve(rows, rhs)
    assert answers == [False, True]
    assert [p for p, _ in primes_used] == [FIRST_PRIME, SECOND_PRIME]


@pytest.mark.parametrize("rows, rhs", SMALL_SYSTEMS)
def test_witness_failing_every_plug_back_raises_after_two_passes(monkeypatch, primes_used, rows, rhs):
    answers = _spy_verify(monkeypatch, 2**30)
    kind = _reference_solve(rows, rhs).kind.lower()
    with pytest.raises(CertificateError, match=f"plug-back of the {kind} fails on a lift whose values repeat"):
        solve_or_refute(sparse_matrix(rows), rhs)
    assert answers == [False, False]
    assert [p for p, _ in primes_used] == [FIRST_PRIME, SECOND_PRIME]


def _encoded(values, p):
    return [Fraction(v).numerator * pow(Fraction(v).denominator, -1, p) % p for v in values]


def _run_on(monkeypatch, results):
    """Make _lift draw the primes of results, a dict prime -> what run
    gives for it, in order; returns run and the primes it was called
    with."""
    monkeypatch.setattr(exactmath, "_primes", lambda: iter(results))
    ran = []

    def run(p):
        ran.append(p)
        return results[p]

    return run, ran


def test_lift_combines_equal_shapes_and_restarts_on_a_new_one(monkeypatch):
    # shape "a" lifts to [3], which the check rejects; shape "b" restarts
    # the residues.  Modulo 137 its values do not reconstruct, modulo
    # 137 * 101 they reconstruct to a wrong fraction, which the check
    # rejects, and modulo 137 * 101 * 103 to the values themselves
    target = [Fraction(200, 3), -5]
    results = {131: ("a", _encoded([3], 131))} | {p: ("b", _encoded(target, p)) for p in (137, 101, 103, 107)}
    run, ran = _run_on(monkeypatch, results)
    checked = []

    def holds(shape, values):
        checked.append((shape, values))
        return values == target

    assert exactmath._lift(run, holds, str) == ("b", target, 1, [131, 137, 101, 103])
    assert checked == [("a", [3]), ("b", [Fraction(-79, 68), -5]), ("b", target)]
    assert ran == [131, 137, 101, 103]  # the lift stops at the first accepted prime


def test_lift_skips_a_prime_whose_run_gives_none(monkeypatch):
    # 20/3 reconstructs modulo 101 * 107, not modulo 101 alone; 103 is
    # skipped, neither counted nor combined, so the lift ends at 107
    target = [Fraction(20, 3), -5]
    results = {101: ("a", _encoded(target, 101)), 103: None, 107: ("a", _encoded(target, 107)), 109: None}
    run, ran = _run_on(monkeypatch, results)
    assert exactmath._lift(run, lambda shape, values: values == target, str) == ("a", target, 0, [101, 107])
    assert ran == [101, 103, 107]


def test_lift_rejected_twice_unchanged_raises(monkeypatch):
    # a new shape forgets the rejected lift; the same shape does not
    run, ran = _run_on(monkeypatch, {101: ("a", [3]), 103: ("b", [3]), 107: ("b", [3]), 109: ("b", [3])})
    checked = []

    def holds(shape, values):
        checked.append(shape)
        return False

    with pytest.raises(CertificateError, match="^stage b fails on a lift whose values repeat under a larger modulus"):
        exactmath._lift(run, holds, lambda shape: f"stage {shape}")
    assert checked == ["a", "b", "b"]
    assert ran == [101, 103, 107]


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
    # the second row is the first 0 = 0 and is reduced; the fourth, the
    # sum of the first and the third, is skipped by the fingerprint
    A = sparse_matrix([[1, 1], [2, 2], [0, 1], [1, 2]])
    with caplog.at_level(logging.DEBUG, logger="orbitcal.exactmath"):
        solve_or_refute(A, [1, 2, 3, 4])
        solve_or_refute(A, [1, 3, 0, 1])
    messages = [r.getMessage() for r in caplog.records if r.name == "orbitcal.exactmath"]
    assert messages == [
        "solve 4x2 nnz=7: SOLUTION, pivots=2, primes=1, restarts=0, skipped=1, witness_bits=2",
        "solve 4x2 nnz=7: REFUTATION, pivots=1, primes=1, restarts=0, skipped=0, witness_bits=2",
    ]


def _problems():
    sl2 = repmodel.sl2_binary_forms(2)
    for a, verdict in (((1, 0, 0), decider.IN_CLOSURE), ((0, 1, 0), decider.NOT_IN_CLOSURE)):
        yield decider.conic_problem(sl2, a, (1, 2, 1), degree_bound_override=3), verdict, False
    # the base z1^2 has zero coordinates, so paper_decide scrambles the basis
    yield decider.conic_problem(sl2, (1, 2, 1), (1, 0, 0), degree_bound_override=2), decider.IN_CLOSURE, True


@pytest.mark.parametrize("problem, verdict, scrambled", list(_problems()))
def test_decide_certificates_equal_the_fraction_loop(problem, verdict, scrambled):
    decision, system = decider.paper_decide(problem, seed=1, keep_system=True)
    assert decision.verdict == verdict
    assert (decision.transcript["scramble"] is not None) == scrambled
    assert decision.certificate == _reference_solve(_dense(system.matrix), system.rhs)
    # and on the evaluation system, which is never scrambled
    decision, system = decider.decide(problem, seed=1, keep_system=True)
    assert decision.verdict == verdict
    assert decision.certificate == _reference_solve(_dense(system.matrix), system.rhs)


def test_rational_problem_clears_one_common_denominator():
    # a = (2, 1/2) on the hyperbola: the conified target has a
    # denominator, so the system is cleared by D > 1
    problem = decider.conic_problem(hyperbola_rep(), (2, Fraction(1, 2)), (1, 1), degree_bound_override=2)
    decision, system = decider.paper_decide(problem, keep_system=True)
    assert decision.verdict == decider.IN_CLOSURE
    assert all(type(v) is int for v in system.matrix.entries.values())
    one = system.row_monomials.index((0,) * len(system.row_monomials[0]))
    D = system.rhs[one]
    assert D > 1 and not any(system.rhs[:one] + system.rhs[one + 1 :])
    unscaled = [[Fraction(v, D) for v in row] for row in _dense(system.matrix)]
    assert any(v.denominator > 1 for row in unscaled for v in row)
    assert decision.certificate == _reference_solve(unscaled, [Fraction(b, D) for b in system.rhs])


def _random_rational_rows(rng, nrows, ncols):
    return [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) if rng.random() < 0.4 else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]


def _tall_refuted_rational_system(rng):
    """Five independent rational rows in 8 columns, 120 consistent
    combinations of them, which reduce to 0 = 0, then a combination
    whose right-hand side is off by 1/5, which refutes, and two more
    rows that the pass never reaches."""
    base = _random_rational_rows(rng, 5, 8)
    base_rhs = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in base]
    rows, rhs = list(base), list(base_rhs)
    for extra in [0] * 120 + [Fraction(1, 5)]:
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in base]
        rows.append([sum(c * row[j] for c, row in zip(coeffs, base)) for j in range(8)])
        rhs.append(sum(c * b for c, b in zip(coeffs, base_rhs)) + extra)
    rows += _random_rational_rows(rng, 2, 8)
    rhs += [1, 2]
    return rows, rhs


def test_random_systems_of_both_kinds_match():
    # each rational system is cleared by D, -3 D and FIRST_PRIME * D
    rng = random.Random(5)
    kinds = set()
    systems = []
    for _ in range(200):
        rows = _random_rational_rows(rng, rng.randint(1, 12), rng.randint(1, 12))
        systems.append((rows, [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in rows]))
    systems.append(_tall_refuted_rational_system(rng))
    for rows, rhs in systems:
        for factor in (1, -3, FIRST_PRIME):
            kinds.add(_assert_matches_reference(rows, rhs, factor).kind)
    assert kinds == {SOLUTION, REFUTATION}
    # the tall system refutes on its row 125, after at least 100 rows
    # that read 0 = 0, with the pivot rows before it
    w = _assert_matches_reference(*systems[-1])
    assert w.kind == REFUTATION and w.vector[125] == 1
    assert not any(w.vector[126:])
    assert sum(map(bool, w.vector[:125])) <= 5


def test_non_integer_entries_and_rhs_are_rejected():
    with pytest.raises(ValueError, match="not an integer"):
        sparse_matrix([[1, Fraction(1, 2)]])
    with pytest.raises(ValueError, match="ragged"):
        sparse_matrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="negative"):
        SparseMatrix(-1, 2)
    with pytest.raises(ValueError, match="right-hand side"):
        solve_or_refute(sparse_matrix([[1, 2]]), [Fraction(1, 2)])
