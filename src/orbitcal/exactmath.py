"""Exact integer linear algebra.

Everything here is over Z or Z/p, with Fractions only for witnesses,
determinants and the dense input of det; there is no floating point
anywhere.  Linear systems are integer and stored by rows, one term
dict per row; a system over Q comes in with one common denominator
cleared, which changes neither its solutions nor its refuting
combinations.  solve_or_refute eliminates modulo one word-size prime
per pass and returns a witness only after an exact plug-back in
integers, so callers need neither trust the elimination nor check the
witness again.  Its passes keep no row history: a refutation's
combination solves a square transposed system on the pivot rows, by
one more pass.  rank_mod runs the same elimination modulo one fixed
prime; det and integer_left_kernel share one unimodular row reduction.
_lift, the one prime loop from residues to Q for solve_or_refute and
elim.closure_equations, states when a lift restarts and when it ends.
"""

from __future__ import annotations

import logging
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import isqrt, lcm, prod
from operator import mul
from random import Random

from orbitcal.errors import CertificateError

_log = logging.getLogger("orbitcal.exactmath")

SOLUTION = "SOLUTION"
REFUTATION = "REFUTATION"
_ZERO = Fraction(0)


class SparseMatrix:
    """Sparse integer matrix stored by rows: row_terms[i] maps a column
    to the nonzero int in row i, and entries is a new dict of the same
    values keyed by (row, col).  A matrix over Q is stored with one
    common denominator cleared.  The constructor gives a zero matrix of
    the shape, whose row_terms the caller fills.  A negative dimension
    raises ValueError."""

    __slots__ = ("rows", "cols", "row_terms")

    def __init__(self, rows: int, cols: int):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimension")
        self.rows = rows
        self.cols = cols
        self.row_terms: list[dict[int, int]] = [{} for _ in range(rows)]

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        return {(i, j): v for i, row in enumerate(self.row_terms) for j, v in row.items()}

    @property
    def nnz(self) -> int:
        return sum(map(len, self.row_terms))

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


class ConsistencyWitness:
    """Either a solution x of A x = v or a refuting row combination u
    with u A = 0 and u v != 0 (Kronecker-Capelli certificate).  The
    vector holds Fractions: a Fraction entry is kept as it is, every
    zero is one shared Fraction(0), and anything else is converted."""

    __slots__ = ("kind", "vector")

    def __init__(self, kind: str, vector):
        if kind not in (SOLUTION, REFUTATION):
            raise ValueError(f"unknown witness kind {kind!r}")
        self.kind = kind
        self.vector = tuple(x if type(x) is Fraction else Fraction(x) if x else _ZERO for x in vector)

    def verify(self, matrix: SparseMatrix, rhs) -> bool:
        """Exact plug-back check of the witness against the integer
        system (matrix, rhs), run in integers: the witness is scaled by
        the lcm of its denominators."""
        rhs = list(rhs)
        length = matrix.cols if self.kind == SOLUTION else matrix.rows
        if len(rhs) != matrix.rows or len(self.vector) != length:
            return False
        scale = lcm(*(v.denominator for v in self.vector))
        w = [v.numerator * (scale // v.denominator) for v in self.vector]
        if self.kind == SOLUTION:
            sums = [0] * matrix.rows
            for i, row in enumerate(matrix.row_terms):
                for j, v in row.items():
                    if w[j]:
                        sums[i] += v * w[j]
            return all(total == b * scale for total, b in zip(sums, rhs))
        sums = [0] * matrix.cols
        for u, row in zip(w, matrix.row_terms):
            if u:
                for j, v in row.items():
                    sums[j] += u * v
        return not any(sums) and sum(u * b for u, b in zip(w, rhs)) != 0

    def __eq__(self, other):
        return (
            isinstance(other, ConsistencyWitness)
            and self.kind == other.kind
            and self.vector == other.vector
        )

    def __repr__(self):
        return f"ConsistencyWitness({self.kind}, {self.vector})"


def solve_or_refute(matrix: SparseMatrix, rhs) -> ConsistencyWitness:
    """Decide consistency of the integer system A x = v over Q with an
    exact witness.

    Consistency over Q is rank-determined, hence invariant under any
    field extension; the returned witness always passes verify().

    Rows are taken in order; each is reduced against the pivots from
    the lowest column up and pivots on its lowest remaining column, and
    free variables are zero.  This pivot profile (the outcome of every
    row) determines the witness: the solution supported on the pivot
    columns, or the row combination that first reduces to 0 = nonzero,
    with coefficient 1 on that row.

    Every pass runs modulo one prime below 2^62.  _lift runs the passes
    prime after prime, the largest first, and lifts them, with the
    profile as their shape and verify(), the only plug-back a caller
    needs, as its check; see _lift for the restarts and the end.  A
    profile other than the one over Q needs the prime to divide a pivot
    or the final b of a 0 = b row that the elimination over Q keeps
    nonzero, or a false zero of the kernel fingerprint (_eliminate_mod),
    and either only makes the profile larger: its witness fails the
    plug-back and the next prime restarts the lift, or it passes as an
    exact certificate, though not the one the profile over Q determines.
    A right-hand side that is not all ints raises ValueError.

    At DEBUG, logger orbitcal.exactmath gets one line per solve: the
    system's shape and nonzeros, the witness kind, the pivots of the
    profile, primes=K, the passes over the whole system (a refutation's
    transposed pass is part of its pass), restarts=R, the passes whose
    profile differed from the one before, skipped=S, the rows the
    accepted pass skipped by its fingerprint (_skipped), and the bits of
    the largest numerator or denominator of the witness.
    """
    if matrix.rows < 1 or matrix.cols < 1:
        raise ValueError("system must have at least one row and one column")
    rhs = list(rhs)
    if len(rhs) != matrix.rows:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    if not all(isinstance(b, int) for b in rhs):
        raise ValueError("the right-hand side must be integers")

    witness = None

    def kind(profile):
        return REFUTATION if profile[-1] == matrix.cols else SOLUTION

    def verified(profile, values):
        nonlocal witness
        witness = ConsistencyWitness(kind(profile), values)
        return witness.verify(matrix, rhs)

    profile, _, restarts, primes = _lift(
        lambda p: _eliminate_mod(matrix.row_terms, rhs, matrix.cols, p),
        verified,
        lambda profile: f"solve_or_refute: the plug-back of the {kind(profile).lower()}",
    )
    if _log.isEnabledFor(logging.DEBUG):
        bits = max(max(abs(v.numerator), v.denominator) for v in witness.vector).bit_length()
        _log.debug(
            "solve %dx%d nnz=%d: %s, pivots=%d, primes=%d, restarts=%d, skipped=%d, witness_bits=%d",
            matrix.rows, matrix.cols, matrix.nnz, witness.kind,
            sum(c < matrix.cols for c in profile), len(primes), restarts,
            _skipped(profile, matrix.rows, matrix.cols), bits,
        )
    return witness


def _lift(run, holds, stage):
    """(shape, values, restarts, primes) for the first lift over Q of
    residues that holds(shape, values) accepts: the one prime loop
    behind solve_or_refute and elim.closure_equations.

    run(p) gives, modulo the prime p, the shape of a result (a pivot
    profile, the supports of some polynomials) and its values there, a
    flat list of ints; or None, which skips p.  The primes are _primes(),
    and primes lists those that run did not skip.  Residues of equal
    shapes are combined by CRT; a shape unlike the one before replaces
    them and counts as a restart.  After each prime the residues are
    rationally reconstructed (_reconstruct), and a value that does not
    reconstruct, or a lift that holds rejects, takes the next prime.

    While the shape stays, the modulus grows until the values over Q
    reconstruct, and from then on every prime lifts the same values.
    So a lift that holds rejects twice, unchanged under a larger
    modulus, is final: it raises CertificateError, whose message begins
    with stage(shape)."""
    shape = residues = failed = None
    modulus = restarts = 0
    primes = []
    for p in _primes():
        result = run(p)
        if result is None:
            continue
        primes.append(p)
        new, more = result
        if new == shape:
            residues = _crt(residues, modulus, more, p)
            modulus *= p
        else:
            restarts += shape is not None
            shape, residues, modulus, failed = new, more, p, None
        values = _reconstruct(residues, modulus)
        if values is None:
            continue
        if holds(shape, values):
            return shape, values, restarts, primes
        if values == failed:
            raise CertificateError(f"{stage(shape)} fails on a lift whose values repeat under a larger modulus")
        failed = values


def _eliminate_mod(rows, values, ncols, p):
    """One pass of the elimination over Z/p on the integer rows (dicts
    column -> value) and right-hand side values.  Returns the profile,
    the outcome of each row (its pivot column, ncols for 0 = nonzero,
    which ends the pass, ncols + 1 for 0 = 0), and the residues of the
    witness: the refuting row combination (_refutation) or the
    solution.

    Each row is reduced against the pivots from the lowest column up
    and stops at its lowest column without a pivot (_reduce).  At the
    first row that reads 0 = 0 while more rows remain than columns
    without a pivot, so that a later row, too, must read 0 = 0 or
    refute, the pass builds z, a vector over Z/p in the kernel of the
    augmented pivot rows (_fingerprint).  From then on a row (r | b) is
    first tested against z and recorded as 0 = 0 when (r | -b).z = 0,
    without a reduction.  A row in the span of the pivot rows reads 0
    and would reduce to 0 = 0, so no outcome changes; a row that reads
    nonzero is reduced, and a new pivot keeps z in the kernel
    (_add_pivot).  Building and keeping z costs about a pass over the
    pivots, more than a few skipped rows save, and a system with no
    more rows than columns never builds it.  The rule decides only how
    much a pass costs, never its profile or residues: no outcome
    depends on it.  z is pseudo-random on
    the columns without a pivot and the right-hand side, so a row
    outside the span reads 0 with chance at most 1/p (Schwartz 1980);
    such a false zero turns its row's outcome into ncols + 1, a
    lexicographically larger profile, on which the lift restarts as it
    does for a prime that divides a pivot.  p is prime, so every nonzero
    pivot and final b is a unit."""
    # pivot column -> (row without its pivot entry, rhs), normalized so
    # that the pivot entry is 1
    pivots: dict[int, tuple[dict[int, int], int]] = {}
    profile: list[int] = []
    z = users = None
    for idx, src in enumerate(rows):
        b = values[idx] % p
        if z is not None and not (sum(map(mul, src.values(), map(z.__getitem__, src))) - b * z[ncols]) % p:
            profile.append(ncols + 1)
            continue
        row = {j: r for j, v in src.items() if (r := v % p)}
        col, b = _reduce(row, b, pivots, p)
        if col is None:
            if b:
                profile.append(ncols)
                return profile, _refutation(rows, profile, p)
            profile.append(ncols + 1)
            if z is None and len(rows) - idx - 1 > ncols - len(pivots):
                z, users = _fingerprint(pivots, ncols, p)
            continue
        profile.append(col)
        pivots[col] = _normalized(row, b, col, p)
        if z is not None:
            _add_pivot(col, pivots, users, z, p)

    # the solution is the kernel vector with 0 on the free columns and
    # 1 in the right-hand side slot
    x = [0] * ncols + [1]
    for col in sorted(pivots, reverse=True):
        x[col] = _kernel_entry(pivots[col], x, p)
    return profile, x[:-1]


def _skipped(profile, nrows, ncols):
    """The rows that a pass of this profile over nrows rows skipped by
    its fingerprint: the 0 = 0 rows after the one at which
    _eliminate_mod built z."""
    pivots = 0
    for idx, col in enumerate(profile):
        if col == ncols + 1 and nrows - idx - 1 > ncols - pivots:
            return profile[idx + 1 :].count(ncols + 1)
        pivots += col < ncols
    return 0


def _kernel_entry(pivot, z, p):
    """The value on a pivot column that puts z, whose last slot is the
    right-hand side's, in the kernel of its augmented pivot row
    (1, row | -b)."""
    row, b = pivot
    return (b * z[-1] - sum(v * z[j] for j, v in row.items())) % p


def _fingerprint(pivots, ncols, p):
    """z, a vector in the kernel of the augmented pivot rows, and the
    index column -> the pivot columns whose rows hold it.  z has a slot
    for each column and, last, one for the right-hand side.  The slots
    of the columns without a pivot and of the right-hand side take
    pseudo-random values derived from p, so that two runs give the same
    pass; the pivots are then added from the highest column down, so
    that no change propagates: a pivot row holds only columns above its
    own."""
    rng = Random(p)
    bits = p.bit_length() + 64
    z = [rng.getrandbits(bits) % p for _ in range(ncols + 1)]
    users: dict[int, list[int]] = {}
    for col in sorted(pivots, reverse=True):
        _add_pivot(col, pivots, users, z, p)
    return z, users


def _add_pivot(col, pivots, users, z, p):
    """Keep z in the kernel when col, a free column until now, gets a
    pivot.  z[col] becomes the new row's kernel entry; a change of delta
    on a column changes each pivot column whose row holds it by -delta
    times that entry, taken from the highest column down so that each
    pivot column is settled once."""
    pending = {col: _kernel_entry(pivots[col], z, p) - z[col]}
    heap = [-col]
    while heap:
        c = -heappop(heap)
        delta = pending.pop(c) % p
        if not delta:
            continue
        z[c] = (z[c] + delta) % p
        for pc in users.get(c, ()):
            change = -pivots[pc][0][c] * delta
            if pc in pending:
                pending[pc] += change
            else:
                pending[pc] = change
                heappush(heap, -pc)
    for j in pivots[col][0]:
        users.setdefault(j, []).append(col)


def _refutation(rows, profile, p):
    """The refuting combination u of a pass whose last row, k, read 0 =
    nonzero: u_k = 1, and 0 off k and the pivot rows P.  Row k reduced
    to zero against P, and A_P is invertible mod p on the pivot columns,
    where its echelon form is triangular with unit diagonal; so u_P, the
    u of any row history, is the one solution of A_P^T u_P = -A_k^T on
    those columns.  One _eliminate_mod pass solves it, with equations and
    unknowns in pivot-row order, so that it pivots on its diagonal, on
    units, through the leading minors of the pass over A: it reads no 0 =
    0 row and no refutation."""
    # the pivot rows, then row k, the only one whose outcome is ncols; its
    # entries go to the slot n
    used = [i for i, c in enumerate(profile) if c <= profile[-1]]
    n = len(used) - 1
    equation = {profile[i]: e for e, i in enumerate(used[:-1])}
    terms: list[dict[int, int]] = [{} for _ in range(n)]
    for t, i in enumerate(used):
        for j, v in rows[i].items():
            if (e := equation.get(j)) is not None:
                terms[e][t] = v
    _, x = _eliminate_mod(terms, [-row.pop(n, 0) for row in terms], n, p)
    u = [0] * len(rows)
    for i, v in zip(used, x + [1]):
        u[i] = v
    return u


def _reduce(row, b, pivots, p):
    """Reduce row (in place) and its right-hand side b against the
    pivots mod p; returns the row's lowest column that has no pivot
    (None if the row is emptied) and the reduced b."""
    # Eliminating pivot column c only adds columns above c, so the
    # columns come off the heap in increasing order; the row stops at
    # its lowest column that has no pivot.
    heap = list(row)
    heapify(heap)
    while heap:
        c = heappop(heap)
        factor = row.get(c)
        if factor is None:
            continue
        if c not in pivots:
            return c, b
        del row[c]
        prow, pb = pivots[c]
        for j, v in prow.items():
            cur = row.get(j)
            if cur is None:
                row[j] = -factor * v % p
                heappush(heap, j)
            else:
                cur = (cur - factor * v) % p
                if cur:
                    row[j] = cur
                else:
                    del row[j]
        b = (b - factor * pb) % p
    return None, b


def _normalized(row, b, col, p):
    """(row, b) with the pivot entry on col removed from row and both
    scaled so that it would be 1."""
    pivot = row.pop(col)
    inv = pow(pivot, -1, p)
    if inv != 1:
        row = {j: v * inv % p for j, v in row.items()}
        b = b * inv % p
    return row, b


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases, which is
    deterministic for n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in bases:
        y = pow(a, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


# the four largest primes below 2^62
_FIRST_PRIMES = tuple((1 << 62) - k for k in (57, 87, 117, 143))
RANK_PRIME = _FIRST_PRIMES[0]


def rank_mod(rows) -> int:
    """Rank over Z/RANK_PRIME of integer rows (dicts column -> value)."""
    ncols = 1 + max((j for row in rows for j in row), default=-1)
    profile, _ = _eliminate_mod(rows, [0] * len(rows), ncols, RANK_PRIME)
    return sum(col < ncols for col in profile)


def _primes():
    """The primes below 2^62 in descending order."""
    yield from _FIRST_PRIMES
    n = _FIRST_PRIMES[-1]
    while True:
        n -= 2
        if _is_prime(n):
            yield n


def _crt(residues, modulus, more, p):
    """Combine residues mod `modulus` with residues mod a prime p that
    does not divide it."""
    m_inv = pow(modulus, -1, p)
    return [x + modulus * ((y - x) * m_inv % p) for x, y in zip(residues, more)]


def _reconstruct(residues, modulus):
    """Rational reconstruction (Wang): for each residue a, the fraction
    n/d with n = a d mod modulus and |n|, d <= sqrt(modulus/2), which is
    unique when it exists.  None when the remainder sequence yields no
    denominator in range.  The plug-back rejects any other miss."""
    bound = isqrt(modulus // 2)
    values = []
    for a in residues:
        if a <= bound:
            values.append(a)
        elif modulus - a <= bound:
            values.append(a - modulus)
        else:
            r0, r1, s0, s1 = modulus, a, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1 = r1, r0 - q * r1
                s0, s1 = s1, s0 - q * s1
            if abs(s1) > bound:
                return None
            values.append(Fraction(r1, s1))
    return values


def _integer_matrix(rows) -> tuple[list[list[int]], int]:
    """A dense rational matrix with each row scaled to integers by the
    lcm of its denominators, and the product of those scales."""
    out = []
    scales = 1
    for row in rows:
        row = [Fraction(v) for v in row]
        scale = lcm(*(v.denominator for v in row))
        out.append([v.numerator * (scale // v.denominator) for v in row])
        scales *= scale
    return out, scales


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    return x, y, g


def _integer_echelon(work: list[list[int]], width: int) -> tuple[int, int]:
    """Unimodular row reduction of the first `width` columns, pivots
    made positive.  Returns the number of pivot rows, which end up on
    top, and the determinant (+1 or -1) of the row operations: swaps
    and negations flip it, the Bezout step has determinant 1."""
    nrows = len(work)
    r = 0
    sign = 1
    for col in range(width):
        pivot_row = None
        for i in range(r, nrows):
            if work[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            sign = -sign
        for i in range(r + 1, nrows):
            a, b = work[r][col], work[i][col]
            if not b:
                continue
            if b % a == 0:
                q = b // a
                work[i] = [vi - q * vr for vi, vr in zip(work[i], work[r])]
            else:
                x, y, g = _bezout(a, b)
                ag, bg = a // g, b // g
                new_r = [x * vr + y * vi for vr, vi in zip(work[r], work[i])]
                new_i = [-bg * vr + ag * vi for vr, vi in zip(work[r], work[i])]
                work[r], work[i] = new_r, new_i
        if work[r][col] < 0:
            work[r] = [-v for v in work[r]]
            sign = -sign
        r += 1
    return r, sign


def integer_left_kernel(matrix) -> list[tuple[int, ...]]:
    """Basis of the lattice {c in Z^rows : c M = 0}, via unimodular row
    reduction of [M | I]; the basis is returned in echelon form with
    positive pivots."""
    data = [list(map(int, row)) for row in matrix]
    nrows = len(data)
    if nrows == 0:
        return []
    ncols = len(data[0])
    if any(len(row) != ncols for row in data):
        raise ValueError("ragged rows")
    work = [row + [1 if k == i else 0 for k in range(nrows)] for i, row in enumerate(data)]
    npiv, _ = _integer_echelon(work, ncols)
    kernel = [row[ncols:] for row in work[npiv:]]
    _integer_echelon(kernel, nrows)
    return [tuple(row) for row in kernel]


def det(rows) -> Fraction:
    """Exact determinant of a square matrix over Q: the row operations
    of _integer_echelon times the pivots, over the row scales."""
    work, scales = _integer_matrix(rows)
    n = len(work)
    if any(len(row) != n for row in work):
        raise ValueError("matrix not square")
    npiv, sign = _integer_echelon(work, n)
    if npiv < n:
        return Fraction(0)
    return Fraction(sign * prod(work[i][i] for i in range(n)), scales)
