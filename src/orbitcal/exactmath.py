"""Exact rational and integer linear algebra.

Everything here is over Q (stdlib Fractions), Z or Z/p; there is no
floating point anywhere.  Consistency answers come with a witness that
is re-verified by exact plug-back in integers, so downstream callers
never have to trust the elimination code.  solve_or_refute eliminates
modulo word-size primes and recovers the witness by CRT and rational
reconstruction; the plug-back is the only gate on what it returns.
rank and det share one dense Gauss-Jordan elimination over Fractions.
"""

from __future__ import annotations

import logging
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import isqrt, lcm

from orbitcal.errors import CertificateError

_log = logging.getLogger("orbitcal.exactmath")

SOLUTION = "SOLUTION"
REFUTATION = "REFUTATION"


class SparseMatrix:
    """Sparse exact matrix over Q; entries maps (row, col) to a nonzero Fraction."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimension")
        self.rows = rows
        self.cols = cols
        self.entries: dict[tuple[int, int], Fraction] = {}
        if entries:
            for (i, j), v in entries.items():
                self[i, j] = v

    @classmethod
    def from_rows(cls, data) -> "SparseMatrix":
        data = [list(row) for row in data]
        cols = len(data[0]) if data else 0
        m = cls(len(data), cols)
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    m.entries[(i, j)] = Fraction(v)
        return m

    def __getitem__(self, key) -> Fraction:
        return self.entries.get(key, Fraction(0))

    def __setitem__(self, key, value):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        value = Fraction(value)
        if value:
            self.entries[key] = value
        else:
            self.entries.pop(key, None)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def row_dicts(self) -> list[dict[int, Fraction]]:
        rows: list[dict[int, Fraction]] = [{} for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def mul_vector(self, x) -> list[Fraction]:
        if len(x) != self.cols:
            raise ValueError("dimension mismatch")
        out = [Fraction(0)] * self.rows
        for (i, j), v in self.entries.items():
            out[i] += v * x[j]
        return out

    def left_mul_vector(self, u) -> list[Fraction]:
        if len(u) != self.rows:
            raise ValueError("dimension mismatch")
        out = [Fraction(0)] * self.cols
        for (i, j), v in self.entries.items():
            out[j] += u[i] * v
        return out

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


class ConsistencyWitness:
    """Either a solution x of A x = v or a refuting row combination u
    with u A = 0 and u v != 0 (Kronecker-Capelli certificate)."""

    __slots__ = ("kind", "vector")

    def __init__(self, kind: str, vector):
        if kind not in (SOLUTION, REFUTATION):
            raise ValueError(f"unknown witness kind {kind!r}")
        self.kind = kind
        self.vector = tuple(Fraction(x) for x in vector)

    def verify(self, matrix: SparseMatrix, rhs) -> bool:
        """Exact plug-back check of the witness against (matrix, rhs).

        The check runs in integers: the witness is scaled by the lcm of
        its denominators, and each row (for A x = v) or column (for
        u A = 0) of the system by the lcm of its own denominators."""
        rhs = [Fraction(x) for x in rhs]
        if len(rhs) != matrix.rows:
            return False
        if self.kind == SOLUTION:
            if len(self.vector) != matrix.cols:
                return False
            scale = lcm(*(x.denominator for x in self.vector))
            x = [v.numerator * (scale // v.denominator) for v in self.vector]
            row_scale = [b.denominator for b in rhs]
            for (i, _), v in matrix.entries.items():
                if v.denominator != 1:
                    row_scale[i] = lcm(row_scale[i], v.denominator)
            sums = [0] * matrix.rows
            for (i, j), v in matrix.entries.items():
                if x[j]:
                    sums[i] += v.numerator * (row_scale[i] // v.denominator) * x[j]
            return all(
                total == b.numerator * (d // b.denominator) * scale
                for total, b, d in zip(sums, rhs, row_scale)
            )
        if len(self.vector) != matrix.rows:
            return False
        scale = lcm(*(u.denominator for u in self.vector))
        u = [v.numerator * (scale // v.denominator) for v in self.vector]
        col_scale = [1] * matrix.cols
        for (_, j), v in matrix.entries.items():
            if v.denominator != 1:
                col_scale[j] = lcm(col_scale[j], v.denominator)
        sums = [0] * matrix.cols
        for (i, j), v in matrix.entries.items():
            if u[i]:
                sums[j] += u[i] * v.numerator * (col_scale[j] // v.denominator)
        if any(sums):
            return False
        rhs_scale = lcm(*(b.denominator for b in rhs))
        return sum(ui * b.numerator * (rhs_scale // b.denominator) for ui, b in zip(u, rhs)) != 0

    def __eq__(self, other):
        return (
            isinstance(other, ConsistencyWitness)
            and self.kind == other.kind
            and self.vector == other.vector
        )

    def __repr__(self):
        return f"ConsistencyWitness({self.kind}, {self.vector})"


def solve_or_refute(matrix: SparseMatrix, rhs) -> ConsistencyWitness:
    """Decide consistency of A x = v over Q with an exact witness.

    Consistency over Q is rank-determined, hence invariant under any
    field extension; the returned witness always passes verify().

    Rows are taken in order; each is reduced against the pivots from
    the lowest column up and pivots on its lowest remaining column, and
    free variables are zero.  This pivot profile (the outcome of every
    row) determines the witness: the solution supported on the pivot
    columns, or the row combination that first reduces to 0 = nonzero.

    The elimination runs over Z/p for primes just below 2^62, skipping
    any prime that divides a denominator.  A prime that divides a value
    the elimination over Q keeps nonzero can only make the profile
    lexicographically larger, so a larger profile is dropped and a
    smaller one restarts the residues.  Residues of primes that share
    the profile are combined by CRT and rationally reconstructed.  The
    witness is returned once two primes agree on the profile and it
    passes verify(), so one prime dividing a pivot cannot change it; a
    failed reconstruction or plug-back adds a prime.  Past a
    Hadamard-type bound on the CRT modulus the profile and the
    reconstruction are certain, so a failure there raises
    CertificateError.
    """
    if matrix.rows < 1 or matrix.cols < 1:
        raise ValueError("system must have at least one row and one column")
    rhs = [Fraction(x) for x in rhs]
    if len(rhs) != matrix.rows:
        raise ValueError("dimension mismatch between matrix and right-hand side")

    int_rows, int_rhs, scales = _integer_rows(matrix, rhs)
    distinct_scales = set(scales)
    best = residues = None
    modulus = agreeing = primes_used = 0
    bound_bits = None
    for p in _primes():
        if any(d % p == 0 for d in distinct_scales):
            continue
        primes_used += 1
        profile, vector = _eliminate_mod(int_rows, int_rhs, scales, matrix.cols, p)
        if best is None or profile < best:
            best, residues, modulus, agreeing = profile, vector, p, 1
        elif profile == best:
            residues = _crt(residues, modulus, vector, p)
            modulus *= p
            agreeing += 1
        if agreeing < 2:
            continue
        kind = REFUTATION if best[-1] == matrix.cols else SOLUTION
        candidate = _reconstruct(residues, modulus)
        if candidate is not None:
            witness = ConsistencyWitness(kind, candidate)
            if witness.verify(matrix, rhs):
                if _log.isEnabledFor(logging.DEBUG):
                    bits = max(max(abs(v.numerator), v.denominator) for v in witness.vector).bit_length()
                    _log.debug(
                        "solve %dx%d nnz=%d: %s, pivots=%d, primes=%d, witness_bits=%d",
                        matrix.rows, matrix.cols, matrix.nnz, kind,
                        sum(c < matrix.cols for c in best), primes_used, bits,
                    )
                return witness
        if bound_bits is None:
            bound_bits = _witness_bound_bits(int_rows, int_rhs, scales)
        if modulus.bit_length() > bound_bits:
            raise CertificateError(f"internal {kind.lower()} failed plug-back")


def _integer_rows(matrix, rhs):
    """The rows of [A|v] scaled to integers: row i is multiplied by
    scales[i], the lcm of its denominators.  Returns the rows of A as
    dicts column -> integer, the entries of v and the scales."""
    rows: list[dict] = [{} for _ in range(matrix.rows)]
    scales = [b.denominator for b in rhs]
    for (i, j), v in matrix.entries.items():
        rows[i][j] = v
        if v.denominator != 1:
            scales[i] = lcm(scales[i], v.denominator)
    for i, (row, scale) in enumerate(zip(rows, scales)):
        if scale == 1:
            rows[i] = {j: v.numerator for j, v in row.items()}
        else:
            rows[i] = {j: v.numerator * (scale // v.denominator) for j, v in row.items()}
    values = [b.numerator * (scale // b.denominator) for b, scale in zip(rhs, scales)]
    return rows, values, scales


def _eliminate_mod(rows, values, scales, ncols, p):
    """One pass of the elimination over Z/p on the integer rows of
    _integer_rows.  Returns the profile, the outcome of each row (its
    pivot column, ncols for 0 = nonzero, which ends the pass, ncols + 1
    for 0 = 0), and the residues of the witness for the unscaled
    system: the refuting row combination or the solution."""
    # pivot column -> (row without its pivot entry, rhs, row history),
    # normalized so that the pivot entry is 1
    pivots: dict[int, tuple[dict[int, int], int, dict[int, int]]] = {}
    profile: list[int] = []
    for idx, src in enumerate(rows):
        row = {j: r for j, v in src.items() if (r := v % p)}
        b = values[idx] % p
        hist = {idx: 1}
        # Eliminating pivot column c only adds columns above c, so the
        # columns come off the heap in increasing order; the row stops
        # at its lowest column that has no pivot.
        heap = list(row)
        heapify(heap)
        col = None
        while heap:
            c = heappop(heap)
            factor = row.get(c)
            if factor is None:
                continue
            if c not in pivots:
                col = c
                break
            del row[c]
            prow, pb, phist = pivots[c]
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
            for j, v in phist.items():
                cur = hist.get(j)
                if cur is None:
                    hist[j] = -factor * v % p
                else:
                    cur = (cur - factor * v) % p
                    if cur:
                        hist[j] = cur
                    else:
                        del hist[j]
        if col is None:
            if b:
                profile.append(ncols)
                # row j of the scaled system is scales[j] times row j of
                # A, and the combination has coefficient 1 on row idx
                unscale = pow(scales[idx], -1, p)
                u = [0] * len(rows)
                for j, v in hist.items():
                    u[j] = v * scales[j] * unscale % p
                return profile, u
            profile.append(ncols + 1)
            continue
        profile.append(col)
        inv = pow(row.pop(col), -1, p)
        if inv != 1:
            row = {j: v * inv % p for j, v in row.items()}
            b = b * inv % p
            hist = {j: v * inv % p for j, v in hist.items()}
        pivots[col] = (row, b, hist)

    x = [0] * ncols
    for col in sorted(pivots, reverse=True):
        row, b, _ = pivots[col]
        x[col] = (b - sum(v * x[j] for j, v in row.items())) % p
    return profile, x


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


def _primes():
    """The primes below 2^62 in descending order."""
    yield from _FIRST_PRIMES
    n = _FIRST_PRIMES[-1]
    while True:
        n -= 2
        if _is_prime(n):
            yield n


def _crt(residues, modulus, more, p):
    """Combine residues mod `modulus` with residues mod the prime p."""
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


def _witness_bound_bits(rows, values, scales) -> int:
    """Bits of 2 B^2, where B = max_i d_i * prod_i max(1, |(A'|v')_i|)
    over the rows of the integer system [A'|v'] of _integer_rows, d_i
    being their scales.  Every minor of [A'|v'] is at most the product,
    so B bounds the numerators and denominators of the witness; a
    modulus above 2 B^2 reconstructs it, and the primes that share a
    wrong profile all divide one nonzero minor, so their product stays
    below B."""
    bits = sum(
        (isqrt(b * b + sum(v * v for v in row.values())) + 1).bit_length()
        for row, b in zip(rows, values)
    )
    return 2 * (bits + max(scales).bit_length()) + 1


def _gauss_jordan(rows) -> tuple[list[int], Fraction]:
    """Reduce a dense Fraction matrix in place to reduced row echelon
    form, pivoting on the first nonzero entry of each column.  Returns
    the pivot columns and the product of the pivots, signed by the row
    swaps; for a square matrix of full rank that product is the
    determinant."""
    pivots: list[int] = []
    product = Fraction(1)
    nrows = len(rows)
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot_row = next((i for i in range(r, nrows) if rows[i][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            product = -product
        pivot = rows[r][col]
        product *= pivot
        row = rows[r] = [v / pivot if v else v for v in rows[r]]
        for i in range(nrows):
            f = rows[i][col]
            if f and i != r:
                rows[i] = [vi - f * vr if vr else vi for vi, vr in zip(rows[i], row)]
        pivots.append(col)
    return pivots, product


def rank(rows) -> int:
    """Exact rank over Q of a dense matrix."""
    return len(_gauss_jordan([[Fraction(v) for v in row] for row in rows])[0])


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    return x, y, g


def _integer_echelon(work: list[list[int]], width: int) -> int:
    """Unimodular row reduction of the first `width` columns; returns
    the number of pivot rows, which end up on top."""
    nrows = len(work)
    r = 0
    for col in range(width):
        pivot_row = None
        for i in range(r, nrows):
            if work[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        for i in range(r + 1, nrows):
            a, b = work[r][col], work[i][col]
            if not b:
                continue
            if b % a == 0:
                q = b // a
                work[i] = [vi - q * vr for vi, vr in zip(work[i], work[r])]
            else:
                x, y, g = _xgcd(a, b)
                ag, bg = a // g, b // g
                new_r = [x * vr + y * vi for vr, vi in zip(work[r], work[i])]
                new_i = [-bg * vr + ag * vi for vr, vi in zip(work[r], work[i])]
                work[r], work[i] = new_r, new_i
        if work[r][col] < 0:
            work[r] = [-v for v in work[r]]
        r += 1
    return r


def integer_left_kernel(matrix) -> list[tuple[int, ...]]:
    """Basis of the lattice {c in Z^rows : c M = 0}, via unimodular row
    reduction of [M | I]; the basis is returned in Hermite normal form
    (positive pivots, entries above a pivot reduced)."""
    data = [list(map(int, row)) for row in matrix]
    nrows = len(data)
    if nrows == 0:
        return []
    ncols = len(data[0])
    if any(len(row) != ncols for row in data):
        raise ValueError("ragged rows")
    work = [row + [1 if k == i else 0 for k in range(nrows)] for i, row in enumerate(data)]
    npiv = _integer_echelon(work, ncols)
    kernel = [row[ncols:] for row in work[npiv:]]
    if not kernel:
        return []
    _integer_echelon(kernel, nrows)
    # reduce entries above each pivot to get the canonical HNF basis
    pivots = []
    for row in kernel:
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is not None:
            pivots.append(lead)
    for k in range(len(kernel) - 1, -1, -1):
        lead = pivots[k]
        p = kernel[k][lead]
        for i in range(k):
            q = kernel[i][lead] // p
            if q:
                kernel[i] = [vi - q * vk for vi, vk in zip(kernel[i], kernel[k])]
    return [tuple(row) for row in kernel]


def det(rows) -> Fraction:
    """Exact determinant of a square matrix over Q."""
    a = [[Fraction(v) for v in row] for row in rows]
    if any(len(row) != len(a) for row in a):
        raise ValueError("matrix not square")
    pivots, product = _gauss_jordan(a)
    return product if len(pivots) == len(a) else Fraction(0)
