"""Exact rational and integer linear algebra.

Everything here is over Q (stdlib Fractions) or Z; there is no floating
point anywhere.  Consistency answers come with a witness that can be
re-verified by exact plug-back, so downstream callers never have to
trust the elimination code.
"""

from __future__ import annotations

from fractions import Fraction

from orbitcal.errors import CertificateError

Rational = Fraction

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

    def transpose(self) -> "SparseMatrix":
        t = SparseMatrix(self.cols, self.rows)
        t.entries = {(j, i): v for (i, j), v in self.entries.items()}
        return t

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
        """Exact plug-back check of the witness against (matrix, rhs)."""
        rhs = [Fraction(x) for x in rhs]
        if len(rhs) != matrix.rows:
            return False
        if self.kind == SOLUTION:
            if len(self.vector) != matrix.cols:
                return False
            return matrix.mul_vector(self.vector) == rhs
        if len(self.vector) != matrix.rows:
            return False
        if any(matrix.left_mul_vector(self.vector)):
            return False
        return sum(u * b for u, b in zip(self.vector, rhs)) != 0

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
    """
    if matrix.rows < 1 or matrix.cols < 1:
        raise ValueError("system must have at least one row and one column")
    rhs = [Fraction(x) for x in rhs]
    if len(rhs) != matrix.rows:
        raise ValueError("dimension mismatch between matrix and right-hand side")

    # pivot rows: col -> (rowdict, rhs value, history over original rows)
    pivots: dict[int, tuple[dict[int, Fraction], Fraction, dict[int, Fraction]]] = {}
    for idx, row in enumerate(matrix.row_dicts()):
        row = dict(row)
        b = rhs[idx]
        hist: dict[int, Fraction] = {idx: Fraction(1)}
        # Reduce against existing pivots, smallest pivot column first.
        # A reduction can introduce columns above the one eliminated, so
        # iterate until no pivot column remains (the minimum eliminated
        # column strictly increases, hence this terminates).
        while row:
            hit = [c for c in row if c in pivots]
            if not hit:
                break
            col = min(hit)
            factor = row[col]
            prow, pb, phist = pivots[col]
            for j, v in prow.items():
                cur = row.get(j)
                if cur is None:
                    row[j] = -factor * v
                else:
                    cur = cur - factor * v
                    if cur:
                        row[j] = cur
                    else:
                        del row[j]
            b = b - factor * pb
            for j, v in phist.items():
                cur = hist.get(j)
                if cur is None:
                    hist[j] = -factor * v
                else:
                    cur = cur - factor * v
                    if cur:
                        hist[j] = cur
                    else:
                        del hist[j]
        if not row:
            if b:
                u = [Fraction(0)] * matrix.rows
                for j, v in hist.items():
                    u[j] = v
                witness = ConsistencyWitness(REFUTATION, u)
                if not witness.verify(matrix, rhs):
                    raise CertificateError("internal refutation failed plug-back")
                return witness
            continue
        col = min(row)
        inv = Fraction(1) / row[col]
        if inv != 1:
            row = {j: v * inv for j, v in row.items()}
            b = b * inv
            hist = {j: v * inv for j, v in hist.items()}
        pivots[col] = (row, b, hist)

    # consistent: back-substitute with free variables at zero
    x = [Fraction(0)] * matrix.cols
    for col in sorted(pivots, reverse=True):
        row, b, _ = pivots[col]
        acc = b
        for j, v in row.items():
            if j != col:
                acc -= v * x[j]
        x[col] = acc
    witness = ConsistencyWitness(SOLUTION, x)
    if not witness.verify(matrix, rhs):
        raise CertificateError("internal solution failed plug-back")
    return witness


def rank(matrix: SparseMatrix) -> int:
    """Exact rank over Q: the pivot count of a sparse field elimination."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in matrix.row_dicts():
        row = dict(row)
        while row:
            hit = [c for c in row if c in pivots]
            if not hit:
                break
            col = min(hit)
            factor = row[col]
            for j, v in pivots[col].items():
                cur = row.get(j)
                if cur is None:
                    row[j] = -factor * v
                else:
                    cur = cur - factor * v
                    if cur:
                        row[j] = cur
                    else:
                        del row[j]
        if row:
            col = min(row)
            inv = Fraction(1) / row[col]
            pivots[col] = {j: v * inv for j, v in row.items()}
    return len(pivots)


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
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix not square")
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if a[i][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        pivot = a[col][col]
        result *= pivot
        for i in range(col + 1, n):
            if a[i][col]:
                f = a[i][col] / pivot
                a[i] = [vi - f * vc for vi, vc in zip(a[i], a[col])]
    return sign * result


def invert(rows) -> list[list[Fraction]]:
    """Exact inverse of a square matrix over Q (Gauss-Jordan)."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix not square")
    aug = [row + [Fraction(1) if k == i else Fraction(0) for k in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if aug[i][col]), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [v / pivot for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [vi - f * vc for vi, vc in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]
