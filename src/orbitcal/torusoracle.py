"""Combinatorial closure criterion for diagonal torus actions.

The closure of a torus orbit is the union, over the faces F of the
cone spanned by the support of b, of the orbits of the projections of
b onto the weights lying on F.  Membership of a therefore needs: the
support of a must be exactly the part of the support of b lying on
some face (equivalently, on the minimal face containing supp a), the
weight components of a must be proportional to those of b with one
nonzero ratio per weight, and those ratios must be realizable as
character values of a single torus element, which over an
algebraically closed field is a lattice condition on the ratio
products.  Used as a second independent oracle on diagonal fixtures.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from orbitcal.errors import ResourceLimitError
from orbitcal.exactmath import integer_left_kernel

MAX_RANK = 8
# Combinations one Fourier-Motzkin step may form; a step can square the row count.
MAX_FM_COMBINATIONS = 50_000


class WeightedVector:
    """A vector together with one integer weight vector per coordinate."""

    __slots__ = ("weights", "components")

    def __init__(self, weights, components):
        self.weights = [tuple(int(w) for w in wt) for wt in weights]
        self.components = tuple(Fraction(x) for x in components)
        if len(self.weights) != len(self.components):
            raise ValueError("weights and components must have equal length")
        if self.weights:
            r = len(self.weights[0])
            if any(len(wt) != r for wt in self.weights):
                raise ValueError("inconsistent weight lengths")

    def weight_spaces(self) -> dict[tuple[int, ...], list[Fraction]]:
        """Aggregated projection onto each distinct weight (coordinate
        values listed in coordinate order)."""
        spaces: dict[tuple[int, ...], list[Fraction]] = {}
        for wt, x in zip(self.weights, self.components):
            spaces.setdefault(wt, []).append(x)
        return spaces


def support(wv: WeightedVector) -> set[tuple[int, ...]]:
    """Weights whose full weight-space projection is nonzero."""
    return {wt for wt, comp in wv.weight_spaces().items() if any(comp)}


def _normalize_row(row):
    """The primitive integer row on the ray of an integer row; None for 0."""
    g = gcd(*row)
    return tuple(v // g for v in row) if g else None


def _fm_eliminate(rows, positions, stage: str):
    """Fourier-Motzkin elimination of the listed positions from a system
    of homogeneous-style inequality rows (each row means row . vars >= 0;
    an extra constant column, if present, simply never gets eliminated).
    The rows are integer tuples.  Raises ResourceLimitError, naming the
    stage, before a step that would form more than MAX_FM_COMBINATIONS
    combinations."""
    rows = {r for r in (_normalize_row(row) for row in rows) if r is not None}
    for pos in positions:
        zero, plus, minus = [], [], []
        for row in rows:
            if row[pos] > 0:
                plus.append(row)
            elif row[pos] < 0:
                minus.append(row)
            else:
                zero.append(row)
        count = len(plus) * len(minus)
        if count > MAX_FM_COMBINATIONS:
            raise ResourceLimitError(
                f"{stage}: a Fourier-Motzkin step would form {count} "
                f"combinations (limit {MAX_FM_COMBINATIONS})"
            )
        new = set(zero)
        for p in plus:
            for m in minus:
                combo = tuple(p[pos] * mv - m[pos] * pv for pv, mv in zip(p, m))
                norm = _normalize_row(combo)
                if norm is not None:
                    new.add(norm)
        rows = new
    return rows


def cone_inequalities(generators, rank: int):
    """Complete homogeneous inequality description of the cone spanned by
    the generators: the returned functionals u satisfy u . x >= 0 on the
    cone, and together they cut it out."""
    if rank > MAX_RANK:
        raise ResourceLimitError(f"rank {rank} exceeds the elimination guard {MAX_RANK}")
    gens = [tuple(int(w) for w in g) for g in generators]
    m = len(gens)
    width = rank + m
    rows = []
    for i in range(rank):
        # x_i - sum_j g_j[i] lam_j == 0, written as two inequalities
        base = [0] * width
        base[i] = 1
        for j, g in enumerate(gens):
            base[rank + j] = -g[i]
        rows.append(tuple(base))
        rows.append(tuple(-v for v in base))
    for j in range(m):
        lam = [0] * width
        lam[rank + j] = 1
        rows.append(tuple(lam))
    projected = _fm_eliminate(rows, range(rank, width), "cone inequalities")
    out = []
    for row in projected:
        u = row[:rank]
        if any(u):
            out.append(u)
    return sorted(set(out))


def in_cone(point, generators) -> bool:
    """Exact membership of a rational point in the cone spanned by
    integer generators (Fourier-Motzkin feasibility)."""
    point = tuple(Fraction(x) for x in point)
    gens = [tuple(int(w) for w in g) for g in generators]
    if not gens:
        return not any(point)
    # the cone is closed under positive scaling: clear the denominators
    scale = lcm(*(x.denominator for x in point))
    m = len(gens)
    width = m + 1  # lambda variables plus a constant column
    rows = []
    rank = len(point)
    for i in range(rank):
        base = [0] * width
        for j, g in enumerate(gens):
            base[j] = g[i]
        base[m] = -int(point[i] * scale)
        rows.append(tuple(base))
        rows.append(tuple(-v for v in base))
    for j in range(m):
        lam = [0] * width
        lam[j] = 1
        rows.append(tuple(lam))
    projected = _fm_eliminate(rows, range(m), "cone membership")
    for row in projected:
        if any(row[:m]):
            raise AssertionError("elimination left a live variable")
        if row[m] < 0:
            return False
    return True


def _dot(u, w):
    return sum(Fraction(a) * b for a, b in zip(u, w))


def minimal_face_functionals(Sa, Sb, rank: int):
    """All derived valid inequalities of cone(Sb) vanishing on Sa; the
    face they cut is the minimal face of cone(Sb) containing Sa."""
    inequalities = cone_inequalities(Sb, rank)
    return [u for u in inequalities if all(_dot(u, s) == 0 for s in Sa)]


def face_test(Sa, Sb, rank: int | None = None):
    """Is the cone spanned by Sa a face of the cone spanned by Sb?

    Returns (answer, functional); when the answer is True the functional
    u is valid on cone(Sb) and cuts exactly the face (the zero functional
    cuts the improper face)."""
    Sa = [tuple(int(w) for w in s) for s in Sa]
    Sb = [tuple(int(w) for w in s) for s in Sb]
    if rank is None:
        pool = Sa + Sb
        if not pool:
            return True, ()
        rank = len(pool[0])
    zero = tuple(Fraction(0) for _ in range(rank))
    if not Sb or all(not any(s) for s in Sb):
        ok = all(not any(s) for s in Sa)
        return (True, zero) if ok else (False, None)
    if not all(in_cone(s, Sb) for s in Sa):
        return False, None
    supporting = minimal_face_functionals(Sa, Sb, rank)
    face_gens = [s for s in Sb if all(_dot(u, s) == 0 for u in supporting)]
    if not all(in_cone(s, Sa) for s in face_gens):
        return False, None
    functional = zero
    for u in supporting:
        functional = tuple(a + b for a, b in zip(functional, u))
    return True, functional


def scaling_exists(pairs) -> bool:
    """Is there a torus element whose character values realize the given
    (weight, nonzero ratio) pairs over an algebraically closed field?

    The image of the torus under the listed characters is cut out by the
    left kernel lattice of the weight matrix: the ratios are realizable
    iff every kernel basis vector c satisfies prod ratio^c = 1."""
    pairs = [(tuple(int(w) for w in wt), Fraction(ratio)) for wt, ratio in pairs]
    for _, ratio in pairs:
        if not ratio:
            raise ValueError("ratios must be nonzero")
    if not pairs:
        return True
    matrix = [list(wt) for wt, _ in pairs]
    for c in integer_left_kernel(matrix):
        prod = Fraction(1)
        for (_, ratio), e in zip(pairs, c):
            if e:
                prod *= ratio**e
        if prod != 1:
            return False
    return True


def torus_decide(weights, a, b) -> bool:
    """Closure membership for a diagonal torus action, decided
    combinatorially.

    True iff supp(a) is exactly the part of supp(b) on the minimal face
    of cone(supp b) containing supp(a), the weight components of a and b
    are proportional with a single nonzero ratio per weight, and the
    ratios pass the lattice realizability check."""
    wa = WeightedVector(weights, a)
    wb = WeightedVector(weights, b)
    Sa = sorted(support(wa))
    Sb = sorted(support(wb))
    if not Sb:
        return not Sa  # orbit of zero is {0}
    rank = len(weights[0]) if weights else 0
    if rank > MAX_RANK:
        raise ResourceLimitError(f"rank {rank} exceeds the elimination guard {MAX_RANK}")
    if not all(in_cone(s, Sb) for s in Sa):
        return False
    supporting = minimal_face_functionals(Sa, Sb, rank)
    face_support = [s for s in Sb if all(_dot(u, s) == 0 for u in supporting)]
    if set(face_support) != set(Sa):
        return False

    spaces_a = wa.weight_spaces()
    spaces_b = wb.weight_spaces()
    pairs = []
    for wt in Sa:
        comp_a = spaces_a[wt]
        comp_b = spaces_b[wt]
        ratio = None
        for xa, xb in zip(comp_a, comp_b):
            if xb:
                ratio = xa / xb
                break
        if ratio is None or not ratio:
            return False
        if any(xa != ratio * xb for xa, xb in zip(comp_a, comp_b)):
            return False
        pairs.append((wt, ratio))
    return scaling_exists(pairs)
