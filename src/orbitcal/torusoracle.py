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

A vector enters through its weight spaces, its coordinate values
grouped by weight, and its support is the set of weights whose group
is nonzero.  The face condition is one exact linear feasibility
question, answered by a phase-1 simplex over Fractions; no facet of
the cone is computed.
"""

from __future__ import annotations

from fractions import Fraction

from orbitcal.exactmath import integer_left_kernel


def _weight_spaces(weights, components) -> dict[tuple[int, ...], list[Fraction]]:
    """The projection of a vector onto each distinct weight: its
    coordinate values grouped by weight, in coordinate order."""
    weights = [tuple(int(w) for w in wt) for wt in weights]
    components = [Fraction(x) for x in components]
    if len(weights) != len(components):
        raise ValueError("weights and components must have equal length")
    if any(len(wt) != len(weights[0]) for wt in weights):
        raise ValueError("inconsistent weight lengths")
    spaces: dict[tuple[int, ...], list[Fraction]] = {}
    for wt, x in zip(weights, components):
        spaces.setdefault(wt, []).append(x)
    return spaces


def _nonnegative_solution(columns, rhs):
    """A vector y >= 0 with sum_j y_j columns[j] = rhs, or None when there
    is none: phase 1 of the simplex method over Fractions.

    Each row, negated if its right-hand side is negative, starts with an
    artificial basic variable (basis index len(columns) + row), and the
    last tableau row holds the reduced costs of minimizing the sum of
    the artificials, with minus that sum in its last entry.  Bland's
    rule (lowest entering index, ties in the ratio test to the lowest
    basis index) rules out cycling.  An artificial that leaves the basis
    never re-enters, so the tableau holds no artificial columns; the
    system is feasible iff the minimum is 0."""
    n = len(columns)
    rows = []
    for i, b in enumerate(rhs):
        sign = -1 if b < 0 else 1
        rows.append([sign * col[i] for col in columns] + [sign * b])
    objective = [-sum(column) for column in zip(*rows)]
    basis = [n + i for i in range(len(rows))]
    while (entering := next((j for j in range(n) if objective[j] < 0), None)) is not None:
        _, _, leaving = min(
            (Fraction(row[-1]) / row[entering], basis[i], i)
            for i, row in enumerate(rows)
            if row[entering] > 0
        )
        pivot = rows[leaving]
        scale = Fraction(pivot[entering])
        pivot[:] = [x / scale if x else x for x in pivot]
        for row in rows + [objective]:
            factor = row[entering]
            if row is not pivot and factor:
                row[:] = [x - factor * p if p else x for x, p in zip(row, pivot)]
        basis[leaving] = entering
    if objective[-1]:
        return None
    y = [Fraction(0)] * n
    for j, row in zip(basis, rows):
        if j < n:
            y[j] = Fraction(row[-1])
    return y


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
    spaces_a = _weight_spaces(weights, a)
    spaces_b = _weight_spaces(weights, b)
    Sa = {wt for wt, comp in spaces_a.items() if any(comp)}
    Sb = {wt for wt, comp in spaces_b.items() if any(comp)}
    if not Sa <= Sb:
        return False
    if Sa != Sb:
        # A weight w of Sb off Sa lies on the minimal face containing Sa
        # iff -w is in cone(Sb) + span(Sa), so Sa is the part of Sb on a
        # face iff no convex combination of the weights off Sa lies in
        # span(Sa): the columns (w, 1) and (+-s, 0) cannot reach (0, 1).
        span = sorted(Sa)
        columns = [(*w, 1) for w in sorted(Sb - Sa)]
        columns += [(*s, 0) for s in span] + [(*(-x for x in s), 0) for s in span]
        if _nonnegative_solution(columns, (0,) * len(weights[0]) + (1,)) is not None:
            return False

    pairs = []
    for wt in sorted(Sa):
        comp_a = spaces_a[wt]
        comp_b = spaces_b[wt]
        # wt is in Sb, so some xb is nonzero; and wt is in Sa, so a zero
        # ratio fails the proportionality test
        ratio = next(xa / xb for xa, xb in zip(comp_a, comp_b) if xb)
        if any(xa != ratio * xb for xa, xb in zip(comp_a, comp_b)):
            return False
        pairs.append((wt, ratio))
    return scaling_exists(pairs)
