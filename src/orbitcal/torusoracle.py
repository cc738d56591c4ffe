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

The cone is described by its facets, found by trying each set of
k - 1 generators of a k-dimensional cone as the span of one; ranks
above MAX_RANK, and cones with more than MAX_FACET_CANDIDATES such
sets, raise ResourceLimitError before any enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from orbitcal.errors import ResourceLimitError
from orbitcal.exactmath import integer_left_kernel

MAX_RANK = 8
# Sets of generators cone_inequalities may try as spans of a facet.
MAX_FACET_CANDIDATES = 50_000


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


def _dot(u, w) -> int:
    return sum(x * y for x, y in zip(u, w))


def cone_inequalities(generators, rank: int):
    """Complete inequality description of the cone spanned by integer
    generators: sorted primitive integer rows u, each with u . x >= 0 on
    the cone, that together cut it out.

    The rows come in two parts.  Every vector of the integer left kernel
    of the generator columns (the orthogonal complement of their span)
    enters with both signs, confining x to the span.  In a span of
    dimension k, every facet of a polyhedral cone is spanned by k - 1
    independent generators, so each set of k - 1 distinct nonzero
    generators whose columns, together with the complement, have a
    one-dimensional left kernel u proposes a hyperplane; u (flipped if
    needed) is a facet row when it is nonnegative on every generator.
    Every face is the intersection of the facets that contain it, so the
    rows vanishing on a subset of the cone cut out the minimal face
    containing it.  Raises ResourceLimitError before enumerating more
    than MAX_FACET_CANDIDATES sets."""
    if rank > MAX_RANK:
        raise ResourceLimitError(f"rank {rank} exceeds the elimination guard {MAX_RANK}")
    gens = [tuple(int(w) for w in g) for g in generators]
    complement = integer_left_kernel([[g[i] for g in gens] for i in range(rank)])
    rows = set(complement) | {tuple(-v for v in c) for c in complement}
    k = rank - len(complement)
    if k == 0:
        return sorted(rows)
    nonzero = sorted({g for g in gens if any(g)})
    count = comb(len(nonzero), k - 1)
    if count > MAX_FACET_CANDIDATES:
        raise ResourceLimitError(
            f"cone inequalities: {count} candidate facet spans of {k - 1} "
            f"generators (limit {MAX_FACET_CANDIDATES})"
        )
    for span in combinations(nonzero, k - 1):
        columns = list(span) + complement
        kernel = integer_left_kernel([[c[i] for c in columns] for i in range(rank)])
        if len(kernel) != 1:
            continue
        u = kernel[0]
        values = [_dot(u, g) for g in nonzero]
        if min(values) >= 0:
            rows.add(u)
        elif max(values) <= 0:
            rows.add(tuple(-v for v in u))
    return sorted(rows)


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
    Sa = support(wa)
    Sb = support(wb)
    if not Sb:
        return not Sa  # orbit of zero is {0}
    # When Sa is the part of Sb on the face that the rows vanishing on Sa
    # cut out, Sa lies in cone(Sb) and that face is the minimal one
    # containing Sa.
    rows = cone_inequalities(Sb, len(weights[0]))
    supporting = [u for u in rows if not any(_dot(u, s) for s in Sa)]
    if {s for s in Sb if not any(_dot(u, s) for u in supporting)} != Sa:
        return False

    spaces_a = wa.weight_spaces()
    spaces_b = wb.weight_spaces()
    pairs = []
    for wt in sorted(Sa):
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
