"""Degree inputs for the decision procedure.

For a connected reductive group acting with finite kernel in
characteristic zero, the degree of the image variety of the matrix
representation is

    dim(G)! / (|W| * (m_1! ... m_r!)^2 * |ker|) * integral over the
    weight polytope of the product of squared positive coroots,

an exact rational integral that this module evaluates by barycentric
simplex integration; the caller triangulates the polytope (for binary
forms, [-h, h] split at the origin).  A closed form for binary forms
of degree h (2*h^3 for odd h, h^3 for even h) and the Aluffi-Faber
orbit-degree formula for binary forms with finite stabilizer are
included, together with a coarse parametric fallback bound usable for
any representation.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial

from orbitcal.errors import InconsistentDataError
from orbitcal.exactmath import det
from orbitcal.polyring import exact_int, json_list, monomial_images, substitute


class ReductiveData:
    """Exact inputs for the reductive degree formula.

    coroots are rational linear forms on R^rank given by coefficient
    vectors; the polytope is a list of nondegenerate simplices (rank+1
    rational vertices each) triangulating the weight polytope, which
    must contain the origin."""

    __slots__ = (
        "dim_g",
        "weyl_order",
        "exponents",
        "kernel_order",
        "coroots",
        "polytope",
    )

    def __init__(self, dim_g, weyl_order, exponents, kernel_order, coroots, polytope):
        self.dim_g = exact_int(dim_g)
        self.weyl_order = exact_int(weyl_order)
        self.exponents = [exact_int(m) for m in exponents]
        self.kernel_order = exact_int(kernel_order)
        if self.kernel_order < 1:
            raise ValueError("kernel order must be >= 1")
        if self.weyl_order < 1:
            raise ValueError("Weyl group order must be >= 1")
        self.coroots = [tuple(Fraction(c) for c in form) for form in coroots]
        self.polytope = [
            [tuple(Fraction(x) for x in vertex) for vertex in simplex]
            for simplex in polytope
        ]

    @property
    def rank(self) -> int:
        if self.polytope:
            return len(self.polytope[0][0])
        if self.coroots:
            return len(self.coroots[0])
        return len(self.exponents)

    def to_json(self) -> dict:
        return {
            "dim_g": self.dim_g,
            "weyl_order": self.weyl_order,
            "exponents": self.exponents,
            "kernel_order": self.kernel_order,
            "coroots": [[str(c) for c in form] for form in self.coroots],
            "polytope": [
                [[str(x) for x in vertex] for vertex in simplex]
                for simplex in self.polytope
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ReductiveData":
        try:
            return cls(
                payload["dim_g"],
                payload["weyl_order"],
                json_list(payload["exponents"]),
                payload["kernel_order"],
                json_list(payload["coroots"], 2),
                json_list(payload["polytope"], 3),
            )
        except (TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed reductive data: {exc}") from exc

    @classmethod
    def load(cls, path) -> "ReductiveData":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def simplex_integral(poly, simplex) -> Fraction:
    """Exact integral of a polynomial, a term dict with one exponent
    entry per coordinate, over a simplex of rank + 1 vertices in
    Q^rank.

    Works through the affine map onto the standard simplex and the
    Dirichlet formula: the integral of the barycentric monomial with
    exponents a over a simplex of volume V is
    V * rank! * (prod a_i!) / (rank + sum a_i)!."""
    simplex = [tuple(Fraction(x) for x in vertex) for vertex in simplex]
    rank = len(simplex) - 1
    if rank < 0 or any(len(v) != rank for v in simplex):
        raise ValueError("simplex must have rank+1 vertices of length rank")
    v0 = simplex[0]
    columns = [
        [simplex[j + 1][i] - v0[i] for j in range(rank)] for i in range(rank)
    ]
    volume_factor = det(columns)
    if not volume_factor:
        raise ValueError("degenerate simplex")
    volume_factor = abs(volume_factor)

    forms = []
    for i in range(rank):
        terms = {}
        zero_exp = (0,) * rank
        if v0[i]:
            terms[zero_exp] = v0[i]
        for j in range(rank):
            if columns[i][j]:
                exp = tuple(1 if k == j else 0 for k in range(rank))
                terms[exp] = columns[i][j]
        forms.append(terms)
    composed = substitute(poly, forms, rank)

    total = Fraction(0)
    for exp, coef in composed.items():
        num = 1
        for e in exp:
            num *= factorial(e)
        total += coef * Fraction(num, factorial(rank + sum(exp)))
    return volume_factor * total


def kazarnovskii(data: ReductiveData) -> int:
    """Exact image-variety degree of a reductive matrix representation
    with finite kernel (characteristic-zero semantics); raises when the
    input data is inconsistent (non-integer or nonpositive value)."""
    rank = data.rank
    linear = []
    for form in data.coroots:
        if len(form) != rank:
            raise ValueError("coroot length disagrees with rank")
        linear.append({tuple(int(k == j) for k in range(rank)): c for j, c in enumerate(form) if c})
    # the product of the squared coroot forms
    image, decode = monomial_images(linear, rank, 2 * len(linear))
    integrand = {decode(key): c for key, c in image((2,) * len(linear)).items()}

    total = Fraction(0)
    for simplex in data.polytope:
        total += simplex_integral(integrand, simplex)

    denom = data.weyl_order * data.kernel_order
    for m in data.exponents:
        denom *= factorial(m) ** 2
    value = Fraction(factorial(data.dim_g), denom) * total
    if value.denominator != 1 or value <= 0:
        raise InconsistentDataError(
            f"degree formula produced {value}, not a positive integer; "
            "the reductive data is inconsistent"
        )
    return int(value)


def kazarnovskii_sl2(h: int) -> int:
    """Closed form of the image degree for binary forms of degree h."""
    if h < 1:
        raise ValueError("h must be >= 1")
    return 2 * h**3 if h % 2 else h**3


def sl2_reductive_data(h: int) -> ReductiveData:
    """Raw degree-formula inputs matching the binary-forms action:
    dimension 3, Weyl order 2, exponent 1, kernel of order 1 (h odd) or
    2 (h even), single coroot, weight polytope [-h, h] split at the
    origin into two simplices."""
    if h < 1:
        raise ValueError("h must be >= 1")
    return ReductiveData(
        dim_g=3,
        weyl_order=2,
        exponents=[1],
        kernel_order=1 if h % 2 else 2,
        coroots=[(1,)],
        polytope=[[(-h,), (0,)], [(0,), (h,)]],
    )


def binary_form_orbit_degree(h: int, mults, stab_order: int = 1) -> Fraction:
    """Stabilizer-weighted orbit degree for a binary form of degree h
    with root multiplicities mults = (n_1, ..., n_p):

        -2(p-1)h^3 - 4*sum (h-n_i)^3 + 3h^2*sum (h-n_i)
        + 3h*sum (h-n_i)(h-2n_i)  =  2*sum n_i(h-n_i)(h-2n_i),

    divided by the stabilizer order.  The published formula (left)
    equals the short form (right) when sum n_i = h; the short form is
    what is computed.  Valid for p >= 3 and h/n_i >= 2, and inputs
    outside that domain are rejected.  On it every term of the short
    form is >= 0, and with p >= 3 roots some n_i < h/2 makes one > 0, so
    the value is positive."""
    mults = [int(n) for n in mults]
    p = len(mults)
    if p < 3:
        raise ValueError("need at least 3 distinct roots")
    if any(n < 1 for n in mults):
        raise ValueError("multiplicities must be positive")
    if sum(mults) != h:
        raise ValueError("multiplicities must sum to the degree")
    if any(2 * n > h for n in mults):
        raise ValueError("each multiplicity must satisfy h/n >= 2")
    if stab_order < 1:
        raise ValueError("stabilizer order must be >= 1")
    value = 2 * sum(n * (h - n) * (h - 2 * n) for n in mults)
    return Fraction(value, stab_order)


def parametric_degree_bound(rep) -> int:
    """Coarse universal bound on the degree of any orbit closure of the
    representation: D^m with

        D = (max cleared-numerator total degree over the matrix entries)
          + (max monomial-denominator total degree over the entries)

    and m = min(r + s, n).  Exact degree data, when available, is always
    preferable; this bound can be very loose."""
    max_num = 0
    max_den = 0
    for row in rep.rho:
        for entry in row:
            if not entry:
                continue
            # deg x^m for the least m >= 0 on the invertible variables
            # such that x^m * entry has no negative exponent
            den_deg = sum(max(0, *(-exp[k] for exp in entry)) for k in range(rep.r))
            num_deg = max(sum(exp) for exp in entry) + den_deg
            max_num = max(max_num, num_deg)
            max_den = max(max_den, den_deg)
    big_d = max(1, max_num + max_den)
    m = min(rep.r + rep.s, rep.n)
    return max(1, big_d**m)
