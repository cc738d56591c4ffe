"""Parametrized matrix actions on a finite-dimensional space.

A representation is an n x n matrix of Laurent polynomials in r
invertible and s ordinary parameters, term dicts checked against their
Ambient; evaluating the matrix at a parameter point gives the acting
linear map.  Generators for the two bundled families (binary forms
under special linear substitutions, and diagonal torus actions) live
here, together with the conic reduction, the basis scrambling and the
orbit dimension.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb, lcm

from orbitcal import exactmath
from orbitcal._kernels import add_scaled_inplace
from orbitcal.degbound import kazarnovskii_sl2
from orbitcal.polyring import Ambient, exact_int, format_terms, json_list, monomial_images

Vec = tuple[Fraction, ...]


def vector(values) -> Vec:
    return tuple(Fraction(v) for v in values)


def parse_vector(text: str) -> Vec:
    parts = [part.strip() for part in text.split(",")]
    if "" in parts:
        raise ValueError(f"empty field in vector {text!r}")
    try:
        return vector(parts)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def format_vector(v) -> list[str]:
    return [str(Fraction(x)) for x in v]


class RepresentationData:
    """n, the ambient shape (r, s), the matrix rho of term dicts over
    Ambient(r, s), an optional degree bound for the image variety, and a
    label.

    The constructor is where entries enter: each is a term dict, or a
    text in polyring's format, and is stored as the checked term dict of
    the ambient (Fraction coefficients, no zero terms, exponents of
    width r + s and nonnegative on the s ordinary variables), or raises
    ValueError."""

    __slots__ = ("n", "r", "s", "ambient", "rho", "degree_bound", "label")

    def __init__(self, n, r, s, rho, degree_bound=None, label=""):
        if n < 1:
            raise ValueError("module dimension must be >= 1")
        if len(rho) != n or any(len(row) != n for row in rho):
            raise ValueError("rho must be an n x n matrix")
        if degree_bound is not None and degree_bound < 1:
            raise ValueError("degree bound must be >= 1")
        self.n = n
        self.r = r
        self.s = s
        self.ambient = ambient = Ambient(r, s)
        self.rho = [[ambient.check(e) if isinstance(e, dict) else ambient.parse(e) for e in row] for row in rho]
        self.degree_bound = degree_bound
        self.label = label

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "s": self.s,
            "rho": [[format_terms(entry, self.ambient.names) for entry in row] for row in self.rho],
            "degree_bound": self.degree_bound,
            "label": self.label,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "RepresentationData":
        try:
            n, r, s = (exact_int(payload[key]) for key in ("n", "r", "s"))
            bound = payload.get("degree_bound")
            return cls(
                n,
                r,
                s,
                json_list(payload["rho"], 2),
                degree_bound=None if bound is None else exact_int(bound),
                label=payload.get("label", ""),
            )
        except TypeError as exc:
            raise ValueError(f"malformed representation data: {exc}") from exc

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "RepresentationData":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def __repr__(self):
        return f"RepresentationData(n={self.n}, r={self.r}, s={self.s}, label={self.label!r})"


# ---------------------------------------------------------------------------
# generators


def sl2_binary_forms(h: int) -> RepresentationData:
    """Action on binary forms of degree h by linear substitutions, pulled
    back along the dense parametrization

        (x1, x2, x3) -> [[x1 + x2*x3/x1, x2/x1], [x3/x1, 1/x1]]

    of the special linear group.  Basis order is z1^h, z1^(h-1)*z2, ...,
    z2^h; entry (i+1, j+1) is the coefficient of z1^(h-i)*z2^i in
    (a*z1 + c*z2)^(h-j) * (b*z1 + d*z2)^j for the matrix [[a, b], [c, d]]
    above.
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    # a, c, b, d as term dicts; image(q) is a^q0 c^q1 b^q2 d^q3, each
    # product of powers built once
    image, decode = monomial_images(
        [{(1, 0, 0): 1, (-1, 1, 1): 1}, {(-1, 0, 1): 1}, {(-1, 1, 0): 1}, {(-1, 0, 0): 1}], 3, h
    )
    n = h + 1
    rho = [[{} for _ in range(n)] for _ in range(n)]
    for j in range(n):
        # (a z1 + c z2)^(h-j) (b z1 + d z2)^j, coefficient of z1^(h-i) z2^i
        for k in range(h - j + 1):
            for m in range(j + 1):
                add_scaled_inplace(rho[k + m][j], image((h - j - k, k, j - m, m)), comb(h - j, k) * comb(j, m))
    rho = [[{decode(key): c for key, c in entry.items()} for entry in row] for row in rho]
    return RepresentationData(
        n, 1, 2, rho, degree_bound=kazarnovskii_sl2(h), label=f"sl2-binary-forms-h{h}"
    )


def torus_diagonal(weights) -> RepresentationData:
    """Diagonal torus action: coordinate i scales by the Laurent monomial
    with exponent vector weights[i]."""
    weights = [tuple(int(w) for w in wt) for wt in weights]
    if not weights:
        raise ValueError("need at least one weight")
    r = len(weights[0])
    if r < 1 or any(len(wt) != r for wt in weights):
        raise ValueError("inconsistent weight lengths")
    n = len(weights)
    rho = [[{wt: 1} if i == j else {} for j in range(n)] for i, wt in enumerate(weights)]
    label = "torus-" + ";".join(",".join(str(w) for w in wt) for wt in weights)
    return RepresentationData(n, r, 0, rho, degree_bound=None, label=label)


def diagonal_weights(rep: RepresentationData) -> list[tuple[int, ...]] | None:
    """Weight vectors of a diagonal monomial representation, or None if
    the representation is not of that shape."""
    weights = []
    for i in range(rep.n):
        for j in range(rep.n):
            entry = rep.rho[i][j]
            if i != j:
                if entry:
                    return None
            else:
                if len(entry) != 1:
                    return None
                exp, coef = next(iter(entry.items()))
                if coef != 1:
                    return None
                weights.append(exp)
    return weights


def make_conic(rep: RepresentationData, a, b):
    """Adjoin a scaling coordinate: the extended group acts on k^(n+1) by
    x0 * blockdiag(1, rho) with a fresh invertible parameter x0, making
    both orbits conic without changing the closure question.

    Returns (rep', a', b'), and rep' keeps rep's degree bound: the
    extended orbit closure of b' is the affine cone over the projective
    closure of closure(O_b) under v -> [1 : v].  A cone has the degree
    of its base and a projective closure the degree of the affine
    variety, so its degree is deg closure(O_b), at most rep's bound."""
    a = vector(a)
    b = vector(b)
    if len(a) != rep.n or len(b) != rep.n:
        raise ValueError("vector length mismatch")
    # x0 alone in the corner, x0 * rho[i][j] below and right of it
    rho2 = [[{(1,) + (0,) * rep.ambient.nvars: 1}] + [{} for _ in rep.rho]]
    for row in rep.rho:
        rho2.append([{}] + [{(1,) + exp: coef for exp, coef in entry.items()} for entry in row])
    rep2 = RepresentationData(
        rep.n + 1,
        rep.r + 1,
        rep.s,
        rho2,
        degree_bound=rep.degree_bound,
        label=f"conic({rep.label})" if rep.label else "conic",
    )
    one = Fraction(1)
    return rep2, (one,) + a, (one,) + b


# ---------------------------------------------------------------------------
# scrambling


def apply_matrix(S, v) -> tuple:
    """S v for a scalar matrix S and a vector v of numbers."""
    return tuple(sum(Fraction(s) * x for s, x in zip(row, v)) for row in S)


def find_scrambling(b):
    """Integer matrix S with det 1 and every coordinate of S b nonzero:
    the identity when b has none zero, else the elementary matrix that
    adds b's first nonzero coordinate into each zero one.  S - I is
    nonzero only in the rows of b's zero coordinates, all in one column,
    so the pullback of each zero coordinate gains one other pullback;
    for a conified b that is the scaling coordinate's, the single
    monomial x0.  Fails only for b = 0."""
    b = vector(b)
    n = len(b)
    if not any(b):
        raise ValueError("cannot scramble the zero vector")
    k = next(i for i, x in enumerate(b) if x)
    return [[int(i == j or (j == k and not b[i])) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# acting and measuring


def coordinate_pullbacks(rep: RepresentationData, b) -> list[dict]:
    """The n parameter-space functions sum_j b_j * rho[i][j]; these are
    the pullbacks of the coordinates along the orbit parametrization."""
    b = vector(b)
    if len(b) != rep.n:
        raise ValueError("vector length mismatch")
    return [combine(row, b) for row in rep.rho]


def combine(polys, scales) -> dict:
    """sum_j scales[j] * polys[j], term dicts of one exponent width."""
    acc: dict = {}
    for poly, scale in zip(polys, scales):
        add_scaled_inplace(acc, poly, scale)
    return acc


def orbit_dimension(pullbacks, nvars: int, *, seed: int = 0) -> int:
    """Dimension of the orbit whose coordinate pullbacks, term dicts in
    nvars parameters, are given: the generic rank of their Jacobian with
    respect to the parameters.

    Each Jacobian row is cleared of denominators, which keeps the rank,
    and specialized at one point of ((Z/p)^x)^(r+s), p =
    exactmath.RANK_PRIME, drawn from the seed; its rank mod p is
    returned.  A specialization can only lower the rank, so a dense
    answer is certain; unless p divides a maximal nonzero minor's every
    coefficient, Schwartz-Zippel bounds the chance that the rank is
    lowered by the minor's degree over p - 1.  A lowered rank is safe
    for both deciders: the dimension is used only to pick the degree
    bound d = 1 when the orbit fills the space.  An under-reported dense
    orbit gets a larger d instead, and the system then has no solution,
    because no nonzero polynomial vanishes on a dense orbit; the
    refutation makes the verdict IN_CLOSURE all the same."""
    p = exactmath.RANK_PRIME
    rng = random.Random(seed)
    point = [rng.randrange(1, p) for _ in range(nvars)]
    inverse = [pow(x, -1, p) for x in point]
    rows = []
    for psi in pullbacks:
        scale = lcm(*(c.denominator for c in psi.values()))
        row = {}
        for exp, coef in psi.items():
            # d/dx_k of c x^e is e_k c x^e / x_k
            value = coef.numerator * (scale // coef.denominator)
            for x, y, e in zip(point, inverse, exp):
                value = value * (pow(x, e, p) if e >= 0 else pow(y, -e, p)) % p
            for k, e in enumerate(exp):
                if e:
                    row[k] = (row.get(k, 0) + e * value * inverse[k]) % p
        rows.append(row)
    return exactmath.rank_mod(rows)
