"""Groebner-basis elimination for closures of swept subspaces.

The image closure of the joint parametrization (group parameters u,
subspace parameters v) -> group(u) . subspace_point(v) is cut out by
the elements of a reduced Groebner basis that involve only the ambient
coordinates z, computed under a block order in which the auxiliary
variables (the saturation variable t, the group parameters x, the
subspace parameters y) all dominate the z's.  This is the independent
oracle against the linear-system decider.
"""

from __future__ import annotations

import json
import logging
from fractions import Fraction
from heapq import heappop, heappush
from operator import le, sub

from orbitcal._kernels import add_scaled_inplace, term_times_into, terms_mul
from orbitcal.errors import ResourceLimitError
from orbitcal.polyring import Ambient, LaurentPoly, evaluate_terms, exact_int, format_terms, parse_terms
from orbitcal.repmodel import RepresentationData, vector

DEFAULT_MAX_PAIRS = 200_000

_log = logging.getLogger("orbitcal.elim")


class OrderedRing:
    """Polynomial ring with a block monomial order.

    blocks lists variable index groups by decreasing precedence; inside
    each block the order is graded reverse lexicographic.  Any monomial
    containing a variable of an earlier block beats every monomial
    supported on later blocks only, which is exactly the elimination
    property needed here."""

    __slots__ = ("names", "blocks", "_key_cache")

    def __init__(self, names, blocks):
        self.names = tuple(names)
        self.blocks = tuple(tuple(block) for block in blocks)
        seen = [i for block in self.blocks for i in block]
        if sorted(seen) != list(range(len(self.names))):
            raise ValueError("blocks must partition the variables")
        # monomial comparisons dominate Buchberger; keys are memoized
        self._key_cache: dict[tuple, tuple] = {}

    def order_key(self, exp):
        key = self._key_cache.get(exp)
        if key is None:
            parts = []
            for block in self.blocks:
                parts.append(sum(exp[i] for i in block))
                parts.append(tuple(-exp[i] for i in reversed(block)))
            key = tuple(parts)
            self._key_cache[exp] = key
        return key

    def lead(self, poly):
        return max(poly, key=self.order_key)

    def __repr__(self):
        return f"OrderedRing({self.names})"


def _divides(e1, e2) -> bool:
    return all(map(le, e1, e2))


def _exp_sub(e1, e2):
    return tuple(map(sub, e1, e2))


def _exp_lcm(e1, e2):
    return tuple(map(max, e1, e2))


def _monic(poly, ring):
    """poly, nonzero, scaled to leading coefficient 1."""
    lc = poly[ring.lead(poly)]
    if lc == 1:
        return poly
    inv = Fraction(1) / lc
    return {e: c * inv for e, c in poly.items()}


def normal_form(poly, basis, ring: OrderedRing, leads=None):
    """Remainder of full multivariate division; zero iff poly is in the
    ideal generated by a Groebner basis.  leads, when given, lists the
    leading monomials of basis in the same order."""
    work = dict(poly)
    remainder = {}
    if leads is None:
        reducers = [(g, ring.lead(g)) for g in basis if g]
    else:
        reducers = list(zip(basis, leads))
    while work:
        e = ring.lead(work)
        c = work[e]
        for g, glead in reducers:
            if all(map(le, glead, e)):  # _divides, inlined in the hot loop
                term_times_into(work, g, _exp_sub(e, glead), -c / g[glead])
                break
        else:
            remainder[e] = c
            del work[e]
    return remainder


def s_polynomial(f, g, ring: OrderedRing):
    lf, lg = ring.lead(f), ring.lead(g)
    lcm = _exp_lcm(lf, lg)
    out = {}
    term_times_into(out, f, _exp_sub(lcm, lf), Fraction(1) / f[lf])
    term_times_into(out, g, _exp_sub(lcm, lg), Fraction(-1) / g[lg])
    return out


def buchberger(generators, ring: OrderedRing, max_pairs: int = DEFAULT_MAX_PAIRS):
    """Reduced Groebner basis of the generated ideal.

    Sugar selection strategy (Giovini, Mora, Niesi, Robbiano, Traverso
    1991) with the Gebauer-Moeller (1988) pair update: criteria M, F and
    B, and the coprime-lead criterion per lcm.  A generator's sugar is
    its total degree; a pair's is the larger of sugar_k + |lcm| - |lead_k|
    over its two elements, and a remainder inherits its pair's sugar.
    An element whose lead a newer lead divides retires: it forms no
    pairs and reduces nothing, but joins the final interreduction.
    max_pairs bounds the candidate pairs formed, before any criterion.
    Every element is made monic when it is added; S-polynomials and
    reduction steps divide by lead coefficients, so no other scaling
    changes a pair, a lead or a remainder.  The result is the reduced
    monic basis, sorted by leading monomial, hence canonical."""
    basis: list = []
    leads: list = []
    sugars: list = []
    active: list = []
    # queued pairs and their lcm; the heap is keyed by the sugar, then by
    # the lcm in the order, then by the indices, so pops are deterministic,
    # and a popped pair no longer in queued was removed by criterion B
    queued: dict = {}
    heap: list = []
    formed = reduced = zeros = 0

    def add(h, sugar):
        nonlocal formed
        formed += len(active)
        if formed > max_pairs:
            raise ResourceLimitError(
                f"buchberger: pair limit {max_pairs} exceeded (basis "
                f"{len(basis)} elements, {reduced} S-polynomials reduced)"
            )
        new, lh = len(basis), ring.lead(h)
        partner, coprime = {}, set()  # per lcm: first active partner
        for i in active:
            lcm = _exp_lcm(leads[i], lh)
            partner.setdefault(lcm, i)
            if not any(map(min, leads[i], lh)):  # coprime leads
                coprime.add(lcm)
        for (i, j), lcm in list(queued.items()):
            if _divides(lh, lcm) and lcm not in (_exp_lcm(leads[i], lh), _exp_lcm(leads[j], lh)):
                del queued[i, j]
        # criterion M: a proper divisor has a smaller degree, and if any
        # lcm divides this one then some minimal lcm does
        minimal: list = []
        for lcm in sorted(partner, key=sum):
            if not any(_divides(m, lcm) for m in minimal):
                minimal.append(lcm)
                if lcm not in coprime:
                    i = partner[lcm]
                    queued[i, new] = lcm
                    pair_sugar = sum(lcm) + max(sugars[i] - sum(leads[i]), sugar - sum(lh))
                    heappush(heap, (pair_sugar, ring.order_key(lcm), (i, new)))
        basis.append(h)
        leads.append(lh)
        sugars.append(sugar)
        active[:] = [i for i in active if not _divides(lh, leads[i])]
        active.append(new)

    try:
        for g in generators:
            g = {e: Fraction(c) for e, c in g.items() if c}
            if g:
                add(_monic(g, ring), max(map(sum, g)))
        if not basis:
            raise ValueError("need at least one nonzero generator")

        while heap:
            sugar, _, pair = heappop(heap)
            if queued.pop(pair, None) is None:
                continue
            i, j = pair
            s = s_polynomial(basis[i], basis[j], ring)
            reduced += 1
            r = normal_form(s, [basis[k] for k in active], ring, leads=[leads[k] for k in active])
            if r:
                add(_monic(r, ring), sugar)
            else:
                zeros += 1
    finally:
        _log.debug(
            "buchberger: %d pairs formed, %d S-polynomials reduced, %d to zero, basis %d elements",
            formed, reduced, zeros, len(basis),
        )
    return _reduce_basis(basis, leads, ring)


def _reduce_basis(basis, leads, ring: OrderedRing):
    # minimalize: keep an element unless a kept lead divides its lead;
    # a proper divisor has a smaller degree, so scan by degree (stable,
    # so the first of equal leads is kept)
    keep, keep_leads = [], []
    for g, lead in sorted(zip(basis, leads), key=lambda pair: sum(pair[1])):
        if not any(_divides(other, lead) for other in keep_leads):
            keep.append(g)
            keep_leads.append(lead)
    # interreduce: no lead divides another, so every lead survives, with
    # its coefficient 1, and one pass leaves no term divisible by another
    # element's lead
    for i in range(len(keep)):
        others = keep[:i] + keep[i + 1 :]
        if others:
            keep[i] = normal_form(keep[i], others, ring, leads=keep_leads[:i] + keep_leads[i + 1 :])
    keep.sort(key=lambda g: ring.order_key(ring.lead(g)))
    return keep


# ---------------------------------------------------------------------------
# swept subspaces


class SubspaceMap:
    """Affine parametrization of a linear subvariety: n polynomial
    images in the parameters y1..yl (l = 0 parametrizes a point)."""

    __slots__ = ("l", "images")

    def __init__(self, l: int, images):
        if l < 0:
            raise ValueError("negative parameter count")
        self.l = l
        amb = Ambient(0, l, names=tuple(f"y{i + 1}" for i in range(l)))
        out = []
        for img in images:
            if isinstance(img, LaurentPoly):
                if img.ambient != amb:
                    raise ValueError("image ambient mismatch")
                out.append(img)
            else:
                out.append(LaurentPoly.parse(str(img), amb))
        if not out:
            raise ValueError("need at least one image")
        self.images = out

    @classmethod
    def point(cls, b) -> "SubspaceMap":
        b = vector(b)
        amb = Ambient(0, 0, names=())
        return cls(0, [LaurentPoly.const(amb, x) for x in b])

    @classmethod
    def from_json(cls, payload: dict) -> "SubspaceMap":
        try:
            images = payload.get("images")
            if not images:
                raise ValueError("subspace file must list at least one image")
            return cls(exact_int(payload["l"]), images)
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed subspace data: {exc}") from exc

    def to_json(self) -> dict:
        return {"l": self.l, "images": [str(img) for img in self.images]}

    def evaluate(self, point):
        return tuple(img.evaluate(point) for img in self.images)

    @classmethod
    def load(cls, path) -> "SubspaceMap":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def closure_ring(rep: RepresentationData, l: int, with_t: bool) -> OrderedRing:
    names = []
    blocks = []
    idx = 0
    if with_t:
        names.append("t")
        blocks.append((0,))
        idx = 1
    x_block = tuple(range(idx, idx + rep.r + rep.s))
    names.extend(rep.ambient.names)
    idx += rep.r + rep.s
    y_block = tuple(range(idx, idx + l))
    names.extend(f"y{i + 1}" for i in range(l))
    idx += l
    z_block = tuple(range(idx, idx + rep.n))
    names.extend(f"z{i + 1}" for i in range(rep.n))
    blocks.append(x_block)
    if y_block:
        blocks.append(y_block)
    blocks.append(z_block)
    return OrderedRing(names, blocks)


def closure_equations(
    rep: RepresentationData,
    tau: SubspaceMap,
    *,
    max_pairs: int = DEFAULT_MAX_PAIRS,
):
    """Polynomials in z1..zn whose common zero set is the closure of the
    swept subspace under the parametrized action.

    Builds the rational coordinate images, clears their monomial
    denominators, saturates by the product of the invertible parameters
    whenever there are any (r > 0), eliminates through the block order
    and keeps the z-only basis elements."""
    if len(tau.images) != rep.n:
        raise ValueError("subspace image count must equal the dimension")
    l = tau.l
    width_x = rep.r + rep.s

    # coordinate images as dicts over (x..., y...) exponents
    images = []
    for p in range(rep.n):
        acc: dict = {}
        for q in range(rep.n):
            entry = rep.rho[p][q].terms
            tau_q = tau.images[q].terms
            if not entry or not tau_q:
                continue
            widened_rho = {exp + (0,) * l: c for exp, c in entry.items()}
            widened_tau = {(0,) * width_x + exp: c for exp, c in tau_q.items()}
            add_scaled_inplace(acc, terms_mul(widened_rho, widened_tau), Fraction(1))
        images.append(acc)

    xy = Ambient(rep.r, rep.s + l)
    denominators = [LaurentPoly(xy, f).monomial_denominator() for f in images]

    with_t = rep.r > 0
    ring = closure_ring(rep, l, with_t)
    width = len(ring.names)
    t_off = 1 if with_t else 0

    def embed(exp_xy, z_index=None, t_power=0):
        exp = [0] * width
        if with_t:
            exp[0] = t_power
        for k, e in enumerate(exp_xy):
            exp[t_off + k] = e
        if z_index is not None:
            exp[t_off + width_x + l + z_index] += 1
        return tuple(exp)

    generators = []
    for p in range(rep.n):
        g: dict = {}
        m = denominators[p]
        g[embed(m, z_index=p)] = Fraction(1)
        for exp, c in images[p].items():
            key = embed(tuple(e + mm for e, mm in zip(exp, m)))
            cur = g.get(key, Fraction(0)) - c
            if cur:
                g[key] = cur
            else:
                g.pop(key, None)
        generators.append(g)

    if with_t:
        product = [1 if k < rep.r else 0 for k in range(width_x + l)]
        sat = {
            embed((0,) * (width_x + l)): Fraction(1),
            embed(tuple(product), t_power=1): Fraction(-1),
        }
        generators.append(sat)

    basis = buchberger(generators, ring, max_pairs=max_pairs)

    z_start = t_off + width_x + l
    equations = []
    for g in basis:
        if all(all(e == 0 for e in exp[:z_start]) for exp in g):
            equations.append({exp[z_start:]: c for exp, c in g.items()})
    return equations


def point_in_closure(equations, point) -> bool:
    """True iff every defining polynomial vanishes exactly at the point."""
    point = vector(point)
    for q in equations:
        if any(len(exp) != len(point) for exp in q):
            raise ValueError("arity mismatch between equations and point")
        if evaluate_equation(q, point):
            return False
    return True


def evaluate_equation(q, point) -> Fraction:
    return evaluate_terms(q, vector(point))


def format_equation(q, n: int) -> str:
    names = tuple(f"z{i + 1}" for i in range(n))
    return format_terms(q, names)


def parse_equation(text: str, n: int) -> dict:
    names = tuple(f"z{i + 1}" for i in range(n))
    return parse_terms(text, names)
