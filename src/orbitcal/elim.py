"""Groebner-basis elimination for closures of swept subspaces.

The image closure of the joint parametrization (group parameters x,
subspace parameters y) -> rho(x) . tau(y) is cut out by the elements
of a reduced Groebner basis that involve only the ambient coordinates
z, computed under a block order x_N | t, x_S | y | z in which every
auxiliary variable dominates the z's.  The saturation variable t enters
as 1 - t x^S over the set S of invertible parameters that the joined
images psi invert, and shares a grevlex block with S, after the
parameters x_N outside S; there is no t when psi is polynomial.  A
parameter x_k that a coordinate's image equals up to a scalar, psi_p =
c x_k (the scaling parameter of a conified orbit, say), is substituted
out first: x_k becomes z_p / c in the other generators and p's
generator goes.  closure_equations builds the generators from rho and
tau as term dicts; its docstring says why saturating by S alone, the
substitution and the block layout leave the equations as they are.
This is the independent oracle against the linear-system decider.

buchberger takes and returns term dicts keyed by exponent tuples, like
the rest of orbitcal; inside, normal_form, s_polynomial and the pair
update work on OrderedRing's packed monomials, one int per monomial
whose int order is the block order, so that leading terms, products,
divisibility tests and lcms are a few integer operations each.

Coefficients are residues modulo a prime p below 2^62 (the modular
Buchberger of Arnold 2003, "Modular algorithms for computing Groebner
bases"): buchberger maps the rational generators into Z/p once, makes
each element monic with pow(c, -1, p), and the products of normal_form
and s_polynomial leave their int coefficients unreduced, to be reduced
mod p where normal_form reads a term.  closure_equations hands
exactmath._lift, the prime loop that solve_or_refute shares, a run of
buchberger for one prime, which skips a prime that divides a
denominator of the generators.  _lift lifts the z-only elements to Q
with their supports as the shape: CRT while the supports agree,
rational reconstruction, and the next prime while a value does not
reconstruct or a lift fails the check; it states when it restarts and
when it gives up.  The check is exact: f(psi) = 0 for every lifted f,
on the joined images psi of the parametrization before any
substitution, summed in integers (see _vanish_on), so each returned
equation vanishes on the image and on its closure.

The remaining risk is an unlucky prime for which the basis over Z/p is
not the image of the one over Q but whose lift still passes the check:
each equation then holds on the closure, but the set may be too small,
so point_in_closure can answer a false IN.  A check that the equations
are complete up to a degree bound is future work.
"""

from __future__ import annotations

import json
import logging
from fractions import Fraction
from heapq import heappop, heappush
from math import lcm
from operator import add
from time import perf_counter

from orbitcal._kernels import add_scaled_inplace, term_times_into
from orbitcal.errors import ResourceLimitError
from orbitcal.exactmath import _lift
from orbitcal.polyring import (
    Ambient, evaluate_terms, exact_int, format_terms, json_list, monomial_images, parse_terms,
)
from orbitcal.repmodel import RepresentationData, vector

DEFAULT_MAX_PAIRS = 200_000

_log = logging.getLogger("orbitcal.elim")


# Bits per field of a packed monomial; the top bit of each field is its
# guard, so a stored monomial has total degree below 2**(SLOT_BITS - 1).
SLOT_BITS = 25
_FIELD = (1 << SLOT_BITS) - 1


def _ones(k):
    """1 in each of the k lowest fields."""
    return sum(1 << (f * SLOT_BITS) for f in range(k))


class OrderedRing:
    """Polynomial ring with a block monomial order on packed monomials.

    blocks lists variable index groups by decreasing precedence; inside
    each block the order is graded reverse lexicographic.  Any monomial
    containing a variable of an earlier block beats every monomial
    supported on later blocks only, which is exactly the elimination
    property needed here.

    pack(e) stores the exponent tuple e of n variables as one int of
    2n + 1 fields of SLOT_BITS bits.  From the most significant end,
    each block in order of precedence holds its degree and then the
    prefix sums P_{k-1}, ..., P_1 of its k exponents (P_j the sum of the
    first j); below the blocks come the total degree and the n plain
    exponents.  Every field is a sum of exponents, so pack is linear:

    - int order is the block order.  The block fields determine e.  A
      larger block degree wins, and with it fixed, a smaller last
      exponent is a larger P_{k-1}, and so on down the block: grevlex.
    - a product of monomials is the sum of their keys, and a divides b
      iff (b - a) & guards == 0, guards holding the top bit of every
      field.  If every exponent of b - a is nonnegative, so is every
      field and nothing borrows; otherwise the lowest negative field, a
      plain exponent, borrows from above and shows its guard.
    - the plain fields alone, key & plain, tell monomials apart and
      test divisibility the same way, and take an lcm field by field,
      but are not in the order; lift rebuilds the key from them.

    Sums and differences act field by field when each field of a and b
    is below half its slot: a sum never carries into the next field and
    a difference stays above -2**(SLOT_BITS - 1).  buchberger checks the
    degree of its generators, and normal_form the guards of each term it
    selects, and they raise ResourceLimitError past that range.  Every
    field is at most the total degree, so a checked monomial has every
    field below half its slot.  Every other key is a checked key plus a
    quotient of checked keys (e - lead, lcm - lead), or the lcm of two
    checked keys, so its fields stay below 2**SLOT_BITS: no two
    monomials share a key, and int order stays the monomial order."""

    __slots__ = ("names", "blocks", "guards", "plain", "_shifts", "_degree_shift", "_spans", "_total")

    def __init__(self, names, blocks):
        self.names = tuple(names)
        self.blocks = tuple(tuple(block) for block in blocks)
        seen = [i for block in self.blocks for i in block]
        n = len(self.names)
        if sorted(seen) != list(range(n)):
            raise ValueError("blocks must partition the variables")
        w = SLOT_BITS
        # plain exponents in fields 0..n-1, block by block, then the total
        # degree in field n and the blocks' fields, the last block lowest
        field = {i: f for f, i in enumerate(seen)}
        spans, high = [], n + 1
        for block in reversed(self.blocks):
            k = len(block)
            spans.append((field[block[0]] * w, (1 << (k * w)) - 1, _ones(k), high * w))
            high += k
        self.guards = _ones(2 * n + 1) << (w - 1)
        self._shifts = tuple(field[i] * w for i in range(n))
        self._degree_shift = n * w
        self._spans = tuple(spans)
        self.plain = (1 << (n * w)) - 1
        self._total = (_ones(n), _FIELD << ((n - 1) * w))

    def pack(self, exp) -> int:
        """The key of the exponent tuple exp, whose total degree must be
        below 2**(SLOT_BITS - 1); buchberger checks its generators."""
        if len(exp) != len(self._shifts) or min(exp, default=0) < 0:
            raise ValueError(f"exponents {exp} are not a monomial of {self}")
        return self.lift(sum(e << shift for e, shift in zip(exp, self._shifts)))

    def unpack(self, key) -> tuple:
        return tuple((key >> shift) & _FIELD for shift in self._shifts)

    def degree(self, key) -> int:
        return (key >> self._degree_shift) & _FIELD

    def plain_lcm(self, a, b) -> int:
        """The plain fields of lcm(a, b), each the larger of a's and b's,
        chosen through their guards."""
        plain = self.plain
        pa, pb = a & plain, b & plain
        guards = self.guards & plain
        ge = ((pb | guards) - pa) & guards  # guard set where b's exponent is at least a's
        return pa ^ ((pa ^ pb) & (ge - (ge >> (SLOT_BITS - 1))))

    def lift(self, plain) -> int:
        """The key with the given plain fields: multiplying them by a 1 in
        each field sums them into the total degree, and a block's
        exponents into its prefix sums."""
        ones, top = self._total
        key = plain | ((plain * ones) & top) << SLOT_BITS
        for low, mask, ones, high in self._spans:
            key |= ((plain >> low & mask) * ones & mask) << high
        return key

    def __repr__(self):
        return f"OrderedRing({self.names})"


def _monic(poly, p):
    """poly, nonzero with residues mod p, scaled to leading coefficient 1."""
    lc = poly[max(poly)]
    if lc == 1:
        return poly
    inv = pow(lc, -1, p)
    return {e: c * inv % p for e, c in poly.items()}


def normal_form(poly, reducers, ring: OrderedRing, p):
    """Remainder mod p of full multivariate division on packed monomials;
    zero iff poly is in the ideal generated by a Groebner basis over
    Z/p.  reducers lists the divisors as (element, lead) pairs, lead the
    element's leading monomial.  poly's coefficients may be any ints,
    the remainder's are residues in [0, p), with its terms in decreasing
    order.  Every element must be monic with residue coefficients, as
    buchberger keeps them, so a reduction step scales by the term's
    residue alone.  A term is reduced mod p when it is taken from the
    work polynomial and dropped if that is 0; otherwise it is checked
    against the exponent range (see OrderedRing) before it is reduced
    or kept."""
    work = dict(poly)
    remainder = {}
    guards = ring.guards
    while work:
        e = max(work)
        c = work[e] % p
        if not c:
            del work[e]
            continue
        if e & guards:
            raise ResourceLimitError(
                f"normal_form: a term of degree {ring.degree(e)} is past the "
                f"{SLOT_BITS - 1}-bit exponent range of packed monomials"
            )
        for g, glead in reducers:
            shift = e - glead
            if not shift & guards:  # glead divides e
                # the lead product c - c * 1 cancels exactly, so the
                # kernel deletes the term
                work[e] = c
                term_times_into(work, g, shift, -c)
                break
        else:
            remainder[e] = c
            del work[e]
    return remainder


def s_polynomial(f, g, lcm):
    """The S-polynomial of two monic polynomials on packed monomials,
    lcm the key of the lcm of their leads.  Its int coefficients are
    left unreduced for normal_form; the leads cancel exactly, 1 - 1, so
    no modulus is needed here."""
    lf, lg = max(f), max(g)
    out = {}
    term_times_into(out, f, lcm - lf, 1)
    term_times_into(out, g, lcm - lg, -1)
    return out


def buchberger(generators, ring: OrderedRing, p, max_pairs: int = DEFAULT_MAX_PAIRS):
    """Reduced Groebner basis over Z/p of the ideal the generators
    generate, p a prime.

    Generators are term dicts keyed by exponent tuples, with int or
    Fraction coefficients, mapped into Z/p once (a p dividing a
    denominator raises ValueError); the result is term dicts keyed by
    exponent tuples with residues in [0, p).  In between, every
    monomial is a packed key of ring (see OrderedRing).  Sugar
    selection strategy (Giovini, Mora, Niesi, Robbiano, Traverso 1991)
    with the Gebauer-Moeller (1988) pair update: criteria M, F and B,
    and the coprime-lead criterion per lcm.  A generator's sugar is its
    total degree; a pair's is the larger of sugar_k + |lcm| - |lead_k|
    over its two elements, and a remainder inherits its pair's sugar.
    An element whose lead a newer lead divides retires: it forms no
    pairs and reduces nothing, but joins the final interreduction.
    max_pairs bounds the candidate pairs formed, before any criterion.
    Every element is made monic when it is added, its lead coefficient
    inverted by pow(c, -1, p), as s_polynomial and normal_form require,
    so no other scaling changes a pair, a lead or a remainder.  The
    result is the reduced monic basis, sorted by leading monomial, hence
    canonical, each element with its terms in decreasing order.

    One DEBUG line on the orbitcal.elim logger tells where the candidate
    pairs went: dropped by criterion M, by F (an equal lcm, or coprime
    leads), by B, or reduced; when the run finishes, these four add up
    to the pairs formed.  Each time the pairs formed cross a multiple of
    10,000, a "buchberger progress" line gives the running counters."""
    guards, plain, degree = ring.guards, ring.plain, ring.degree
    plain_guards = guards & plain
    plain_lcm, lift = ring.plain_lcm, ring.lift
    basis: list = []
    leads: list = []
    plains: list = []  # the leads' plain fields
    ecarts: list = []  # sugar minus lead degree
    active: list = []
    reducers: list = []  # (element, lead) of the active elements, in step with active
    # queued pairs and their lcm in plain fields; the heap is keyed by the
    # sugar, then by the lcm in the order, then by the indices, so pops
    # are deterministic, and a popped pair no longer in queued was
    # removed by criterion B
    queued: dict = {}
    heap: list = []
    formed = reduced = zeros = by_m = by_f = by_b = 0

    def add(h, sugar):
        nonlocal formed, by_m, by_f, by_b
        formed += len(active)
        if formed // 10_000 > (formed - len(active)) // 10_000:
            _log.debug("buchberger progress: %d pairs formed, %d dropped by criterion M, %d by F, %d by B, "
                       "%d S-polynomials reduced, %d to zero", formed, by_m, by_f, by_b, reduced, zeros)
        if formed > max_pairs:
            raise ResourceLimitError(
                f"buchberger: pair limit {max_pairs} exceeded (basis "
                f"{len(basis)} elements, {reduced} S-polynomials reduced)"
            )
        new, lh = len(basis), max(h)
        # the lcms with lh, in plain fields, of the active elements, each
        # the larger field of the two chosen through the guards as in
        # OrderedRing.plain_lcm; they take the same divisibility test, and
        # sorted() lists a proper divisor before its multiples
        ph = lh & plain
        above = ph | plain_guards
        lcms = {}
        partners, coprime = {}, set()  # per lcm: its active partners
        retire = False
        for i in active:
            pa = plains[i]
            ge = (above - pa) & plain_guards  # guard set where lh's exponent is at least lead i's
            lcm = lcms[i] = pa ^ ((pa ^ ph) & (ge - (ge >> (SLOT_BITS - 1))))
            partners.setdefault(lcm, []).append(i)
            if lcm == pa + ph:  # coprime leads
                coprime.add(lcm)
            if lcm == pa:  # lh divides lead i
                retire = True
        # criterion B: lh divides the pair's lcm, which neither new lcm equals
        for pair in [pair for pair, lcm in queued.items() if not (lcm - ph) & guards]:
            lcm = queued[pair]
            if all(lcm != (lcms[k] if k in lcms else plain_lcm(leads[k], lh)) for k in pair):
                del queued[pair]
                by_b += 1
        # criterion M: if any lcm divides this one then some minimal lcm
        # does; criterion F: of the pairs with a minimal lcm, one is
        # queued, or none when one of them has coprime leads
        minimal: list = []
        ecart = sugar - degree(lh)
        for lcm in sorted(partners):
            pairs = partners[lcm]
            for m in minimal:
                if not (lcm - m) & guards:
                    by_m += len(pairs)
                    break
            else:
                minimal.append(lcm)
                if lcm in coprime:
                    by_f += len(pairs)
                else:
                    by_f += len(pairs) - 1
                    i = pairs[0]
                    queued[i, new] = lcm
                    key = lift(lcm)
                    heappush(heap, (degree(key) + max(ecarts[i], ecart), key, (i, new)))
        basis.append(h)
        leads.append(lh)
        plains.append(ph)
        ecarts.append(ecart)
        if retire:
            active[:] = [i for i in active if lcms[i] != plains[i]]
            reducers[:] = [(basis[i], leads[i]) for i in active]
        active.append(new)
        reducers.append((h, lh))

    try:
        for g in generators:
            g = {e: r for e, c in g.items() if (r := c.numerator * pow(c.denominator, -1, p) % p)}
            if g:
                sugar = max(map(sum, g))
                if sugar >> (SLOT_BITS - 1):
                    raise ResourceLimitError(
                        f"buchberger: a generator of degree {sugar} is past the "
                        f"{SLOT_BITS - 1}-bit exponent range of packed monomials"
                    )
                add(_monic({ring.pack(e): c for e, c in g.items()}, p), sugar)
        if not basis:
            raise ValueError("need at least one nonzero generator")

        while heap:
            sugar, lcm, pair = heappop(heap)
            if queued.pop(pair, None) is None:
                continue
            i, j = pair
            s = s_polynomial(basis[i], basis[j], lcm)
            reduced += 1
            r = normal_form(s, reducers, ring, p)
            if r:
                add(_monic(r, p), sugar)
            else:
                zeros += 1
    finally:
        _log.debug(
            "buchberger: %d pairs formed, %d dropped by criterion M, %d by F, %d by B, "
            "%d S-polynomials reduced, %d to zero, basis %d elements",
            formed, by_m, by_f, by_b, reduced, zeros, len(basis),
        )
    unpack = ring.unpack
    return [{unpack(e): c for e, c in g.items()} for g in _reduce_basis(basis, leads, ring, p)]


def _reduce_basis(basis, leads, ring: OrderedRing, p):
    # minimalize: keep an element unless a kept lead divides its lead;
    # a proper divisor has a smaller degree, so scan by degree (stable,
    # so the first of equal leads is kept)
    guards, degree = ring.guards, ring.degree
    keep = []
    for g, lead in sorted(zip(basis, leads), key=lambda pair: degree(pair[1])):
        if all((lead - other) & guards for _, other in keep):
            keep.append((g, lead))
    # interreduce: no lead divides another, so every lead survives, with
    # its coefficient 1, and one pass leaves no term divisible by another
    # element's lead.  An element's own lead divides none of its other
    # terms, which are all smaller, nor any term their reduction makes,
    # so its tail reduces by the whole list, itself included
    for i, (g, lead) in enumerate(keep):
        tail = dict(g)
        element = {lead: tail.pop(lead)}
        element.update(normal_form(tail, keep, ring, p))
        keep[i] = element, lead
    keep.sort(key=lambda pair: pair[1])
    return [g for g, _ in keep]


# ---------------------------------------------------------------------------
# swept subspaces


class SubspaceMap:
    """Affine parametrization of a linear subvariety: n polynomial
    images in the parameters y1..yl (l = 0 parametrizes a point).

    Each image is a term dict, or a text (any other value is read as
    its str) in polyring's format, and is stored as the checked term
    dict of Ambient(0, l) with the names y1..yl, or raises ValueError."""

    __slots__ = ("l", "ambient", "images")

    def __init__(self, l: int, images):
        if l < 0:
            raise ValueError("negative parameter count")
        self.l = l
        self.ambient = amb = Ambient(0, l, names=tuple(f"y{i + 1}" for i in range(l)))
        self.images = [amb.check(img) if isinstance(img, dict) else amb.parse(str(img)) for img in images]
        if not self.images:
            raise ValueError("need at least one image")

    @classmethod
    def point(cls, b) -> "SubspaceMap":
        return cls(0, [{(): x} for x in b])

    @classmethod
    def from_json(cls, payload: dict) -> "SubspaceMap":
        try:
            images = json_list(payload.get("images", []))
            if not images:
                raise ValueError("subspace file must list at least one image")
            return cls(exact_int(payload["l"]), images)
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed subspace data: {exc}") from exc

    def to_json(self) -> dict:
        return {"l": self.l, "images": [format_terms(img, self.ambient.names) for img in self.images]}

    @classmethod
    def load(cls, path) -> "SubspaceMap":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def closure_equations(
    rep: RepresentationData,
    tau: SubspaceMap,
    *,
    max_pairs: int = DEFAULT_MAX_PAIRS,
):
    """Polynomials in z1..zn whose common zero set is the closure of the
    swept subspace under the parametrized action.

    Generator p is x^m_p z_p - x^m_p psi_p, with psi_p = sum_q
    rho[p][q] tau_q the joined image and x^m_p the monomial that clears
    its negative exponents on the invertible variables.  Let S be the
    invertible x_k with m_p[k] > 0 for some p.  When S is nonempty, the
    generator 1 - t x^S, x^S the product of the x_k in S, saturates by
    them; when S is empty, psi is polynomial and the ring has no t.  The
    r + s group parameters x, t, the l subspace parameters y and the
    coordinates z lie in the grevlex blocks x_N | t, x_S | y | z, each in
    index order and dominating the next, x_N the x_k outside S; an empty
    block is dropped.  Any split of t, x and y into blocks ranked before
    z eliminates z, and the z-only elements of the reduced basis are the
    unique reduced basis of the ideal in Q[z] under the z block's grevlex
    (Cox, Little, O'Shea, Ideals, Varieties, and Algorithms, 3.1), so the
    layout changes the cost alone: it is a measured heuristic, not a
    proof.  S last follows Bayer and Stillman (1987): with x_n last in
    reverse lex, in(I : x_n^inf) = in(I) : x_n^inf for homogeneous I.
    Against t | x | y | z with S last, the cones of tests/test_elim_cones.py
    form 2% to 57% fewer pairs, though z1 z2^4 takes longer.

    Why S suffices: let J be the ideal of the x^m_p (z_p - psi_p).  For
    any T containing S, J : (x_T)^infinity is the kernel of the
    substitution Q[x, y, z] -> Q[x, y, x_T^-1], z -> psi, the ideal of
    the graph of (x, y) -> psi(x, y) over x_T nonzero.  psi lies in
    Q[x, y, x_S^-1], a subring of Q[x, y, (x1...xr)^-1], so the kernel
    is the same for T = S as for every invertible parameter; when S is
    empty, J is already that kernel, and it is prime.  The basis
    elements with no exponent before the z block generate its
    intersection with Q[z] (elimination property of the block order),
    the ideal of the closure of the image.

    Before that, the parameters that a coordinate equals are substituted
    out (ibid., 3.3).  A coordinate p whose image is psi_p = c x_k, c a
    nonzero rational and x_k one parameter of x or y, has the generator
    z_p - c x_k; for each x_k the first such p is taken.  Every x_k so
    taken becomes z_p / c in the other generators, 1 - t x^S included,
    and p's generator is dropped; x_k stays in the ring, unused.  Why the
    ideal in Q[z] is the same: let I be the ideal of all the generators
    above and sigma the ring map x_k -> z_p / c.  sigma fixes every
    polynomial free of the x_k, Q[z] included, and f - sigma(f) lies in
    its kernel, spanned by the z_p - c x_k, which lie in I.  So I is the
    ideal of the substituted generators plus that kernel, and applying
    sigma to a combination that gives some f in Q[z] writes f by the
    substituted generators alone: both ideals meet Q[z] in the same
    ideal.  When no generator is left, that ideal is 0 and the closure
    is the whole space: the result is [].

    exactmath._lift runs buchberger prime after prime, lifts the z-only
    elements to Q and checks them on the unsubstituted psi (see the
    module docstring).  At DEBUG, logger orbitcal.elim gets one line per
    call after buchberger's: the primes used, the restarts (a prime
    whose z-only supports differ from the previous ones), the equations
    lifted, the blocks by variable name, the largest numerator or
    denominator in bits and the time the checks took."""
    n, r, l = rep.n, rep.r, tau.l
    if len(tau.images) != n:
        raise ValueError("subspace image count must equal the dimension")
    params = r + rep.s + l

    # psi_p as a dict over (x..., y...) exponents: x and y are disjoint
    # variables, so a product of terms joins their exponents
    images, clearing, equal = [], [], {}
    for p in range(n):
        image: dict = {}
        for entry, tau_q in zip(rep.rho[p], tau.images):
            for ex, cx in entry.items():
                for ey, cy in tau_q.items():
                    e = ex + ey
                    image[e] = image.get(e, 0) + cx * cy
        image = {e: c for e, c in image.items() if c}
        images.append(image)
        clearing.append(tuple(max([0] + [-e[k] for e in image]) for k in range(r)) + (0,) * (rep.s + l))
        if len(image) == 1:
            ((e, c),) = image.items()
            if sum(e) == 1 and e.count(0) == params - 1:  # psi_p = c x_k
                equal.setdefault(e.index(1), (p, c))
    # the exponents of x^S: 1 on the invertible parameters that psi inverts
    inverted = tuple(int(any(m[k] for m in clearing)) for k in range(r))
    t = (0,) * any(inverted)
    names = ["t"] * len(t) + list(rep.ambient.names + tau.ambient.names) + [f"z{i + 1}" for i in range(n)]
    # the blocks x_N | t, x_S | y | z over the indices t, x, y, z
    z_start = len(t) + params
    width, x_s = z_start + n, [len(t) + k for k in range(r) if inverted[k]]
    x_n = [i for i in range(len(t), z_start - l) if i not in x_s]
    blocks = [b for b in (x_n, [0] * len(t) + x_s, range(z_start - l, z_start), range(z_start, width)) if b]

    # the generators over t | x | y | z; the z term comes first, then the
    # image terms in image order; no two keys collide, as only the z term
    # has a z exponent
    generators = []
    taken = {p for p, _ in equal.values()}
    for p, (image, m) in enumerate(zip(images, clearing)):
        if p not in taken:
            g = {t + m + (0,) * p + (1,) + (0,) * (n - 1 - p): Fraction(1)}
            for e, c in image.items():
                g[t + tuple(map(add, e, m)) + (0,) * n] = -c
            generators.append(g)
    if not generators:
        return []
    if t:
        generators.append({(0,) * width: Fraction(1), (1,) + inverted + (0,) * (width - r - 1): Fraction(-1)})

    # x_k -> z_p / c; each term stays one term, and no two collide: a z
    # term keeps its own z_p, which no x_k becomes.  x_k stays in the
    # ring, unused: dropping it measured no faster
    moves = [(len(t) + k, z_start + p, 1 / c) for k, (p, c) in equal.items()]
    for i, g in enumerate(generators):
        out = {}
        for e, c in g.items():
            e = list(e)
            for k, z, inverse in moves:
                if a := e[k]:
                    e[k] = 0
                    e[z] += a
                    c *= inverse**a
            out[tuple(e)] = c
        generators[i] = out

    ring = OrderedRing(names, blocks)
    denominators = lcm(*(c.denominator for g in generators for c in g.values()))
    check_s, equations = 0.0, None

    def run(prime):
        if denominators % prime == 0:
            return None
        basis = buchberger(generators, ring, prime, max_pairs=max_pairs)
        elements = [g for g in basis if not any(any(e[:z_start]) for e in g)]
        return [[e[z_start:] for e in g] for g in elements], [c for g in elements for c in g.values()]

    def vanish(support, values):
        nonlocal check_s, equations
        # Fraction coefficients, as every term dict over Q in orbitcal
        flat = iter(map(Fraction, values))
        equations = [{e: next(flat) for e in keys} for keys in support]
        start = perf_counter()
        vanishes = _vanish_on(equations, images, params)
        check_s += perf_counter() - start
        return vanishes

    _, _, restarts, primes = _lift(run, vanish, lambda support: "closure_equations: the check f(psi) = 0")
    if _log.isEnabledFor(logging.DEBUG):  # a run of three or more variables reads first..last
        layout = " | ".join(f"{names[b[0]]}..{names[b[-1]]}" if len(b) > 2 and b[-1] - b[0] == len(b) - 1
                            else ",".join(names[i] for i in b) for b in blocks)
        bits = max((max(abs(c.numerator), c.denominator).bit_length() for f in equations for c in f.values()), default=0)
        _log.debug("closure_equations: primes %s, %d restarts, %d equations lifted, blocks %s, coefficients up "
                   "to %d bits, f(psi) = 0 checked in %.1f ms", ",".join(map(str, primes)), restarts,
                   len(equations), layout, bits, 1000 * check_s)
    return equations


def _vanish_on(equations, images, nvars) -> bool:
    """True iff f(images) = 0 exactly for every f in equations, each
    image a term dict of exponent width nvars, summed in integers.  With
    D the lcm of the images' denominators, phi = D images has int
    coefficients; for f of degree d and L the lcm of its denominators,
    sum_e L c_e D^(d - |e|) phi^e = L D^d f(images), which is 0 iff
    f(images) is.  One monomial_images table holds every product of
    powers of phi that an equation takes."""
    top = max((sum(e) for f in equations for e in f), default=0)
    D = lcm(*(c.denominator for image in images for c in image.values()))
    phi = [{e: c.numerator * (D // c.denominator) for e, c in image.items()} for image in images]
    powers = [D**k for k in range(top + 1)]
    image, _ = monomial_images(phi, nvars, top)
    for f in equations:
        d = max(map(sum, f), default=0)
        L = lcm(*(c.denominator for c in f.values()))
        total: dict = {}
        for e, c in f.items():
            add_scaled_inplace(total, image(e), c.numerator * (L // c.denominator) * powers[d - sum(e)])
        if total:
            return False
    return True


def point_in_closure(equations, point) -> bool:
    """True iff every defining polynomial vanishes exactly at the point."""
    point = vector(point)
    for q in equations:
        if any(len(exp) != len(point) for exp in q):
            raise ValueError("arity mismatch between equations and point")
        if evaluate_terms(q, point):
            return False
    return True


def format_equation(q, n: int) -> str:
    names = tuple(f"z{i + 1}" for i in range(n))
    return format_terms(q, names)


def parse_equation(text: str, n: int) -> dict:
    names = tuple(f"z{i + 1}" for i in range(n))
    return parse_terms(text, names)
