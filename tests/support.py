"""Reference code that only the tests use: the numeric group action, the
sl2 substitution rule written out by hand, the schoolbook product of
term dicts, dense integer rows as a SparseMatrix, the rank over Q of
dense rows, the two ways of comparing elim's results over Z/p with
rational ones (rational term dicts mapped into Z/p, and results over
Z/p lifted to Q), elim's closure over Z/p saturated by every
invertible parameter, with no parameter substituted out, and elim's
check f(psi) = 0 over Fractions."""

from fractions import Fraction
from math import comb

from orbitcal.elim import OrderedRing, SubspaceMap, buchberger, s_polynomial
from orbitcal._kernels import add_scaled_inplace
from orbitcal.exactmath import SparseMatrix, _crt, _primes, _reconstruct
from orbitcal.polyring import evaluate_terms, monomial_images
from orbitcal.repmodel import RepresentationData, Vec, vector


def act(rep: RepresentationData, point, v) -> Vec:
    """Exact image of v under the group element at the parameter point."""
    v = vector(v)
    if len(v) != rep.n:
        raise ValueError("vector length mismatch")
    point = vector(point)
    if len(point) != rep.ambient.nvars or not all(point[: rep.r]):
        raise ValueError("point has the wrong length or a zero invertible coordinate")
    matrix = [[evaluate_terms(entry, point) for entry in row] for row in rep.rho]
    return tuple(sum(matrix[i][j] * v[j] for j in range(rep.n)) for i in range(rep.n))


def sl2_parameter_matrix(point) -> list[list[Fraction]]:
    """Numeric 2x2 matrix of the parametrization at a rational point."""
    e1, e2, e3 = (Fraction(x) for x in point)
    if not e1:
        raise ValueError("point has zero in invertible coordinate x1")
    return [[e1 + e2 * e3 / e1, e2 / e1], [e3 / e1, 1 / e1]]


def binary_substitution_matrix(g, h: int) -> list[list[Fraction]]:
    """Numeric (h+1) x (h+1) matrix of the degree-h binary-form action of
    a 2x2 matrix g, computed directly from the substitution rule."""
    (a, b), (c, d) = ((Fraction(v) for v in row) for row in g)
    n = h + 1
    out = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        for k in range(h - j + 1):
            left = a ** (h - j - k) * c**k * comb(h - j, k)
            for m in range(j + 1):
                out[k + m][j] += left * b ** (j - m) * d**m * comb(j, m)
    return out


def convolve(a, b):
    """The product of two term dicts on exponent tuples, term by term."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def product_of_powers(nvars, images, q):
    """prod_i images[i]**q[i] for term dicts of exponent width nvars, by
    repeated convolution; the reference for polyring.monomial_images."""
    out = {(0,) * nvars: 1}
    for terms, k in zip(images, q):
        for _ in range(k):
            out = convolve(out, terms)
    return out


def sparse_matrix(data) -> SparseMatrix:
    """A SparseMatrix from dense rows of ints; ragged rows and entries
    that are not ints raise ValueError."""
    data = [list(row) for row in data]
    cols = len(data[0]) if data else 0
    if any(len(row) != cols for row in data):
        raise ValueError("ragged rows")
    matrix = SparseMatrix(len(data), cols)
    for i, (row, terms) in enumerate(zip(data, matrix.row_terms)):
        for j, v in enumerate(row):
            if not isinstance(v, int):
                raise ValueError(f"entry {(i, j)} = {v!r} is not an integer")
            if v:
                terms[j] = v
    return matrix


def rank(rows) -> int:
    """Exact rank over Q of a dense matrix, by row reduction over
    Fractions; the reference for exactmath.rank_mod."""
    work = [[Fraction(v) for v in row] for row in rows]
    r = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            if factor := work[i][col] / work[r][col]:
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def residues(poly, p) -> dict:
    """The term dict poly, with int or Fraction coefficients, mapped into
    Z/p: each coefficient becomes its residue in [0, p), zeros dropped."""
    out = {}
    for e, c in poly.items():
        c = Fraction(c)
        r = c.numerator * pow(c.denominator, -1, p) % p
        if r:
            out[e] = r
    return out


def reducers(basis):
    """The divisors elim.normal_form takes: each packed element of basis
    with its leading monomial."""
    return [(g, max(g)) for g in basis]


def s_pair(f, g, ring):
    """elim.s_polynomial of the packed f and g, given the key of the lcm
    of their leads."""
    return s_polynomial(f, g, ring.lift(ring.plain_lcm(max(f), max(g))))


def lift(modular):
    """The list of term dicts over Q whose residues modulo p are
    modular(p), for large primes p: the primes of exactmath are tried in
    turn, residues of equal supports are combined by CRT, and the
    rational reconstruction is returned once two moduli in a row give
    the same one.  A prime for which modular raises ValueError, as
    residues does for a prime dividing a denominator, is skipped."""
    support = values = last = None
    modulus = 1
    for p in _primes():
        try:
            polys = modular(p)
        except ValueError:
            continue
        keys = [list(f) for f in polys]
        more = [c for f in polys for c in f.values()]
        if keys == support:
            values = _crt(values, modulus, more, p)
            modulus *= p
        else:
            support, values, modulus, last = keys, more, p, None
        flat = _reconstruct(values, modulus)
        lifted = None
        if flat is not None:
            flat = iter(flat)
            lifted = [{e: Fraction(next(flat)) for e in f} for f in support]
            if lifted == last:
                return lifted
        last = lifted


def joined_images(rep: RepresentationData, tau: SubspaceMap) -> list[dict]:
    """psi_p = sum_q rho[p][q] tau_q, term dicts over the exponents of
    the group parameters x followed by the subspace parameters y, by
    schoolbook products."""
    nx, l = rep.ambient.nvars, tau.l
    images = []
    for row in rep.rho:
        image = {}
        for entry, tau_q in zip(row, tau.images):
            left = {e + (0,) * l: c for e, c in entry.items()}
            right = {(0,) * nx + e: c for e, c in tau_q.items()}
            for e, c in convolve(left, right).items():
                image[e] = image.get(e, 0) + c
        images.append({e: c for e, c in image.items() if c})
    return images


def saturated_by_all(rep: RepresentationData, tau: SubspaceMap, p) -> list[dict]:
    """The z-only elements of the reduced Groebner basis over Z/p, under
    the block order t | x | y | z, of the generators x^m_p (z_p - psi_p)
    and, when r > 0, 1 - t*x1*...*xr: the saturation by every invertible
    parameter, x^m_p clearing the negative exponents of psi_p.  Term
    dicts keyed by z exponents, with residues in [0, p); the reference
    for elim.closure_equations, which saturates by the parameters that
    psi inverts."""
    n, r, k = rep.n, rep.r, rep.ambient.nvars + tau.l
    t = 1 if r else 0
    names = ["t"] * t + list(rep.ambient.names + tau.ambient.names) + [f"z{i + 1}" for i in range(n)]
    blocks = [range(t), range(t, t + rep.ambient.nvars), range(t + rep.ambient.nvars, t + k), range(t + k, t + k + n)]
    ring = OrderedRing(names, [block for block in blocks if block])
    generators = []
    for i, image in enumerate(joined_images(rep, tau)):
        m = [max([0] + [-e[j] for e in image]) if j < r else 0 for j in range(k)]
        z = [0] * n
        z[i] = 1
        g = {tuple([0] * t + m + z): Fraction(1)}
        for e, c in image.items():
            g[tuple([0] * t + [a + b for a, b in zip(e, m)] + [0] * n)] = -c
        generators.append(g)
    if r:
        generators.append({(0,) * (t + k + n): Fraction(1), tuple([1] * (1 + r) + [0] * (k - r + n)): Fraction(-1)})
    return [
        {e[t + k :]: c for e, c in g.items()}
        for g in buchberger(generators, ring, p)
        if all(not any(e[: t + k]) for e in g)
    ]


def vanish_on_fractions(equations, images, nvars) -> bool:
    """True iff f(images) = 0 for every f in equations, each image a term
    dict of exponent width nvars, summed over Fractions: the reference
    for elim._vanish_on, which sums in integers."""
    top = max((sum(e) for f in equations for e in f), default=0)
    image, _ = monomial_images(images, nvars, top)
    for f in equations:
        total: dict = {}
        for e, c in f.items():
            add_scaled_inplace(total, image(e), c)
        if total:
            return False
    return True
