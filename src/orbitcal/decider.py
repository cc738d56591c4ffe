"""Closure membership by linear-system consistency.

Given a conic base orbit with degree bound d, membership of a point's
orbit in the closure is equivalent to the INconsistency of an explicit
linear system: with polynomials F_p of degree 2d-2 whose coefficients
c[(p, q)] are unknowns, the combination
(y_1 - a_1)F_1 + ... + (y_n - a_n)F_n - 1, with the orbit
parametrization psi substituted for the y's, must have every collected
monomial coefficient vanish.  The column of c[(p, q)] is therefore the
expansion of (psi_p - a_p) psi^q, and the system is assembled column by
column from the pullback powers, in integers: as D^(2d-1) times the
rational system, D the common denominator of psi and a, which changes
no solution and no refutation.  The powers come from
polyring.monomial_images on its packed monomial keys, which this module
treats as opaque: only the distinct row monomials are decoded, once, to
sort the rows.  A refutation of the system certifies
membership, a solution certifies non-membership, and solve_or_refute
returns either only after an exact plug-back, which
ConsistencyWitness.verify repeats for anyone who holds the system.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, lcm

from orbitcal import repmodel
from orbitcal._kernels import add_scaled_inplace
from orbitcal.degbound import parametric_degree_bound
from orbitcal.errors import PreconditionError, ResourceLimitError
from orbitcal.exactmath import REFUTATION, ConsistencyWitness, SparseMatrix, solve_or_refute
from orbitcal.polyring import monomial_images
from orbitcal.repmodel import vector

IN_CLOSURE = "IN_CLOSURE"
NOT_IN_CLOSURE = "NOT_IN_CLOSURE"
TRIVIALLY_DENSE = "TRIVIALLY_DENSE"

DEFAULT_MAX_NNZ = 10**6


class DecisionProblem:
    """The data of one membership question.

    conic_asserted must be set by the caller (directly, or through
    conic_problem which applies the scaling reduction); decide refuses
    to run otherwise, since conicity of the base orbit cannot be
    checked cheaply."""

    __slots__ = ("rep", "a", "b", "degree_bound_override", "conic_asserted")

    def __init__(self, rep, a, b, degree_bound_override=None, conic_asserted=False):
        self.rep = rep
        self.a = vector(a)
        self.b = vector(b)
        if len(self.a) != rep.n or len(self.b) != rep.n:
            raise ValueError("vector length mismatch")
        if degree_bound_override is not None and degree_bound_override < 1:
            raise ValueError("degree bound override must be >= 1")
        self.degree_bound_override = degree_bound_override
        self.conic_asserted = conic_asserted


def conic_problem(rep, a, b, degree_bound_override=None) -> DecisionProblem:
    """Apply the conic reduction and return a ready-to-decide problem."""
    rep2, a2, b2 = repmodel.make_conic(rep, a, b)
    return DecisionProblem(
        rep2, a2, b2, degree_bound_override=degree_bound_override, conic_asserted=True
    )


class LinearSystem:
    """The integer system A c = v with rows indexed by parameter-space
    monomials and columns by the generic-coefficient labels."""

    __slots__ = ("matrix", "rhs", "row_monomials", "col_keys")

    def __init__(self, matrix: SparseMatrix, rhs, row_monomials, col_keys):
        self.matrix = matrix
        self.rhs = list(rhs)
        self.row_monomials = list(row_monomials)
        self.col_keys = list(col_keys)


class Decision:
    """Verdict plus an exactly verifiable certificate and a transcript
    of the sizes and choices that produced it."""

    __slots__ = ("verdict", "certificate", "transcript")

    def __init__(self, verdict, certificate, transcript):
        self.verdict = verdict
        self.certificate = certificate
        self.transcript = dict(transcript)

    @property
    def in_closure(self) -> bool:
        return self.verdict in (IN_CLOSURE, TRIVIALLY_DENSE)

    def to_json(self) -> dict:
        cert = None
        if self.certificate is not None:
            cert = {
                "kind": self.certificate.kind,
                "vector": [str(x) for x in self.certificate.vector],
            }
        return {
            "verdict": self.verdict,
            "certificate": cert,
            "transcript": self.transcript,
        }

    @classmethod
    def from_json(cls, payload) -> "Decision":
        cert = payload.get("certificate")
        witness = None
        if cert is not None:
            witness = ConsistencyWitness(cert["kind"], [Fraction(x) for x in cert["vector"]])
        return cls(payload["verdict"], witness, payload.get("transcript", {}))


def generic_coefficient_count(n: int, d: int) -> int:
    return n * comb(2 * d - 2 + n, n)


def assemble_system(d: int, alpha, pullbacks) -> LinearSystem:
    """The integer system A c = v for the combination at degree bound d
    and target alpha.  Column (p, q) holds the coefficients of
    (psi_p - alpha_p) psi^q; rows are the parameter monomials in the
    support of some column, plus x^0, whose right-hand side is the 1
    moved over from the combination (every other row has 0).  Zero
    columns are dropped; rows are sorted by (degree, exponent) and
    columns by key.

    The system is built in integers as D^(2d-1) (A | v), D the lcm of
    the denominators in the pullbacks and alpha (1 on integer data):
    with phi_p = D psi_p, beta_p = D alpha_p and image(q) = phi^q, each
    q in N^n with |q| <= 2d - 2 and k = 2d - 2 - |q| gives D^k (image(q
    + e_p) - beta_p image(q)) = D^(2d-1) (psi_p - alpha_p) psi^q.  One
    nonzero scalar on the whole system leaves every solution and every
    refuting row combination, and so the solver's witness, unchanged;
    scaling rows would change the refutations, and columns the solutions.

    The images are asked for up to degree 2d - 1, |q + e_p|, and come
    keyed by polyring's packed monomial keys.  Columns, the row set and
    the row index stay on those keys; each distinct row key is decoded
    once, for row_monomials and its sort."""
    n = len(pullbacks)
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    alpha = vector(alpha)
    if len(alpha) != n:
        raise ValueError("alpha length mismatch")
    D = lcm(*(c.denominator for psi in pullbacks for c in psi.terms.values()), *(a.denominator for a in alpha))
    phi = [{e: c.numerator * (D // c.denominator) for e, c in psi.terms.items()} for psi in pullbacks]
    beta = [a.numerator * (D // a.denominator) for a in alpha]
    image, decode = monomial_images(phi, pullbacks[0].ambient.nvars, 2 * d - 1)
    (one,) = image((0,) * n)
    columns = {}
    # slot n stands for the constant: it raises the scale, not the image
    for slots in combinations_with_replacement(range(n + 1), 2 * d - 2):
        q = tuple(slots.count(i) for i in range(n))
        scale = D ** slots.count(n)
        for p in range(n):
            column = {e: scale * c for e, c in image(q[:p] + (q[p] + 1,) + q[p + 1 :]).items()}
            add_scaled_inplace(column, image(q), -beta[p] * scale)
            if column:
                columns[(p, q)] = column
    rows = {one}
    for column in columns.values():
        rows.update(column)
    decoded = {decode(key): key for key in rows}
    row_monomials = sorted(decoded, key=lambda e: (sum(e), e))
    row_index = {decoded[exp]: i for i, exp in enumerate(row_monomials)}
    col_keys = sorted(columns)
    matrix = SparseMatrix(len(row_monomials), max(1, len(col_keys)))
    row_terms = matrix.row_terms
    for j, key in enumerate(col_keys):
        for row, coef in columns.pop(key).items():
            row_terms[row_index[row]][j] = coef
    rhs = [0] * len(row_monomials)
    rhs[row_index[one]] = D ** (2 * d - 1)
    return LinearSystem(matrix, rhs, row_monomials, col_keys)


def decide(
    problem: DecisionProblem,
    *,
    seed: int = 0,
    max_nnz: int = DEFAULT_MAX_NNZ,
    keep_system: bool = False,
):
    """Run the full decision pipeline.

    Steps: build the coordinate pullbacks once; check the dense case
    through the orbit dimension, their Jacobian rank at one point mod a
    prime drawn from the seed (the seed's only use); if b has zero
    coordinates, scramble the basis with find_scrambling's elementary
    matrix, which combines the pullbacks and a by the same matrix; pick
    the degree bound (override, then the representation's own bound,
    then the parametric fallback); assemble the linear system from the
    pullbacks; solve with an exact witness, which solve_or_refute has
    already checked by plug-back.  Returns the Decision, or (Decision,
    LinearSystem) when keep_system is set."""
    rep, a, b = problem.rep, problem.a, problem.b
    if not any(b):
        raise PreconditionError("the base vector b must be nonzero")
    if not problem.conic_asserted:
        raise PreconditionError(
            "the orbit of b must be conic: use conic_problem() or assert conicity"
        )

    pullbacks = repmodel.coordinate_pullbacks(rep, b)
    dim = repmodel.orbit_dimension(pullbacks, seed=seed)
    transcript = {
        "n": rep.n,
        "orbit_dimension": dim,
        "seed": seed,
    }
    if dim >= rep.n:
        decision = Decision(TRIVIALLY_DENSE, None, transcript | {"note": "orbit closure is the whole space"})
        return (decision, None) if keep_system else decision

    # With rho and b replaced by S rho S^-1 and S b, the pullbacks become
    # S psi and the target S a; the closure degree is basis-free.
    if all(b):
        scramble = None
        a_w = a
    else:
        scramble = repmodel.find_scrambling(b)
        a_w = repmodel.apply_matrix(scramble, a)
        pullbacks = [repmodel.combine(pullbacks, row) for row in scramble]
    transcript["scramble"] = scramble

    if problem.degree_bound_override is not None:
        d = problem.degree_bound_override
        source = "override"
    elif rep.degree_bound is not None:
        d = rep.degree_bound
        source = "representation"
    else:
        d = parametric_degree_bound(rep)
        source = "parametric"
        transcript["degree_bound_note"] = (
            "fallback bound; soundness relies on it dominating the closure degree"
        )
    transcript["degree_bound"] = d
    transcript["degree_bound_source"] = source

    # Checked before the system is assembled, and sound: after scrambling
    # S b has no zero coordinate and its orbit is conic, so no coordinate
    # pullback is zero or constant, and the column of c[(p, q)], the
    # expansion of (psi_p - a_p) psi^q, has a nonzero entry.  Hence
    # c-variables <= nnz.
    c_variables = generic_coefficient_count(rep.n, d)
    if c_variables > max_nnz:
        raise ResourceLimitError(
            f"linear system too large: {c_variables} c-variables at degree "
            f"bound d = {d} (limit {max_nnz} nonzeros)"
        )

    system = assemble_system(d, a_w, pullbacks)
    transcript["monomials"] = len(system.row_monomials)
    transcript["c_variables"] = c_variables
    transcript["nonzeros"] = system.matrix.nnz
    if system.matrix.nnz > max_nnz:
        raise ResourceLimitError(
            f"linear system too large: {system.matrix.nnz} nonzeros "
            f"(limit {max_nnz}), {len(system.row_monomials)} rows x "
            f"{len(system.col_keys)} columns"
        )

    witness = solve_or_refute(system.matrix, system.rhs)
    verdict = IN_CLOSURE if witness.kind == REFUTATION else NOT_IN_CLOSURE
    decision = Decision(verdict, witness, transcript)
    return (decision, system) if keep_system else decision
