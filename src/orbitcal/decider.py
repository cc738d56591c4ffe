"""Closure membership by linear-system consistency.

Both systems below are built in integers from the coordinate pullbacks
psi of the orbit of b at a degree bound d.  The pullbacks are term
dicts in the representation's parameters, whose count nvars the caller
passes.  With D the common denominator of psi and the target a, phi =
D psi and beta = D a, and the images phi^q come from
polyring.monomial_images on its packed monomial keys, which this
module treats as opaque: their int order is (degree, exponent) order,
so rows are sorted as ints and decoded only when LinearSystem's
row_monomials is read.  A refutation certifies membership, a solution
certifies non-membership, and solve_or_refute returns either only
after an exact plug-back, which ConsistencyWitness.verify repeats for
anyone who holds the system.

decide poses membership as the evaluation system [M ; beta^q] g = [0 ;
1], one unknown per exponent q in N^n with |q| <= d: column q of M holds
the coefficients of phi^q, and a last row holds the numbers beta^q.  A
solution g is the equation f = sum_q g_q D^|q| z^q, with f(psi) = 0 and
f(a) = 1, so a is off the closure for every d; a refutation puts
(beta^q) in the row space of M, so every equation of degree <= d
vanishes at a.  That means membership under the hypothesis that
the closure, of degree <= d, is cut out by equations of degree <= d
(Heintz 1983, Prop. 3), which holds for any affine variety: decide
needs neither a conic orbit nor a nonzero b.

decide solves the transpose T, one row per column q in the same order:
the coefficients of phi^q on M's rows, right-hand side -beta^q.  Its
pass reads the columns (phi^q | beta^q) by degree and ends at the first
equation that a violates.  A solution u of T is the refutation (u, 1);
a refutation g of T, g_q* = 1, is the solution g / (beta.g).  Both are
the certificates of the pass over the rows of [M ; beta^q], since a
witness on independent rows or columns is the only one with its
support.  That pass refutes on the first independent rows of M, which
are T's pivot columns, and on the evaluation row; it solves on the
greedy column basis of [M ; beta^q], which up to q* is T's pivot rows
before q*, and q*, where g lives.

paper_decide runs the paper's construction, which crosscheck uses as
an oracle: with polynomials F_p of degree 2d-2 whose coefficients
c[(p, q)] are unknowns, the combination (y_1 - a_1)F_1 + ... + (y_n -
a_n)F_n - 1, with psi substituted for the y's, must have every
collected monomial coefficient vanish.  The column of c[(p, q)] is
therefore the expansion of (psi_p - a_p) psi^q (assemble_system), and
the base is scrambled first when it has a zero coordinate.  It needs
the orbit of b to be conic, which the caller asserts, and b != 0.

At DEBUG, logger orbitcal.decider gets one line per system built: its
rows, columns and nonzeros, and the milliseconds spent on the images and
on the matrix; decide's line adds how many columns its pass read, up to
which degree.
"""

from __future__ import annotations

import logging
from itertools import combinations_with_replacement
from math import comb, lcm, prod
from time import perf_counter

from orbitcal import repmodel
from orbitcal._kernels import add_scaled_inplace
from orbitcal.degbound import parametric_degree_bound
from orbitcal.errors import PreconditionError, ResourceLimitError
from orbitcal.exactmath import REFUTATION, SOLUTION, ConsistencyWitness, SparseMatrix, solve_or_refute
from orbitcal.polyring import monomial_images
from orbitcal.repmodel import vector

IN_CLOSURE = "IN_CLOSURE"
NOT_IN_CLOSURE = "NOT_IN_CLOSURE"

DEFAULT_MAX_NNZ = 10**6

_log = logging.getLogger("orbitcal.decider")


class DecisionProblem:
    """The data of one membership question.

    conic_asserted states that the orbit of b is conic (conic_problem
    sets it after the scaling reduction).  Only paper_decide reads it,
    and refuses to run without it, since conicity of the base orbit
    cannot be checked cheaply; decide ignores it."""

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
    """Apply the conic reduction; the problem asserts conicity."""
    rep2, a2, b2 = repmodel.make_conic(rep, a, b)
    return DecisionProblem(
        rep2, a2, b2, degree_bound_override=degree_bound_override, conic_asserted=True
    )


class LinearSystem:
    """The integer system A x = v.  row_keys[i] is the packed key of the
    parameter monomial of row i, sorted as ints, and decode turns one
    into its exponent tuple; rows past row_keys, the evaluation row, have
    no monomial.  col_keys[j] is the label of column j: a generic
    coefficient (p, q) of the paper's system, or the exponent q of the
    evaluation system."""

    __slots__ = ("matrix", "rhs", "row_keys", "col_keys", "decode")

    def __init__(self, matrix: SparseMatrix, rhs, row_keys, col_keys, decode):
        self.matrix = matrix
        self.rhs = list(rhs)
        self.row_keys = row_keys
        self.col_keys = list(col_keys)
        self.decode = decode

    @property
    def row_monomials(self) -> list:
        """The exponent tuple of each row, None for the evaluation row,
        decoded afresh on every read."""
        return [*map(self.decode, self.row_keys)] + [None] * (self.matrix.rows - len(self.row_keys))


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
        return self.verdict == IN_CLOSURE

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "certificate": {
                "kind": self.certificate.kind,
                "vector": [str(x) for x in self.certificate.vector],
            },
            "transcript": self.transcript,
        }


def generic_coefficient_count(n: int, d: int) -> int:
    return n * comb(2 * d - 2 + n, n)


def _cleared(alpha, pullbacks):
    """(D, phi, beta): the lcm D of the denominators in the pullbacks and
    alpha (1 on integer data), and the integer term dicts phi_p = D psi_p
    and numbers beta_p = D alpha_p."""
    if len(pullbacks) < 1:
        raise ValueError("need n >= 1")
    alpha = vector(alpha)
    if len(alpha) != len(pullbacks):
        raise ValueError("alpha length mismatch")
    D = lcm(*(c.denominator for psi in pullbacks for c in psi.values()), *(a.denominator for a in alpha))
    phi = [{e: c.numerator * (D // c.denominator) for e, c in psi.items()} for psi in pullbacks]
    beta = [a.numerator * (D // a.denominator) for a in alpha]
    return D, phi, beta


def _exponents(n: int, top: int):
    """Every q in N^n with |q| <= top; slot n of a combination stands
    for the degree left over."""
    for slots in combinations_with_replacement(range(n + 1), top):
        yield tuple(slots.count(i) for i in range(n))


def _row_index(columns, max_nnz, rows=(), extra_rows=()):
    """The rows of a system whose columns are term dicts on packed
    monomial keys: (keys, index), one key per row in rows or in the
    support of a column, sorted as ints, which is (degree, exponent)
    order, and the map key -> row.  Raises ResourceLimitError when the
    nonzeros, those of the columns and of extra_rows, the dicts of the
    rows after the keyed ones, exceed max_nnz; nothing is decoded."""
    rows = set(rows)
    for column in columns:
        rows.update(column)
    nnz = sum(map(len, columns)) + sum(map(len, extra_rows))
    if nnz > max_nnz:
        raise ResourceLimitError(
            f"linear system too large: {nnz} nonzeros (limit {max_nnz}), "
            f"{len(rows) + len(extra_rows)} rows x {len(columns)} columns"
        )
    keys = sorted(rows)
    return keys, dict(zip(keys, range(len(keys))))


def _logged(name, shape, start, built, made, read=None):
    """The DEBUG line of a system built, of shape (rows, columns,
    nonzeros): images from start to built, the matrix from built to
    made, and read, (columns, of, degree), for a pass that stopped."""
    if _log.isEnabledFor(logging.DEBUG):
        tail = "; pass read %d of %d columns, to degree %d" % read if read else ""
        _log.debug("%s: %d rows x %d columns, %d nonzeros; images %.2f ms, matrix %.2f ms%s", name, *shape,
                   1000 * (built - start), 1000 * (made - built), tail)


def assemble_system(d: int, alpha, pullbacks, nvars: int, *, max_nnz: int = DEFAULT_MAX_NNZ) -> LinearSystem:
    """The paper's integer system A c = v for the combination at degree
    bound d and target alpha, the pullbacks term dicts in nvars
    parameters.  Column (p, q) holds the coefficients of (psi_p -
    alpha_p) psi^q; rows are the parameter monomials in the support of
    some column, plus x^0, whose right-hand side is the 1 moved over
    from the combination (every other row has 0).  Zero columns are
    dropped; rows are sorted by (degree, exponent) and columns by key.

    The system is built in integers as D^(2d-1) (A | v): with image(q) =
    phi^q, each q in N^n with |q| <= 2d - 2 and k = 2d - 2 - |q| gives
    D^k (image(q + e_p) - beta_p image(q)) = D^(2d-1) (psi_p - alpha_p)
    psi^q.  One nonzero scalar on the whole system leaves every
    solution and every refuting row combination, and so the solver's
    witness, unchanged; scaling rows would change the refutations, and
    columns the solutions.  The images are asked for up to degree 2d -
    1, |q + e_p|.  A system of more than max_nnz nonzeros raises
    ResourceLimitError before its matrix is filled."""
    if d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    start = perf_counter()
    D, phi, beta = _cleared(alpha, pullbacks)
    n = len(pullbacks)
    image, decode = monomial_images(phi, nvars, 2 * d - 1)
    (one,) = image((0,) * n)
    columns = {}
    for q in _exponents(n, 2 * d - 2):
        scale = D ** (2 * d - 2 - sum(q))
        for p in range(n):
            column = {e: scale * c for e, c in image(q[:p] + (q[p] + 1,) + q[p + 1 :]).items()}
            add_scaled_inplace(column, image(q), -beta[p] * scale)
            if column:
                columns[(p, q)] = column
    col_keys = sorted(columns)
    built = perf_counter()
    columns = [columns[key] for key in col_keys]
    keys, index = _row_index(columns, max_nnz, {one})
    matrix = SparseMatrix(len(keys), max(1, len(columns)))
    row_terms = matrix.row_terms
    for j, column in enumerate(columns):
        for row, coef in column.items():
            row_terms[index[row]][j] = coef
    _logged("assemble_system", (matrix.rows, matrix.cols, matrix.nnz), start, built, perf_counter())
    rhs = [0] * len(keys)
    rhs[keys.index(one)] = D ** (2 * d - 1)
    return LinearSystem(matrix, rhs, keys, col_keys, decode)


def _transposed_evaluation(d, alpha, pullbacks, nvars, max_nnz):
    """(T, beta, keys, col_keys, decode, start, built): the transpose T
    of the evaluation system at degree bound d without its evaluation
    column, whose row j holds the coefficients of phi^q, q = col_keys[j],
    on the row index of keys; the numbers beta^q in col_keys order; and
    the times before and after the images.  Raises ResourceLimitError,
    as evaluation_system's docstring says, before T is made."""
    if d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    start = perf_counter()
    _, phi, beta = _cleared(alpha, pullbacks)
    image, decode = monomial_images(phi, nvars, d)
    col_keys = sorted(_exponents(len(pullbacks), d), key=lambda q: (sum(q), q))
    values = [prod(b**e for b, e in zip(beta, q)) for q in col_keys]
    columns = [image(q) for q in col_keys]
    built = perf_counter()
    keys, index = _row_index(columns, max_nnz, extra_rows=[[v for v in values if v]])
    transposed = SparseMatrix(len(col_keys), len(keys))
    transposed.row_terms = [{index[key]: coef for key, coef in column.items()} for column in columns]
    return transposed, values, keys, col_keys, decode, start, built


def _evaluation(transposed, values, keys, col_keys, decode) -> LinearSystem:
    """The evaluation system whose columns are the rows of transposed
    over the numbers values in the evaluation row."""
    matrix = SparseMatrix(transposed.cols + 1, transposed.rows)
    row_terms = matrix.row_terms
    for j, column in enumerate(transposed.row_terms):
        for i, coef in column.items():
            row_terms[i][j] = coef
    row_terms[-1] = {j: v for j, v in enumerate(values) if v}
    return LinearSystem(matrix, [0] * (matrix.rows - 1) + [1], keys, col_keys, decode)


def evaluation_system(d: int, alpha, pullbacks, nvars: int, *, max_nnz: int = DEFAULT_MAX_NNZ) -> LinearSystem:
    """The integer system [M ; beta^q] g = [0 ; 1] at degree bound d and
    target alpha, the pullbacks term dicts in nvars parameters.  Column
    q, for every q in N^n with |q| <= d in (degree, exponent) order,
    holds the coefficients of phi^q in the rows of the parameter
    monomials in the support of some column, sorted by (degree,
    exponent), and the number beta^q in the last row, the evaluation
    row, whose right-hand side is 1 (every other row has 0).
    No column is dropped: a zero column of M still carries beta^q.

    Column q is D^|q| times the expansion of psi^q and alpha^q, so g
    solves the system iff f_q = g_q D^|q| gives f(psi) = 0 and f(alpha)
    = 1; a refutation u has u_last != 0 and puts (beta^q) in the row
    space of M.  A system of more than max_nnz nonzeros, the evaluation
    row's included, raises ResourceLimitError before its matrix is
    filled.  decide builds the same system from the same transposed
    parts."""
    *parts, start, built = _transposed_evaluation(d, alpha, pullbacks, nvars, max_nnz)
    system = _evaluation(*parts)
    matrix = system.matrix
    _logged("evaluation_system", (matrix.rows, matrix.cols, matrix.nnz), start, built, perf_counter())
    return system


def _start(problem: DecisionProblem, seed: int):
    """The steps both pipelines share: build the coordinate pullbacks
    once, take the orbit dimension, their Jacobian rank at one point mod
    a prime drawn from the seed (the seed's only use), and open the
    transcript.  Returns (pullbacks, transcript)."""
    rep = problem.rep
    pullbacks = repmodel.coordinate_pullbacks(rep, problem.b)
    transcript = {
        "n": rep.n,
        "orbit_dimension": repmodel.orbit_dimension(pullbacks, rep.ambient.nvars, seed=seed),
        "seed": seed,
    }
    return pullbacks, transcript


def _degree_bound(problem: DecisionProblem, transcript) -> int:
    """The bound d: 1 when the orbit fills the space (its closure is V,
    of degree 1), then the override, then the representation's own
    bound, then the parametric fallback; recorded in the transcript,
    with a note when the bound rests on an unchecked assumption: the
    parametric fallback, or an override below the representation's
    bound."""
    rep = problem.rep
    if transcript["orbit_dimension"] >= rep.n:
        d = 1
        source = "dense"
    elif problem.degree_bound_override is not None:
        d = problem.degree_bound_override
        source = "override"
        if rep.degree_bound is not None and d < rep.degree_bound:
            transcript["degree_bound_note"] = (
                f"override d = {d} below the representation's bound {rep.degree_bound}: "
                f"IN is sound only if the closure has degree <= {d}"
            )
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
    return d


def decide(
    problem: DecisionProblem,
    *,
    seed: int = 0,
    max_nnz: int = DEFAULT_MAX_NNZ,
    keep_system: bool = False,
):
    """Decide membership on the evaluation system, for the question as
    posed: b may be zero and the orbit need not be conic
    (problem.conic_asserted is ignored).

    Steps: the pullbacks and the orbit dimension (_start); pick the
    degree bound (_degree_bound); check the closed-form count of the
    columns and the evaluation row's entries against max_nnz before any
    image is built; build the transpose T of the evaluation system,
    whose builder checks its nonzeros before it makes T; solve T with an
    exact witness, which solve_or_refute has already checked by
    plug-back on T, and map it back, as the module docstring says.
    Returns the Decision, or (Decision, LinearSystem) when keep_system
    is set, the evaluation system built in full from the parts of T.
    The transcript records the evaluation system's rows, columns and
    nonzeros."""
    pullbacks, transcript = _start(problem, seed)
    d = _degree_bound(problem, transcript)
    # beta^q != 0 iff supp q is in supp a: the evaluation row has C(k +
    # d, d) entries.  When no pullback is zero, no column of M is zero (a
    # product of nonzero Laurent polynomials), so the count is at most
    # the nonzeros; the limit bounds the columns in any case.
    columns = comb(problem.rep.n + d, d)
    row = comb(sum(map(bool, problem.a)) + d, d)
    if columns + row > max_nnz:
        raise ResourceLimitError(
            f"evaluation system too large before assembly: {columns} columns "
            f"+ {row} evaluation-row entries at degree bound d = {d} "
            f"(limit {max_nnz} nonzeros)"
        )
    transposed, values, keys, col_keys, decode, start, built = _transposed_evaluation(
        d, problem.a, pullbacks, problem.rep.ambient.nvars, max_nnz
    )
    system = _evaluation(transposed, values, keys, col_keys, decode) if keep_system else None
    made = perf_counter()
    shape = (transposed.cols + 1, transposed.rows, transposed.nnz + sum(map(bool, values)))
    transcript["rows"], transcript["columns"], transcript["nonzeros"] = shape
    witness = solve_or_refute(transposed, [-v for v in values])
    if witness.kind == SOLUTION:
        certificate = ConsistencyWitness(REFUTATION, witness.vector + (1,))
        read = len(col_keys)
    else:
        scale = sum(v * g for v, g in zip(values, witness.vector) if g)
        certificate = ConsistencyWitness(SOLUTION, [g and g / scale for g in witness.vector])
        read = 1 + max(j for j, g in enumerate(witness.vector) if g)
    _logged("evaluation_system", shape, start, built, made, (read, len(col_keys), sum(col_keys[read - 1])))
    decision = Decision(IN_CLOSURE if certificate.kind == REFUTATION else NOT_IN_CLOSURE, certificate, transcript)
    return (decision, system) if keep_system else decision


def paper_decide(
    problem: DecisionProblem,
    *,
    seed: int = 0,
    max_nnz: int = DEFAULT_MAX_NNZ,
    keep_system: bool = False,
):
    """Decide membership on the paper's system, the oracle of crosscheck.

    Steps: raise PreconditionError unless b != 0 (the scramble needs
    it) and conicity is asserted (the system needs it); the pullbacks
    and the orbit dimension (_start); if b has zero coordinates,
    scramble the basis with find_scrambling's elementary matrix, which
    combines the pullbacks and a by the same matrix; pick the degree
    bound as decide does; check the c-variable count against max_nnz;
    assemble the system, whose builder checks its nonzeros before it
    fills the matrix; solve.  Returns what decide returns."""
    if not any(problem.b):
        raise PreconditionError("the base vector b must be nonzero")
    if not problem.conic_asserted:
        raise PreconditionError(
            "the orbit of b must be conic: use conic_problem() or assert conicity"
        )
    pullbacks, transcript = _start(problem, seed)

    # With rho and b replaced by S rho S^-1 and S b, the pullbacks become
    # S psi and the target S a; the closure degree is basis-free.
    a = problem.a
    if all(problem.b):
        scramble = None
    else:
        scramble = repmodel.find_scrambling(problem.b)
        a = repmodel.apply_matrix(scramble, a)
        pullbacks = [repmodel.combine(pullbacks, row) for row in scramble]
    transcript["scramble"] = scramble
    d = _degree_bound(problem, transcript)

    # Checked before the system is assembled, and sound: after scrambling
    # S b has no zero coordinate and its orbit is conic, so no coordinate
    # pullback is zero or constant, and the column of c[(p, q)], the
    # expansion of (psi_p - a_p) psi^q, has a nonzero entry.  Hence
    # c-variables <= nnz.
    c_variables = generic_coefficient_count(problem.rep.n, d)
    if c_variables > max_nnz:
        raise ResourceLimitError(
            f"linear system too large: {c_variables} c-variables at degree "
            f"bound d = {d} (limit {max_nnz} nonzeros)"
        )
    system = assemble_system(d, a, pullbacks, problem.rep.ambient.nvars, max_nnz=max_nnz)
    transcript["monomials"] = len(system.row_keys)
    transcript["c_variables"] = c_variables
    transcript["nonzeros"] = system.matrix.nnz
    witness = solve_or_refute(system.matrix, system.rhs)
    decision = Decision(IN_CLOSURE if witness.kind == REFUTATION else NOT_IN_CLOSURE, witness, transcript)
    return (decision, system) if keep_system else decision
