"""The benchmark's own answer checks.

They re-check certificates by Fraction plug-back and evaluate equations
directly, without calling orbitcal's exactmath or elim code, so that a
defect in the program's own verifier cannot hide a wrong answer.
"""

from __future__ import annotations

from fractions import Fraction


class WrongAnswer(Exception):
    """An op returned an answer that the benchmark's check rejects."""


def certificate_holds(entries, rows: int, cols: int, rhs, kind: str, vector) -> bool:
    """True iff vector solves A x = rhs (kind SOLUTION) or is a row
    combination u with u A = 0 and u . rhs != 0 (kind REFUTATION), where
    A is given by its nonzero entries {(row, col): value}."""
    rhs = [Fraction(v) for v in rhs]
    vector = [Fraction(v) for v in vector]
    if len(rhs) != rows:
        return False
    if kind == "SOLUTION":
        if len(vector) != cols:
            return False
        image = [Fraction(0)] * rows
        for (i, j), value in entries.items():
            image[i] += value * vector[j]
        return image == rhs
    if kind == "REFUTATION":
        if len(vector) != rows:
            return False
        combination = [Fraction(0)] * cols
        for (i, j), value in entries.items():
            combination[j] += vector[i] * value
        return not any(combination) and sum(u * b for u, b in zip(vector, rhs)) != 0
    return False


def check_decision(result, expected_in: bool):
    """Check a (Decision, LinearSystem) pair from decide(keep_system=True)
    against the expected verdict and by the benchmark's own plug-back."""
    decision, system = result
    verdict, witness = decision.verdict, decision.certificate
    if expected_in:
        want_verdict, want_kind = "IN_CLOSURE", "REFUTATION"
    else:
        want_verdict, want_kind = "NOT_IN_CLOSURE", "SOLUTION"
    if verdict != want_verdict:
        raise WrongAnswer(f"verdict {verdict}, expected {want_verdict}")
    if witness is None or system is None or witness.kind != want_kind:
        raise WrongAnswer(f"verdict {verdict} without a {want_kind} certificate")
    matrix = system.matrix
    if not certificate_holds(matrix.entries, matrix.rows, matrix.cols, system.rhs, witness.kind, witness.vector):
        raise WrongAnswer(f"{witness.kind} certificate fails plug-back")


def evaluate(equation, point) -> Fraction:
    """Value of a polynomial {exponent tuple: coefficient} at a point."""
    total = Fraction(0)
    for exp, coef in equation.items():
        term = Fraction(coef)
        for x, e in zip(point, exp):
            if e:
                term *= Fraction(x) ** e
        total += term
    return total


def vanishes(equations, point) -> bool:
    return all(evaluate(q, point) == 0 for q in equations)


def check_closure(equations, on_points, off_points):
    """Equations must vanish on every point of the closure given and
    fail somewhere on every point off it."""
    for point in on_points:
        if not vanishes(equations, point):
            raise WrongAnswer(f"closure equations do not vanish at {point}")
    for point in off_points:
        if vanishes(equations, point):
            raise WrongAnswer(f"closure equations vanish at the outside point {point}")
