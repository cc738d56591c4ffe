"""Differential check of assemble_system against sympy's expansion.

Every row of the assembled system must equal, term for term, the
coefficient of its parameter monomial in the sympy expansion of
(y_1 - a_1)F_1 + ... + (y_n - a_n)F_n - 1 with the pullbacks substituted
for the y's; no other monomial may carry a nonzero coefficient."""

from fractions import Fraction
from itertools import product

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from orbitcal.decider import assemble_system  # noqa: E402
from orbitcal.repmodel import coordinate_pullbacks, sl2_binary_forms, torus_diagonal  # noqa: E402

_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _cases(draw):
    if draw(st.booleans()):
        rep = sl2_binary_forms(draw(st.integers(1, 2)))
    else:
        rank = draw(st.integers(1, 2))
        n = draw(st.integers(1, 3))
        rep = torus_diagonal([tuple(draw(st.integers(-2, 2)) for _ in range(rank)) for _ in range(n)])
    b = [draw(_rationals) for _ in range(rep.n)]
    alpha = [draw(_rationals) for _ in range(rep.n)]
    return coordinate_pullbacks(rep, b), alpha, draw(st.integers(1, 2)), rep.ambient.nvars


def _sympy_poly(poly, xs):
    return sum(
        sympy.Rational(c.numerator, c.denominator) * sympy.prod(x**e for x, e in zip(xs, exp))
        for exp, c in poly.items()
    )


def _linear_form(expr):
    return {k: Fraction(int(v.p), int(v.q)) for k, v in expr.as_coefficients_dict().items() if v}


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(_cases())
def test_rows_match_sympy_expansion(case):
    pullbacks, alpha, d, nvars = case
    n = len(pullbacks)
    xs = sympy.symbols(f"x1:{nvars + 1}")
    psi = [_sympy_poly(p, xs) for p in pullbacks]
    c = {}
    H = -1
    for p in range(n):
        F = 0
        for q in product(range(2 * d - 1), repeat=n):
            if sum(q) > 2 * d - 2:
                continue
            c[(p, q)] = sympy.Symbol(f"c_{p}_{'_'.join(map(str, q))}")
            F += c[(p, q)] * sympy.prod(v**e for v, e in zip(psi, q))
        H += (psi[p] - sympy.Rational(alpha[p].numerator, alpha[p].denominator)) * F
    collected = {}
    for term in sympy.Add.make_args(sympy.expand(H)):
        coef, mono = term.as_independent(*xs)
        powers = mono.as_powers_dict()
        exp = tuple(int(powers.get(x, 0)) for x in xs)
        collected[exp] = collected.get(exp, 0) + coef
    theirs = {exp: _linear_form(coef) for exp, coef in collected.items()}
    theirs = {exp: form for exp, form in theirs.items() if form}

    # the system comes with its common denominator D cleared, and D is
    # the right-hand side on x^0
    system = assemble_system(d, alpha, pullbacks, nvars)
    D = system.rhs[system.row_monomials.index((0,) * len(xs))]
    ours = {exp: {} for exp in system.row_monomials}
    for (i, j), v in system.matrix.entries.items():
        ours[system.row_monomials[i]][c[system.col_keys[j]]] = Fraction(v, D)
    for exp, v in zip(system.row_monomials, system.rhs):
        if v:
            ours[exp][sympy.S.One] = -Fraction(v, D)
    assert ours == theirs
