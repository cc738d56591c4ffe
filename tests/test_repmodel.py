import random
from fractions import Fraction
from math import lcm

import pytest

from orbitcal import exactmath
from orbitcal.elim import SubspaceMap
from orbitcal.exactmath import det
from orbitcal.polyring import evaluate_terms
from orbitcal.repmodel import (
    RepresentationData,
    coordinate_pullbacks,
    diagonal_weights,
    find_scrambling,
    make_conic,
    orbit_dimension,
    apply_matrix,
    sl2_binary_forms,
    torus_diagonal,
    vector,
)
from support import act, binary_substitution_matrix, sl2_parameter_matrix


def test_sl2_h2_matrix_entries():
    rep = sl2_binary_forms(2)
    amb = rep.ambient
    assert rep.n == 3 and rep.r == 1 and rep.s == 2
    assert rep.rho[1][1] == amb.parse("1 + 2*x1^-2*x2*x3")
    assert rep.rho[2][2] == amb.parse("x1^-2")
    assert rep.degree_bound == 8


def test_sl2_h1_is_the_parametrization_itself():
    rep = sl2_binary_forms(1)
    amb = rep.ambient
    assert rep.rho[0][0] == amb.parse("x1 + x1^-1*x2*x3")
    assert rep.rho[0][1] == amb.parse("x1^-1*x2")
    assert rep.rho[1][0] == amb.parse("x1^-1*x3")
    assert rep.rho[1][1] == amb.parse("x1^-1")


def test_sl2_rejects_h0():
    with pytest.raises(ValueError):
        sl2_binary_forms(0)


def _mat_mul(A, B):
    n = len(A)
    return [
        [sum(A[i][k] * B[k][j] for k in range(n)) for j in range(len(B[0]))]
        for i in range(n)
    ]


def _random_param(rng):
    return [
        Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)),
        Fraction(rng.randint(-3, 3)),
        Fraction(rng.randint(-3, 3)),
    ]


def test_parameter_matrix_has_determinant_one():
    rng = random.Random(2)
    for _ in range(50):
        g = sl2_parameter_matrix(_random_param(rng))
        assert g[0][0] * g[1][1] - g[0][1] * g[1][0] == 1


def test_representation_law_via_numeric_substitution():
    rng = random.Random(4)
    for h in range(1, 7):
        rep = sl2_binary_forms(h)
        for _ in range(25):
            u1, u2 = _random_param(rng), _random_param(rng)
            g1 = sl2_parameter_matrix(u1)
            g2 = sl2_parameter_matrix(u2)
            # symbolic matrix evaluated at u equals the substitution matrix
            sym = [[evaluate_terms(e, u1) for e in row] for row in rep.rho]
            assert sym == binary_substitution_matrix(g1, h)
            lhs = _mat_mul(binary_substitution_matrix(g1, h), binary_substitution_matrix(g2, h))
            rhs = binary_substitution_matrix(_mat_mul(g1, g2), h)
            assert lhs == rhs


def test_torus_diagonal_shapes():
    rep = torus_diagonal([(1,), (-1,)])
    amb = rep.ambient
    assert rep.rho[0][0] == amb.parse("x1")
    assert rep.rho[1][1] == amb.parse("x1^-1")
    assert not rep.rho[0][1]

    rep = torus_diagonal([(1,), (2,)])
    assert rep.rho[1][1] == rep.ambient.parse("x1^2")

    rep = torus_diagonal([(1, 0), (0, 1)])
    assert rep.r == 2
    assert rep.rho[0][0] == rep.ambient.parse("x1")
    assert rep.rho[1][1] == rep.ambient.parse("x2")

    with pytest.raises(ValueError):
        torus_diagonal([(1, 0), (1,)])


def test_diagonal_weights_extraction():
    rep = torus_diagonal([(1, 0), (0, 2)])
    assert diagonal_weights(rep) == [(1, 0), (0, 2)]
    assert diagonal_weights(sl2_binary_forms(1)) is None
    # an off-diagonal entry, and a diagonal entry that is not a bare monomial
    for rho in ([["x1", "x1"], ["0", "x1^2"]], [["2*x1", "0"], ["0", "x1^2"]]):
        assert diagonal_weights(RepresentationData(2, 1, 0, rho)) is None


def test_make_conic_torus():
    rep = torus_diagonal([(1,), (2,)])
    rep2, a2, b2 = make_conic(rep, (5, 7), (1, 1))
    amb = rep2.ambient
    assert (rep2.n, rep2.r, rep2.s) == (3, 2, 0)
    assert rep2.rho[0][0] == amb.parse("x1")
    assert rep2.rho[1][1] == amb.parse("x1*x2")
    assert rep2.rho[2][2] == amb.parse("x1*x2^2")
    assert a2 == vector((1, 5, 7))
    assert b2 == vector((1, 1, 1))
    assert rep2.degree_bound is None


def test_make_conic_restores_nonzero_base():
    rep = torus_diagonal([(1,), (2,)])
    _, _, b2 = make_conic(rep, (0, 0), (0, 0))
    assert b2 == vector((1, 0, 0))
    assert any(b2)


def test_make_conic_sl2_renumbering():
    rep2, _, _ = make_conic(sl2_binary_forms(2), (0, 0, 0), (1, 2, 1))
    amb = rep2.ambient
    assert rep2.rho[0][0] == amb.parse("x1")
    assert rep2.rho[2][2] == amb.parse("x1 + 2*x1*x2^-2*x3*x4")


def test_make_conic_action_restricts():
    rep = torus_diagonal([(1,), (2,)])
    rep2, _, _ = make_conic(rep, (0, 0), (1, 1))
    rng = random.Random(6)
    for _ in range(10):
        t = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 2))
        v = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        full = act(rep2, [1, t], (1,) + v)
        assert full[0] == 1
        assert full[1:] == act(rep, [t], v)


def test_find_scrambling():
    S = find_scrambling((1, 0, 0))
    assert all(apply_matrix(S, (1, 0, 0)))
    # lower-unitriangular all-ones takes (1,0,0) to (1,1,1)
    assert apply_matrix([[1, 0, 0], [1, 1, 0], [1, 1, 1]], (1, 0, 0)) == vector((1, 1, 1))
    assert find_scrambling((2, 3)) == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        find_scrambling((0, 0))
    rng = random.Random(10)
    for _ in range(20):
        b = tuple(Fraction(rng.randint(-2, 2)) for _ in range(4))
        if not any(b):
            continue
        S = find_scrambling(b)
        assert all(apply_matrix(S, b))


def test_find_scrambling_is_one_elementary_step():
    # lower-all-ones cancels on (1, -1, 0): its third coordinate is 0
    assert apply_matrix([[1, 0, 0], [1, 1, 0], [1, 1, 1]], (1, -1, 0))[2] == 0
    rng = random.Random(12)
    cases = [(1, -1, 0), (0, 0, 3), (1, 0, 0, 0, 0)]
    for _ in range(200):
        n = rng.randint(1, 6)
        cases.append(tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)))
    for b in cases:
        if not any(b):
            continue
        S = find_scrambling(b)
        n = len(b)
        assert all(type(x) is int for row in S for x in row)
        assert det(S) == 1
        assert all(apply_matrix(S, b))
        for i in range(n):
            if b[i]:
                assert S[i] == [int(i == j) for j in range(n)], (b, S)


def test_act_examples():
    rep = torus_diagonal([(1,), (2,)])
    assert act(rep, [3], (1, 1)) == vector((3, 9))

    sl2 = sl2_binary_forms(2)
    assert act(sl2, [1, 0, 0], (5, -2, 7)) == vector((5, -2, 7))
    # the parameter point (1,0,1) acts by z1 -> z1 + z2, z2 -> z2
    assert act(sl2, [1, 0, 1], (1, 0, 0)) == vector((1, 2, 1))


def test_orbit_dimension():
    sl2 = sl2_binary_forms(2)
    assert orbit_dimension(coordinate_pullbacks(sl2, (0, 0, 0)), 3) == 0
    assert orbit_dimension(coordinate_pullbacks(sl2, (0, 1, 0)), 3) == 2

    rep = torus_diagonal([(1,), (2,)])
    rep2, _, b2 = make_conic(rep, (0, 0), (1, 1))
    assert orbit_dimension(coordinate_pullbacks(rep2, b2), 2) == 2


def test_orbit_dimension_invariances():
    sl2 = sl2_binary_forms(2)
    b = (0, 1, 0)
    base = orbit_dimension(coordinate_pullbacks(sl2, b), 3)
    assert base <= min(sl2.r + sl2.s, sl2.n)
    # every point of the orbit, and every nonzero multiple of b, has an
    # orbit of the same dimension
    rng = random.Random(9)
    for _ in range(5):
        assert orbit_dimension(coordinate_pullbacks(sl2, act(sl2, _random_param(rng), b)), 3) == base
    assert orbit_dimension(coordinate_pullbacks(sl2, (0, -3, 0)), 3) == base


def test_orbit_dimension_rows_equal_direct_powers(monkeypatch):
    # the Jacobian rows handed to rank_mod, negative powers taken from
    # the inverses of the point, equal the rows built with pow(x, e, p)
    # on random Laurent pullbacks
    seen = []
    monkeypatch.setattr(exactmath, "rank_mod", lambda rows: seen.append(rows) or 0)
    p = exactmath.RANK_PRIME
    rng = random.Random(3)
    for seed in range(20):
        r, s = rng.randint(1, 3), rng.randint(0, 2)
        pullbacks = [
            {tuple(rng.randint(-3, 3) for _ in range(r)) + tuple(rng.randint(0, 3) for _ in range(s)):
             Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6)) for _ in range(rng.randint(0, 4))}
            for _ in range(rng.randint(1, 3))
        ]
        orbit_dimension(pullbacks, r + s, seed=seed)
        draw = random.Random(seed)  # the point orbit_dimension draws
        point = [draw.randrange(1, p) for _ in range(r + s)]
        direct = []
        for psi in pullbacks:
            scale = lcm(*(c.denominator for c in psi.values()))
            row = {}
            for exp, coef in psi.items():
                value = coef.numerator * (scale // coef.denominator)
                for x, e in zip(point, exp):
                    value = value * pow(x, e, p) % p
                for k, e in enumerate(exp):
                    if e:
                        row[k] = (row.get(k, 0) + e * value * pow(point[k], -1, p)) % p
            direct.append(row)
        assert seen.pop() == direct


def test_pullbacks():
    rep = torus_diagonal([(1,), (2,)])
    amb = rep.ambient
    assert coordinate_pullbacks(rep, (1, 1)) == [
        amb.parse("x1"),
        amb.parse("x1^2"),
    ]
    assert not any(coordinate_pullbacks(rep, (0, 0)))


def test_json_round_trip(tmp_path):
    rep = sl2_binary_forms(2)
    path = tmp_path / "rep.json"
    rep.save(path)
    back = RepresentationData.load(path)
    assert back.n == rep.n and back.r == rep.r and back.s == rep.s
    assert back.rho == rep.rho
    assert back.degree_bound == rep.degree_bound
    assert back.label == rep.label


def test_polynomials_are_checked_where_they_enter():
    # RepresentationData and SubspaceMap check every entry through their
    # Ambient, from term dicts, from text and from JSON: a negative
    # exponent on an ordinary variable or a wrong-width exponent raises
    # (the CLI's exit 2, tests/test_cli.py), int coefficients become
    # Fractions, and zero coefficients are dropped; x2, x3 and y1 are
    # ordinary variables
    for bad in ({(0, -1, 0): 1}, {(1, 0): 1}, {(1, 0, 0, 0): 1}):
        with pytest.raises(ValueError):
            RepresentationData(1, 1, 2, [[bad]])
    for bad in ({(-1,): 1}, {(): 1}, {(1, 1): 1}):
        with pytest.raises(ValueError):
            SubspaceMap(1, [bad])
    for text in ("x1*x2^-1", "x3^-2 + 1"):
        with pytest.raises(ValueError):
            RepresentationData(1, 1, 2, [[text]])
        with pytest.raises(ValueError):
            RepresentationData.from_json({"n": 1, "r": 1, "s": 2, "rho": [[text]]})
    with pytest.raises(ValueError):
        SubspaceMap.from_json({"l": 1, "images": ["y1^-1"]})

    rep = RepresentationData(1, 1, 2, [[{(1, 0, 0): 2, (0, 1, 1): 0, (-1, 0, 2): Fraction(1, 2)}]])
    assert list(rep.rho[0][0].items()) == [((1, 0, 0), 2), ((-1, 0, 2), Fraction(1, 2))]
    assert all(type(c) is Fraction for c in rep.rho[0][0].values())
    back = RepresentationData.from_json({"n": 1, "r": 1, "s": 2, "rho": [["0*x2 + 1/2*x1^-1*x3^2 + 2*x1"]]})
    assert back.rho == rep.rho
    tau = SubspaceMap(1, [{(1,): 3, (0,): 0}, "0*y1 + 1"])
    assert tau.images == [{(1,): 3}, {(0,): 1}]
    assert all(type(c) is Fraction for img in tau.images for c in img.values())
    assert SubspaceMap.from_json({"l": 1, "images": ["3*y1 + 0", 1]}).images == tau.images
