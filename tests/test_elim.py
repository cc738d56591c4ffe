import json
import logging
import random
from fractions import Fraction
from itertools import chain

import pytest

from orbitcal import cli, elim, exactmath
from orbitcal.elim import (
    OrderedRing,
    SubspaceMap,
    buchberger,
    closure_equations,
    format_equation,
    normal_form,
    parse_equation,
    point_in_closure,
    s_polynomial,
)
from orbitcal.errors import CertificateError, ResourceLimitError
from orbitcal.polyring import evaluate_terms, parse_terms
from orbitcal.repmodel import make_conic, sl2_binary_forms, torus_diagonal
from support import act, reducers, residues, s_pair

# a two-variable lexicographic-flavoured ring: x dominates y
LEX_XY = OrderedRing(("x", "y"), ((0,), (1,)))
# buchberger and normal_form work over Z/P; expected bases are written
# over Q and compared through their residues
P = (1 << 61) - 1


def p(text):
    return {e: Fraction(c) for e, c in parse_terms(text, ("x", "y")).items()}


def modp(text):
    return residues(p(text), P)


def packed(poly, ring=LEX_XY):
    """normal_form and s_polynomial work on the ring's packed monomials."""
    return {ring.pack(e): c for e, c in poly.items()}


def unpacked(poly, ring=LEX_XY):
    return {ring.unpack(e): c for e, c in poly.items()}


def test_single_generator_is_its_own_basis():
    basis = buchberger([p("x^2 - y")], LEX_XY, P)
    assert list(basis) == [modp("x^2 - y")]


def test_hand_reduced_pair():
    # S(xy-1, y^2-1) = y(xy-1) - x(y^2-1) = x - y, then xy-1 is redundant
    basis = buchberger([p("x*y - 1"), p("y^2 - 1")], LEX_XY, P)
    assert list(basis) == [modp("y^2 - 1"), modp("x - y")] or list(basis) == [
        modp("x - y"),
        modp("y^2 - 1"),
    ]


def test_duplicate_generators_collapse():
    basis = buchberger([p("x - y"), p("y - x")], LEX_XY, P)
    assert list(basis) == [modp("x - y")]


def test_normal_form_examples():
    basis = [packed(g) for g in buchberger([p("x^2 - y")], LEX_XY, P)]
    assert normal_form(packed(modp("x^2 - y")), reducers(basis), LEX_XY, P) == {}
    assert unpacked(normal_form(packed(modp("x")), reducers(basis), LEX_XY, P)) == modp("x")
    assert unpacked(normal_form(packed(modp("x^3")), reducers(basis), LEX_XY, P)) == modp("x*y")
    # coefficients that are not residues are reduced as they are read
    assert unpacked(normal_form(packed({(3, 0): 2 * P + 3, (0, 0): -P - 1}), reducers(basis), LEX_XY, P)) == modp("3*x*y - 1")


def test_basis_is_canonical_under_permutation():
    gens = [p("x^2 + y"), p("x*y - 1"), p("y^3 - x")]
    reference = [dict(g) for g in buchberger(gens, LEX_XY, P)]
    rng = random.Random(23)
    for _ in range(6):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert [dict(g) for g in buchberger(shuffled, LEX_XY, P)] == reference
    # scaling the generators does not change the reduced monic basis
    scaled = [
        {e: c * Fraction(3, 7) for e, c in gens[0].items()},
        gens[1],
        {e: c * Fraction(-2) for e, c in gens[2].items()},
    ]
    assert [dict(g) for g in buchberger(scaled, LEX_XY, P)] == reference


def test_spoly_reduction_and_membership_postconditions():
    gens = [p("x^2 + y"), p("x*y - 1")]
    basis = [packed(g) for g in buchberger(gens, LEX_XY, P)]
    for i, f in enumerate(basis):
        for g in basis[i + 1 :]:
            assert normal_form(s_pair(f, g, LEX_XY), reducers(basis), LEX_XY, P) == {}
    for g in gens:
        assert normal_form(packed(residues(g, P)), reducers(basis), LEX_XY, P) == {}


def test_pair_limit_enforced():
    gens = [p("x^3 - y"), p("x*y^2 - 1"), p("y^3 - x^2")]
    with pytest.raises(ResourceLimitError):
        buchberger(gens, LEX_XY, P, max_pairs=1)


def test_pair_limit_error_names_stage_and_counters():
    # the guard fires before the third generator's pairs are built
    gens = [p("x^3 - y"), p("x*y^2 - 1"), p("y^3 - x^2")]
    with pytest.raises(ResourceLimitError) as info:
        buchberger(gens, LEX_XY, P, max_pairs=2)
    assert str(info.value) == (
        "buchberger: pair limit 2 exceeded (basis 2 elements, 0 S-polynomials reduced)"
    )


def test_sugar_strategy_reduces_few_s_polynomials(monkeypatch):
    # the normal strategy reduces 1,474 S-polynomials on this cone, sugar 345
    calls = []

    def counting(f, g, lcm):
        calls.append(1)
        return s_polynomial(f, g, lcm)

    monkeypatch.setattr(elim, "s_polynomial", counting)
    rep2, _, b2 = make_conic(sl2_binary_forms(3), (0,) * 4, (1, 0, 0, 0))
    assert len(closure_equations(rep2, SubspaceMap.point(b2))) == 3
    assert len(calls) <= 400


def test_one_debug_line_per_buchberger(caplog):
    gens = [p("x^3 - y"), p("x*y^2 - 1"), p("y^3 - x^2")]
    with caplog.at_level(logging.DEBUG, logger="orbitcal.elim"):
        buchberger(gens, LEX_XY, P)
        with pytest.raises(ResourceLimitError):
            buchberger(gens, LEX_XY, P, max_pairs=2)
    messages = [r.getMessage() for r in caplog.records if r.name == "orbitcal.elim"]
    assert messages == [
        "buchberger: 8 pairs formed, 0 dropped by criterion M, 2 by F, 1 by B, "
        "5 S-polynomials reduced, 2 to zero, basis 6 elements",
        "buchberger: 3 pairs formed, 0 dropped by criterion M, 0 by F, 0 by B, "
        "0 S-polynomials reduced, 0 to zero, basis 2 elements",
    ]


# ---------------------------------------------------------------------------
# closure equations


def test_parabola_point_closure():
    rep = torus_diagonal([(1,), (2,)])
    eqs = closure_equations(rep, SubspaceMap.point((1, 1)))
    assert [format_equation(q, 2) for q in eqs] == ["z1^2 - z2"]


def test_conified_parabola_quadric_cone():
    rep = torus_diagonal([(1,), (2,)])
    rep2, _, b2 = make_conic(rep, (0, 0), (1, 1))
    eqs = closure_equations(rep2, SubspaceMap.point(b2))
    assert len(eqs) == 1
    q = eqs[0]
    # z2^2 - z1*z3 up to sign/scalar: the basis is monic in its order
    assert q == parse_equation("z2^2 - z1*z3", 3)


def test_conified_hyperbola_saturation():
    rep = torus_diagonal([(1,), (-1,)])
    rep2, _, b2 = make_conic(rep, (0, 0), (1, 1))
    eqs = closure_equations(rep2, SubspaceMap.point(b2))
    assert eqs == [parse_equation("z1^2 - z2*z3", 3)]


def test_hyperbola_closure_is_closed_orbit():
    rep = torus_diagonal([(1,), (-1,)])
    eqs = closure_equations(rep, SubspaceMap.point((1, 1)))
    assert eqs == [parse_equation("z1*z2 - 1", 2)]
    assert point_in_closure(eqs, (2, Fraction(1, 2)))
    assert not point_in_closure(eqs, (0, 0))


def test_discriminant_cone_two_sided_sampling():
    rep = sl2_binary_forms(2)
    rep2, _, b2 = make_conic(rep, (0, 0, 0), (1, 2, 1))
    eqs = closure_equations(rep2, SubspaceMap.point(b2))
    disc = parse_equation("z3^2 - 4*z2*z4", 4)
    rng = random.Random(31)
    on_variety = off_variety = 0
    for _ in range(1000):
        # sample the discriminant cone through its own parametrization:
        # scale * (linear form)^2, with a free leading coordinate
        w0 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        u = Fraction(rng.randint(-4, 4))
        v = Fraction(rng.randint(-4, 4))
        point = (w0, s * u * u, 2 * s * u * v, s * v * v)
        assert evaluate_terms(disc, point) == 0
        assert point_in_closure(eqs, point)
        on_variety += 1
    for _ in range(1000):
        point = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(4))
        agrees = point_in_closure(eqs, point) == (evaluate_terms(disc, point) == 0)
        assert agrees
        off_variety += 1
    assert on_variety == off_variety == 1000


def test_equations_vanish_on_parametrization():
    rep = torus_diagonal([(1,), (2,)])
    rep2, _, b2 = make_conic(rep, (0, 0), (1, 1))
    eqs = closure_equations(rep2, SubspaceMap.point(b2))
    rng = random.Random(37)
    for _ in range(100):
        u = [
            Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)),
            Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)),
        ]
        point = act(rep2, u, b2)
        for q in eqs:
            assert evaluate_terms(q, point) == 0


def test_swept_line_closure():
    # the group {(t, t^2)} sweeping the line {(y, 1)}: images z1 = t*y, z2 = t^2
    rep = torus_diagonal([(1,), (2,)])
    tau = SubspaceMap(1, ["y1", "1"])
    eqs = closure_equations(rep, tau)
    # z2 is a square times y^(-2) * z1^2... the swept set is all of k^2
    # except for degenerate loci, so no equations survive
    assert eqs == []


def test_swept_subspace_equations_vanish_on_joint_parametrization():
    # sweep the line {(y, 0)} under the weights (1, 2): closure is {z2 = 0}
    rep = torus_diagonal([(1,), (2,)])
    tau = SubspaceMap(1, ["y1", "0"])
    eqs = closure_equations(rep, tau)
    assert eqs == [parse_equation("z2", 2)]
    rng = random.Random(67)
    for _ in range(100):
        u = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))]
        v = [Fraction(rng.randint(-5, 5))]
        point = act(rep, u, [evaluate_terms(img, v) for img in tau.images])
        for q in eqs:
            assert evaluate_terms(q, point) == 0


@pytest.mark.parametrize(
    "images, expected",
    [
        # the discriminant is constant along (y, 1, 0)
        (["y1", "1", "0"], ["-4*z1*z3 + z2^2 - 1"]),
        (["y1", "2*y1", "y1"], ["-4*z1*z3 + z2^2"]),
        # the orbit of (1, y, 0) is dense
        (["1", "y1", "0"], []),
    ],
)
def test_swept_sl2_subspaces_use_all_four_blocks(images, expected):
    # the ring t | x1 x2 x3 | y1 | z1 z2 z3: the saturation variable, an
    # x block with ordinary parameters (s = 2), a y block and the z's
    rep = sl2_binary_forms(2)
    eqs = closure_equations(rep, SubspaceMap(1, images))
    assert [format_equation(q, 3) for q in eqs] == expected


def test_swept_point_with_zero_component():
    rep = torus_diagonal([(1,), (2,)])
    eqs = closure_equations(rep, SubspaceMap.point((1, 0)))
    assert eqs == [parse_equation("z2", 2)]
    assert point_in_closure(eqs, (5, 0))
    assert not point_in_closure(eqs, (5, 1))


# ---------------------------------------------------------------------------
# the lift from Z/p and the check on psi

CUBIC_CONE = [
    parse_equation("z4^2 - 3*z3*z5", 5),
    parse_equation("z3*z4 - 9*z2*z5", 5),
    parse_equation("z3^2 - 3*z2*z4", 5),
]


def _spy_check(monkeypatch, verdict=None):
    """Record every check closure_equations makes, as (equations, result);
    verdict, when given, replaces the result."""
    checks = []
    real = elim._vanish_on

    def spy(equations, images, nvars):
        result = real(equations, images, nvars) if verdict is None else verdict
        checks.append((equations, result))
        return result

    monkeypatch.setattr(elim, "_vanish_on", spy)
    return checks


@pytest.mark.parametrize(
    "tiny, restarts, rejected_by_check",
    [
        (7, 0, False),  # -3 and -9 do not reconstruct mod 7
        (2, 0, True),  # every residue mod 2 reconstructs, to the wrong equations
        (3, 1, True),  # 3 divides the coefficients: z3, z4 vanish mod 3
    ],
)
def test_bad_lift_from_a_tiny_prime_is_rejected(monkeypatch, caplog, tiny, restarts, rejected_by_check):
    primes = exactmath._primes
    first = next(primes())
    monkeypatch.setattr(exactmath, "_primes", lambda: chain([tiny], primes()))
    checks = _spy_check(monkeypatch)
    rep2, _, b2 = make_conic(sl2_binary_forms(3), (0,) * 4, (1, 3, 3, 1))
    with caplog.at_level(logging.DEBUG, logger="orbitcal.elim"):
        equations = closure_equations(rep2, SubspaceMap.point(b2))
    assert equations == CUBIC_CONE
    assert [result for _, result in checks] == [False] * rejected_by_check + [True]
    assert checks[-1][0] == CUBIC_CONE
    line = [r.getMessage() for r in caplog.records if r.getMessage().startswith("closure_equations:")]
    assert len(line) == 1
    assert line[0].startswith(f"closure_equations: primes {tiny},{first}, {restarts} restarts, 3 equations lifted, ")


def test_prime_dividing_a_denominator_is_skipped(monkeypatch, caplog):
    # the orbit of (1, 1/q) under the weights (1, 2) is cut out by
    # z1^2 - q*z2, whose coefficient takes three more primes to lift
    primes = exactmath._primes()
    q = next(primes)
    rest = [next(primes) for _ in range(3)]
    used = []

    def spy(generators, ring, p, **kwargs):
        used.append(p)
        return buchberger(generators, ring, p, **kwargs)

    monkeypatch.setattr(elim, "buchberger", spy)
    with caplog.at_level(logging.DEBUG, logger="orbitcal.elim"):
        equations = closure_equations(torus_diagonal([(1,), (2,)]), SubspaceMap.point((1, Fraction(1, q))))
    assert equations == [{(2, 0): 1, (0, 1): -q}]
    assert used == rest
    # buchberger itself cannot map such a generator into Z/q
    with pytest.raises(ValueError):
        buchberger([{(1, 0): Fraction(1, q)}], LEX_XY, q)
    line = [r.getMessage() for r in caplog.records if r.getMessage().startswith("closure_equations:")]
    assert line[0].startswith(f"closure_equations: primes {','.join(map(str, rest))}, 0 restarts, 1 equations lifted, ")


def test_lift_that_never_passes_the_check_raises(monkeypatch, tmp_path, capsys):
    # the second prime reconstructs the same equations, which fail the
    # check again: a lift that repeats under a larger modulus and still
    # fails raises
    checks = _spy_check(monkeypatch, verdict=False)
    with pytest.raises(CertificateError, match="repeat under a larger modulus"):
        closure_equations(torus_diagonal([(1,), (2,)]), SubspaceMap.point((1, 1)))
    assert checks == [([parse_equation("z1^2 - z2", 2)], False)] * 2

    path = tmp_path / "torus.json"
    path.write_text(json.dumps(torus_diagonal([(1,), (2,)]).to_json()))
    assert cli.main(["closure", "--rep", str(path), "--point", "1,1"]) == cli.EXIT_INTERNAL == 7
    assert "repeat under a larger modulus" in capsys.readouterr().err


def test_point_in_closure_arity_check():
    eqs = [parse_equation("z1^2 - z2", 2)]
    assert point_in_closure(eqs, (2, 4))
    assert not point_in_closure(eqs, (1, 0))
    with pytest.raises(ValueError):
        point_in_closure(eqs, (1, 2, 3))


def test_subspace_json_round_trip():
    tau = SubspaceMap(2, ["y1 + 2*y2", "1 - y1", "y2^2"])
    back = SubspaceMap.from_json(tau.to_json())
    assert back.images == tau.images and back.to_json() == tau.to_json()
    with pytest.raises(ValueError):
        SubspaceMap.from_json({"l": 1, "images": []})
