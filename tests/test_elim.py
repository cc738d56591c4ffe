import logging
import random
from fractions import Fraction

import pytest

from orbitcal import elim
from orbitcal.elim import (
    OrderedRing,
    SubspaceMap,
    buchberger,
    closure_equations,
    evaluate_equation,
    format_equation,
    normal_form,
    parse_equation,
    point_in_closure,
    s_polynomial,
)
from orbitcal.errors import ResourceLimitError
from orbitcal.polyring import parse_terms
from orbitcal.repmodel import act, make_conic, sl2_binary_forms, torus_diagonal

# a two-variable lexicographic-flavoured ring: x dominates y
LEX_XY = OrderedRing(("x", "y"), ((0,), (1,)))


def p(text):
    return {e: Fraction(c) for e, c in parse_terms(text, ("x", "y")).items()}


def packed(poly, ring=LEX_XY):
    """normal_form and s_polynomial work on the ring's packed monomials."""
    return {ring.pack(e): c for e, c in poly.items()}


def unpacked(poly, ring=LEX_XY):
    return {ring.unpack(e): c for e, c in poly.items()}


def test_single_generator_is_its_own_basis():
    basis = buchberger([p("x^2 - y")], LEX_XY)
    assert list(basis) == [p("x^2 - y")]


def test_hand_reduced_pair():
    # S(xy-1, y^2-1) = y(xy-1) - x(y^2-1) = x - y, then xy-1 is redundant
    basis = buchberger([p("x*y - 1"), p("y^2 - 1")], LEX_XY)
    assert list(basis) == [p("y^2 - 1"), p("x - y")] or list(basis) == [
        p("x - y"),
        p("y^2 - 1"),
    ]


def test_duplicate_generators_collapse():
    basis = buchberger([p("x - y"), p("y - x")], LEX_XY)
    assert list(basis) == [p("x - y")]


def test_normal_form_examples():
    basis = [packed(g) for g in buchberger([p("x^2 - y")], LEX_XY)]
    assert normal_form(packed(p("x^2 - y")), basis, LEX_XY) == {}
    assert unpacked(normal_form(packed(p("x")), basis, LEX_XY)) == p("x")
    assert unpacked(normal_form(packed(p("x^3")), basis, LEX_XY)) == p("x*y")


def test_basis_is_canonical_under_permutation():
    gens = [p("x^2 + y"), p("x*y - 1"), p("y^3 - x")]
    reference = [dict(g) for g in buchberger(gens, LEX_XY)]
    rng = random.Random(23)
    for _ in range(6):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert [dict(g) for g in buchberger(shuffled, LEX_XY)] == reference
    # scaling the generators does not change the reduced monic basis
    scaled = [
        {e: c * Fraction(3, 7) for e, c in gens[0].items()},
        gens[1],
        {e: c * Fraction(-2) for e, c in gens[2].items()},
    ]
    assert [dict(g) for g in buchberger(scaled, LEX_XY)] == reference


def test_spoly_reduction_and_membership_postconditions():
    gens = [p("x^2 + y"), p("x*y - 1")]
    basis = [packed(g) for g in buchberger(gens, LEX_XY)]
    for i, f in enumerate(basis):
        for g in basis[i + 1 :]:
            assert normal_form(s_polynomial(f, g, LEX_XY), basis, LEX_XY) == {}
    for g in gens:
        assert normal_form(packed(g), basis, LEX_XY) == {}


def test_pair_limit_enforced():
    gens = [p("x^3 - y"), p("x*y^2 - 1"), p("y^3 - x^2")]
    with pytest.raises(ResourceLimitError):
        buchberger(gens, LEX_XY, max_pairs=1)


def test_pair_limit_error_names_stage_and_counters():
    # the guard fires before the third generator's pairs are built
    gens = [p("x^3 - y"), p("x*y^2 - 1"), p("y^3 - x^2")]
    with pytest.raises(ResourceLimitError) as info:
        buchberger(gens, LEX_XY, max_pairs=2)
    assert str(info.value) == (
        "buchberger: pair limit 2 exceeded (basis 2 elements, 0 S-polynomials reduced)"
    )


def test_sugar_strategy_reduces_few_s_polynomials(monkeypatch):
    # the normal strategy reduces 1,474 S-polynomials on this cone, sugar 345
    calls = []

    def counting(f, g, ring):
        calls.append(1)
        return s_polynomial(f, g, ring)

    monkeypatch.setattr(elim, "s_polynomial", counting)
    rep2, _, b2 = make_conic(sl2_binary_forms(3), (0,) * 4, (1, 0, 0, 0))
    assert len(closure_equations(rep2, SubspaceMap.point(b2))) == 3
    assert len(calls) <= 400


def test_one_debug_line_per_buchberger(caplog):
    gens = [p("x^3 - y"), p("x*y^2 - 1"), p("y^3 - x^2")]
    with caplog.at_level(logging.DEBUG, logger="orbitcal.elim"):
        buchberger(gens, LEX_XY)
        with pytest.raises(ResourceLimitError):
            buchberger(gens, LEX_XY, max_pairs=2)
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
        assert evaluate_equation(disc, point) == 0
        assert point_in_closure(eqs, point)
        on_variety += 1
    for _ in range(1000):
        point = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(4))
        agrees = point_in_closure(eqs, point) == (evaluate_equation(disc, point) == 0)
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
            assert evaluate_equation(q, point) == 0


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
        point = act(rep, u, tau.evaluate(v))
        for q in eqs:
            assert evaluate_equation(q, point) == 0


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


def test_point_in_closure_arity_check():
    eqs = [parse_equation("z1^2 - z2", 2)]
    assert point_in_closure(eqs, (2, 4))
    assert not point_in_closure(eqs, (1, 0))
    with pytest.raises(ValueError):
        point_in_closure(eqs, (1, 2, 3))


def test_subspace_json_round_trip():
    tau = SubspaceMap(2, ["y1 + 2*y2", "1 - y1", "y2^2"])
    back = SubspaceMap.from_json(tau.to_json())
    assert [str(i) for i in back.images] == [str(i) for i in tau.images]
    with pytest.raises(ValueError):
        SubspaceMap.from_json({"l": 1, "images": []})
