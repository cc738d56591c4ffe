import random
from fractions import Fraction

import pytest

from orbitcal.degbound import (
    ReductiveData,
    binary_form_orbit_degree,
    kazarnovskii,
    kazarnovskii_sl2,
    parametric_degree_bound,
    simplex_integral,
    sl2_reductive_data,
)
from orbitcal.errors import InconsistentDataError
from orbitcal.polyring import Ambient
from orbitcal.repmodel import make_conic, sl2_binary_forms, torus_diagonal

TRIANGLE = [(0, 0), (1, 0), (0, 1)]
AMB2 = Ambient(0, 2, names=("u1", "u2"))


def test_simplex_integral_constant():
    one = {(0, 0): 1}
    assert simplex_integral(one, TRIANGLE) == Fraction(1, 2)


def test_simplex_integral_linear():
    x = AMB2.parse("u1")
    assert simplex_integral(x, TRIANGLE) == Fraction(1, 6)


def test_simplex_integral_mixed_monomial():
    p = AMB2.parse("u1^2*u2")
    assert simplex_integral(p, TRIANGLE) == Fraction(1, 60)


def test_simplex_integral_rejects_degenerate():
    with pytest.raises(ValueError):
        simplex_integral({(0, 0): 1}, [(0, 0), (1, 1), (2, 2)])
    # a polynomial in two coordinates over a simplex in Q^1, and a
    # vertex of the wrong length
    with pytest.raises(ValueError):
        simplex_integral({(0, 0): 1}, [(0,), (1,)])
    with pytest.raises(ValueError):
        simplex_integral({(0, 0): 1}, [(0, 0), (1, 0), (0,)])


def test_simplex_integral_additive_under_subdivision():
    rng = random.Random(17)
    for _ in range(20):
        terms = {}
        for _ in range(4):
            terms[(rng.randint(0, 3), rng.randint(0, 3))] = Fraction(
                rng.randint(-4, 4), rng.randint(1, 3)
            )
        poly = AMB2.check(terms)
        tri = [
            (rng.randint(-3, 3), rng.randint(-3, 3)),
            (rng.randint(-3, 3), rng.randint(-3, 3)),
            (rng.randint(-3, 3), rng.randint(-3, 3)),
        ]
        a, b, c = tri
        if (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) == 0:
            continue
        # split at the barycentric midpoint of an edge
        mid = (Fraction(a[0] + b[0], 2), Fraction(a[1] + b[1], 2))
        whole = simplex_integral(poly, tri)
        part1 = simplex_integral(poly, [a, mid, c])
        part2 = simplex_integral(poly, [mid, b, c])
        assert part1 + part2 == whole


def test_kazarnovskii_sl2_closed_form():
    assert kazarnovskii_sl2(1) == 2
    assert kazarnovskii_sl2(2) == 8
    assert kazarnovskii_sl2(5) == 250
    assert [kazarnovskii_sl2(h) for h in range(1, 7)] == [2, 8, 54, 64, 250, 216]
    with pytest.raises(ValueError):
        kazarnovskii_sl2(0)


def test_kazarnovskii_sl2_raw_data():
    # dimension 3, Weyl order 2, one coroot, polytope [-2, 2], kernel 2:
    # (6/4) * integral of u^2 over [-2, 2] = (3/2)(16/3) = 8
    data = ReductiveData(
        dim_g=3,
        weyl_order=2,
        exponents=[1],
        kernel_order=2,
        coroots=[(1,)],
        polytope=[[(-2,), (0,)], [(0,), (2,)]],
    )
    assert kazarnovskii(data) == 8


def test_kazarnovskii_torus_segment():
    # rank-1 torus: empty coroot product, normalized length of [0, 2]
    data = ReductiveData(
        dim_g=1,
        weyl_order=1,
        exponents=[0],
        kernel_order=1,
        coroots=[],
        polytope=[[(0,), (2,)]],
    )
    assert kazarnovskii(data) == 2


def test_kazarnovskii_rank_two_with_two_coroots():
    # the integrand u1^2 (u1 + u2)^2 = u1^4 + 2 u1^3 u2 + u1^2 u2^2 over
    # the unit triangle, by the Dirichlet formula: 1/30 + 2/120 + 1/180,
    # times 6!/1 = 720
    data = ReductiveData(
        dim_g=6,
        weyl_order=1,
        exponents=[0, 0],
        kernel_order=1,
        coroots=[(1, 0), (1, 1)],
        polytope=[TRIANGLE],
    )
    assert kazarnovskii(data) == 720 * (Fraction(1, 30) + Fraction(2, 120) + Fraction(1, 180)) == 40


def test_kazarnovskii_h3_trivial_kernel():
    data = ReductiveData(
        dim_g=3,
        weyl_order=2,
        exponents=[1],
        kernel_order=1,
        coroots=[(1,)],
        polytope=[[(-3,), (0,)], [(0,), (3,)]],
    )
    assert kazarnovskii(data) == 54


def test_kazarnovskii_matches_closed_form():
    for h in range(1, 9):
        assert kazarnovskii(sl2_reductive_data(h)) == kazarnovskii_sl2(h)


def test_kazarnovskii_rejects_non_integer():
    data = ReductiveData(
        dim_g=1,
        weyl_order=2,
        exponents=[0],
        kernel_order=1,
        coroots=[],
        polytope=[[(0,), (1,)]],
    )
    with pytest.raises(InconsistentDataError):
        kazarnovskii(data)


def test_binary_form_orbit_degree_simple_roots():
    assert binary_form_orbit_degree(3, (1, 1, 1)) == 12
    assert binary_form_orbit_degree(4, (1, 1, 1, 1)) == 48
    for h in range(3, 9):
        assert binary_form_orbit_degree(h, (1,) * h) == 2 * h * (h - 1) * (h - 2)


def test_binary_form_orbit_degree_stabilizer_division():
    assert binary_form_orbit_degree(3, (1, 1, 1), stab_order=4) == Fraction(12, 4)


def test_binary_form_orbit_degree_double_root():
    # h=4, mults=(2,1,1): -256 - 4*(8+27+27) + 3*16*8 + 3*4*(0+6+6) = 24
    assert binary_form_orbit_degree(4, (2, 1, 1)) == 24


def _published_orbit_degree(h, mults):
    p = len(mults)
    return (
        -2 * (p - 1) * h**3
        - 4 * sum((h - n) ** 3 for n in mults)
        + 3 * h**2 * sum(h - n for n in mults)
        + 3 * h * sum((h - n) * (h - 2 * n) for n in mults)
    )


def test_binary_form_orbit_degree_matches_the_published_formula():
    # every multiplicity list of h = 3..12 in the domain (p >= 3, each
    # n <= h/2), in every order: the short form computed equals the
    # published formula, and is positive
    def lists(h, top):
        if h == 0:
            yield ()
        for n in range(1, min(h, top) + 1):
            for rest in lists(h - n, top):
                yield (n,) + rest

    count = 0
    for h in range(3, 13):
        for mults in lists(h, h // 2):
            if len(mults) >= 3:
                value = binary_form_orbit_degree(h, mults)
                assert value == _published_orbit_degree(h, mults) > 0, (h, mults)
                count += 1
    assert count > 1000


def test_binary_form_orbit_degree_rejects_bad_inputs():
    with pytest.raises(ValueError):
        binary_form_orbit_degree(2, (1, 1))  # p < 3
    with pytest.raises(ValueError):
        binary_form_orbit_degree(4, (1, 1, 1))  # multiplicities do not sum to h
    with pytest.raises(ValueError):
        binary_form_orbit_degree(5, (3, 1, 1))  # h/n >= 2 fails
    with pytest.raises(ValueError):
        binary_form_orbit_degree(3, (1, 1, 1), stab_order=0)


def test_parametric_degree_bound():
    assert parametric_degree_bound(torus_diagonal([(1,), (2,)])) == 2
    assert parametric_degree_bound(torus_diagonal([(1,), (-1,)])) == 2
    assert parametric_degree_bound(sl2_binary_forms(2)) == 216
    assert parametric_degree_bound(sl2_binary_forms(3)) == 729

    def conified(rep):
        return make_conic(rep, (0,) * rep.n, (1,) * rep.n)[0]

    # the scaling parameter adds one to the degree and to the exponent m
    assert parametric_degree_bound(conified(sl2_binary_forms(2))) == 2401
    assert parametric_degree_bound(conified(sl2_binary_forms(3))) == 10_000
    assert parametric_degree_bound(conified(torus_diagonal([(1,), (2,)]))) == 9
    assert parametric_degree_bound(conified(torus_diagonal([(1, 0), (1, 1), (1, 2)]))) == 64


def test_parametric_bound_dominates_exact_degree():
    for h in (1, 2, 3):
        rep = sl2_binary_forms(h)
        assert parametric_degree_bound(rep) >= kazarnovskii_sl2(h)
    assert parametric_degree_bound(torus_diagonal([(1,), (2,)])) >= 2
