"""Conified binary-form orbits whose eliminations need the sugar strategy
and the saturation by the inverted parameters alone to close at the
default pair budget: the cubic z1^2 z2, the quintic z1^5, the quartic
z1^3 z2, the sextic z1^6 and the quintic z1^4 z2.  The cubic z1^3 and
the quartic z1^4, the cones of perfbench's elim-cones workload, are
pinned beside them.

Each equation set is checked the way the benchmark checks a closure:
every equation vanishes at scaled orbit points (s, s*v), where v is the
coefficient vector of a form with the cone's root pattern, and the
equations do not all vanish at a form with distinct roots.  The exact
equation lists and the pair counters are pinned as well, so a change of
monomial representation or of the block layout (closure_equations ranks
the parameters outside the inverted set S first, then t and S in one
grevlex block, S last) cannot alter a basis or its pair sequence
unnoticed."""

import hashlib
import logging
import re
from fractions import Fraction

import pytest

from orbitcal.elim import DEFAULT_MAX_PAIRS, SubspaceMap, closure_equations
from orbitcal.exactmath import RANK_PRIME
from orbitcal.polyring import evaluate_terms
from orbitcal.repmodel import make_conic, sl2_binary_forms

# linear forms p*z1 + q*z2, pairwise independent, and scales s
LINEAR_FORMS = ((1, 0), (0, 1), (1, 1), (2, -3), (-1, 4), (3, 5))
SCALES = (1, -2, Fraction(1, 3))


def _coefficients(factors):
    """Coefficients of the product of the (p, q, multiplicity) factors in
    the basis z1^h, z1^(h-1) z2, ..., z2^h."""
    coefs = [Fraction(1)]
    for p, q, mult in factors:
        for _ in range(mult):
            out = [Fraction(0)] * (len(coefs) + 1)
            for k, c in enumerate(coefs):
                out[k] += p * c
                out[k + 1] += q * c
            coefs = out
    return coefs


def _cone_points(multiplicities):
    """Scaled points (s, s*v) of forms whose distinct roots have the given
    multiplicities."""
    points = []
    for shift in range(len(LINEAR_FORMS)):
        forms = [LINEAR_FORMS[(shift + k) % len(LINEAR_FORMS)] for k in range(len(multiplicities))]
        v = _coefficients([(p, q, m) for (p, q), m in zip(forms, multiplicities)])
        points.extend((Fraction(s),) + tuple(s * c for c in v) for s in SCALES)
    return points


# Per cone: the sha256 of repr(equations), pinning every exponent,
# coefficient and term order, and buchberger's DEBUG line, pinning the
# pair sequence through its counters.  closure_equations adds its own
# line: one prime, no restart, the equations it lifted, the blocks, the
# largest coefficient in bits and the time of the check.
PINS = {
    (3,): (
        "2d38408ded06499fdffe7979d6ac65fec6e2abedbaecd1c32d8ad9c089c187da",
        "buchberger: 209 pairs formed, 100 dropped by criterion M, 18 by F, 26 by B, "
        "65 S-polynomials reduced, 35 to zero, basis 35 elements",
    ),
    (4,): (
        "8eb918e4c1d1af76a2cd531ae08c0441904b4f2029f5ca198fd256b9ef5bdfd7",
        "buchberger: 1006 pairs formed, 620 dropped by criterion M, 69 by F, 130 by B, "
        "187 S-polynomials reduced, 115 to zero, basis 78 elements",
    ),
    (2, 1): (
        "001af654dca3fbb914c6c61c26783483568f1ccf549afd0a35b71b1101fb48d2",
        "buchberger: 712 pairs formed, 426 dropped by criterion M, 57 by F, 61 by B, "
        "168 S-polynomials reduced, 116 to zero, basis 57 elements",
    ),
    (5,): (
        "a3929c7ac60e4b5f02e720a32a743c22673fdb44a4b8563eb46b6f91fddb3f8f",
        "buchberger: 1771 pairs formed, 1157 dropped by criterion M, 118 by F, 207 by B, "
        "289 S-polynomials reduced, 186 to zero, basis 110 elements",
    ),
    (3, 1): (
        "6931e5b9dc9ce14144704697f03772b0da71b8560dc66fa373511be98b8f36fb",
        "buchberger: 6244 pairs formed, 4807 dropped by criterion M, 383 by F, 427 by B, "
        "627 S-polynomials reduced, 449 to zero, basis 184 elements",
    ),
    (6,): (
        "2c5e32b2c8e470d3156f495be1ac0ffad4e1e4169b9224efd021cb8151db4d1b",
        "buchberger: 2802 pairs formed, 1771 dropped by criterion M, 248 by F, 295 by B, "
        "488 S-polynomials reduced, 344 to zero, basis 152 elements",
    ),
    (4, 1): (
        "86b3c9e247d0de22a55d9b88f3c3b38f9b92668a683121da7d328666c288a57b",
        "buchberger: 16898 pairs formed, 13901 dropped by criterion M, 927 by F, 850 by B, "
        "1220 S-polynomials reduced, 907 to zero, basis 320 elements",
    ),
}

# buchberger's progress lines, one each time the pairs formed cross a
# multiple of 10,000: only the quintic z1^4 z2 cone forms that many.
PROGRESS = {
    (4, 1): [
        "buchberger progress: 10069 pairs formed, 7881 dropped by criterion M, 591 by F, 696 by B, "
        "621 S-polynomials reduced, 379 to zero",
    ],
}


@pytest.mark.parametrize(
    "multiplicities, degrees",
    [
        ((3,), [2] * 3),  # the cone over the twisted cubic
        ((4,), [2] * 6),  # the cone over the rational normal quartic
        ((2, 1), [4]),  # the discriminant of the binary cubic
        ((5,), [2] * 10),  # the cone over the rational normal quintic
        ((3, 1), [2, 3, 4]),
        ((6,), [2] * 15),  # the cone over the rational normal sextic
        ((4, 1), [2, 2, 2, 3, 3, 4]),
    ],
    ids=["cubic-z1^3", "quartic-z1^4", "cubic-z1^2z2", "quintic-z1^5", "quartic-z1^3z2", "sextic-z1^6", "quintic-z1^4z2"],
)
def test_cone_closes_at_default_budget(multiplicities, degrees, caplog):
    h = sum(multiplicities)
    base = _coefficients([(1, 0, multiplicities[0])] + [(0, 1, m) for m in multiplicities[1:]])
    rep2, _, b2 = make_conic(sl2_binary_forms(h), (0,) * (h + 1), base)
    with caplog.at_level(logging.DEBUG, logger="orbitcal.elim"):
        equations = closure_equations(rep2, SubspaceMap.point(b2), max_pairs=DEFAULT_MAX_PAIRS)
    digest, debug_line = PINS[multiplicities]
    assert hashlib.sha256(repr(equations).encode()).hexdigest() == digest
    messages = [r.getMessage() for r in caplog.records if r.name == "orbitcal.elim"]
    progress = [m for m in messages if m.startswith("buchberger progress: ")]
    assert progress == PROGRESS.get(multiplicities, [])
    messages = [m for m in messages if m not in progress]
    assert messages[:1] == [debug_line] and len(messages) == 2
    bits = max(max(abs(c.numerator), c.denominator).bit_length() for q in equations for c in q.values())
    assert re.fullmatch(
        rf"closure_equations: primes {RANK_PRIME}, 0 restarts, {len(degrees)} equations lifted, "
        rf"blocks x1,x3,x4 \| t,x2 \| z1\.\.z{h + 2}, coefficients up to {bits} bits, "
        r"f\(psi\) = 0 checked in \d+\.\d ms",
        messages[1],
    )
    assert sorted(max(map(sum, q)) for q in equations) == degrees

    for point in _cone_points(multiplicities):
        assert all(evaluate_terms(q, point) == 0 for q in equations), point
    # distinct roots 0, -1, ..., -(h-1): the product of z1 + k*z2
    distinct = (Fraction(1),) + tuple(_coefficients([(1, k, 1) for k in range(h)]))
    assert any(evaluate_terms(q, distinct) for q in equations)
