"""Packed monomials of elim.OrderedRing against exponent tuples, and the
exponent range they hold.

The property test (derandomized hypothesis) draws random block
partitions and exponents and keeps the tuple order key the ring used
before packing as the reference: int order is the block order, the
guard test is componentwise <=, pack is additive, the packed lcm is the
entrywise max and unpack inverts pack.  A monomial past the range, in a
generator or reached during a reduction, raises ResourceLimitError
naming the stage; the CLI maps it to exit 4."""

from fractions import Fraction
from operator import add

import pytest

from orbitcal import cli
from orbitcal.elim import SLOT_BITS, OrderedRing, buchberger
from orbitcal.errors import ResourceLimitError

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# the first total degree packed monomials do not hold
HALF = 1 << (SLOT_BITS - 1)
LEX_XY = OrderedRing(("x", "y"), ((0,), (1,)))
# buchberger works over Z/P
P = (1 << 61) - 1


def _order_key(ring, exp):
    """The block order as a tuple key: per block in order of precedence,
    its degree, then its exponents negated from the last (grevlex)."""
    parts = []
    for block in ring.blocks:
        parts.append(sum(exp[i] for i in block))
        parts.append(tuple(-exp[i] for i in reversed(block)))
    return tuple(parts)


@st.composite
def _rings(draw):
    n = draw(st.integers(1, 7))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    blocks = [order[lo:hi] for lo, hi in zip([0] + cuts, cuts + [n])]
    return OrderedRing([f"v{i}" for i in range(n)], blocks)


def _exponents(n, top):
    """Exponent tuples of total degree at most n * top: small ones, where
    order ties and divisibility are common, and ones near the range."""
    small = st.tuples(*[st.integers(0, 3)] * n)
    return small | st.tuples(*[st.integers(0, top)] * n)


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.data())
def test_packing_matches_exponent_tuples(data):
    ring = data.draw(_rings())
    n = len(ring.names)
    # a and b stay in range, and so does a + b
    top = (HALF - 1) // (2 * n)
    a = data.draw(_exponents(n, top))
    if data.draw(st.booleans()):
        b = tuple(map(add, a, data.draw(_exponents(n, top // 2))))
        a = tuple(x // 2 for x in a)
    else:
        b = data.draw(_exponents(n, top))
    ka, kb = ring.pack(a), ring.pack(b)

    assert ring.unpack(ka) == a and ring.unpack(kb) == b
    assert ring.degree(ka) == sum(a)
    assert (ka < kb) == (_order_key(ring, a) < _order_key(ring, b))
    assert (ka == kb) == (a == b)
    assert (not (kb - ka) & ring.guards) == all(x <= y for x, y in zip(a, b))
    assert (not (ka - kb) & ring.guards) == all(y <= x for x, y in zip(a, b))
    assert ka + kb == ring.pack(tuple(map(add, a, b)))
    lcm = ring.pack(tuple(map(max, a, b)))
    assert ring.lift(ring.plain_lcm(ka, kb)) == ring.lift(ring.plain_lcm(kb, ka)) == lcm
    assert ring.plain_lcm(ka, kb) == lcm & ring.plain
    assert not ka & ring.guards


def test_pack_rejects_negative_exponents_and_wrong_arity():
    with pytest.raises(ValueError):
        LEX_XY.pack((1, -1))
    with pytest.raises(ValueError):
        LEX_XY.pack((1, 2, 3))


def test_generator_past_the_range_raises():
    with pytest.raises(ResourceLimitError, match=f"^buchberger: a generator of degree {HALF} "):
        buchberger([{(HALF, 0): 1, (0, 1): -1}], LEX_XY, P)
    # the largest degree in range is kept exactly
    g = {(HALF - 1, 0): Fraction(1), (0, 1): Fraction(-1)}
    assert buchberger([g], LEX_XY, P) == [{(HALF - 1, 0): 1, (0, 1): P - 1}]


def test_reduction_past_the_range_raises_and_never_aliases():
    # S(x - y^N, x^2 + 1) = -x*y^N - 1, which x - y^N reduces to -y^(2N) - 1
    def gens(n):
        return [{(1, 0): 1, (0, n): -1}, {(2, 0): 1, (0, 0): 1}]

    n = HALF // 2
    with pytest.raises(ResourceLimitError, match=f"^normal_form: a term of degree {2 * n} "):
        buchberger(gens(n), LEX_XY, P)
    # with N one smaller, y^(2N) is just in range and the basis is exact
    n -= 1
    assert buchberger(gens(n), LEX_XY, P) == [
        {(0, 2 * n): 1, (0, 0): 1},
        {(1, 0): 1, (0, n): P - 1},
    ]


def test_closure_past_the_range_exits_4(tmp_path, capsys):
    path = tmp_path / "torus.json"
    assert cli.main(["gen", "torus", "--weights", f"1;{HALF}", "--out", str(path)]) == 0
    code = cli.main(["closure", "--rep", str(path), "--point", "1,1"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_RESOURCE == 4
    assert out == ""
    assert f"buchberger: a generator of degree {HALF} " in err
