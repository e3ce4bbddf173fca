import random
from decimal import Decimal
from fractions import Fraction

from hypothesis import given, strategies as st

from oracles import SQRT2_DEC
from grouporders.exactnum import SQRT2, Sqrt2Num, _sign_int_pair, int_form


def dec(v: Sqrt2Num) -> Decimal:
    return (
        Decimal(v.rational.numerator) / Decimal(v.rational.denominator)
        + (Decimal(v.root2.numerator) / Decimal(v.root2.denominator)) * SQRT2_DEC
    )


def test_basic_identities():
    assert (SQRT2 * SQRT2) == Sqrt2Num.of(2)
    a = Sqrt2Num.of(Fraction(3, 2), Fraction(-1, 3))
    b = Sqrt2Num.of(-2, 5)
    assert (a + b) - b == a
    assert a * 0 == Sqrt2Num.of(0)


def test_sign_and_comparison_against_decimal():
    rnd = random.Random(13)
    for _ in range(2000):
        a = Sqrt2Num.of(
            Fraction(rnd.randint(-50, 50), rnd.randint(1, 9)),
            Fraction(rnd.randint(-50, 50), rnd.randint(1, 9)),
        )
        d = dec(a)
        if abs(d) > Decimal("1e-40"):
            assert a.sign() == (1 if d > 0 else -1)
        else:
            assert a.sign() == 0
    # near-tie cases where floats would fail: a^2 = 2b^2 +/- 1
    big = 10**12
    assert Sqrt2Num.of(-(big * big * 2 + 1), 0).sign() == -1
    assert (Sqrt2Num.of(0, big) * Sqrt2Num.of(0, big)).sign() > 0


_SCALARS = st.integers(-10**6, 10**6) | st.fractions(max_denominator=60)
_NUMS = st.builds(Sqrt2Num.of, _SCALARS, _SCALARS)


def _pell(k):
    """The k-th convergent p/q of sqrt(2): p^2 - 2q^2 = +-1, a near tie."""
    p, q = 1, 1
    for _ in range(k):
        p, q = p + 2 * q, p + q
    return p, q


_PAIRS = st.one_of(
    st.tuples(_NUMS, _NUMS),
    _NUMS.map(lambda x: (x, Sqrt2Num(x.rational, x.root2))),  # equal, not identical
    _SCALARS.map(lambda q: (Sqrt2Num.of(q), q)),  # equal to an int or Fraction
    st.tuples(_NUMS, _SCALARS),
    st.integers(0, 40).map(_pell).map(lambda pq: (Sqrt2Num.of(pq[0]), Sqrt2Num.of(0, pq[1]))),
)


@given(_PAIRS, st.booleans())
def test_comparisons_agree_with_the_sign_of_the_difference(pair, swap):
    x, y = pair
    a, c, _ = int_form(x - y)
    sign = _sign_int_pair(a, c)
    if swap:  # the scalar, if any, on the left
        x, y, sign = y, x, -sign
    assert (x < y, x <= y, x > y, x >= y) == (sign < 0, sign <= 0, sign > 0, sign >= 0)


def test_floor_and_frac():
    rnd = random.Random(14)
    for _ in range(2000):
        v = Sqrt2Num.of(
            Fraction(rnd.randint(-40, 40), rnd.randint(1, 7)),
            Fraction(rnd.randint(-40, 40), rnd.randint(1, 7)),
        )
        f = v.floor()
        d = dec(v)
        assert Decimal(f) <= d < Decimal(f + 1)
        fr = v - v.floor()
        assert fr.sign() >= 0 and (fr - 1).sign() < 0
    assert Sqrt2Num.of(3).floor() == 3
    assert Sqrt2Num.of(-3).floor() == -3
    assert SQRT2.floor() == 1
    assert (-SQRT2).floor() == -2


def test_scaled_floor_matches_decimal():
    rnd = random.Random(15)
    for _ in range(500):
        v = Sqrt2Num.of(
            Fraction(rnd.randint(-9, 9), rnd.randint(1, 5)),
            Fraction(rnd.randint(-9, 9), rnd.randint(1, 5)),
        )
        k = v.scaled_floor(30)
        d = dec(v) * (1 << 30)
        assert Decimal(k) <= d < Decimal(k + 1)


def test_rational_values_hash_and_compare_as_the_numbers_they_equal():
    for value in (1, -7, 0, Fraction(3, 4), Fraction(-5, 2)):
        x = Sqrt2Num.of(value)
        assert x == value and value == x
        assert x in {value} and value in {x}
        assert {x: "x"}[value] == "x" and {value: "v"}[x] == "v"
    # an irrational value equals no int or Fraction and is found in no set of them
    assert SQRT2 not in {1, 2, Fraction(1, 2)}
    assert Sqrt2Num.of(1, 1) in {Sqrt2Num.of(1, 1)}


def test_equality_with_a_foreign_value_is_false():
    x = Sqrt2Num.of(1)
    for other in (None, 1.0, "1", (1,), object()):
        assert (x == other) is False and (other == x) is False
        assert (x != other) is True
