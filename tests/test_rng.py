from fractions import Fraction

import pytest

from grouporders import rng


def test_u64_golden_values():
    # the stream encoding is part of every sample's identity: pinned literals
    assert rng.u64(0, "elem", b"zn1:0", 0) == 3504648172687198709
    assert rng.u64(2**64 - 1, "site", b"zn2:3,-4") == 1962047699197164327
    assert rng.u64(12345) == 14016516994749378761
    assert rng.u64(1, "coset", b"zn2:1,0", 0) == 17758849420970936664


def test_derive_seed_and_unit_fraction_golden_values():
    assert rng.derive_seed(101, "sample", 0) == 775637619557455959
    assert rng.derive_seed(0, "chisq", 3, 1) == 12361584649649934387
    assert rng.unit_fraction(7, "point") == Fraction(4627838604994230253, 1 << 63)
    assert rng.unit_fraction(7, "point", 1) == Fraction(3315425243347829491, 1 << 64)


@pytest.mark.parametrize("seed", [0, 1, 101, 2**64 - 1])
def test_u64_each_equals_u64(seed):
    items = [b"zn1:0", b"zn2:3,-4", b"text", b"17", b""]
    for head, tail in (((), ()), (("site",), ()), (("elem",), (0,)), (("a", 2), ("b", 3))):
        assert rng.u64_each(seed, head, items, tail) == [
            rng.u64(seed, *head, item, *tail) for item in items
        ]
    assert rng.u64_each(seed, ("elem",), [], (0,)) == []
    for item in ("text", 17):  # items are payload keys: bytes only
        with pytest.raises(TypeError):
            rng.u64_each(seed, ("elem",), [b"zn1:0", item], (0,))


def test_u64_each_checks_the_seed():
    with pytest.raises(ValueError):
        rng.u64_each(-1, ("elem",), [b"x"])
    with pytest.raises(ValueError):
        rng.u64_each(1 << 64, ("elem",), [b"x"])
