"""Refusals of the library layers that no other test reaches: each call
raises its exception type with its message, exactly."""

from fractions import Fraction

import pytest

from grouporders import (
    HEISENBERG,
    SQRT2,
    ConstraintSystem,
    CylinderSpec,
    DomainNotCovered,
    GeneratorSet,
    GroupMismatch,
    NotRectangular,
    OrderMatrix,
    SL3Instance,
    SemigroupSpec,
    SizeLimitExceeded,
    Sqrt2Num,
    ball,
    cesaro,
    default_generators,
    heisenberg_element,
    interval_window,
    quadrant_order,
    reconstruct,
    render_levels,
    stabilizer_check,
    torus_action,
    uniform_order,
    uniform_sampler,
    window_from_elements,
    zn,
    zn_element,
)
from grouporders import orders, rng
from grouporders.constraints import cone_contains
from grouporders.groups import GroupId
from grouporders.orders import direction_set, past_set, translate_order
from grouporders.sampling import orbit_keys
from grouporders.stats import EstimateReport, chi2_quantile, gamma_p, uniformity_chisq

W3 = interval_window(0, 3)
OPEN = OrderMatrix.from_pairs(W3, [(0, 1)])
PAIR = CylinderSpec(interval_window(0, 2), OrderMatrix.from_perm(interval_window(0, 2), [0, 1]))
GAPPED = window_from_elements(zn(2), [zn_element(x, y) for x in (0, 2) for y in (0, 1)])


def _translate_past_the_dense_cap():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orders, "MAX_DENSE_ELEMENTS", 2)
        translate_order(uniform_order(W3, 1), zn_element(1))


@pytest.mark.parametrize(
    "call, error, message",
    [
        # groups
        (lambda: GroupId("heis", 2), ValueError, "heis takes no rank parameter"),
        (lambda: GroupId("q"), ValueError, "unknown group kind 'q'"),
        (lambda: GeneratorSet(zn(3), (heisenberg_element(1, 0, 0),)), GroupMismatch,
         "generator belongs to a different group"),
        (lambda: ball(GeneratorSet(zn(1), ()), 1), ValueError, "ball needs a nonempty generator set"),
        (lambda: ball(default_generators(zn(1)), -1), ValueError, "radius must be nonnegative"),
        (lambda: interval_window(1, 3), ValueError, "interval window must contain 0"),
        # constraints
        (lambda: SemigroupSpec(zn(2), (zn_element(1),)), ValueError, "generator from a different group"),
        (lambda: cone_contains(quadrant_order(2), zn_element(1)), ValueError,
         "element from a different group"),
        (lambda: cone_contains(SemigroupSpec(zn(1), (zn_element(2),)), zn_element(4)), NotImplementedError,
         "membership is only decided for the built-in cones"),
        (lambda: ConstraintSystem(W3, ((0, 1), (0, 1))), ValueError, "atoms must be deduplicated"),
        # engine
        (lambda: SL3Instance(1, (2,) * 6, 3, "sideways"), ValueError, "unknown convention 'sideways'"),
        # orders
        (lambda: past_set(OPEN, zn_element(0)), ValueError, "past_set needs a closed order"),
        (lambda: direction_set(OPEN, zn_element(0)), ValueError, "direction_set needs a closed order"),
        (lambda: CylinderSpec(PAIR.window, uniform_order(W3, 1)), ValueError,
         "pattern must live on the cylinder window"),
        (lambda: render_levels(OrderMatrix.from_perm(GAPPED, [0, 1, 2, 3])), NotRectangular,
         "window is not a contiguous rectangle"),
        (_translate_past_the_dense_cap, SizeLimitExceeded, "translating a 3-element order needs a dense matrix"),
        # sampling
        (lambda: orbit_keys(torus_action([SQRT2, 2 * SQRT2]), (0, 0, 0), zn(2), [(0, 0)]), ValueError,
         "point dimension mismatch"),
        (lambda: reconstruct(uniform_order(ball(default_generators(HEISENBERG), 1), 1), cesaro(1)),
         DomainNotCovered, "averaging schemes act on Z^n windows"),
        (lambda: stabilizer_check(uniform_order(W3, 1), interval_window(0, 2), default_generators(zn(1))),
         ValueError, "stabilizer check needs the order's own window"),
        # stats
        (lambda: EstimateReport(PAIR, 1, 2, Fraction(2), 0.0), ValueError, "hit count out of range"),
        (lambda: EstimateReport(PAIR, 2, 1, Fraction(1, 3), 0.0), ValueError,
         "frequency must equal hits/samples"),
        (lambda: uniformity_chisq(uniform_sampler(interval_window(0, 7)), interval_window(0, 7), 1, 0),
         ValueError, "too many ranking cells (|F|! must stay <= 1000)"),
        (lambda: gamma_p(1, -1), ValueError, "need x >= 0 and a > 0"),
        (lambda: chi2_quantile(0, 1), ValueError, "p must lie strictly between 0 and 1"),
        (lambda: chi2_quantile(0.5, 0), ValueError, "dof must be positive"),
        # rng and exactnum
        (lambda: rng.u64(0, 1.5), TypeError, "unsupported label part 1.5"),
        (lambda: Sqrt2Num.of(1) + "x", TypeError, "cannot coerce 'x' to Sqrt2Num"),
    ],
)
def test_a_refused_call_raises_its_error_and_message(call, error, message):
    with pytest.raises(error) as refused:
        call()
    assert type(refused.value) is error and str(refused.value) == message
