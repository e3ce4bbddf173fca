import itertools
import math
from fractions import Fraction

import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from grouporders import (
    CylinderSpec,
    DomainNotCovered,
    ElementNotInWindow,
    GroupMismatch,
    GroupOrderError,
    OrderMatrix,
    ProjectiveSampler,
    Sqrt2Num,
    ball,
    chi2_quantile,
    default_generators,
    estimate_cylinder,
    interval_window,
    invariance_test,
    lex_functional,
    make_element,
    orbit_keys,
    pattern_id,
    realize,
    rotation_action,
    rotation_sampler,
    torus_action,
    uniform_order,
    uniformity_chisq,
    window_from_elements,
    zn,
    zn_element,
)
from grouporders import rng, sampling
from grouporders.orders import MAX_DENSE_ELEMENTS
from grouporders.stats import chi2_cdf, permutation_rank

W = ball(default_generators(zn(2)), 2)
D3 = window_from_elements(zn(2), [zn_element(0, 0), zn_element(1, 0), zn_element(0, 1)])


def total_patterns(D):
    return [CylinderSpec(D, OrderMatrix.from_ranks(D, p)) for p in itertools.permutations(range(len(D)))]


def uniform_sampler(seed):
    return uniform_order(W, seed)


def test_permutation_rank_is_lexicographic():
    perms = list(itertools.permutations(range(3)))
    assert [permutation_rank(p) for p in perms] == list(range(6))


def test_estimate_cylinder_pair_symmetry():
    D = window_from_elements(zn(2), [zn_element(0, 0), zn_element(1, 1)])
    c = CylinderSpec(D, OrderMatrix.from_ranks(D, [0, 1]))
    rep = estimate_cylinder(uniform_sampler, c, 2000, 17)
    assert abs(float(rep.frequency) - 0.5) < 4 * rep.stderr
    assert rep.hits + (2000 - rep.hits) == rep.samples


def test_estimate_cylinder_deterministic_sampler():
    lex = lex_functional(2).window_order(W)
    sampler = lambda seed: lex
    for c in total_patterns(D3):
        rep = estimate_cylinder(sampler, c, 50, 3)
        assert rep.frequency in (0, 1)


def test_estimate_frequencies_sum_to_one():
    total = Fraction(0)
    for c in total_patterns(D3):
        total += estimate_cylinder(uniform_sampler, c, 400, 5).frequency
    assert total == 1


def test_reports_deterministic():
    c = total_patterns(D3)[2]
    a = estimate_cylinder(uniform_sampler, c, 500, 11)
    b = estimate_cylinder(uniform_sampler, c, 500, 11)
    assert (a.hits, a.frequency) == (b.hits, b.frequency)


def test_invariance_identity_translation_gap_zero():
    rep = invariance_test(uniform_sampler, zn_element(0, 0), D3, 300, 23)
    assert rep.max_gap == 0.0


def test_invariance_uniform_small_gap():
    rep = invariance_test(uniform_sampler, zn_element(1, 0), D3, 4000, 29)
    se = math.sqrt(2 * (1 / 6) * (5 / 6) / 4000)
    assert rep.max_gap < 5 * se


def test_invariance_detects_biased_sampler():
    # force the identity to the bottom: heavily biased at e
    e_pos = W.position(zn_element(0, 0))

    def biased(seed):
        m = uniform_order(W, seed)
        ranks = m.ranks()
        old = ranks[e_pos]
        ranks = [r + 1 if r < old else r for r in ranks]
        ranks[e_pos] = 0
        return OrderMatrix.from_ranks(W, ranks)

    rep = invariance_test(biased, zn_element(1, 0), D3, 1500, 31)
    assert rep.max_gap > 0.1


def test_invariance_domain_error():
    from grouporders import DomainNotCovered

    D_far = window_from_elements(zn(2), [zn_element(0, 0), zn_element(-2, 0)])
    with pytest.raises(DomainNotCovered):
        invariance_test(uniform_sampler, zn_element(1, 0), D_far, 10, 1)
    with pytest.raises(ValueError):
        big = ball(default_generators(zn(2)), 1)
        invariance_test(uniform_sampler, zn_element(1, 0), big, 10, 1)


def test_chisq_uniform_sampler_passes():
    rep = uniformity_chisq(uniform_sampler, D3, 6000, 37)
    assert rep.statistic < chi2_quantile(0.999, rep.dof)
    assert rep.dof == 5


def test_chisq_point_mass_sampler():
    lex = lex_functional(2).window_order(W)
    rep = uniformity_chisq(lambda s: lex, D3, 600, 1)
    assert rep.statistic == pytest.approx(600 * 5)
    assert max(rep.counts) == 600


def test_chisq_singleton_probe():
    F1 = window_from_elements(zn(2), [])
    rep = uniformity_chisq(uniform_sampler, F1, 10, 2)
    assert (rep.statistic, rep.dof) == (0.0, 0)


def test_pattern_id_matches_cell_indexing():
    pats = total_patterns(D3)
    assert sorted(pattern_id(c) for c in pats) == list(range(6))


CHI2_DOFS = [*range(1, 130), 199, 499, 719, 999]
CHI2_PROBABILITIES = [1e-6, 1e-3, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1 - 1e-6]


def test_chi2_cdf_against_scipy_in_both_tails_and_the_bulk():
    # x = dof + 2 is the first point of the closed-form tail
    for dof in CHI2_DOFS:
        for x in (0.01, dof / 2, dof, dof + 2, 2 * dof, 10 * dof + 100):
            assert chi2_cdf(x, dof) == pytest.approx(scipy.stats.chi2.cdf(x, dof), abs=1e-12), (x, dof)
    assert chi2_cdf(3.0, 2.0) == chi2_cdf(3.0, 2)


def test_chi2_quantile_against_scipy():
    # the bisection stops at width 1e-12 below 1, so tiny quantiles are
    # held to that absolute accuracy
    for dof in CHI2_DOFS:
        for p in CHI2_PROBABILITIES:
            assert chi2_quantile(p, dof) == pytest.approx(
                scipy.stats.chi2.ppf(p, dof), rel=1e-10, abs=1e-12
            ), (p, dof)
    assert chi2_cdf(chi2_quantile(0.999, 23), 23) == pytest.approx(0.999, abs=1e-10)
    # frozen reference value (independent of scipy at runtime)
    assert chi2_quantile(0.999, 23) == pytest.approx(49.72823246643, abs=1e-8)


# -- probe-local ranking ------------------------------------------------------

ALPHA = Sqrt2Num.of(-1, 1)  # sqrt(2) - 1


def _torus_point(s):
    return tuple(rng.unit_fraction(s, "point", i) for i in range(2))


def _sampler_pairs(w):
    """(name, keyed sampler, plain callable) drawing the same orders on w:
    uniform, and the circle (Z) or torus (Z^2) rotation."""
    pairs = [("uniform", sampling.uniform_sampler(w), lambda s: uniform_order(w, s))]
    if w.group.n == 1:
        rot = rotation_action(ALPHA)
        pairs.append(
            (
                "rotation",
                rotation_sampler(rot, w),
                lambda s: realize(rot, rng.unit_fraction(s, "point"), w),
            )
        )
    else:
        tor = torus_action([ALPHA, Sqrt2Num.of(0, 1)])
        pairs.append(
            (
                "torus",
                ProjectiveSampler(
                    w, lambda ps: lambda s: orbit_keys(tor, _torus_point(s), w.group, ps)
                ),
                lambda s: realize(tor, _torus_point(s), w),
            )
        )
    return pairs


def _outcome(fn):
    try:
        return fn()
    except (GroupOrderError, ValueError) as exc:
        return type(exc)


@st.composite
def _probe_cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    group = zn(dim)
    if dim == 1:
        lo, hi = draw(st.integers(-6, 0)), draw(st.integers(1, 7))
        w = interval_window(lo, hi)
        point = st.tuples(st.integers(lo - 2, hi + 1))
    else:
        inside = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
        w = window_from_elements(
            group, [make_element(group, p) for p in draw(st.lists(inside, max_size=20))]
        )
        point = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    # the identity is always in D; the other elements may leave W
    D = window_from_elements(
        group, [make_element(group, p) for p in draw(st.lists(point, max_size=3))]
    )
    perm = draw(st.permutations(range(len(D))))
    g = make_element(group, draw(point))
    return w, D, perm, g, draw(st.integers(0, 2**64 - 1)), draw(st.integers(1, 8))


@pytest.mark.parametrize("bits", [64, 2])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_probe_cases())
def test_projective_samplers_match_drawn_orders(bits, case):
    w, D, perm, g, seed, N = case
    c = CylinderSpec(D, OrderMatrix.from_ranks(D, perm))
    with pytest.MonkeyPatch.context() as mp:
        if bits < 64:  # ties in every draw: uniform keys fall back to encodings
            mask = (1 << bits) - 1
            u64, u64_each = rng.u64, rng.u64_each
            mp.setattr(rng, "u64", lambda *a: u64(*a) & mask)
            mp.setattr(rng, "u64_each", lambda *a: [v & mask for v in u64_each(*a)])
        for name, keyed, plain in _sampler_pairs(w):
            for stat in (
                lambda s: estimate_cylinder(s, c, N, seed),
                lambda s: uniformity_chisq(s, D, N, seed),
                lambda s: invariance_test(s, g, D, N, seed),
            ):
                assert _outcome(lambda: stat(keyed)) == _outcome(lambda: stat(plain)), name


def test_probe_outside_window_errors_on_both_paths():
    w = interval_window(-2, 3)
    inside = window_from_elements(zn(1), [zn_element(1), zn_element(2)])
    outside = window_from_elements(zn(1), [zn_element(1), zn_element(3)])
    foreign = window_from_elements(zn(2), [zn_element(0, 0), zn_element(1, 0)])
    for _, keyed, plain in _sampler_pairs(w):
        for sampler in (keyed, plain):
            for probe in (outside, foreign):
                c = CylinderSpec(probe, OrderMatrix.from_ranks(probe, range(len(probe))))
                with pytest.raises(DomainNotCovered):
                    estimate_cylinder(sampler, c, 3, 1)
                with pytest.raises(ElementNotInWindow):
                    uniformity_chisq(sampler, probe, 3, 1)
                with pytest.raises(ElementNotInWindow):
                    invariance_test(sampler, zn_element(0), probe, 3, 1)
            # g^-1 D = {-2, -1, 0} stays inside, {-3, -2, -1} leaves
            invariance_test(sampler, zn_element(2), inside, 3, 1)
            with pytest.raises(DomainNotCovered):
                invariance_test(sampler, zn_element(3), inside, 3, 1)
            # a single element ranks first whatever the shift, but the shift
            # must still come from the window's group
            single = window_from_elements(zn(1), [])
            rep = invariance_test(sampler, zn_element(9), single, 3, 1)
            assert rep.base_counts == rep.translated_counts == (3,)
            with pytest.raises(GroupMismatch):
                invariance_test(sampler, zn_element(1, 0), single, 3, 1)


def test_rotation_on_z2_is_a_value_error_on_both_paths():
    rot = rotation_action(ALPHA)
    with pytest.raises(ValueError, match="Z\\^1"):
        rotation_sampler(rot, W)
    empty = window_from_elements(zn(2), [])
    with pytest.raises(ValueError, match="Z\\^1"):
        rotation_sampler(rot, empty)
    for probe in (D3, empty, window_from_elements(zn(1), [zn_element(1)])):
        with pytest.raises(ValueError, match="Z\\^1"):
            uniformity_chisq(lambda s: realize(rot, rng.unit_fraction(s, "point"), W), probe, 3, 1)


@pytest.mark.parametrize("stat", ["chisq", "invariance"])
def test_zero_samples_is_a_value_error(stat):
    for sampler in (sampling.uniform_sampler(W), uniform_sampler):
        for N in (0, -1):
            with pytest.raises(ValueError, match="at least one sample"):
                if stat == "chisq":
                    uniformity_chisq(sampler, D3, N, 1)
                else:
                    invariance_test(sampler, zn_element(1, 0), D3, N, 1)


def test_invariance_runs_past_the_dense_matrix_cap():
    w = interval_window(-MAX_DENSE_ELEMENTS // 2 - 1, MAX_DENSE_ELEMENTS // 2 + 1)
    assert len(w) > MAX_DENSE_ELEMENTS
    D = window_from_elements(zn(1), [zn_element(-1), zn_element(1), zn_element(2)])
    g = zn_element(MAX_DENSE_ELEMENTS // 2 - 3)
    keyed = invariance_test(sampling.uniform_sampler(w), g, D, 3, 5)
    assert keyed == invariance_test(lambda s: uniform_order(w, s), g, D, 3, 5)
    rep = invariance_test(sampling.uniform_sampler(w), g, D, 500, 6)
    assert sum(rep.base_counts) == sum(rep.translated_counts) == 500


def test_drawn_orders_find_the_probe_positions_once_per_window(monkeypatch):
    from grouporders import stats

    found = []
    positions = stats._probe_positions
    monkeypatch.setattr(stats, "_probe_positions", lambda w, *a: found.append(w) or positions(w, *a))
    g = zn_element(1, 0)
    want = invariance_test(sampling.uniform_sampler(W), g, D3, 6, 2)
    assert found == [W]
    found.clear()
    assert invariance_test(uniform_sampler, g, D3, 6, 2) == want
    assert found == [W]
    # a window that is not the previous draw's is looked up again
    big = ball(default_generators(zn(2)), 3)
    windows = itertools.cycle([W, W, big])
    found.clear()
    invariance_test(lambda s: uniform_order(next(windows), s), g, D3, 6, 2)
    assert found == [W, big, W, big]


def test_one_sort_ranks_equal_pairwise_counts_under_ties():
    # keys of four values tie in most blocks; the rank of a key is the
    # number of keys of its block below it, ties included
    from grouporders import stats

    def keys(payloads):
        return lambda s: [rng.u64(s, "tie", *p) % 4 for p in payloads]

    sampler = ProjectiveSampler(W, keys)
    D = window_from_elements(zn(2), [zn_element(*p) for p in ((0, 0), (1, 0), (0, 1), (0, -1))])
    g = zn_element(1, 0)
    probes = stats._probe_positions(W, D, ElementNotInWindow, g)
    bound = keys([W.payloads[p] for positions in probes for p in positions])
    tied = 0
    rankings = stats._probe_rankings(sampler, D, ElementNotInWindow, 200, 5, shift=g)
    for sub, got in zip(stats.sample_seeds(5, 200), rankings):
        blocks = [bound(sub)[:4], bound(sub)[4:]]
        tied += any(len(set(block)) < 4 for block in blocks)
        assert got == [tuple(sum(b < a for b in block) for a in block) for block in blocks]
    assert tied > 150
