"""Monte Carlo estimation of cylinder probabilities, invariance gaps, and
ranking-uniformity chi-square tests.

A sampler is either a ``ProjectiveSampler``, as every sampler the CLI
offers is, whose keys, bound once per statistic to the probed elements,
rank them without drawing the rest of the window, or any other callable
taking a 64-bit seed and returning an OrderMatrix total on the probed
elements; both kinds give the same reports.  Per-sample seeds are derived
sub-streams (``sampling.sample_seeds``), so reports are deterministic given
(seed, N).  The chi-square quantile is computed in-repo from the regularized
incomplete gamma function (series + continued fraction), accurate to well
below 1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence, Union

from .errors import DomainNotCovered, ElementNotInWindow
from .groups import GroupElement, Window, missing_translate
from .orders import CylinderSpec, OrderMatrix
from .sampling import ProjectiveSampler, sample_seeds

Sampler = Union[ProjectiveSampler, Callable[[int], OrderMatrix]]


@dataclass(frozen=True)
class EstimateReport:
    target: CylinderSpec
    samples: int
    hits: int
    frequency: Fraction
    stderr: float

    def __post_init__(self):
        if not 0 <= self.hits <= self.samples:
            raise ValueError("hit count out of range")
        if self.frequency != Fraction(self.hits, self.samples):
            raise ValueError("frequency must equal hits/samples")


def permutation_rank(perm: Sequence[int]) -> int:
    """Lexicographic rank of a permutation of 0..k-1 (Lehmer code)."""
    k = len(perm)
    rank = 0
    for i in range(k):
        smaller = sum(1 for j in range(i + 1, k) if perm[j] < perm[i])
        rank += smaller * math.factorial(k - 1 - i)
    return rank


def pattern_id(c: CylinderSpec) -> int:
    return permutation_rank(c.pattern.ranks())


def ranking_of(m: OrderMatrix, F: Window) -> tuple[int, ...]:
    """Relative ranks of F's elements (window-index order) inside m."""
    return m.ranking(m.window.positions(F))


def _probe_positions(
    w: Window, F: Sequence[GroupElement], missing: type, shift: Optional[GroupElement]
) -> list[list[int]]:
    """Window positions of F, and with ``shift`` = g also of g^-1 F.

    An element of F outside w raises ``missing``; one of g^-1 F raises
    DomainNotCovered, as an undecided pair of the g-translate would.
    """
    probes = [w.positions(F, missing)]
    if shift is not None:
        # a single element ranks first wherever its preimage lies, so only
        # the shift's group is checked
        shifted = w.preimages(shift, F if len(F) > 1 else ())
        if None in shifted:
            raise DomainNotCovered(f"{missing_translate(shift, F, shifted)!r} not in window")
        if shifted:
            probes.append(shifted)
    return probes


def _probe_rankings(
    sampler: Sampler,
    F: Sequence[GroupElement],
    missing: type,
    N: int,
    seed: int,
    shift: Optional[GroupElement] = None,
) -> Iterator[list[tuple[int, ...]]]:
    """For each of the N samples, the relative ranks of F (and of g^-1 F,
    see ``_probe_positions``).

    A ProjectiveSampler binds its keys to the probed window elements once
    and keys only them, in one call per sample; a block's rank of a key is
    the number of keys below it, its first index in the sorted block.  Any
    other sampler draws its whole order and is read at the probe positions,
    found again only when a draw's window is not the previous draw's.
    """
    if N < 1:
        raise ValueError("need at least one sample")
    k = len(F)
    keyed = isinstance(sampler, ProjectiveSampler)
    w = sampler.window if keyed else None
    if keyed:
        probes = _probe_positions(w, F, missing, shift)
        keys_of = sampler.keys([w.payloads[p] for positions in probes for p in positions])
    for sub in sample_seeds(seed, N):
        if keyed:
            keys = keys_of(sub)
            blocks = [keys[j * k : (j + 1) * k] for j in range(len(probes))]
            yield [tuple(map(sorted(block).index, block)) for block in blocks]
        else:
            m = sampler(sub)
            if m.window is not w:
                w = m.window
                probes = _probe_positions(w, F, missing, shift)
            yield [m.ranking(ps) for ps in probes]


def estimate_cylinder(sampler: Sampler, c: CylinderSpec, N: int, seed: int) -> EstimateReport:
    target = tuple(c.pattern.ranks())
    hits = 0
    for (ranks,) in _probe_rankings(sampler, c.window, DomainNotCovered, N, seed):
        if ranks == target:
            hits += 1
    freq = Fraction(hits, N)
    p = hits / N
    return EstimateReport(c, N, hits, freq, math.sqrt(p * (1 - p) / N))


@dataclass(frozen=True)
class InvarianceReport:
    element: GroupElement
    samples: int
    base_counts: tuple[int, ...]
    translated_counts: tuple[int, ...]
    max_gap: float

    def rows(self):
        for pid in range(len(self.base_counts)):
            yield (
                pid,
                self.base_counts[pid],
                self.translated_counts[pid],
                self.base_counts[pid] / self.samples,
                self.translated_counts[pid] / self.samples,
            )


def invariance_test(
    sampler: Sampler, g: GroupElement, D: Window, N: int, seed: int
) -> InvarianceReport:
    """Largest frequency gap, over all total patterns on D, between plain
    samples and their g-translates (paired: the same samples are reused).

    The g-translate ranks D as the sample ranks g^-1 D, so the sample is
    read on D and on g^-1 D.
    """
    if len(D) > 4:
        raise ValueError("pattern enumeration is capped at |D| = 4")
    k = math.factorial(len(D))
    base = [0] * k
    translated = [0] * k
    for rankings in _probe_rankings(sampler, D, ElementNotInWindow, N, seed, shift=g):
        base[permutation_rank(rankings[0])] += 1
        translated[permutation_rank(rankings[-1])] += 1
    gap = max(abs(b - t) / N for b, t in zip(base, translated))
    return InvarianceReport(g, N, tuple(base), tuple(translated), gap)


@dataclass(frozen=True)
class ChisqReport:
    statistic: float
    dof: int
    counts: tuple[int, ...]


def uniformity_chisq(sampler: Sampler, F: Window, N: int, seed: int) -> ChisqReport:
    """Chi-square statistic of the observed ranking cells against the
    uniform distribution on all |F|! rankings."""
    k = math.factorial(len(F))
    if k > 1000:
        raise ValueError("too many ranking cells (|F|! must stay <= 1000)")
    counts = [0] * k
    for (ranks,) in _probe_rankings(sampler, F, ElementNotInWindow, N, seed):
        counts[permutation_rank(ranks)] += 1
    if k == 1:
        return ChisqReport(0.0, 0, tuple(counts))
    expected = N / k
    stat = sum((c - expected) ** 2 / expected for c in counts)
    return ChisqReport(stat, k - 1, tuple(counts))


# -- chi-square quantiles (regularized incomplete gamma) -------------------

_GAMMA_EPS = 1e-14
_GAMMA_MAX_ITER = 10_000


def _gamma_p_series(a: float, x: float) -> float:
    term = 1.0 / a
    total = term
    for n in range(1, _GAMMA_MAX_ITER):
        term *= x / (a + n)
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_contfrac(a: float, x: float) -> float:
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x)."""
    if x < 0 or a <= 0:
        raise ValueError("need x >= 0 and a > 0")
    if x == 0:
        return 0.0
    if x < a + 1.0:
        return _gamma_p_series(a, x)
    return 1.0 - _gamma_q_contfrac(a, x)


def chi2_cdf(x: float, dof: int) -> float:
    return gamma_p(dof / 2.0, x / 2.0)


def chi2_quantile(p: float, dof: int) -> float:
    """Inverse chi-square CDF by bisection; absolute accuracy ~1e-10."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if dof < 1:
        raise ValueError("dof must be positive")
    lo, hi = 0.0, dof + 10.0 * math.sqrt(2.0 * dof) + 10.0
    while chi2_cdf(hi, dof) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(mid, dof) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)
