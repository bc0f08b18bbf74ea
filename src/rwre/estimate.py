"""Monte Carlo result container and order-independent merging.

Estimators shard replicates across worker streams; each worker reports
exact per-worker aggregates (count, sum, sum of squares, min, max) which
are merged with exactly rounded summation (math.fsum), so the final result
is bit-identical for a given (seed, worker count) regardless of execution
order.  A sample array with no negative value is summed without Python
objects: its in-order running sum and the sum of that running sum's TwoSum
errors give a value that ``_certified_sums`` proves correctly rounded (the
value math.fsum gives) or hands back to math.fsum; ``exact`` sums its series
rows by the same certificate.  Ratio estimators are not sharded: ``ratio_of_samples`` takes all
paired samples at once and hands their exactly rounded sums to
``ratio_of_means``.  Certified censoring biases are carried in
``error_budget`` and are never folded into the statistical standard error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np


_FSUM_BLOCK = 2**14  # floats summed (or converted to Python objects) at a time
_EXACT_RANGE = (2.0**-900, 2.0**1000)  # certified sums: their slack and neighbours stay normal and finite


def _two_sum_errors(a, b, s, out=None):
    """The exact rounding errors a + b - s of the float additions
    s = fl(a + b) of non-negative a and b, elementwise: with the larger
    first, fl(s - max(a, b)) is exact and so is min(a, b) minus it (Dekker's
    Fast2Sum; exact whenever nothing overflows).  ``out`` must not overlap a,
    b or s."""
    err = np.maximum(a, b, out=out)
    np.subtract(s, err, out=err)
    return np.subtract(np.minimum(a, b), err, out=err)


def _certified_sums(hi, lo, count):
    """(r, exact), elementwise, for sums of ``count`` non-negative floats
    given as hi, the in-order running sum s_k = fl(s_{k-1} + x_k) at the last
    term, and lo, any float sum of the errors s_{k-1} + x_k - s_k
    (``_two_sum_errors``).

    The exact sum is hi + E, E the exact sum of those errors; r = fl(hi + lo)
    and t = hi + lo - r exactly (Fast2Sum: |lo| < hi).  Each error is at most
    2^-53 s_k <= 2^-53 hi, so lo is within about count^2 2^-106 hi of E
    (Ogita, Rump and Oishi, "Accurate sum and dot product", SIAM J. Sci.
    Comput. 2005).  Where |t| + count^2 2^-104 r is below half the gap from r
    down to its lower neighbour (never wider than the gap above it), the
    exact sum lies strictly inside r's rounding interval, so r is its
    correctly rounded value, the one ``math.fsum`` returns, and ``exact`` is
    True.  Elsewhere (a tie or near-tie, r non-finite, zero, or outside
    ``_EXACT_RANGE``) ``exact`` is False: the caller sums again by
    ``math.fsum``."""
    with np.errstate(invalid="ignore", over="ignore"):
        r = np.add(hi, lo)
        slack = np.abs(lo - (r - hi))
        slack += np.square(count, dtype=np.float64) * 2.0**-104 * r
        gap = r - np.nextafter(r, 0.0)
        exact = (r >= _EXACT_RANGE[0]) & (r <= _EXACT_RANGE[1]) & (slack < 0.5 * gap)
    return r, exact


def _fsum(xs: np.ndarray) -> float:
    """What ``math.fsum(xs.tolist())`` returns for a 1-D float64 array.

    An array with no negative value is summed by one running cumsum carried
    across ``_FSUM_BLOCK``-float pieces, with its TwoSum errors beside it,
    and certified by ``_certified_sums``; any other array, and one whose sum
    is not certified, is fed to ``math.fsum`` block by block.  No temporary
    grows with the array."""
    if xs.size and xs.min() >= 0.0:
        width = min(xs.size, _FSUM_BLOCK)
        run, err = np.empty(width + 1), np.empty(width)
        hi, lo = 0.0, 0.0
        for i in range(0, xs.size, _FSUM_BLOCK):
            x = xs[i : i + _FSUM_BLOCK]
            s = run[: x.size + 1]
            s[0], s[1:] = hi, x
            with np.errstate(over="ignore"):
                np.cumsum(s, out=s)
            with np.errstate(invalid="ignore"):
                lo += float(_two_sum_errors(s[:-1], x, s[1:], out=err[: x.size]).sum())
            hi = float(s[-1])
        r, exact = _certified_sums(np.array([hi]), np.array([lo]), np.array([xs.size]))
        if exact[0]:
            return r.item()
    return math.fsum(
        itertools.chain.from_iterable(
            xs[i : i + _FSUM_BLOCK].tolist() for i in range(0, xs.size, _FSUM_BLOCK)
        )
    )


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float
    n: int
    method: str
    seed: int
    error_budget: float = 0.0
    flags: tuple[str, ...] = ()
    extras: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.std_error < 0.0 or self.error_budget < 0.0:
            raise ValueError("std_error and error_budget must be non-negative")


@dataclass(frozen=True)
class Tally:
    """Exact per-worker aggregates of one scalar sample batch."""

    n: int
    total: float
    total_sq: float
    minimum: float
    maximum: float

    @staticmethod
    def of(samples: np.ndarray) -> "Tally":
        xs = np.asarray(samples, dtype=np.float64)
        if xs.size == 0:
            return Tally(0, 0.0, 0.0, math.inf, -math.inf)
        return Tally(
            n=int(xs.size),
            total=_fsum(xs),
            total_sq=_fsum(xs * xs),
            minimum=float(xs.min()),
            maximum=float(xs.max()),
        )

    @staticmethod
    def of_counts(values: np.ndarray, counts: np.ndarray) -> "Tally":
        """``Tally.of(np.repeat(values, counts))`` without the repeated
        samples: each sum is the exactly rounded count-weighted sum."""
        xs = np.asarray(values, dtype=np.float64)
        cs = np.asarray(counts, dtype=np.int64)
        xs, cs = xs[cs > 0], cs[cs > 0].tolist()
        if not cs:
            return Tally(0, 0.0, 0.0, math.inf, -math.inf)
        return Tally(
            n=sum(cs),
            total=_counted_fsum(xs, cs),
            total_sq=_counted_fsum(xs * xs, cs),
            minimum=float(xs.min()),
            maximum=float(xs.max()),
        )


def _counted_fsum(xs: np.ndarray, counts: list[int]) -> float:
    """What ``math.fsum`` returns for counts[i] copies of each xs[i]: the
    exact sum in integers over the values' common power-of-two denominator,
    rounded once by int true division.  A sum past the float range raises
    OverflowError as ``math.fsum`` does; an inf or nan among the values gives
    ``math.fsum``'s special value, which no count changes."""
    values = xs.tolist()
    if not all(map(math.isfinite, values)):
        return math.fsum(values)
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)  # every denominator is a power of two
    return sum(c * p * (den // d) for c, (p, d) in zip(counts, ratios)) / den


def merge_mean(tallies: list[Tally]) -> tuple[int, float, float, float, float]:
    """(n, mean, std_error, min, max) from per-worker tallies.

    All-identical samples yield std_error exactly 0 (their sample variance
    is zero by definition, independent of rounding in the aggregates).
    """
    n = sum(t.n for t in tallies)
    if n == 0:
        raise ValueError("cannot merge empty tallies")
    s = math.fsum(t.total for t in tallies)
    q = math.fsum(t.total_sq for t in tallies)
    mn = min(t.minimum for t in tallies)
    mx = max(t.maximum for t in tallies)
    mean = s / n
    if n == 1 or mx == mn:
        return n, mean, 0.0, mn, mx
    var = max(0.0, (q - s * s / n) / (n - 1))
    return n, mean, math.sqrt(var / n), mn, mx


def ratio_of_samples(xs: np.ndarray, ys: np.ndarray) -> tuple[int, float, float]:
    """(n, mean(y)/mean(x), delta-method SE) of paired samples, from their
    exactly rounded sums; see ``ratio_of_means``."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    n = x.size
    if n == 0:
        raise ValueError("cannot take a ratio of no samples")
    return n, *ratio_of_means(n, _fsum(x), _fsum(y), _fsum(x * x), _fsum(y * y), _fsum(x * y))


def ratio_of_means(
    n: int, sx: float, sy: float, sxx: float, syy: float, sxy: float
) -> tuple[float, float]:
    """(mean(y)/mean(x), delta-method SE) from the n-sample sums of x, y,
    x^2, y^2 and xy; the SE is 0 for a single sample.

    The numerator and denominator share samples, so the covariance term is
    kept: Var(r) ~ (S_yy - 2 r S_xy + r^2 S_xx) / (n xbar^2).
    """
    xbar = sx / n
    ratio = (sy / n) / xbar
    if n == 1:
        return ratio, 0.0
    var_y = max(0.0, (syy - sy * sy / n) / (n - 1))
    var_x = max(0.0, (sxx - sx * sx / n) / (n - 1))
    cov = (sxy - sx * sy / n) / (n - 1)
    var_r = max(0.0, var_y - 2.0 * ratio * cov + ratio * ratio * var_x)
    return ratio, math.sqrt(var_r / n) / abs(xbar)
