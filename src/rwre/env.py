"""Environment laws, moment functionals, regime classification, site sampling.

A one-dimensional RWRE environment is an i.i.d. sequence {omega_x} with
omega_x in (0,1); the walk steps right from x with probability omega_x.
Everything that matters about the law of a single site is captured by the
moments of the odds ratio rho = (1 - omega) / omega:

  * E[log rho] < 0        -> transient to the right (> 0: left, = 0: recurrent)
  * E[rho] < 1             -> ballistic to the right, speed (1-E[rho])/(1+E[rho])
  * E[rho^kappa] = 1        -> kappa is the tail exponent of the cascade sums

One rule, ``_categories``, turns every uniform u into a category of a site
law (here) or a step law (in ``ladder``): the count of cumulative weights <= u.
``_add_steps`` adds the integer step of each category in place by the same
rule.

Beta laws need no special-function library.  ``_beta_inverse`` turns site
uniforms into Beta(alpha, beta) quantiles: a cubic Hermite first guess from
a table of exact incomplete-beta values, then Halley steps on the same
continued fraction (after DiDonato & Morris, ACM TOMS 18 (1992), Algorithm
708).  ``_digamma`` and ``_trigamma`` serve the log-moments, ``math.lgamma``
the power moments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .rng import site_uniforms

BOUNDARY_ATOL = 1e-12  # exact-sum boundary detection, e.g. E[rho] == 1
# Categorical draws make one compare pass per threshold.  A binary search is
# cheaper above 150 categories even for 2x10^5 draws, and whenever there are
# fewer than 256 draws per pass, each pass costing a few us of call overhead
# (crossovers measured for 1 to 2x10^5 draws and 2 to 300 categories).
_SEARCH_ABOVE = 150
_DRAWS_PER_PASS = 256

# Beta quantiles: table nodes y = sin^2(theta) on a uniform theta grid over
# (0, pi/2); each element's Halley steps stop after its own first step of
# relative size below _HALLEY_TOL (cubic convergence leaves that step exact
# to rounding), so a quantile does not depend on the other elements of its
# call; the call fails if any element takes more than _HALLEY_MAX steps.
_BETA_NODES = 2048
_HALLEY_TOL = 1e-7
_HALLEY_MAX = 16
_BETA_STRIP = 1 << 13  # uniforms per strip of ``_beta_inverse``; see its docstring
_BELOW_ONE = 1.0 - 2.0**-53  # the largest double below 1
_TINY = float(np.finfo(np.float64).tiny)

_KIND_DISCRETE = "discrete"
_KIND_BETA = "beta"


@dataclass(frozen=True)
class EnvLaw:
    """Law of a single environment site omega_0.

    kind is "discrete" (finite support) or "beta" (omega ~ Beta(alpha,
    beta)); a constant law omega == p is the one-atom discrete law.  All
    omega values live strictly inside (0,1); discrete weights are strictly
    positive and sum to 1.
    """

    kind: str
    weights: Optional[tuple[float, ...]] = None
    omegas: Optional[tuple[float, ...]] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None

    def __post_init__(self):
        if self.kind == _KIND_DISCRETE:
            if not self.weights or not self.omegas or len(self.weights) != len(self.omegas):
                raise ValueError("discrete law needs matching weights and omegas")
            if any(w <= 0.0 for w in self.weights):
                raise ValueError("discrete weights must be strictly positive")
            if abs(math.fsum(self.weights) - 1.0) > BOUNDARY_ATOL:
                raise ValueError("discrete weights must sum to 1 within 1e-12")
            if any(not 0.0 < w < 1.0 for w in self.omegas):
                raise ValueError("omega values must lie strictly inside (0,1)")
        elif self.kind == _KIND_BETA:
            if self.alpha is None or self.beta is None or self.alpha <= 0 or self.beta <= 0:
                raise ValueError("beta law needs alpha > 0 and beta > 0")
        else:
            raise ValueError(f"unknown law kind {self.kind!r}")

    @staticmethod
    def constant(p: float) -> "EnvLaw":
        return EnvLaw.discrete([(1.0, p)])

    @staticmethod
    def discrete(pairs: Sequence[tuple[float, float]]) -> "EnvLaw":
        weights = tuple(float(w) for w, _ in pairs)
        omegas = tuple(float(o) for _, o in pairs)
        return EnvLaw(kind=_KIND_DISCRETE, weights=weights, omegas=omegas)

    @staticmethod
    def beta_law(alpha: float, beta: float) -> "EnvLaw":
        return EnvLaw(kind=_KIND_BETA, alpha=float(alpha), beta=float(beta))

    def rho_support(self) -> list[tuple[float, float]]:
        """(weight, rho) pairs for finite-support laws."""
        if self.kind == _KIND_DISCRETE:
            return [(w, (1.0 - o) / o) for w, o in zip(self.weights, self.omegas)]
        raise ValueError("rho_support is only defined for finite-support laws")

    def omega_levels(self) -> Optional[np.ndarray]:
        """Sorted distinct omega values of a finite-support law; None for a continuous one."""
        if self.kind == _KIND_DISCRETE:
            return np.array(sorted(set(self.omegas)), dtype=np.float64)
        return None

    def mirror(self) -> "EnvLaw":
        """Law of 1 - omega_0; swaps the roles of rho and 1/rho."""
        if self.kind == _KIND_DISCRETE:
            return EnvLaw.discrete([(w, 1.0 - o) for w, o in zip(self.weights, self.omegas)])
        return EnvLaw.beta_law(self.beta, self.alpha)


@dataclass(frozen=True)
class EnvWindow:
    """A realized environment {omega_x} on the integer interval [lo, hi].

    Windows produced by :func:`sample_window` regenerate bit-identically
    from (law, seed, lo, hi), and any two windows with the same (law, seed)
    agree site-by-site wherever they overlap.
    """

    lo: int
    hi: int
    omega: np.ndarray
    law: EnvLaw
    seed: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("window needs lo <= hi")
        if len(self.omega) != self.hi - self.lo + 1:
            raise ValueError("omega length does not match [lo, hi]")
        self.omega.flags.writeable = False

    def omega_at(self, x: int) -> float:
        if not self.lo <= x <= self.hi:
            raise IndexError(f"site {x} outside window [{self.lo}, {self.hi}]")
        return float(self.omega[x - self.lo])

    def rho_slice(self, i: int, j: int) -> np.ndarray:
        """rho_x for x in [i, j] (inclusive)."""
        if not (self.lo <= i and j <= self.hi and i <= j):
            raise IndexError(f"slice [{i}, {j}] outside window [{self.lo}, {self.hi}]")
        w = self.omega[i - self.lo : j - self.lo + 1]
        return (1.0 - w) / w


@dataclass(frozen=True)
class RegimeReport:
    """Everything transience-related that the site-law moments determine."""

    mean_log_rho: float
    mean_rho: float
    mean_inv_rho: float
    direction: str  # "right" | "left" | "recurrent"
    speed: float
    ballistic: bool
    quenched_strongly_transient: bool
    averaged_strongly_transient: Optional[str]  # "yes" | "no" | "boundary-unresolved"
    kappa: Optional[float]
    rho_log_rho_finite: Optional[bool]


def _thresholds(weights) -> np.ndarray:
    """Cumulative weights with the last set to exactly 1: the category edges."""
    cum = np.cumsum(np.asarray(weights, dtype=np.float64))
    cum[-1] = 1.0
    return cum


def _searches(cum: np.ndarray, u) -> bool:
    """Whether a binary search over the thresholds ``cum`` beats compare
    passes for the draws u."""
    return cum.size > _SEARCH_ABOVE or np.size(u) < _DRAWS_PER_PASS * (cum.size - 1)


def _categories(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Category of each uniform u in [0, 1]: the number of thresholds ``cum[:-1]``
    that are <= u, as ``np.searchsorted(cum[:-1], u, side="right")`` counts
    them, so u = 1.0 (a site uniform can be 1.0) takes the last category.
    A draw on a threshold takes the upper category; counting thresholds < u
    would differ only there, with probability at most 2^-53 a draw and only
    for dyadic thresholds such as 0.5.  Compare passes fill the smallest
    unsigned dtype; the binary search, used where it is faster, gives intp."""
    if _searches(cum, u):
        return np.searchsorted(cum[:-1], u, side="right")
    k = np.zeros(np.shape(u), dtype=np.min_scalar_type(cum.size - 1))
    for c in cum[:-1]:
        k += u >= c
    return k


def _add_steps(
    acc: np.ndarray, cum: np.ndarray, u: np.ndarray, steps: np.ndarray, hit: np.ndarray
) -> None:
    """``acc += steps[_categories(cum, u)]`` in place, for integer ``acc`` and
    ``steps``, without the gathered array.  The compare passes add steps[0]
    and then, for each threshold c <= u, steps[i+1] - steps[i]: a telescoping
    sum that stops at u's category, with ``_categories``'s tie rule.  ``hit``
    is a bool buffer of u's shape.  ``acc`` must hold acc + steps[i] for every
    i and every difference of consecutive steps."""
    if _searches(cum, u):
        acc += steps[np.searchsorted(cum[:-1], u, side="right")]
        return
    acc += int(steps[0])
    for c, d in zip(cum[:-1].tolist(), np.diff(steps).tolist()):
        ones = np.greater_equal(u, c, out=hit).view(np.int8)
        if d == 1:
            acc += ones
        elif d == -1:
            acc -= ones
        elif d:
            acc += ones * acc.dtype.type(d)


def _beta_log_scale(p: float, q: float) -> float:
    """log(1 / (p B(p, q)))."""
    return math.lgamma(p + q) - math.lgamma(p) - math.lgamma(q) - math.log(p)


def _beta_front(p: float, q: float, y: np.ndarray) -> np.ndarray:
    """y^p (1-y)^q / (p B(p, q)): I_y(p, q) is this times ``_beta_cf``.  Powers
    and gammas round better than exp of a log sum, which p + q >= 170 needs
    (the gammas overflow there)."""
    if p + q < 170.0:
        return y**p * (1.0 - y) ** q * (math.gamma(p + q) / (math.gamma(p) * math.gamma(q)) / p)
    return np.exp(p * np.log(y) + q * np.log1p(-y) + _beta_log_scale(p, q))


def _beta_cf_pair(p: float, q: float, m: int) -> tuple[float, float]:
    """Per-unit-y coefficients (d_2m-1, d_2m) of the fraction
    1 / (1 + d_1 y / (1 + d_2 y / (1 + ...))) (Numerical Recipes, eq. 6.4.5)."""
    return (
        -(p + m - 1) * (p + q + m - 1) / ((p + 2 * m - 2) * (p + 2 * m - 1)),
        m * (q - m) / ((p + 2 * m - 1) * (p + 2 * m)),
    )


def _beta_cf_pairs(p: float, q: float, y: np.ndarray) -> int:
    """Pairs of terms after which the fraction has converged at every y, by
    the modified Lentz method run until its last factor is 1 within 2^-52
    (or for 1000 pairs)."""
    fpmin, cap = 1e-300, 1000
    c, d = np.ones_like(y), np.zeros_like(y)
    for m in range(1, cap):
        for coef in _beta_cf_pair(p, q, m):
            d = 1.0 + coef * y * d
            d = 1.0 / np.where(np.abs(d) < fpmin, fpmin, d)
            c = 1.0 + coef * y / c
            c = np.where(np.abs(c) < fpmin, fpmin, c)
        if np.max(np.abs(c * d - 1.0)) <= 2.0**-52:
            return m
    return cap


def _beta_cf(terms: list[tuple[float, float]], y: np.ndarray) -> np.ndarray:
    """The fraction over the pairs ``terms`` at y, evaluated from its last term."""
    t = np.zeros_like(y)
    for odd, even in reversed(terms):
        t += 1.0
        np.divide(even * y, t, out=t)
        t += 1.0
        np.divide(odd * y, t, out=t)
    t += 1.0
    return np.reciprocal(t, out=t)


class _BetaTable(NamedTuple):
    """Quantile table of Beta(p, q) below its split point y* = (p+1)/(p+q+2),
    where the fraction converges fastest.  ``v`` holds the exact I_y(p, q) of
    the nodes up to the first node past y*, ``coef`` the Hermite cubic of each
    interval (y = c0 + t (c1 + t (c2 + t c3)) at t = (v - v_j) / h_j, then
    v_j, 1 / h_j and the interval's ends y_j, y_j+1), ``split`` I_y*(p, q)."""

    v: np.ndarray
    coef: np.ndarray
    terms: list
    split: float


@functools.lru_cache(maxsize=16)
def _beta_table(p: float, q: float) -> _BetaTable:
    crit = (p + 1.0) / (p + q + 2.0)
    y = np.sin(np.arange(1, _BETA_NODES) * (math.pi / (2 * _BETA_NODES))) ** 2
    y = y[: np.searchsorted(y, crit) + 1]
    front = _beta_front(p, q, y)
    keep = front > 1e-150  # nodes so far out that 1 / pdf could overflow are left out
    y, front = y[keep], front[keep]
    terms = [_beta_cf_pair(p, q, m) for m in range(1, _beta_cf_pairs(p, q, y) + 2)]
    v = front * _beta_cf(terms, y)
    slope = y * (1.0 - y) / (p * front)  # dy/dv = 1 / pdf
    h, dy = np.diff(v), np.diff(y)
    coef = np.stack([
        y[:-1],
        h * slope[:-1],
        3.0 * dy - h * (2.0 * slope[:-1] + slope[1:]),
        h * (slope[:-1] + slope[1:]) - 2.0 * dy,
        v[:-1],
        1.0 / h,
        y[1:],
    ])
    at = np.array([crit])
    split = float((_beta_front(p, q, at) * _beta_cf(terms, at))[0])
    v.flags.writeable = coef.flags.writeable = False  # cached: every call shares them
    return _BetaTable(v, coef, terms, split)


def _beta_lower_inverse(p: float, q: float, v: np.ndarray) -> np.ndarray:
    """y with I_y(p, q) = v, for 0 <= v up to about the table's ``split``.
    The first guess is the Hermite cubic kept inside its interval, or below
    the first node the tail y = (v p B(p, q))^(1/p).  A y below the smallest
    normal double is returned as 0."""
    if not v.size:
        return v
    table = _beta_table(p, q)
    j = np.searchsorted(table.v, v, side="right") - 1
    below = j < 0
    y0, c1, c2, c3, vj, inv_h, y1 = table.coef[:, np.clip(j, 0, table.v.size - 2)]
    t = (v - vj) * inv_h
    y = np.clip(y0 + t * (c1 + t * (c2 + t * c3)), y0, y1)
    if below.any():
        with np.errstate(divide="ignore"):  # v = 0 gives y = 0
            y[below] = np.exp((np.log(v[below]) - _beta_log_scale(p, q)) / p)
    zero = y < _TINY  # iterate on the first node as a stand-in
    if zero.any():
        v = np.where(zero, table.v[0], v)
        y[zero] = table.coef[0, 0]
    todo, x = np.arange(y.size), y  # the elements still iterating, and their y
    for _ in range(_HALLEY_MAX):
        front = _beta_front(p, q, x)
        r = (front * _beta_cf(table.terms, x) - v) * (x * (1.0 - x) / (p * front))
        step = r / (1.0 - 0.5 * r * ((p - 1.0) / x - (q - 1.0) / (1.0 - x)))
        done = np.abs(step) / x < _HALLEY_TOL
        # A step may not halve y or its distance to 1: a poor guess stays inside (0, 1).
        x = np.clip(x - step, 0.5 * x, 0.5 + 0.5 * x)
        y[todo[done]] = x[done]
        keep = ~done
        todo, x, v = todo[keep], x[keep], v[keep]
        if not todo.size:
            y[zero] = 0.0
            return y
    raise ArithmeticError(f"Beta({p}, {q}) quantiles did not converge")


def _beta_inverse(a: float, b: float, u: np.ndarray, out=None) -> np.ndarray:
    """Beta(a, b) quantiles of the uniforms u in (0, 1]: x with I_x(a, b) = u,
    clipped strictly inside (0, 1) (u = 1 gives the largest double below 1).
    Uniforms below the split point solve I_x(a, b) = u, the others
    I_{1-x}(b, a) = 1 - u, so that both tails keep their relative accuracy.
    The uniforms go through in strips of ``_BETA_STRIP``, which bounds the
    temporaries; each quantile depends on its own uniform alone, so the
    strips change no bit.  ``out``, C-contiguous and of u's shape, receives
    the quantiles and may be u itself."""
    u = np.asarray(u, dtype=np.float64)
    x = np.empty(u.shape) if out is None else out
    split = _beta_table(a, b).split
    flat_u, flat_x = u.reshape(-1), x.reshape(-1)
    for start in range(0, flat_u.size, _BETA_STRIP):
        us, xs = flat_u[start : start + _BETA_STRIP], flat_x[start : start + _BETA_STRIP]
        low = us < split
        high = ~low
        lower = _beta_lower_inverse(a, b, us[low])
        upper = _beta_lower_inverse(b, a, 1.0 - us[high])  # read before xs overwrites us
        xs[low] = lower
        np.subtract(1.0, upper, out=upper)
        xs[high] = upper
    return np.clip(x, _TINY, _BELOW_ONE, out=x)


def _digamma(x: float) -> float:
    """psi(x) for x > 0: the recurrence psi(x) = psi(x + 1) - 1/x up to
    z = x + n >= 10, then the asymptotic series through z^-12 (its next term
    is below 1e-15), summed exactly rounded."""
    n = max(0, math.ceil(10.0 - x))
    z = x + n
    w = 1.0 / (z * z)
    tail = 0.0
    for c in (-691 / 32760, 1 / 132, -1 / 240, 1 / 252, -1 / 120, 1 / 12):  # B_2k / 2k, k = 6..1
        tail = (tail + c) * w
    return math.fsum([math.log(z), -0.5 / z, -tail] + [-1.0 / (x + k) for k in range(n)])


def _trigamma(x: float) -> float:
    """psi'(x) for x > 0: the recurrence psi'(x) = psi'(x + 1) + 1/x^2 up to
    z = x + n >= 10, then the asymptotic series 1/z + 1/(2 z^2) + sum_k
    B_2k / z^(2k+1) through z^-15 (its next term is below 1e-16), summed
    exactly rounded."""
    n = max(0, math.ceil(10.0 - x))
    z = x + n
    w = 1.0 / (z * z)
    tail = 0.0
    for c in (7 / 6, -691 / 2730, 5 / 66, -1 / 30, 1 / 42, -1 / 30, 1 / 6):  # B_2k, k = 7..1
        tail = (tail + c) * w
    return math.fsum([1.0 / z, 0.5 * w, tail / z] + [1.0 / (x + k) ** 2 for k in range(n)])


def omega_at_sites(law: EnvLaw, seed, sites, out=None, state=None) -> np.ndarray:
    """Sample omega at arbitrary integer sites via the keyed site RNG; a
    column of seeds gives one row per seed (see ``site_uniforms``).  A
    one-atom law draws no site uniforms.  ``out`` (float64, C-contiguous)
    receives omega and is returned, the site uniforms being drawn into it
    first; ``state`` holds their hash state (``site_uniforms``).  Each has
    the result's shape and is allocated when None."""
    # Without buffers the uniforms come from the plain two-argument call.
    draw = {} if out is None and state is None else {"out": out, "state": state}
    if law.kind == _KIND_BETA:
        u = site_uniforms(seed, sites, **draw)
        return _beta_inverse(law.alpha, law.beta, u, out=u)
    if len(law.omegas) == 1:
        shape = np.broadcast_shapes(np.shape(seed), np.shape(sites))
        out = np.empty(shape) if out is None else out
        out.fill(law.omegas[0])
        return out
    # The uniforms are freed (or overwritten) by the gather, which casts the
    # categories to intp; "clip" gathers unbuffered, and every category is in range.
    k = _categories(_thresholds(law.weights), site_uniforms(seed, sites, **draw))
    return np.take(np.asarray(law.omegas, dtype=np.float64), k, out=out, mode="clip")


def sample_window(law: EnvLaw, seed: int, lo: int, hi: int) -> EnvWindow:
    """Draw the environment window [lo, hi]; reproducible and site-stable."""
    if lo > hi:
        raise ValueError("sample_window needs lo <= hi")
    omega = omega_at_sites(law, seed, np.arange(lo, hi + 1, dtype=np.int64))
    return EnvWindow(lo=lo, hi=hi, omega=omega, law=law, seed=seed)


def moment_rho(law: EnvLaw, u: float) -> float:
    """E[rho_0^u], +inf when the moment diverges.

    Finite-support laws are exact sums.  For Beta(alpha, beta) the closed
    form is Gamma(alpha-u) Gamma(beta+u) / (Gamma(alpha) Gamma(beta)),
    finite exactly when -beta < u < alpha.
    """
    if law.kind == _KIND_BETA:
        if not -law.beta < u < law.alpha:
            return math.inf
        return math.exp(
            math.lgamma(law.alpha - u)
            + math.lgamma(law.beta + u)
            - math.lgamma(law.alpha)
            - math.lgamma(law.beta)
        )
    return math.fsum(w * rho**u for w, rho in law.rho_support())


def _mean_omega(law: EnvLaw) -> float:
    """E[omega_0]: the exactly rounded support sum, or alpha/(alpha+beta) for Beta."""
    if law.kind == _KIND_BETA:
        return law.alpha / (law.alpha + law.beta)
    return math.fsum(w * o for w, o in zip(law.weights, law.omegas))


def mean_log_rho(law: EnvLaw) -> float:
    """E[log rho_0]; digamma identity psi(beta) - psi(alpha) for beta laws."""
    if law.kind == _KIND_BETA:
        return _digamma(law.beta) - _digamma(law.alpha)
    return math.fsum(w * math.log(rho) for w, rho in law.rho_support())


def _var_log_rho(law: EnvLaw) -> float:
    """Var[log rho_0] = d^2/ds^2 log E[rho_0^s] at s = 0: the exactly rounded
    support sums E[log^2 rho] - E[log rho]^2, or psi'(alpha) + psi'(beta)
    for Beta laws (log rho = log(1 - omega) - log omega)."""
    if law.kind == _KIND_BETA:
        return _trigamma(law.alpha) + _trigamma(law.beta)
    mean = mean_log_rho(law)
    return max(0.0, math.fsum(w * math.log(rho) ** 2 for w, rho in law.rho_support()) - mean * mean)


def moment_rho_log_rho(law: EnvLaw) -> float:
    """E[rho_0 log rho_0], +inf when it diverges (iff E[rho_0] = +inf here)."""
    if law.kind == _KIND_BETA:
        if law.alpha <= 1.0:
            return math.inf
        m1 = moment_rho(law, 1.0)
        return m1 * (_digamma(law.beta + 1.0) - _digamma(law.alpha - 1.0))
    return math.fsum(w * rho * math.log(rho) for w, rho in law.rho_support())


def kappa_root(
    law: EnvLaw,
    tol: float = 1e-12,
    bracket_cap: float = 64.0,
) -> Optional[float]:
    """Positive root kappa of E[rho_0^u] = 1, or None when no root exists.

    Requires E[log rho_0] < 0, so u -> E[rho^u] dips below 1 near 0 and a
    root exists iff the moment climbs back through 1 (it always does when
    rho exceeds 1 with positive probability and the moment stays finite
    long enough).  The bracket expands geometrically up to ``bracket_cap``;
    bisection (the helper shared with ``ladder.gamma_root``) then drives
    |E[rho^kappa] - 1| below ``tol`` and the bracket width below 1e-14.

    There is no root when rho_0 <= 1 almost surely; None is also returned
    if the bracket cap is exhausted before the moment crosses 1.
    """
    drift = mean_log_rho(law)
    if not drift < 0.0:
        raise ValueError(f"kappa_root needs E[log rho] < 0, got {drift}")

    root = _positive_root(lambda u: moment_rho(law, u) - 1.0, tol, bracket_cap)
    if root is None or abs(moment_rho(law, root) - 1.0) > tol:
        return None
    return root


def _positive_root(f, tol: float, bracket_cap: float) -> Optional[float]:
    """Positive root of f(u) = M(u) - 1 for a moment function M with
    M(0) = 1 and M'(0) < 0, or None if f stays <= tol up to ``bracket_cap``.

    The bracket [0, 1] doubles until f exceeds tol (+inf counts); bisection
    then runs until the bracket is narrower than 1e-14 and |f| <= tol at
    its midpoint, or for 400 halvings.  The caller checks the root.
    """
    lo, hi = 0.0, None
    u = 1.0
    while u <= bracket_cap:
        if f(u) > tol:
            hi = u
            break
        lo = u
        u *= 2.0
    if hi is None:
        return None
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-14 and abs(f(0.5 * (lo + hi))) <= tol:
            break
    return 0.5 * (lo + hi)


def _speed_from_moments(m_rho: float, m_inv: float) -> float:
    if m_rho < 1.0:
        return (1.0 - m_rho) / (1.0 + m_rho)
    if m_inv < 1.0:
        return -(1.0 - m_inv) / (1.0 + m_inv)
    return 0.0


def classify_regime(law: EnvLaw, kappa_tol: float = 1e-12) -> RegimeReport:
    """Classify recurrence/transience, speed, and strong transience.

    Strong transience under the quenched measure holds whenever the walk is
    transient.  Under the averaged measure it is equivalent to ballisticity
    (E[rho] < 1 for right transience); exactly at the boundary E[rho] = 1
    the verdict "no" additionally needs E[rho log rho] < infinity, and the
    report says "boundary-unresolved" otherwise rather than guessing.
    """
    drift = mean_log_rho(law)
    if not math.isfinite(drift):
        raise ValueError("classify_regime needs finite E[log rho]")
    m_rho = moment_rho(law, 1.0)
    m_inv = moment_rho(law, -1.0)
    speed = _speed_from_moments(m_rho, m_inv)

    if abs(drift) <= BOUNDARY_ATOL:
        return RegimeReport(
            mean_log_rho=drift,
            mean_rho=m_rho,
            mean_inv_rho=m_inv,
            direction="recurrent",
            speed=0.0,
            ballistic=False,
            quenched_strongly_transient=False,
            averaged_strongly_transient=None,
            kappa=None,
            rho_log_rho_finite=None,
        )

    direction = "right" if drift < 0.0 else "left"
    # For left transience everything mirrors through omega -> 1 - omega,
    # which swaps rho and 1/rho.
    forward = law if direction == "right" else law.mirror()
    m_fwd = m_rho if direction == "right" else m_inv

    if m_fwd < 1.0 - BOUNDARY_ATOL:
        averaged = "yes"
        rll_finite = None
    elif m_fwd > 1.0 + BOUNDARY_ATOL:
        averaged = "no"
        rll_finite = None
    else:
        rll_finite = math.isfinite(moment_rho_log_rho(forward))
        averaged = "no" if rll_finite else "boundary-unresolved"

    return RegimeReport(
        mean_log_rho=drift,
        mean_rho=m_rho,
        mean_inv_rho=m_inv,
        direction=direction,
        speed=speed,
        ballistic=speed != 0.0,
        quenched_strongly_transient=True,
        averaged_strongly_transient=averaged,
        kappa=kappa_root(forward, tol=kappa_tol),
        rho_log_rho_finite=rll_finite,
    )
