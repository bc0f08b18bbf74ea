"""Exact quenched computations on a realized environment.

Everything here is built from the block products and sums of the odds
ratios rho_x = (1 - omega_x)/omega_x:

    Pi_{i,j} = prod_{x=i..j} rho_x
    R_{i,j}  = sum_{k=i..j} Pi_{i,k}
    R_i      = sum_{k>=i} Pi_{i,k}          (converges iff E[log rho] < 0)

The classical birth-death identities then give hitting probabilities

    P^x(T_a < T_b) = Pi_{a,x-1} R_{x,b-1} / R_{a,b-1}

expected one-step hitting times

    E^x[T_{x+1}] = 1 + 2 sum_{i<=x} Pi_{i,x}
    E^x[T_{x-1}] = 1 + 2 sum_{i>=x} Pi_{x,i}^{-1}

and, for a right-transient walk, the environment conditioned on returning
from 1 to 0 (a Doob h-transform): omega~_x = omega_x R_{x+1}/(1 + R_{x+1})
for x >= 1, under which the conditional return-time expectation becomes

    E^1[T_0 | T_0 < inf] = 1 + 2 sum_n Pi_{1,n} (1+R_{n+1}) R_{n+1} / ((1+R_1) R_1).

Pi values range over hundreds of orders of magnitude on long windows, so
all internals run in log space (log-sum-exp for the R sums).  Truncated
series are scanned by one routine, ``_scan_series``, whose sums are exactly
rounded (``math.fsum``), and report an explicit heuristic geometric
remainder.  One anchored sweep per environment (``_sweep_log_r``) supplies
omega_0, R_1 and the conditional-return series to the averaged estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import logsumexp

from .env import (
    EnvLaw,
    EnvWindow,
    _speed_from_moments,
    mean_log_rho,
    moment_rho,
    omega_at_sites,
)

DEFAULT_TOL = 1e-10
DEFAULT_HORIZON = 1_000_000
QUIET_RUN = 32  # consecutive sub-threshold terms required before stopping
_CHUNK = 512

EnvSource = Union[EnvWindow, tuple[EnvLaw, int]]


class ConvergenceError(RuntimeError):
    """A truncated series exhausted its budget before meeting tolerance."""


@dataclass(frozen=True)
class SeriesValue:
    """Truncated value of a non-negative series.

    When ``converged`` the true series lies in
    [value, value + remainder_bound]; the remainder bound is a heuristic
    geometric extrapolation from the last term (decay rate exp(E[log rho]/2)),
    not a certified constant.  ``converged`` is False only when the term or
    window budget ran out before the stopping rule was met.
    """

    value: float
    remainder_bound: float
    terms_used: int
    converged: bool


@dataclass(frozen=True)
class ReturnDecomposition:
    """First-step decomposition of the quenched return time from the origin.

    With omega_0 the origin site, R_1 the right cascade sum, and T_0 hitting
    times of the origin:

        e_return_indicator = 1 + (1-omega_0) E^{-1}[T_0]
                               + omega_0 (R_1/(1+R_1)) E^1[T_0 | T_0 < inf]
        p_return           = (1-omega_0) + omega_0 R_1/(1+R_1)

    and e_return_given_return = e_return_indicator / p_return.  Note the
    leading constant in e_return_indicator counts every start, returned or
    not (the conventional form of the decomposition; as an upper bound on
    E[r 1{r<inf}] it is what the finiteness dichotomy uses).  The
    walk-measurable conditional mean return time is
    (e_return_indicator - 1 + p_return) / p_return.
    """

    p_return: float
    e_return_indicator: float
    e_left_hit: float
    p_right_return: float
    e_cond_right: float
    e_return_given_return: float

    def __post_init__(self):
        if not 0.0 < self.p_return <= 1.0:
            raise ValueError("p_return must lie in (0, 1]")
        if not 0.0 < self.p_right_return < 1.0:
            raise ValueError("p_right_return must lie in (0, 1)")


def _source(env_or_law: EnvSource) -> tuple[EnvLaw, int, Optional[EnvWindow]]:
    if isinstance(env_or_law, EnvWindow):
        return env_or_law.law, env_or_law.seed, env_or_law
    law, seed = env_or_law
    return law, seed, None


def _scan_series(
    chunks: Iterator[np.ndarray],
    tol: float,
    run: int,
    horizon: int,
) -> tuple[float, float, int, bool]:
    """Accumulate positive terms until ``run`` consecutive terms fall below
    tol * (running sum), or the horizon/chunk supply is exhausted.

    The returned sum is exactly rounded: one ``math.fsum`` over every term
    used.  The running sum of the stopping rule merges each finished chunk
    into the previous total with ``math.fsum``.

    Returns (sum, last_term, terms_used, converged).
    """
    kept: list[np.ndarray] = []
    total = 0.0
    used = 0
    run_carry = 0
    last = math.nan
    for terms in chunks:
        if used + len(terms) > horizon:
            terms = terms[: horizon - used]
            if len(terms) == 0:
                break
        cs = total + np.cumsum(terms)
        quiet = terms < tol * cs
        pos = np.arange(len(terms))
        last_noisy = np.maximum.accumulate(np.where(~quiet, pos, -1))
        runlen = np.where(last_noisy < 0, pos + 1 + run_carry, pos - last_noisy)
        hits = np.nonzero(runlen >= run)[0]
        if hits.size:
            stop = int(hits[0])
            kept.append(terms[: stop + 1])
            return _fsum(kept), float(terms[stop]), used + stop + 1, True
        kept.append(terms)
        total = math.fsum([total, *terms.tolist()])
        used += len(terms)
        run_carry = int(runlen[-1])
        last = float(terms[-1])
        if used >= horizon:
            break
    return _fsum(kept), last, used, False


def _fsum(chunks: list[np.ndarray]) -> float:
    return math.fsum(np.concatenate(chunks).tolist()) if chunks else 0.0


def _log_pi_chunks(law, seed, start, window, step, sign):
    """Chunks of terms exp(sign * log Pi) over the sites start, start+step, ...

    (step, sign) = (+1, +1) gives Pi_{start,k} for sum_{k>=start},
    (+1, -1) their inverses Pi_{start,k}^{-1}, and (-1, +1) the terms
    Pi_{i,start} of sum_{i<=start}.  A window ends the supply at its edge in
    the walking direction; without one the keyed site generator extends the
    environment as far as the consumer reads.
    """
    lp = 0.0
    k = start
    while True:
        stop = k + step * (_CHUNK - 1)
        if window is not None:
            if (k > window.hi) if step > 0 else (k < window.lo):
                return
            stop = min(stop, window.hi) if step > 0 else max(stop, window.lo)
            rho = window.rho_slice(min(k, stop), max(k, stop))[::step]
        else:
            om = omega_at_sites(law, seed, np.arange(k, stop + step, step, dtype=np.int64))
            rho = (1.0 - om) / om
        lt = lp + sign * np.cumsum(np.log(rho))
        lp = float(lt[-1])
        with np.errstate(over="ignore"):
            yield np.exp(lt)
        k = stop + step


def cascade(env: EnvWindow, i: int, j: int) -> tuple[float, float]:
    """(Pi_{i,j}, R_{i,j}) on the realized window, log-space internals."""
    lr = np.log(env.rho_slice(i, j))
    cum = np.cumsum(lr)
    with np.errstate(over="ignore"):
        pi = float(np.exp(cum[-1]))
        r = math.fsum(np.exp(cum).tolist())
    return pi, r


def r_tail(
    law: EnvLaw,
    seed: int,
    i: int,
    tol: float = DEFAULT_TOL,
    horizon: int = DEFAULT_HORIZON,
    run: int = QUIET_RUN,
) -> SeriesValue:
    """Cascade tail R_i = sum_{k>=i} Pi_{i,k}, extending the environment
    rightward from i with the site-keyed generator.

    Stops once ``run`` consecutive terms fall below tol * (running sum);
    the remainder bound extrapolates the last term geometrically at rate
    exp(E[log rho]/2) and is heuristic.
    """
    drift = mean_log_rho(law)
    if not drift < 0.0:
        raise ValueError(f"r_tail needs a right-transient law, E[log rho] = {drift}")
    total, last, used, ok = _scan_series(
        _log_pi_chunks(law, seed, i, None, 1, 1.0), tol, run, horizon
    )
    r_geom = math.exp(drift / 2.0)
    bound = last * r_geom / (1.0 - r_geom) if math.isfinite(last) else math.inf
    return SeriesValue(value=total, remainder_bound=bound, terms_used=used, converged=ok)


def hitting_prob(env: EnvWindow, x: int, a: int, b: int) -> tuple[float, float]:
    """(P^x(T_a < T_b), P^x(T_b < T_a)) on the realized window.

    Edge conventions follow the empty-product/empty-sum limits of the
    interior formula: p_left = 1 at x = a and p_right = 1 at x = b.  The
    two probabilities are computed from complementary log-sum-exp blocks of
    the same partition, so they sum to 1 up to rounding.
    """
    if not (env.lo <= a <= x <= b <= env.hi + 1):
        raise IndexError(f"need lo <= a <= x <= b <= hi+1, got a={a} x={x} b={b}")
    if a == b:
        raise ValueError("hitting_prob needs a < b")
    cum = np.cumsum(np.log(env.rho_slice(a, b - 1)))  # cum[k] = log Pi_{a, a+k}
    lse_all = logsumexp(cum)
    p_right = 0.0 if x == a else float(np.exp(logsumexp(cum[: x - a]) - lse_all))
    p_left = 0.0 if x == b else float(np.exp(logsumexp(cum[x - a :]) - lse_all))
    return p_left, p_right


def expected_hit(
    env_or_law: EnvSource,
    x: int,
    direction: str,
    tol: float = DEFAULT_TOL,
    horizon: int = DEFAULT_HORIZON,
    run: int = QUIET_RUN,
) -> SeriesValue:
    """Quenched expected one-step hitting time from x.

    direction="right" evaluates E^x[T_{x+1}] = 1 + 2 sum_{i<=x} Pi_{i,x}
    (finite only for right-transient laws); "left" evaluates the mirror
    E^x[T_{x-1}] = 1 + 2 sum_{i>=x} Pi_{x,i}^{-1} (left-transient laws).
    A law on the wrong side of the drift condition yields value +inf with
    converged False rather than an error.

    Given an EnvWindow the realized (window-truncated) series is evaluated
    with no drift precondition -- the window may be a transform of its base
    law, e.g. a conditioned environment -- and converged reports whether
    the stopping rule was met before the window edge.  Given a (law, seed)
    pair the environment extends as far as needed.
    """
    law, seed, window = _source(env_or_law)
    if direction not in ("right", "left"):
        raise ValueError("direction must be 'right' or 'left'")
    drift = mean_log_rho(law)
    if window is None:
        divergent = not drift < 0.0 if direction == "right" else not drift > 0.0
        if divergent:
            return SeriesValue(value=math.inf, remainder_bound=0.0, terms_used=0, converged=False)
    if direction == "right":
        it = _log_pi_chunks(law, seed, x, window, -1, 1.0)
    else:
        it = _log_pi_chunks(law, seed, x, window, 1, -1.0)
    total, last, used, ok = _scan_series(it, tol, run, horizon)
    r_geom = math.exp(-abs(drift) / 2.0)
    if math.isfinite(last) and r_geom < 1.0:
        bound = 2.0 * last * r_geom / (1.0 - r_geom)
    else:
        bound = math.inf
    return SeriesValue(value=1.0 + 2.0 * total, remainder_bound=bound, terms_used=used, converged=ok)


def _sweep_log_r(
    law: EnvLaw,
    seed: int,
    n: int,
    tol: float,
    horizon: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One shared rightward pass: omega on [0, n], cum[k] = log Pi_{1,k} for
    k in [0, n], and log R_x for x in [1, n+1].

    A single tail evaluation anchors R_{n+1}; every other R_x combines the
    realized partial sums with the anchored remainder, so the whole family
    is internally consistent:

        R_x = sum_{k=x..n} Pi_{x,k} + Pi_{x,n} R_{n+1}.
    """
    anchor = r_tail(law, seed, n + 1, tol=tol, horizon=horizon)
    if not anchor.converged:
        raise ConvergenceError(f"anchor tail sum at site {n + 1} did not converge")
    om = omega_at_sites(law, seed, np.arange(0, n + 1, dtype=np.int64))
    rho = (1.0 - om[1:]) / om[1:]
    cum = np.concatenate(([0.0], np.cumsum(np.log(rho))))  # cum[k] = log Pi_{1,k}
    suffix = np.logaddexp.accumulate(cum[1:][::-1])[::-1]  # suffix[j] = lse cum[j+1..n]
    log_anchor = math.log(anchor.value)
    log_r = np.empty(n + 1)
    log_r[:n] = np.logaddexp(suffix - cum[:n], cum[n] - cum[:n] + log_anchor)
    log_r[n] = log_anchor  # R_{n+1}
    return om, cum, log_r


def conditioned_env(
    law: EnvLaw,
    seed: int,
    hi: int,
    tol: float = DEFAULT_TOL,
    horizon: int = DEFAULT_HORIZON,
) -> EnvWindow:
    """Environment of the walk conditioned to return from 1 to 0, on [0, hi].

    omega~_x = omega_x R_{x+1}/(1 + R_{x+1}) for x >= 1 and omega~_0 =
    omega_0.  All R values come from one right-to-left sweep sharing a
    single far-right tail anchor, not hi independent tail sums.  The
    returned window keeps the base (law, seed) for provenance; it is a
    transform of the base environment, not itself resampleable.
    """
    if hi < 1:
        raise ValueError("conditioned_env needs hi >= 1")
    om, _, log_r = _sweep_log_r(law, seed, hi, tol, horizon)
    tilt = np.exp(log_r[1:] - np.logaddexp(0.0, log_r[1:]))  # R_{x+1}/(1+R_{x+1}), x=1..hi
    omega_tilde = om.copy()
    omega_tilde[1:] = om[1:] * tilt
    return EnvWindow(lo=0, hi=hi, omega=omega_tilde, law=law, seed=seed)


def _conditional_return(law, seed, tol, horizon=DEFAULT_HORIZON, run=QUIET_RUN):
    """(E^1[T_0 | T_0 < inf] series, omega_0, R_1), all from the final sweep."""
    drift = mean_log_rho(law)
    if not drift < 0.0:
        raise ValueError("conditioned_return_expectation needs a right-transient law")
    n = 256
    while True:
        om, cum, log_r = _sweep_log_r(law, seed, n, tol, horizon)
        log_w = log_r + np.logaddexp(0.0, log_r)  # log[(1+R_x) R_x], x = 1..n+1
        log_terms = cum[1:] + log_w[1:] - log_w[0]  # n = 1..n
        with np.errstate(over="ignore"):
            terms = np.exp(log_terms)
        total, last, used, ok = _scan_series(iter([terms]), tol, run, horizon)
        if ok or n >= horizon:
            break
        n *= 2
    value = 1.0 + 2.0 * total

    if ok:
        # Consistency check: same partial sum through the conditioned
        # environment's inverse products.
        m = used
        log_rho_tilde = np.logaddexp(0.0, log_r[:m]) - log_r[1 : m + 1]
        alt = math.fsum(np.exp(-np.cumsum(log_rho_tilde)).tolist())
        if not math.isclose(alt, total, rel_tol=1e-6, abs_tol=1e-300):
            raise ConvergenceError(
                f"h-transform consistency check failed: {alt} vs {total}"
            )

    r_geom = math.exp(drift / 2.0)
    bound = 2.0 * last * r_geom / (1.0 - r_geom) if math.isfinite(last) else math.inf
    series = SeriesValue(value=value, remainder_bound=bound, terms_used=used, converged=ok)
    return series, float(om[0]), float(np.exp(log_r[0]))


def conditioned_return_expectation(
    law: EnvLaw,
    seed: int,
    tol: float = DEFAULT_TOL,
    horizon: int = DEFAULT_HORIZON,
    run: int = QUIET_RUN,
) -> SeriesValue:
    """E^1[T_0 | T_0 < inf] evaluated by its exact series,

        1 + 2 sum_{n>=1} Pi_{1,n} (1+R_{n+1}) R_{n+1} / ((1+R_1) R_1),

    with all R values from one shared anchored sweep.  The equivalent
    conditioned-environment product path (rho~_x = (1+R_x)/R_{x+1}, whose
    partial products telescope to the same terms) is evaluated alongside as
    an internal consistency check of the floating-point algebra.
    """
    return _conditional_return(law, seed, tol, horizon, run)[0]


def return_decomposition(
    law: EnvLaw,
    seed: int,
    tol: float = DEFAULT_TOL,
    horizon: int = DEFAULT_HORIZON,
) -> ReturnDecomposition:
    """Assemble the first-step return decomposition from the exact pieces.

    Purely quenched arithmetic: the left branch is E^{-1}[T_0] (a rightward
    hitting-time series), the right branch combines R_1 with the
    conditional return expectation; one anchored sweep gives omega_0, R_1
    and that series, so p_right_return = R_1/(1+R_1) uses the R_1 that
    normalises it.  Raises ConvergenceError if any series fails to converge.
    """
    left = expected_hit((law, seed), -1, "right", tol=tol, horizon=horizon)
    cond, omega0, r1 = _conditional_return(law, seed, tol, horizon)
    for name, sv in (("left-hit", left), ("conditional-return", cond)):
        if not sv.converged:
            raise ConvergenceError(f"{name} series did not converge")
    p_right_return = r1 / (1.0 + r1)
    p_return = (1.0 - omega0) + omega0 * p_right_return
    e_return_indicator = (
        1.0 + (1.0 - omega0) * left.value + omega0 * p_right_return * cond.value
    )
    return ReturnDecomposition(
        p_return=p_return,
        e_return_indicator=e_return_indicator,
        e_left_hit=left.value,
        p_right_return=p_right_return,
        e_cond_right=cond.value,
        e_return_given_return=e_return_indicator / p_return,
    )


def speed_and_et1(law: EnvLaw) -> tuple[float, float]:
    """(limiting speed, averaged E[T_1]).

    speed = (1-E[rho])/(1+E[rho]) when E[rho] < 1, the mirror image when
    E[1/rho] < 1, and 0 otherwise; E[T_1] = (1+E[rho])/(1-E[rho]) when
    E[rho] < 1 and +inf otherwise, so speed * E[T_1] = 1 in the
    right-ballistic case.
    """
    drift = mean_log_rho(law)
    if not math.isfinite(drift):
        raise ValueError("speed_and_et1 needs finite E[log rho]")
    m_rho = moment_rho(law, 1.0)
    speed = _speed_from_moments(m_rho, moment_rho(law, -1.0))
    e_t1 = (1.0 + m_rho) / (1.0 - m_rho) if m_rho < 1.0 else math.inf
    return speed, e_t1


def absorption_oracle(env: EnvWindow, a: int, b: int, x: int) -> tuple[float, float]:
    """Absorption probability at a and expected absorption time from x.

    Solves the (b-a-1)-dimensional tridiagonal systems

        u_s = omega_s u_{s+1} + (1-omega_s) u_{s-1},   u_a = 1, u_b = 0
        v_s = 1 + omega_s v_{s+1} + (1-omega_s) v_{s-1},  v_a = v_b = 0

    by banded LU.  Exists purely as an independent check on the cascade
    formulas; it never feeds other operations.
    """
    if not (env.lo <= a <= x <= b <= env.hi):
        raise IndexError("need lo <= a <= x <= b <= hi")
    if x == a:
        return 1.0, 0.0
    if x == b:
        return 0.0, 0.0
    omega = env.omega[a + 1 - env.lo : b - env.lo]  # sites a+1 .. b-1
    m = b - a - 1
    ab = np.zeros((3, m))
    ab[1, :] = 1.0
    ab[0, 1:] = -omega[:-1]  # upper diagonal: row s couples to s+1
    ab[2, :-1] = -(1.0 - omega[1:])  # lower diagonal: row s couples to s-1
    rhs_u = np.zeros(m)
    rhs_u[0] = 1.0 - omega[0]
    u = solve_banded((1, 1), ab, rhs_u)
    v = solve_banded((1, 1), ab, np.ones(m))
    return float(u[x - a - 1]), float(v[x - a - 1])
