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
series are scanned by one routine, ``_scan_rows``, whose sums are exactly
rounded (``math.fsum``), and report an explicit heuristic geometric
remainder.  One anchored sweep per environment (``_sweep_rows``) supplies
omega_0, R_1, the conditional-return series and the walk windows' edge bounds.
Both run row-wise over a block of environment seeds (the keyed site
generator draws a block at once): the averaged estimators pass blocks of
environments, and scalar entry points are one-row calls of the same kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

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
from .rng import MASK64

DEFAULT_TOL = 1e-10
DEFAULT_HORIZON = 1_000_000
QUIET_RUN = 32  # consecutive sub-threshold terms required before stopping
_CHUNK = 512
_PEEK = 128  # leading terms of a chunk tried first; most series stop within them

EnvSource = Union[EnvWindow, tuple[EnvLaw, int]]


class ConvergenceError(RuntimeError):
    """A truncated series exhausted its budget before meeting tolerance."""


@dataclass(frozen=True)
class SeriesValue:
    """Truncated value of a non-negative series.

    When ``converged`` the true series lies in [value, value + remainder_bound]
    only heuristically: the bound extrapolates the last term geometrically
    (rate exp(E[log rho]/2)), and on weakly transient laws the quiet-run stop
    can end far short of it (see ``r_tail``).  ``converged`` is False only
    when the term or window budget ran out before the stopping rule was met.
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


def _scan_rows(chunk, rows: int, tol: float, horizon: int):
    """Quiet-run scan of ``rows`` positive series at once, one row each.

    ``chunk(live, used, width)`` gives the next chunk of the rows ``live``
    after ``used`` terms, as a 2-D block (its first ``width`` columns; all for
    None), or None once the supply is exhausted.  A row stops once ``QUIET_RUN``
    consecutive terms fall below tol * (its running sum), or at the horizon
    or supply's end; only running rows are extended, and the first chunk is
    tried on its leading ``_PEEK`` terms before it is read whole.  A row's sum
    is one ``math.fsum`` over its terms; its running sum merges chunks by fsum.
    Returns per-row arrays (sum, last_term, terms_used, converged).
    """
    last = np.full(rows, math.nan)
    used = np.zeros(rows, dtype=np.int64)
    ok = np.zeros(rows, dtype=bool)
    total = np.zeros(rows)
    carry = np.zeros(rows, dtype=np.int64)
    kept: list[list[np.ndarray]] = [[] for _ in range(rows)]
    live = np.arange(rows)
    done = 0

    def settle(terms):
        """End the rows stopping in ``terms``; return the others' terms and runs."""
        nonlocal live
        cs = total[live, None] + np.cumsum(terms, axis=1)
        pos = np.arange(terms.shape[1])
        last_noisy = np.maximum.accumulate(np.where(terms < tol * cs, -1, pos), axis=1)
        runlen = np.where(last_noisy < 0, pos + 1 + carry[live, None], pos - last_noisy)
        hit = runlen >= QUIET_RUN
        stopped = hit.any(axis=1)
        idx = np.flatnonzero(stopped)
        first = hit[idx].argmax(axis=1)
        ended = live[idx]
        last[ended], used[ended], ok[ended] = terms[idx, first], done + first + 1, True
        for i, r, s in zip(idx.tolist(), ended.tolist(), first.tolist()):
            kept[r].append(terms[i, : s + 1])
        live = live[~stopped]
        return terms[~stopped], runlen[~stopped, -1]

    while live.size and done < horizon:
        terms = chunk(live, done, _PEEK if done == 0 else None)
        if done == 0 and terms is not None and terms.shape[1] == _PEEK < horizon:
            settle(terms)
            terms = chunk(live, done, None) if live.size else None
        if terms is None:
            break
        terms, runlen = settle(terms[:, : horizon - done])
        for i, r in enumerate(live.tolist()):
            kept[r].append(terms[i])
            total[r] = math.fsum([total[r], *terms[i].tolist()])
        last[live], carry[live] = terms[:, -1], runlen
        done += terms.shape[1]
        used[live] = done
    sums = np.array([math.fsum(np.concatenate(p).tolist()) if p else 0.0 for p in kept])
    return sums, last, used, ok


def _seed_rows(seeds) -> np.ndarray:
    """Environment seeds as a uint64 array, one row of sites per seed."""
    return np.array([s & MASK64 for s in seeds], dtype=np.uint64)


def _log_pi_rows(law, seeds, start, window, step, sign):
    """``_scan_rows`` source of exp(sign * log Pi) over start, start+step, ...

    (step, sign) = (+1, +1) gives Pi_{start,k} for sum_{k>=start},
    (+1, -1) their inverses Pi_{start,k}^{-1}, and (-1, +1) the terms
    Pi_{i,start} of sum_{i<=start}.  Each seed's row carries its log product
    across ``_CHUNK``-site chunks.  A window (one row) ends the supply at its
    edge; otherwise the keyed site generator extends each row as it is read.
    """
    lp = np.zeros(len(seeds))

    def chunk(live, used, width):
        k = start + step * used
        stop = k + step * ((width or _CHUNK) - 1)
        if window is not None:
            if (k > window.hi) if step > 0 else (k < window.lo):
                return None
            stop = min(stop, window.hi) if step > 0 else max(stop, window.lo)
            rho = window.rho_slice(min(k, stop), max(k, stop))[None, ::step]
        else:
            sites = np.arange(k, stop + step, step, dtype=np.int64)
            om = omega_at_sites(law, seeds[live, None], sites)
            rho = (1.0 - om) / om
        lt = lp[live, None] + sign * np.cumsum(np.log(rho), axis=1)
        if width is None:
            lp[live] = lt[:, -1]
        with np.errstate(over="ignore"):
            return np.exp(lt)

    return chunk


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
) -> SeriesValue:
    """Cascade tail R_i = sum_{k>=i} Pi_{i,k}, extending the environment
    rightward from i with the site-keyed generator.

    Stops once ``QUIET_RUN`` consecutive terms fall below tol * (running sum);
    the remainder bound extrapolates the last term geometrically at rate
    exp(E[log rho]/2) and is heuristic.  On weakly transient laws a quiet run
    can precede a climb: for omega uniform on {3/4, 1/3}, seed 1, i = 301, tol
    1e-10 stops 5.2e-9 relative short, about 300 times ``remainder_bound``.
    """
    drift = mean_log_rho(law)
    if not drift < 0.0:
        raise ValueError(f"r_tail needs a right-transient law, E[log rho] = {drift}")
    chunks = _log_pi_rows(law, _seed_rows([seed]), i, None, 1, 1.0)
    total, last, used, ok = (a.item() for a in _scan_rows(chunks, 1, tol, horizon))
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
    step, sign = (-1, 1.0) if direction == "right" else (1, -1.0)
    chunks = _log_pi_rows(law, _seed_rows([seed]), x, window, step, sign)
    total, last, used, ok = (a.item() for a in _scan_rows(chunks, 1, tol, horizon))
    r_geom = math.exp(-abs(drift) / 2.0)
    if math.isfinite(last) and r_geom < 1.0:
        bound = 2.0 * last * r_geom / (1.0 - r_geom)
    else:
        bound = math.inf
    return SeriesValue(value=1.0 + 2.0 * total, remainder_bound=bound, terms_used=used, converged=ok)


def _sweep_rows(law: EnvLaw, seeds: np.ndarray, n: int, tol: float, horizon: int):
    """One shared rightward pass per environment seed, as row-wise 2-D arrays:
    omega on [0, n], cum[k] = log Pi_{1,k} for k in [0, n], log R_x for x in
    [1, n+1], and whether each row's anchor converged.

    A single tail evaluation per row anchors R_{n+1}; every other R_x combines
    the realized partial sums with the anchored remainder, so each row's
    family is internally consistent:

        R_x = sum_{k=x..n} Pi_{x,k} + Pi_{x,n} R_{n+1}.
    """
    chunks = _log_pi_rows(law, seeds, n + 1, None, 1, 1.0)
    anchor, _, _, anchored = _scan_rows(chunks, len(seeds), tol, horizon)
    om = omega_at_sites(law, seeds[:, None], np.arange(0, n + 1, dtype=np.int64))
    rho = (1.0 - om[:, 1:]) / om[:, 1:]
    cum = np.zeros((len(seeds), n + 1))
    cum[:, 1:] = np.cumsum(np.log(rho), axis=1)  # cum[:, k] = log Pi_{1,k}
    suffix = np.logaddexp.accumulate(cum[:, :0:-1], axis=1)[:, ::-1]  # lse cum[j+1..n]
    log_anchor = np.array([math.log(v) for v in anchor.tolist()])[:, None]
    log_r = np.empty((len(seeds), n + 1))
    log_r[:, :n] = np.logaddexp(suffix - cum[:, :n], cum[:, n:] - cum[:, :n] + log_anchor)
    log_r[:, n:] = log_anchor  # R_{n+1}
    return om, cum, log_r, anchored


def _sweep_log_r(law, seed, n, tol, horizon=DEFAULT_HORIZON):
    """``_sweep_rows`` for one environment, its anchor checked: (omega, cum, log_r)."""
    om, cum, log_r, ok = (a[0] for a in _sweep_rows(law, _seed_rows([seed]), n, tol, horizon))
    if not ok:
        raise ConvergenceError(f"anchor tail sum at site {n + 1} did not converge")
    return om, cum, log_r


def _log_escape_bounds(law, seed, n, tol=DEFAULT_TOL):
    """log P^M(T_0 < inf) = log[Pi_{1,M-1} R_M / (1 + R_1)] (rho_0 cancels) at
    entry M-1 for M = 1..n+1, from one sweep anchored at n+1.  Exact up to the
    anchor's truncation, which errs optimistic (a truncated tail underestimates
    R_M, and P^M increases in R_M) and, the quiet-run stop being heuristic, can
    exceed tol: 4.8e-9 relative at tol 1e-10 on a weakly transient fixture."""
    _, cum, log_r = _sweep_log_r(law, seed, n, tol)
    return cum + log_r - np.logaddexp(0.0, log_r[0])


def _log_h_escape_bounds(law, seed, n, tol=DEFAULT_TOL):
    """log P~^1(T_M < T_0) = log[Pi_{1,M-1} R_M / (R_1 (1 + R_{1,M-1}))] under
    ``conditioned_env``, laid out and caveated as ``_log_escape_bounds``: the anchor's
    truncation errs optimistic (R_{1,M-1} is exact and the bound increases in R_M)."""
    _, cum, log_r = _sweep_log_r(law, seed, n, tol)
    return cum + log_r - log_r[0] - np.logaddexp.accumulate(cum)


def _log_guard_bounds(law, seed, depth):
    """log P^{-1}(T_{-L} < T_0) = -log(1 + sum_{i=-L+1..-1} Pi_{i,-1}^{-1}) at
    entry L-1 for L = 1..depth, by one prefix log-sum-exp leftward from -1."""
    om = omega_at_sites(law, seed, np.arange(-1, -depth, -1, dtype=np.int64))
    inv = -np.cumsum(np.log((1.0 - om) / om))  # inv[k] = log Pi_{-k-1,-1}^{-1}
    return -np.logaddexp.accumulate(np.concatenate(([0.0], inv)))


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


def _conditional_rows(law, seeds, tol, horizon=DEFAULT_HORIZON):
    """Per seed, (E^1[T_0 | T_0 < inf] series, omega_0, R_1) from its final
    sweep, or the ConvergenceError of its consistency check.  Rows not
    converged in an n-site sweep (anchor converged, n < horizon) redo 2n."""
    drift = mean_log_rho(law)
    if not drift < 0.0:
        raise ValueError("conditioned_return_expectation needs a right-transient law")
    r_geom = math.exp(drift / 2.0)
    seeds = _seed_rows(seeds)
    out: list = [None] * len(seeds)
    todo = np.arange(len(seeds))
    n = 256
    while todo.size:
        om, cum, log_r, anchored = _sweep_rows(law, seeds[todo], n, tol, horizon)
        log_1r = np.logaddexp(0.0, log_r)  # log(1+R_x), x = 1..n+1
        log_w = log_r + log_1r  # log[(1+R_x) R_x]
        with np.errstate(over="ignore"):
            terms = np.exp(cum[:, 1:] + log_w[:, 1:] - log_w[:, :1])  # n = 1..n
        sums, last, used, ok = _scan_rows(
            lambda live, k, width: None if k else terms[live, :width], len(todo), tol, horizon
        )
        final = ok | ~anchored | (n >= horizon)
        ok &= anchored  # an unconverged anchor taints every R_x of the sweep
        # Consistency check: the same partial sums through the conditioned
        # environment's inverse products.
        with np.errstate(over="ignore"):
            alt = np.exp(-np.cumsum(log_1r[:, :n] - log_r[:, 1:], axis=1))
        r1 = np.exp(log_r[:, 0])
        for i in np.flatnonzero(final).tolist():
            total, tail, m = float(sums[i]), float(last[i]), int(used[i])
            if ok[i]:
                check = math.fsum(alt[i, :m].tolist())
                if not math.isclose(check, total, rel_tol=1e-6, abs_tol=1e-300):
                    out[todo[i]] = ConvergenceError(
                        f"h-transform consistency check failed: {check} vs {total}"
                    )
                    continue
            bound = 2.0 * tail * r_geom / (1.0 - r_geom) if math.isfinite(tail) else math.inf
            series = SeriesValue(
                value=1.0 + 2.0 * total, remainder_bound=bound, terms_used=m, converged=bool(ok[i])
            )
            out[todo[i]] = (series, float(om[i, 0]), float(r1[i]))
        todo = todo[~final]
        n *= 2
    return out


def _one_row(out):
    if isinstance(out, ConvergenceError):
        raise out
    return out


def _conditional_return(law, seed, tol, horizon=DEFAULT_HORIZON):
    """(E^1[T_0 | T_0 < inf] series, omega_0, R_1), all from the final sweep."""
    return _one_row(_conditional_rows(law, [seed], tol, horizon)[0])


def conditioned_return_expectation(
    law: EnvLaw,
    seed: int,
    tol: float = DEFAULT_TOL,
    horizon: int = DEFAULT_HORIZON,
) -> SeriesValue:
    """E^1[T_0 | T_0 < inf] evaluated by its exact series,

        1 + 2 sum_{n>=1} Pi_{1,n} (1+R_{n+1}) R_{n+1} / ((1+R_1) R_1),

    with all R values from one shared anchored sweep.  The equivalent
    conditioned-environment product path (rho~_x = (1+R_x)/R_{x+1}, whose
    partial products telescope to the same terms) is evaluated alongside as
    an internal consistency check of the floating-point algebra.
    """
    return _conditional_return(law, seed, tol, horizon)[0]


def _decompositions(law, seeds, tol, horizon=DEFAULT_HORIZON):
    """Per environment seed, its ReturnDecomposition or the ConvergenceError
    that stopped it; the left-hit series E^{-1}[T_0] of every seed is one
    leftward ``_scan_rows`` block."""
    conds = _conditional_rows(law, seeds, tol, horizon)
    chunks = _log_pi_rows(law, _seed_rows(seeds), -1, None, -1, 1.0)
    left, _, _, left_ok = _scan_rows(chunks, len(conds), tol, horizon)
    out = []
    for cond, left_sum, left_converged in zip(conds, left.tolist(), left_ok.tolist()):
        if isinstance(cond, ConvergenceError):
            out.append(cond)
            continue
        cond, omega0, r1 = cond
        if not (left_converged and cond.converged):
            name = "conditional-return" if left_converged else "left-hit"
            out.append(ConvergenceError(f"{name} series did not converge"))
            continue
        e_left_hit = 1.0 + 2.0 * left_sum
        p_right_return = r1 / (1.0 + r1)
        p_return = (1.0 - omega0) + omega0 * p_right_return
        e_return_indicator = (
            1.0 + (1.0 - omega0) * e_left_hit + omega0 * p_right_return * cond.value
        )
        out.append(ReturnDecomposition(
            p_return=p_return,
            e_return_indicator=e_return_indicator,
            e_left_hit=e_left_hit,
            p_right_return=p_right_return,
            e_cond_right=cond.value,
            e_return_given_return=e_return_indicator / p_return,
        ))
    return out


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
    return _one_row(_decompositions(law, [seed], tol, horizon)[0])


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
