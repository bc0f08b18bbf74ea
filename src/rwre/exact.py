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
products stay in log space.  Running sums of products (the R sums, and the
prefix sums behind the window edge bounds) go through one helper,
``_log_cumsum``: each row is shifted by its maximum and summed in linear
space, one exp and one log per element; only a row spanning more than
``_SHIFT_SPAN`` nats, whose smallest terms would underflow once shifted,
takes the exact logaddexp recursion.  Truncated
series are scanned by one routine, ``_scan_rows``, and report an explicit
heuristic geometric remainder.  Their sums are exactly rounded, the values
``math.fsum`` gives: a row that stops in its first chunk takes fl(hi + lo),
hi its in-order running sum and lo the sum of that running sum's TwoSum
errors, when a bound proves it correctly rounded
(``estimate._certified_sums``), and ``math.fsum`` of its terms otherwise.  One anchored sweep per environment (``_sweep_rows``) supplies
omega_0, R_1, the conditional-return series and the walk windows' edge bounds.
Its anchor R_{n+1} is no truncated series: it sums a law-sized block of sites
past n, realized with the sweep's own, and a row is kept only when a moment
bound certifies what the block leaves out (E[R^s] <= m(s)/(1 - m(s)) for
m(s) = E[rho^s] < 1, then Markov at chance ``ANCHOR_DELTA``) below tol/4 of
every R_x the caller reads.  Both run row-wise over a block of environment
seeds (the keyed site generator draws a block at once): the averaged
estimators pass blocks of environments, whose sweeps take their large arrays
from one ``_Workspace`` per estimator call, and scalar entry points are
one-row calls of the same kernels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .env import (
    EnvLaw,
    EnvWindow,
    _speed_from_moments,
    _var_log_rho,
    mean_log_rho,
    moment_rho,
    omega_at_sites,
)
from .estimate import _certified_sums, _two_sum_errors
from .rng import MASK64

DEFAULT_TOL = 1e-10
DEFAULT_HORIZON = 1_000_000
QUIET_RUN = 32  # consecutive sub-threshold terms required before stopping
ANCHOR_DELTA = 1e-6  # chance an anchor block's certified tail bound may fail
_ANCHOR_Z = 2.0  # standard deviations of log Pi an anchor block allows for
_ANCHOR_STEP = 32  # anchor blocks are multiples of this many sites
_CHUNK = 512
_PEEK = 128  # leading terms of a chunk tried first; most series stop within them
_SHIFT_SPAN = 700.0  # widest row (nats) ``_log_cumsum`` sums shifted; e^-700 is a normal double
_S_GRID = np.linspace(0.02, 1.0, 50)  # moment orders s that ``_log_x_star`` maximizes over

EnvSource = Union[EnvWindow, tuple[EnvLaw, int]]


class ConvergenceError(RuntimeError):
    """A truncated series exhausted its budget before meeting tolerance."""


@dataclass(frozen=True)
class SeriesValue:
    """Truncated value of a non-negative series.

    Every series reported this way still stops on the quiet run: ``r_tail``,
    ``expected_hit``, the left-hit series of ``return_decomposition`` and the
    conditional-return series.  When ``converged`` the true series lies in
    [value, value + remainder_bound] only heuristically: the bound
    extrapolates the last term geometrically (rate exp(E[log rho]/2)), and on
    weakly transient laws the quiet-run stop can end far short of it (see
    ``r_tail``).  Only the R_x the conditional-return series reads are
    certified, by the anchored sweep.  ``converged`` is False only when the
    term or window budget ran out before the stopping rule was met, or, for
    the conditional-return series, when its anchor could not be certified.
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


def _row_sums(terms, run, idx, end, scratch):
    """Exactly rounded sums of the rows ``terms[idx[j], :end[j] + 1]``,
    non-negative, from their in-order running sums ``run`` (``np.cumsum``
    along each row).  The TwoSum errors of ``run`` are built over the whole
    block, flattened (an error that straddles two rows is never read), in
    ``scratch``, an unused float array of ``terms``' size, and summed over
    each row's span by one ``np.add.reduceat``; each sum is then certified by
    ``estimate._certified_sums``, and a row it does not certify is summed by
    ``math.fsum``."""
    w = terms.shape[1]
    flat, x = run.reshape(-1), np.ascontiguousarray(terms).reshape(-1)
    err = scratch.reshape(-1)  # entry j: the error of adding flat term j + 1
    err[-1] = 0.0
    with np.errstate(invalid="ignore"):
        _two_sum_errors(flat[:-1], x[1:], flat[1:], out=err[:-1])
    spans = np.empty(2 * idx.size, dtype=np.intp)  # row j's errors: [idx[j] w, idx[j] w + end[j])
    spans[0::2] = idx * w
    spans[1::2] = spans[0::2] + end
    lo = np.add.reduceat(err, spans)[::2]  # an empty span reads one error, not 0
    lo[end == 0] = 0.0
    sums, exact = _certified_sums(run[idx, end], lo, end + 1)
    for j in np.flatnonzero(~exact).tolist():
        sums[j] = math.fsum(terms[idx[j], : end[j] + 1].tolist())
    return sums


def _quiet_stops(quiet, carry):
    """hit[:, k], row-wise: the run of consecutive quiet terms that ends at
    term k of this chunk (``carry`` of them carried in before it) reaches
    ``QUIET_RUN``.  Each row is prefixed by ``QUIET_RUN`` - 1 flags for the
    run carried in, and the windows are ANDed by doubling over the flattened
    block (a window that starts inside a row's chunk never leaves its row).
    Also returns each row's flags, prefix included."""
    r, w = quiet.shape
    p = QUIET_RUN - 1
    ext = np.zeros(r * (p + w) + p, dtype=bool)
    grid = ext[: r * (p + w)].reshape(r, p + w)
    grid[:, p:] = quiet
    grid[:, :p] = np.arange(p, 0, -1) <= carry[:, None]
    span = 1
    while span < QUIET_RUN:
        step = min(span, QUIET_RUN - span)
        ext = ext[:-step] & ext[step:]
        span += step
    return ext.reshape(r, p + w)[:, :w], grid


def _scan_rows(chunk, rows: int, tol: float, horizon: int):
    """Quiet-run scan of ``rows`` non-negative series at once, one row each.

    ``chunk(live, used, width)`` gives the next chunk of the rows ``live``
    after ``used`` terms, as a 2-D block (its first ``width`` columns; all for
    None), or None once the supply is exhausted.  A row stops once ``QUIET_RUN``
    consecutive terms fall below tol * (its running sum), or at the horizon
    or supply's end; only running rows are extended, and the first chunk is
    tried on its leading ``_PEEK`` terms before it is read whole.

    Each chunk is settled in one vectorized pass.  One row-wise ``np.cumsum``
    s of its terms gives the stop rule's running sums (plus, past the first
    chunk, the row's exact total so far), and runs of quiet terms are found
    by ``_quiet_stops``.  A row that stops in its first chunk takes its sum
    from the same s, with no Python work per row (``_row_sums``): hi = s at
    its last term, lo = the sum of the TwoSum errors of s up to it, and
    r = fl(hi + lo) is accepted when ``estimate._certified_sums`` proves it
    the correctly rounded sum, the value ``math.fsum`` gives; a row it does
    not prove (a near-tie, or a sum that is not finite) is summed by
    ``math.fsum``.  Only a row that runs past its first chunk keeps its terms
    in a list, merges its running sum by fsum and is summed by one
    ``math.fsum`` at the end.  Returns per-row arrays (sum, last_term,
    terms_used, converged).
    """
    last = np.full(rows, math.nan)
    used = np.zeros(rows, dtype=np.int64)
    ok = np.zeros(rows, dtype=bool)
    sums = np.zeros(rows)
    total = np.zeros(rows)
    carry = np.zeros(rows, dtype=np.int64)
    kept: dict[int, list[np.ndarray]] = {}  # the terms of the rows past their first chunk
    live = np.arange(rows)
    done = 0

    def settle(terms):
        """End the rows stopping in ``terms``; return the others' terms and runs."""
        nonlocal live
        run = np.cumsum(terms, axis=1)  # in order: s_k = fl(s_{k-1} + x_k)
        bar = run * tol if not done else (run + total[live, None]) * tol
        hit, flags = _quiet_stops(terms < bar, carry[live])
        stopped = hit.any(axis=1)
        idx = np.flatnonzero(stopped)
        first = hit[idx].argmax(axis=1)
        ended = live[idx]
        last[ended], used[ended], ok[ended] = terms[idx, first], done + first + 1, True
        if done:
            for i, r, s in zip(idx.tolist(), ended.tolist(), first.tolist()):
                kept[r].append(terms[i, : s + 1])
        elif idx.size:
            sums[ended] = _row_sums(terms, run, idx, first, bar)
        del bar
        live = live[~stopped]
        runlen = (~flags[~stopped, ::-1]).argmax(axis=1)  # the quiet run carried on
        return terms[~stopped], runlen

    while live.size and done < horizon:
        terms = chunk(live, done, _PEEK if done == 0 else None)
        if done == 0 and terms is not None and terms.shape[1] == _PEEK < horizon:
            settle(terms)
            terms = chunk(live, done, None) if live.size else None
        if terms is None:
            break
        terms, runlen = settle(terms[:, : horizon - done])
        for i, r in enumerate(live.tolist()):
            kept.setdefault(r, []).append(terms[i])
            total[r] = math.fsum([total[r], *terms[i].tolist()])
        last[live], carry[live] = terms[:, -1], runlen
        done += terms.shape[1]
        used[live] = done
    for r, p in kept.items():
        sums[r] = total[r] if len(p) == 1 else math.fsum(np.concatenate(p).tolist())
    return sums, last, used, ok


def _seed_rows(seeds) -> np.ndarray:
    """Environment seeds as a uint64 array, one row of sites per seed; an
    array (``rng._substream_seeds``) is taken as it is, wrapped to uint64."""
    if isinstance(seeds, np.ndarray):
        return seeds.astype(np.uint64, copy=False)
    return np.array([s & MASK64 for s in seeds], dtype=np.uint64)


class _Workspace:
    """Buffers that every block of one averaged-estimator call reuses.

    A block's large arrays are taken from named slots instead of being
    allocated afresh, so the heap they occupy is made once per call (not
    once per block, where the allocator may hand it back to the system and
    fault it in again for the next block).  ``take`` returns an
    uninitialised C-contiguous array on a slot's bytes, growing the slot
    when the block needs more; an array taken from a slot is valid until
    the slot is taken again, and different slots never overlap.  A
    workspace lives for one call of ``mc._env_pairs`` and is never shared
    between calls, so its size follows that call's blocks alone.
    """

    def __init__(self):
        self._slots: dict[str, np.ndarray] = {}

    def take(self, slot: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self._slots.get(slot)
        if buf is None or buf.size < nbytes:
            buf = self._slots[slot] = np.empty(nbytes, dtype=np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)


def _buffer(work: Optional[_Workspace], slot: str, shape: tuple, dtype=np.float64):
    """``work.take(slot, shape, dtype)``, or a new array when ``work`` is None."""
    return np.empty(shape, dtype=dtype) if work is None else work.take(slot, shape, dtype)


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
    two probabilities are complementary blocks of one max-shifted sum of the
    products, so they sum to 1 up to rounding.
    """
    if not (env.lo <= a <= x <= b <= env.hi + 1):
        raise IndexError(f"need lo <= a <= x <= b <= hi+1, got a={a} x={x} b={b}")
    if a == b:
        raise ValueError("hitting_prob needs a < b")
    cum = np.cumsum(np.log(env.rho_slice(a, b - 1)))  # cum[k] = log Pi_{a, a+k}
    terms = np.exp(cum - cum.max())  # the largest is 1: no overflow, and the sum is >= 1
    total = terms.sum()
    p_right = 0.0 if x == a else float(terms[: x - a].sum() / total)
    p_left = 0.0 if x == b else float(terms[x - a :].sum() / total)
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


def _log_cumsum(v: np.ndarray, out=None) -> np.ndarray:
    """log of the running sums of exp(v) along the last axis, row by row.

    Each row is shifted by its maximum, summed in linear space and taken
    back by one log per element.  A row spanning more than ``_SHIFT_SPAN``
    nats (or holding a non-finite value) would lose its smallest terms to
    underflow once shifted; such rows take the exact logaddexp recursion.
    ``out``, of v's shape, receives the sums and may be v itself.
    """
    top = v.max(axis=-1, keepdims=True)
    wide = ~(top - v.min(axis=-1, keepdims=True) <= _SHIFT_SPAN)[..., 0]
    exact = np.logaddexp.accumulate(v[wide], axis=-1) if wide.any() else None
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.subtract(v, top, out=out)
        np.exp(out, out=out)
        np.cumsum(out, axis=-1, out=out)
        np.log(out, out=out)
        out += top
    if exact is not None:
        out[wide] = exact
    return out


@functools.lru_cache(maxsize=64)
def _log_x_star(law: EnvLaw) -> float:
    """log x* = max over s in ``_S_GRID`` with m(s) = E[rho^s] < 1 of
    log(ANCHOR_DELTA (1 - m(s)) / m(s)) / s, or -inf when no such s exists.

    For 0 < s <= 1, (a + b)^s <= a^s + b^s gives E[R^s] <= m(s)/(1 - m(s)) for
    a tail R = sum_{k>=i} Pi_{i,k}, so by Markov P(R > 1/x*) <= ANCHOR_DELTA.
    Any s on the grid gives a valid bound; the grid's best is within a few
    percent (in log) of the best s.  m(s) < 1 holds exactly on (0, kappa),
    where P(R > x) ~ C x^-kappa (Kesten, Kozlov and Spitzer 1975)."""
    best = -math.inf
    for s in _S_GRID.tolist():
        m = moment_rho(law, s)
        if m < 1.0:
            best = max(best, (math.log(ANCHOR_DELTA) + math.log1p(-m) - math.log(m)) / s)
    return best


def _anchor_sites(law: EnvLaw, n: int, reach: float, tol: float) -> int:
    """Sites B of the anchor block past a sweep of n sites whose rows certify
    R_x up to x = reach.  The certificate needs log Pi to fall
    g = log(4/tol) - log x* nats past reach.  Over L sites log Pi falls by
    |d| L on average, d = E[log rho], with standard deviation sigma sqrt(L),
    sigma^2 = Var[log rho]; the block covers the least L with
    |d| L - ``_ANCHOR_Z`` sigma sqrt(L) >= g, so most rows pass at the first
    sweep.  B is 0 when reach + L fits in n, otherwise the rest rounded up to
    a multiple of ``_ANCHOR_STEP``."""
    drop, spread = -mean_log_rho(law), _ANCHOR_Z * math.sqrt(_var_log_rho(law))
    gap = math.log(4.0 / tol) - _log_x_star(law)
    root = 0.0  # sqrt(L): the larger root of |d| t^2 - spread t = gap
    if gap > 0.0:
        root = (spread + math.sqrt(spread * spread + 4.0 * drop * gap)) / (2.0 * drop)
    need = reach + root * root - n
    return 0 if need <= 0.0 else _ANCHOR_STEP * math.ceil(need / _ANCHOR_STEP)


def _sweep_rows(
    law: EnvLaw, seeds: np.ndarray, n: int, tol: float, horizon: int, scan=None, work=None
):
    """One shared rightward pass per environment seed, as row-wise 2-D arrays:
    omega on [0, n], cum[k] = log Pi_{1,k} for k in [0, n], log R_x for x in
    [1, n+1]; then whether each row's anchor is certified, and, given
    ``scan``, what it returned after its reach.

    Sites n+1..n+B, realized in the same ``omega_at_sites`` call as sites
    0..n, form the anchor block: R_{n+1} is their max-shifted sum of
    Pi_{n+1,k}.  Every other R_x combines the realized partial sums with it,
    so each row's family is internally consistent:

        R_x = sum_{k=x..n} Pi_{x,k} + Pi_{x,n} R_{n+1} = T_x / Pi_{1,x-1},

    where T_x = sum_{k=x..n} Pi_{1,k} + Pi_{1,n} R_{n+1}.  Every T_x of a row
    is one suffix of a single ``_log_cumsum`` over the n+1 columns
    log Pi_{1,n} + log R_{n+1}, log Pi_{1,n}, ..., log Pi_{1,1}.

    What the block leaves out of every T_x is the same Pi_{1,n+B} R', where
    the tail R' = R_{n+B+1} is independent of every site read and exceeds
    1/x* with chance at most ANCHOR_DELTA (``_log_x_star``).  A row is
    certified at reach x when Pi_{1,n+B}/x* <= (tol/4) T_x, that is

        log Pi_{1,n+B} - log T_x <= log x* + log(tol/4);

    T decreases in x, so then every R_1..R_x is within tol/4 relative of its
    true value.  Without ``scan`` (the window callers) the reach is n+1 and
    R_{n+1} takes the upper end of its certified interval, block sum plus
    Pi_{n+1,n+B}/x*, which keeps every escape bound conservative.  With it,
    ``scan(om, cum, log_r, log_rho, work)``, log_rho the sweep's log
    rho_1..n, returns each row's reach (0: nothing to certify) followed by
    per-row arrays, and R_{n+1} is the block sum.

    B comes from the law (``_anchor_sites``), with a margin for the spread
    of log rho that lets most rows pass at once.  Rows not certified are swept
    again with a longer block, up to ``horizon`` sites; a row whose R_x up to
    its reach come out bit for bit as before keeps its scan, the others are
    scanned again.  A row still uncertified at ``horizon`` sites is not
    anchored, nor is any row when tol <= 0 or no s on the grid has
    E[rho^s] < 1.

    Given ``work`` (an averaged estimator's ``_Workspace``), the first pass
    takes every block-sized array from its slots: "omega" holds the site
    draw's uniforms and omega, then (when B > 0) log rho_1..n for the scan;
    "state" the draw's hash state, then the anchor block's log Pi, then the
    ``_log_cumsum`` columns, summed in place; "log_rho" log rho_1..n+B,
    which the scan reads when B = 0; "om", "cum" and "log_r" the arrays
    returned.  ``scan`` gets ``work`` too, and may take "state" and slots of
    its own.  So the returned om, cum and log_r are views into ``work``,
    valid until its next sweep.  The passes for rows not certified, rare,
    allocate their own arrays and give ``scan`` None.  Without ``work``
    every array is allocated, as for the window callers: nothing they return
    is a view into a workspace.
    """
    log_x, drift = _log_x_star(law), mean_log_rho(law)
    log_tol = math.log(tol / 4.0) if tol > 0.0 else -math.inf
    certifiable = log_tol > -math.inf and log_x > -math.inf
    block = 0
    if certifiable:
        reach = n + 1 if scan is None else max(n / 2, math.log(1.0 / tol) / -drift + QUIET_RUN)
        block = min(horizon, _anchor_sites(law, n, reach, tol))

    def sweep(rows, block, work):
        """[om, cum, log_r, log Pi_{1,n+B}/x*] of ``seeds[rows]`` with a block
        of ``block`` sites, the last bounding what the block leaves of each
        T_x, and log rho_1..n for ``scan``."""
        r, width = len(rows), n + block + 1
        sites = np.arange(width, dtype=np.int64)
        if work is None:
            om_all = omega_at_sites(law, seeds[rows, None], sites)
        else:
            om_all = omega_at_sites(
                law, seeds[rows, None], sites,
                out=work.take("omega", (r, width)), state=work.take("state", (r, width), np.uint64),
            )
        lr = np.subtract(1.0, om_all[:, 1:], out=_buffer(work, "log_rho", (r, width - 1)))
        lr /= om_all[:, 1:]
        np.log(lr, out=lr)  # log rho_k, k = 1..n+B
        om = _buffer(work, "om", (r, n + 1))
        om[...] = om_all[:, : n + 1]  # the block's sites need not outlive this pass
        del om_all
        cum = _buffer(work, "cum", (r, n + 1))
        cum[:, 0] = 0.0
        np.cumsum(lr[:, :n], axis=1, out=cum[:, 1:])  # cum[:, k] = log Pi_{1,k}
        log_anchor, log_gap = np.full(r, -math.inf), np.full(r, -log_x)
        if block:
            # log Pi_{n+1,k}, k = n+1..n+B
            tail = np.cumsum(lr[:, n:], axis=1, out=_buffer(work, "state", (r, block)))
            log_gap += tail[:, -1]  # log Pi_{n+1,n+B}/x*: R_{n+1} is short of at most this
            top = tail.max(axis=1)
            tail -= top[:, None]
            log_anchor = np.log(np.exp(tail, out=tail).sum(axis=1)) + top
            del tail
            head = _buffer(work, "omega", (r, n))
            head[...] = lr[:, :n]  # the scan reads log rho_1..n alone
            lr = head
        if scan is None and certifiable:
            log_anchor = np.logaddexp(log_anchor, log_gap)
        cols = _buffer(work, "state", (r, n + 1))  # their sums replace them
        cols[:, 1:] = cum[:, :0:-1]
        if block or scan is None:
            cols[:, 0] = cum[:, n] + log_anchor
            _log_cumsum(cols, out=cols)
        else:  # R_{n+1} = 0, a column that would send every row to the recursion
            cols[:, 0] = -math.inf
            _log_cumsum(cols[:, 1:], out=cols[:, 1:])
        # log T_x - log Pi_{1,x-1}
        log_r = np.subtract(cols[:, ::-1], cum, out=_buffer(work, "log_r", (r, n + 1)))
        log_r[:, n] = log_anchor  # R_{n+1}
        return [om, cum, log_r, cum[:, n] + log_gap], lr

    def shortfall(rows):
        """Nats by which each row's bound exceeds tol/4 of its T_reach."""
        if not certifiable:
            return np.full(len(rows), math.inf)
        reach = rides[0][rows]
        x = np.maximum(reach, 1) - 1
        log_t = out[1][rows, x] + out[2][rows, x]
        return np.where(reach > 0, out[3][rows] - log_t - log_tol, -math.inf)

    everyone = np.arange(len(seeds))
    out, log_rho = sweep(everyone, block, work)
    rides = [np.full(len(seeds), n + 1)] if scan is None else list(scan(*out[:3], log_rho, work))
    del log_rho
    short = shortfall(everyone)
    redo = np.flatnonzero(short > 0.0)
    while redo.size and certifiable and block < horizon:
        # Grow by twice the sites the worst row lacks at the mean drift.
        lack = min(short[redo].max(), math.log(4.0 / tol) - log_x) / -drift
        block = min(horizon, 1 << math.ceil(math.log2(block + max(QUIET_RUN, 2.0 * lack))))
        part, log_rho = sweep(redo, block, None)
        read = np.arange(n + 1) < rides[0][redo, None]  # the columns x <= reach
        moved = ((part[2] != out[2][redo]) & read).any(axis=1)
        out[3][redo] = part[3]
        for whole, new in zip(out[:3], part[:3]):
            whole[redo[moved]] = new[moved]
        if scan is not None and moved.any():
            for whole, new in zip(rides, scan(*(a[moved] for a in part[:3]), log_rho[moved], None)):
                whole[redo[moved]] = new
        short[redo] = shortfall(redo)
        redo = redo[short[redo] > 0.0]
    return (*out[:3], short <= 0.0, *rides[1:])


def _sweep_log_r(law, seed, n, tol, horizon=DEFAULT_HORIZON):
    """``_sweep_rows`` for one window, its anchor checked: (omega, cum, log_r)."""
    om, cum, log_r, ok = _sweep_rows(law, _seed_rows([seed]), n, tol, horizon)
    if not ok[0]:
        raise ConvergenceError(f"anchor tail sum at site {n + 1} could not be certified")
    return om[0], cum[0], log_r[0]


def _log_escape_bounds(law, seed, n, tol=DEFAULT_TOL):
    """log P^M(T_0 < inf) = log[Pi_{1,M-1} R_M / (1 + R_1)] (rho_0 cancels) at
    entry M-1 for M = 1..n+1, from one sweep anchored at n+1.  P^M increases
    in the anchor R_{n+1} (the derivative of R_M/(1 + R_1) in it is
    Pi_{M,n} (1 + R_{1,M-1}) > 0), so the sweep's upper anchor makes every
    entry an upper bound, at most tol/4 relative above the exact value, with
    chance at least 1 - ANCHOR_DELTA over the sites past the block."""
    _, cum, log_r = _sweep_log_r(law, seed, n, tol)
    return cum + log_r - np.logaddexp(0.0, log_r[0])


def _log_h_escape_bounds(law, seed, n, tol=DEFAULT_TOL):
    """log P~^1(T_M < T_0) = log[Pi_{1,M-1} R_M / (R_1 (1 + R_{1,M-1}))] under
    ``conditioned_env``, laid out and certified as ``_log_escape_bounds``:
    R_{1,M-1} is exact and the bound increases in R_M, so the upper anchor
    keeps it an upper bound."""
    _, cum, log_r = _sweep_log_r(law, seed, n, tol)
    return cum + log_r - log_r[0] - _log_cumsum(cum)


def _log_guard_bounds(law, seed, depth):
    """log P^{-1}(T_{-L} < T_0) = -log(1 + sum_{i=-L+1..-1} Pi_{i,-1}^{-1}) at
    entry L-1 for L = 1..depth, by one prefix ``_log_cumsum`` leftward from -1."""
    om = omega_at_sites(law, seed, np.arange(-1, -depth, -1, dtype=np.int64))
    inv = -np.cumsum(np.log((1.0 - om) / om))  # inv[k] = log Pi_{-k-1,-1}^{-1}
    return -_log_cumsum(np.concatenate(([0.0], inv)))


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
    single certified anchor at hi + 1 (``_sweep_rows``; the upper end of its
    interval, as for the edge bound ``_log_h_escape_bounds`` that sizes hi),
    not hi independent tail sums.  The returned window keeps the base (law,
    seed) for provenance; it is a transform of the base environment, not
    itself resampleable.
    """
    if hi < 1:
        raise ValueError("conditioned_env needs hi >= 1")
    om, _, log_r = _sweep_log_r(law, seed, hi, tol, horizon)
    tilt = np.exp(log_r[1:] - np.logaddexp(0.0, log_r[1:]))  # R_{x+1}/(1+R_{x+1}), x=1..hi
    omega_tilde = om.copy()
    omega_tilde[1:] = om[1:] * tilt
    return EnvWindow(lo=0, hi=hi, omega=omega_tilde, law=law, seed=seed)


def _check_sums(log_r, log_1r, used, rows=None, work=None):
    """Each of the rows ``rows`` (every row when None) again through its first
    ``used`` conditional-series terms, by the conditioned environment's
    inverse products, summed in order by one row-wise cumsum (n positive
    terms: within about n 2^-53 relative).  The terms are built and summed
    in place, in ``work``'s "state" slot, with its "omega" slot for log R."""
    w = int(used.max())
    rows = np.arange(len(log_r)) if rows is None else rows
    shape = (rows.size, w)
    alt = np.take(log_1r[:, :w], rows, axis=0, out=_buffer(work, "state", shape), mode="clip")
    alt -= np.take(
        log_r[:, 1 : w + 1], rows, axis=0, out=_buffer(work, "omega", shape), mode="clip"
    )
    np.cumsum(alt, axis=1, out=alt)
    np.negative(alt, out=alt)
    with np.errstate(over="ignore"):
        np.exp(alt, out=alt)
    return np.cumsum(alt, axis=1, out=alt)[np.arange(used.size), used - 1]


def _log_one_plus_r(log_rho, log_r, out=None):
    """log(1+R_x) for x = 1..n+1 from a sweep's log rho_1..n and log R_x,
    row-wise, into ``out`` when given.  R_{x-1} = rho_{x-1} (1+R_x) gives
    every column but the first from the sweep's own sums; only log(1+R_1)
    takes a logaddexp."""
    log_1r = np.empty_like(log_r) if out is None else out
    log_1r[:, 0] = np.logaddexp(0.0, log_r[:, 0])
    np.subtract(log_r[:, :-1], log_rho, out=log_1r[:, 1:])
    return log_1r


def _first_sweep_sites(drift: float, tol: float) -> int:
    """Sites n0 of ``_conditional_rows``' first sweep for a law of mean log
    drift ``drift`` < 0: the least power of two, within [32, 256], at least
    (ln(1/tol) + 40)/|drift| + QUIET_RUN, or 256 when tol <= 0 or that reach
    is not finite.  At the mean drift a series meets tol * (its sum) within
    ln(1/tol)/|drift| terms and stops QUIET_RUN later.  The 40/|drift| sites
    past that are a cost choice only, since the anchor block certifies every
    row whatever its n: on ballistic laws they leave room for the
    certificate's own decay, so those sweeps need no anchor sites at all."""
    if not tol > 0.0:
        return 256
    reach = (math.log(1.0 / tol) + 40.0) / abs(drift) + QUIET_RUN
    if not math.isfinite(reach):
        return 256
    return min(256, max(32, 1 << math.ceil(math.log2(reach))))


def _conditional_rows(law, seeds, tol, horizon=DEFAULT_HORIZON, work=None):
    """Per seed, (E^1[T_0 | T_0 < inf] series, omega_0, R_1) from its final
    sweep, or the ConvergenceError of its consistency check: ``_check_sums``
    of a converged row must agree with its series sum to 1e-6 relative.

    The first sweep has ``_first_sweep_sites`` sites: 128 at tol 1e-8 and
    1e-10 for Beta(5,2), constant 0.7 and omega uniform on {0.8, 0.6}; 256 for
    laws of smaller drift such as the weakly transient ones.  Rows not
    converged in an n-site sweep (anchor certified, n < horizon) redo 2n.  A
    converged row of u terms is certified at reach u + 1: every R_x it reads
    is within tol/4 relative of its value (with chance at least 1 -
    ANCHOR_DELTA), so each term's ratio of R's within tol/2.  The series
    itself still stops on the quiet run.  Every sweep, the 2n ones too, runs
    on ``work`` when given (``_sweep_rows``): the scan builds log(1+R_x) in
    its "log_1r" slot and the series terms in "state", and ``_check_sums``
    works in "state" and "omega".  The rows returned hold Python numbers
    only, so none refers to ``work``."""
    drift = mean_log_rho(law)
    if not drift < 0.0:
        raise ValueError("conditioned_return_expectation needs a right-transient law")
    r_geom = math.exp(drift / 2.0)
    seeds = _seed_rows(seeds)
    out: list = [None] * len(seeds)
    todo = np.arange(len(seeds))
    n = _first_sweep_sites(drift, tol)

    def scan(om, cum, log_r, log_rho, work):
        """The series of each row and its reach: R_{u+1} for a converged
        series of u terms, none for one that runs on."""
        log_1r = _log_one_plus_r(log_rho, log_r, out=_buffer(work, "log_1r", log_r.shape))
        # terms n = 1..n, built in place from log[(1+R_x) R_x]
        terms = np.add(log_r[:, 1:], log_1r[:, 1:], out=_buffer(work, "state", cum[:, 1:].shape))
        terms += cum[:, 1:]
        terms -= log_r[:, :1] + log_1r[:, :1]
        with np.errstate(over="ignore"):
            np.exp(terms, out=terms)

        def chunk(live, k, width):
            """The built block, once; a view when every row reads it."""
            if k:
                return None
            return terms[:, :width] if live.size == len(terms) else terms[live, :width]

        sums, last, used, ok = _scan_rows(chunk, len(om), tol, horizon)
        return np.where(ok, used + 1, 0), log_1r, sums, last, used, ok

    while todo.size:
        om, _, log_r, anchored, log_1r, sums, last, used, ok = _sweep_rows(
            law, seeds[todo], n, tol, horizon, scan, work
        )
        final = ok | ~anchored | (n >= horizon)
        ok &= anchored  # an unconverged anchor taints every R_x of the sweep
        chk = np.flatnonzero(final & ok)
        check = np.full(len(todo), math.nan)
        if chk.size:
            check[chk] = _check_sums(log_r, log_1r, used[chk], chk, work)
        cols = (todo, sums, last, used, ok, check, om[:, 0], np.exp(log_r[:, 0]))
        for j, total, tail, m, conv, chk_sum, om0, r1 in zip(*(c[final].tolist() for c in cols)):
            if conv and not math.isclose(chk_sum, total, rel_tol=1e-6, abs_tol=1e-300):
                out[j] = ConvergenceError(
                    f"h-transform consistency check failed: {chk_sum} vs {total}"
                )
                continue
            bound = 2.0 * tail * r_geom / (1.0 - r_geom) if math.isfinite(tail) else math.inf
            series = SeriesValue(
                value=1.0 + 2.0 * total, remainder_bound=bound, terms_used=m, converged=conv
            )
            out[j] = (series, om0, r1)
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


def _decompositions(law, seeds, tol, horizon=DEFAULT_HORIZON, work=None):
    """Per environment seed, its ReturnDecomposition or the ConvergenceError
    that stopped it; the left-hit series E^{-1}[T_0] of every seed is one
    leftward ``_scan_rows`` block.  ``work`` goes to ``_conditional_rows``."""
    conds = _conditional_rows(law, seeds, tol, horizon, work)
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
    formulas; it never feeds other operations, so scipy.linalg, from the
    ``test`` extra, loads only here.
    """
    from scipy.linalg import solve_banded
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
