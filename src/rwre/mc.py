"""Monte Carlo simulation of the walk itself.

Walk-level sampling is only used where it is unbiased and cheap: raw
stepping, first returns with a certified escape level, and conditioned
paths.  Conditional return times are sampled through the conditioned
(h-transformed) environment, under which the walk returns almost surely,
so no censoring bias ever enters a time estimate.  Averaged-measure
estimation replaces walk averages by the exact quenched values per sampled
environment (Rao-Blackwellization): in the weakly transient regime the
walk-level variance is infinite and environment-level statistics are the
meaningful ones.

Every walk steps in one lockstep kernel, ``_walk``: paths live on a flat
site array and step k draws one uniform per live path, in path order.
Worker shards are stream shards: each worker's generator drives its own
consecutive block of paths, and all blocks are walked in one lockstep, each
shard drawing for its own live paths in order, so the result equals
separate per-worker walks.  ``simulate_until`` and ``sample_first_return``
are its n = 1 wrappers (a scalar draw and a length-1 draw give the same
uniform), and ``_first_return_batch``, ``conditioned_sampler`` and
``speed_estimate`` call it with many paths.  ``speed_estimate`` stores
finite-support windows as level codes (indices into the sorted distinct
omegas, one byte a site for up to 256 of them) and walks every worker's
replicates in one batch when they fit its byte budget.

Escape certification: a right-transient walk at the right window edge M
returns to the origin with exactly P^M(T_0 < inf) = Pi_{1,M-1} R_M / (1 + R_1),
and the walk conditioned to return reaches M before 0 from 1 with exactly
P~^1(T_M < T_0) = Pi_{1,M-1} R_M / (R_1 (1 + R_{1,M-1})); one anchored sweep
gives either for every M, one leftward prefix sum the guard's P^{-1}(T_{-L} <
T_0) for every depth L.  Windows take the least M >= 32 (n times the bound for
n conditioned paths) and depth 32 * 2^k below epsilon; an escape carries its bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .env import (
    EnvLaw, EnvWindow, _categories, mean_log_rho, moment_rho, omega_at_sites, sample_window
)
from .estimate import Estimate, PairTally, Tally, merge_mean, merge_ratio, ratio_of_means
from .exact import (
    ConvergenceError,
    _conditional_rows,
    _decompositions,
    _log_escape_bounds,
    _log_guard_bounds,
    _log_h_escape_bounds,
    _source,
    conditioned_env,
    return_decomposition,
)
from .rng import shard_sizes, substream_seed, worker_streams

RETURNED = "returned"
ESCAPED = "escaped"
CENSORED = "censored"

DEFAULT_ESCAPE_EPS = 1e-9
_FAIL_FRACTION = 1e-3  # tolerated fraction of non-convergent environments
_HILL_TOP = 10  # fewest order statistics in the Hill tail-index estimate
_SITE_BUDGET = 1 << 26  # bytes of realized sites per speed_estimate batch
_ENV_BUDGET = 1 << 20  # bytes of per-environment series work per block of environments
_ENV_ROW_BYTES = 25 << 10  # measured peak bytes of one environment's row in that work
_DRAW_BLOCK = 1 << 16  # uniforms per block drawn ahead by a walk without stop sites


@dataclass(frozen=True)
class ReturnOutcome:
    """Outcome of one first-return attempt from the origin."""

    status: str
    first_step: int
    steps: Optional[int] = None  # set when returned
    certified_bound: Optional[float] = None  # set when escaped
    cap: Optional[int] = None  # set when censored

    def __post_init__(self):
        if self.first_step not in (-1, 1):
            raise ValueError("first_step must be +1 or -1")
        if self.status == RETURNED:
            if self.steps is None or self.steps < 2 or self.steps % 2:
                raise ValueError("returned steps must be even and >= 2")
        elif self.status == ESCAPED:
            if self.certified_bound is None:
                raise ValueError("escaped outcomes carry their certified bound")
        elif self.status == CENSORED:
            if self.cap is None:
                raise ValueError("censored outcomes carry the step cap")
        else:
            raise ValueError(f"unknown status {self.status!r}")


def _walk(
    sites: np.ndarray,
    starts,
    stop: Optional[np.ndarray],
    cap: int,
    shards: Sequence[tuple[np.random.Generator, int]],
    levels: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step independent paths on a flat site array until a stop site or ``cap``.

    Positions are indices into ``sites``, which holds omega, or level codes
    into ``levels`` (omega at index i is ``levels[sites[i]]``).  ``shards``
    pairs each generator with the number of paths it drives: shard w owns
    the w-th consecutive block of ``starts``.  The live paths are kept in a
    compact array in path order, and at step k each shard draws one uniform
    per live path of its own, in that order; a k-shard walk is therefore
    bit-identical to k separate walks, and a lone path draws one uniform per
    step, exactly as a scalar loop over ``rng.random()`` would.  Without
    stop sites every path stays live, so each shard draws its uniforms for
    many steps as one (steps, paths) block, which is the same stream.
    Returns (final index, steps taken, stopped); a path that starts on a
    stop site takes 0 steps, one that runs out of steps reports ``cap``.
    Stepping off the array raises: sizing it is the caller's job.
    """
    pos = np.array(starts, dtype=np.int64)
    ends = np.cumsum([n for _, n in shards])
    if ends[-1] != pos.size:
        raise ValueError("shard sizes must add up to the number of paths")
    rngs = [r for r, _ in shards]
    steps = np.full(pos.size, cap, dtype=np.int64)
    size = sites.size
    stopped = np.zeros(pos.size, dtype=bool) if stop is None else stop[pos]
    steps[stopped] = 0
    idx = np.flatnonzero(~stopped)
    live = pos[idx]
    counts = np.diff(np.searchsorted(idx, ends), prepend=0).tolist()  # live paths per shard
    lone = rngs[0] if len(rngs) == 1 else None
    depth = max(1, _DRAW_BLOCK // max(1, idx.size)) if stop is None else 1
    # Steps are +-1, so no path can leave the array before the edge distance
    # measured at the last range check is used up.
    slack = int(min(live.min() + 1, size - live.max())) if live.size else 0
    for step in range(1, cap + 1):
        if not idx.size:
            break
        if stop is None:
            row = (step - 1) % depth
            if not row:
                rows = min(depth, cap - step + 1)
                block = np.hstack([r.random((rows, k)) for r, k in zip(rngs, counts)])
            u = block[row]
        elif lone is not None:  # one shard
            u = lone.random(idx.size)
        else:
            u = np.concatenate([r.random(k) for r, k in zip(rngs, counts)])
        omega = sites[live] if levels is None else levels[sites[live]]
        live += np.where(u < omega, 1, -1)
        slack -= 1
        if slack <= 0:
            lo, hi = int(live.min()), int(live.max())
            if lo < 0 or hi >= size:
                raise RuntimeError("walk left the realized window; size it larger")
            slack = min(lo + 1, size - hi)
        if stop is not None:
            done = stop[live]
            if np.count_nonzero(done):
                out = idx[done]
                pos[out] = live[done]
                steps[out] = step
                stopped[out] = True
                keep = ~done
                idx, live = idx[keep], live[keep]
                if lone is None:
                    counts = np.diff(np.searchsorted(idx, ends), prepend=0).tolist()
    pos[idx] = live
    return pos, steps, stopped


def simulate_until(
    env: EnvWindow,
    start: int,
    targets: set[int],
    cap: int,
    stream: np.random.Generator,
) -> tuple[Optional[int], int]:
    """Step the chain from ``start`` until a target site or the step cap.

    Consumes exactly one uniform per step from ``stream``.  Returns
    (site, steps) on arrival, (None, cap) when censored.  Walking off the
    realized window raises: sizing the window is the caller's job.
    """
    if not env.lo <= start <= env.hi:
        raise IndexError("start outside window")
    for t in targets:
        if not env.lo <= t <= env.hi:
            raise IndexError("target outside window")
    stop = np.zeros(env.omega.size, dtype=bool)
    stop[[t - env.lo for t in targets]] = True
    pos, steps, stopped = _walk(env.omega, [start - env.lo], stop, cap, [(stream, 1)])
    if not stopped[0]:
        return None, cap
    return int(pos[0]) + env.lo, int(steps[0])


# Every sample_first_return call reads its window's certificate; the cache
# keeps a 0.1-0.2 ms sweep out of each attempt (a hit costs about 0.5 us).
@functools.lru_cache(maxsize=256)
def _escape_bound(law: EnvLaw, seed: int, m: int) -> float:
    """Quenched P^m(T_0 < inf), m >= 1, from the sweep anchored at m."""
    return float(np.exp(_log_escape_bounds(law, seed, m - 1)[-1]))


def _least_certified(log_bounds, law: EnvLaw, seed: int, eps: float) -> int:
    """Least k >= 32 with bound(k) <= eps, where entry k-1 of
    ``log_bounds(law, seed, n)`` is log bound(k), non-increasing in k; n
    doubles until some k is certified.  An edge should not overshoot:
    crossing a sub-ballistic stretch is expensive."""
    n = 256
    while n <= 2**22:
        hits = np.flatnonzero(np.exp(log_bounds(law, seed, n)[31:]) <= eps)
        if hits.size:
            return int(hits[0]) + 32
        n *= 2
    raise RuntimeError("window edge certification did not reach epsilon")


def sample_first_return(
    env: EnvWindow,
    cap: int,
    escape_eps: float,
    stream: np.random.Generator,
) -> ReturnOutcome:
    """One first-return attempt from the origin on a certified window.

    The window must reach left of the origin, and its right edge M >= 1
    must already satisfy P^M(T_0 < inf) <= escape_eps (checked on the sweep
    anchored at M); reaching M is then reported as an escape carrying that
    bound.  Step exhaustion is censored, never silently retried.
    """
    if not env.lo < 0 < env.hi:
        raise ValueError("window must have a negative guard region and a positive escape edge")
    bound = _escape_bound(env.law, env.seed, env.hi)
    if bound > escape_eps:
        raise ValueError(
            f"window too small: escape bound {bound:.3e} > escape_eps {escape_eps:.3e}"
        )
    status, steps, first = _first_return_batch(env, 1, cap, stream)
    first_step = int(first[0])
    if status[0] == 0:
        return ReturnOutcome(status=RETURNED, first_step=first_step, steps=int(steps[0]))
    if status[0] == 1:
        return ReturnOutcome(status=ESCAPED, first_step=first_step, certified_bound=bound)
    return ReturnOutcome(status=CENSORED, first_step=first_step, cap=cap)


def first_return_window(
    law: EnvLaw, seed: int, escape_eps: float = DEFAULT_ESCAPE_EPS
) -> EnvWindow:
    """Realize a window sized for first-return sampling from the origin."""
    m = _least_certified(_log_escape_bounds, law, seed, escape_eps)
    least = _least_certified(_log_guard_bounds, law, seed, escape_eps)
    depth = 32 << ((least - 1) // 32).bit_length()  # the least 32 * 2^k >= least
    return sample_window(law, seed, -depth, m)


def _first_return_batch(
    env: EnvWindow,
    n: int,
    cap: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n first-return attempts: (status codes 0=ret/1=esc/2=cens, steps, first)."""
    omega0 = env.omega_at(0)
    first = np.where(rng.random(n) < omega0, 1, -1).astype(np.int64)
    origin, edge = -env.lo, env.hi - env.lo
    stop = np.zeros(env.omega.size, dtype=bool)
    stop[[origin, edge]] = True
    end, steps, _ = _walk(env.omega, first + origin, stop, cap - 1, [(rng, n)])
    status = np.full(n, 2, dtype=np.int8)
    status[end == origin] = 0
    status[end == edge] = 1
    return status, steps + 1, first


def conditioned_sampler(
    env_or_law: Union[EnvWindow, tuple[EnvLaw, int]],
    mode: str,
    n: int,
    cap: int = 10_000_000,
    seed: int = 0,
    workers: int = 1,
    escape_eps: float = 1e-6,
    tol: float = 1e-12,
) -> np.ndarray:
    """i.i.d. samples of (T_0 from 1 | T_0 < inf) on one environment.

    mode="h_transform" walks the conditioned environment, where the return
    happens almost surely: every sample is exact, and escape_eps bounds the
    chance that a path reaches the certified edge and ends the run.
    mode="rejection" walks the original environment and keeps paths that
    reach 0 before the certified escape level (discarding escapes biases the
    kept law by at most escape_eps).  Exhausting the path cap raises.
    """
    if n < 1 or cap < 1:
        raise ValueError(f"conditioned_sampler needs n >= 1 and cap >= 1, got n={n}, cap={cap}")
    law, env_seed, _ = _source(env_or_law)
    if not mean_log_rho(law) < 0.0:
        raise ValueError("conditioned sampling needs a right-transient law")

    if mode == "h_transform":
        hi = _least_certified(_log_h_escape_bounds, law, env_seed, escape_eps / n)
        window = conditioned_env(law, env_seed, hi, tol=tol)
    elif mode == "rejection":
        m = _least_certified(_log_escape_bounds, law, env_seed, escape_eps)
        window = sample_window(law, env_seed, 0, m)
    else:
        raise ValueError("mode must be 'h_transform' or 'rejection'")

    # Reaching hi stops a path in both modes: a rejection escape, an h-transform edge hit.
    stop = np.zeros(window.omega.size, dtype=bool)
    stop[[0, window.hi]] = True

    # Each round walks every worker's shard in one lockstep: shard w draws its
    # own paths and keeps its first need[w] returns (none once it is full).
    rngs = worker_streams(seed, workers)
    need = np.array(shard_sizes(n, workers))
    got: list[list[np.ndarray]] = [[] for _ in rngs]
    while need.any():
        batch = need.copy() if mode == "h_transform" else np.maximum(64, 2 * need) * (need > 0)
        paths, shards = np.ones(batch.sum(), dtype=np.int64), list(zip(rngs, batch.tolist()))
        end, steps, stopped = _walk(window.omega, paths, stop, cap, shards)
        for w, part in enumerate(np.split(np.arange(end.size), np.cumsum(batch)[:-1])):
            if not stopped[part].all():
                raise RuntimeError(f"worker {w}: path cap {cap} exhausted")
            if mode == "h_transform" and np.any(end[part] != 0):
                raise RuntimeError("conditioned walk reached the window edge; enlarge hi")
            kept = steps[part][end[part] == 0][: need[w]]
            got[w].append(kept)
            need[w] -= kept.size
    return np.concatenate([k for parts in got for k in parts])


def estimate_return_conditional(
    law: EnvLaw,
    mode: str,
    n_env: int = 1000,
    n_walk: int = 0,
    tol: float = 1e-10,
    seed: int = 0,
    workers: int = 1,
) -> Estimate:
    """E[r | r < inf], the expected return time given return.

    mode="quenched": evaluates the exact first-step decomposition on the
    single environment keyed by ``seed`` (a point value with zero standard
    error); when n_walk > 0 an independent walk-level Monte Carlo check is
    run on the same environment and a gross mismatch raises.

    mode="averaged": Rao-Blackwellized ratio estimator over n_env sampled
    environments -- per environment the exact quenched E[r 1{r<inf}] and
    P(r<inf), combined as a ratio of means with a delta-method standard
    error (numerator and denominator share environments).  When the law
    sits in the weakly transient regime (E[rho] >= 1) the finite-sample
    value is still produced but flagged ``theory_infinite``.  Each worker
    shard runs its environments in ``_ENV_BUDGET`` blocks through the row-wise
    ``exact._decompositions``; a failed environment is dropped alone
    (``extras["env_failures"]``).
    """
    flags: tuple[str, ...] = ()
    if moment_rho(law, 1.0) >= 1.0 - 1e-12:
        flags = ("theory_infinite",)

    if mode == "quenched":
        rd = return_decomposition(law, seed, tol=tol)
        extras = {}
        if n_walk > 0:
            # The decomposition's leading constant counts every start,
            # returned or not; the walk-conditional mean replaces it by the
            # return probability.
            walk_expected = (rd.e_return_indicator - 1.0 + rd.p_return) / rd.p_return
            window = first_return_window(law, seed)
            rng = worker_streams(seed, 1)[0]
            status, steps, _ = _first_return_batch(window, n_walk, 50_000_000, rng)
            ret = steps[status == 0].astype(np.float64)
            if ret.size < 2:
                raise ArithmeticError("cross-check produced too few returns")
            _, mc_mean, mc_se, _, _ = merge_mean([Tally.of(ret)])
            extras = {"mc_check": mc_mean, "mc_check_se": mc_se, "mc_check_n": float(ret.size)}
            if abs(mc_mean - walk_expected) > 5.0 * mc_se + 1e-9:
                raise ArithmeticError(
                    f"walk-level cross-check {mc_mean:.6g} +- {mc_se:.2g} disagrees "
                    f"with exact conditional mean {walk_expected:.6g}"
                )
        return Estimate(
            value=rd.e_return_given_return,
            std_error=0.0,
            n=1,
            method="return-conditional-quenched-exact",
            seed=seed,
            flags=flags,
            extras=extras,
        )

    if mode != "averaged":
        raise ValueError("mode must be 'quenched' or 'averaged'")
    if n_env < 1:
        raise ValueError(f"averaged mode needs n_env >= 1, got {n_env}")

    sizes = shard_sizes(n_env, workers)
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(int)
    tallies: list[PairTally] = []
    failures = 0
    for w in range(workers):
        xs, ys = [], []
        for block in _env_blocks(offsets[w], offsets[w + 1]):
            for rd in _decompositions(law, [substream_seed(seed, 1, j) for j in block], tol):
                if isinstance(rd, ConvergenceError):
                    failures += 1
                    continue
                xs.append(rd.p_return)
                ys.append(rd.e_return_indicator)
        tallies.append(PairTally.of(np.asarray(xs), np.asarray(ys)))
    if failures > _FAIL_FRACTION * n_env:
        raise ConvergenceError(f"{failures}/{n_env} environments failed to converge")
    n_ok, ratio, se = merge_ratio(tallies)
    return Estimate(
        value=ratio,
        std_error=se,
        n=n_ok,
        method="return-conditional-averaged-rb",
        seed=seed,
        flags=flags,
        extras={"env_failures": float(failures)},
    )


def _env_blocks(lo: int, hi: int):
    """Environment indices lo..hi-1 in consecutive blocks sized by ``_ENV_BUDGET``."""
    rows = max(1, _ENV_BUDGET // _ENV_ROW_BYTES)
    return (range(k, min(k + rows, hi)) for k in range(lo, hi, rows))


@dataclass(frozen=True)
class DivergenceReport:
    """Diagnostics for weak transience (growth without asserting a rate)."""

    schedule: tuple[int, ...]
    running_means: tuple[tuple[int, float], ...]  # weighted conditional return stat
    running_ses: tuple[tuple[int, float], ...]  # delta-method SEs of the above
    hill_index: float  # tail-index estimate on the top 1% (diagnostic only)
    lemma_points: tuple[tuple[float, float], ...]  # (t, t * P-hat(R_1 >= t))
    lemma_min: float
    regression_index: Optional[float]  # -slope of log P-hat(R_1 > t) vs log t
    kappa: Optional[float]
    n_env: int
    env_failures: int
    seed: int


def divergence_diagnostic(
    law: EnvLaw,
    schedule: Sequence[int],
    seed: int = 0,
    tol: float = 1e-8,
) -> DivergenceReport:
    """Probe whether the averaged conditional return time is diverging.

    Per sampled environment one anchored sweep gives the exact quenched
    conditional return expectation y = E^1[T_0 | T_0 < inf] and the R_1 that
    normalises it, whence the return probability w = R_1/(1+R_1) (walk-level
    sampling has infinite variance exactly where this diagnostic matters);
    the running w-weighted mean of y is reported at each schedule point.  The
    top 1% of y gives a Hill tail-index estimate (no bias correction); the
    R_1 samples give the empirical floor min_t t * P(R_1 >= t) over t in
    {10, 100, 1000} and a log-log regression index compared against the
    moment-equation root kappa.  All outputs are diagnostic.  Environments
    run in ``_ENV_BUDGET`` blocks through the row-wise
    ``exact._conditional_rows``; a failed one is dropped alone (``env_failures``).
    """
    from .env import kappa_root  # local import to keep module load light

    schedule = tuple(sorted(int(s) for s in schedule))
    if not schedule or schedule[0] < 1:
        raise ValueError("divergence_diagnostic needs positive schedule points")
    n_env = schedule[-1]
    if n_env <= _HILL_TOP:
        raise ValueError(
            f"divergence_diagnostic needs at least {_HILL_TOP + 1} environments "
            f"(the Hill estimate uses the top {_HILL_TOP} and one more), "
            f"the schedule ends at {n_env}"
        )
    ys = np.empty(n_env)
    ws = np.empty(n_env)
    r1s = np.empty(n_env)
    failures = 0
    kept = 0
    for block in _env_blocks(0, n_env):
        for out in _conditional_rows(law, [substream_seed(seed, 7, j) for j in block], tol):
            if isinstance(out, ConvergenceError) or not out[0].converged:
                failures += 1
                continue
            cond, _, r1 = out
            r1s[kept] = r1
            ws[kept] = r1 / (1.0 + r1)
            ys[kept] = cond.value
            kept += 1
    if failures > _FAIL_FRACTION * n_env:
        raise ConvergenceError(f"{failures}/{n_env} environments failed to converge")
    ys, ws, r1s = ys[:kept], ws[:kept], r1s[:kept]

    wy = ws * ys
    sums = [np.cumsum(v) for v in (ws, wy, ws * ws, wy * wy, ws * wy)]
    running, running_ses = [], []
    for s in schedule:
        m = min(s, kept)
        ratio, se = ratio_of_means(m, *(float(c[m - 1]) for c in sums))
        running.append((s, ratio))
        running_ses.append((s, se))

    k = max(_HILL_TOP, int(math.ceil(0.01 * kept)))
    top = np.sort(ys)[::-1]
    hill_gamma = float(np.mean(np.log(top[:k] / top[k])))
    hill_index = 1.0 / hill_gamma if hill_gamma > 0 else math.inf

    lemma_points = tuple(
        (float(t), float(t * np.mean(r1s >= t))) for t in (10.0, 100.0, 1000.0)
    )
    lemma_min = min(v for _, v in lemma_points)

    grid = np.geomspace(10.0, 1000.0, 13)
    surv = np.array([np.mean(r1s > t) for t in grid])
    ok = surv > 0
    regression_index = None
    if ok.sum() >= 3:
        slope = np.polyfit(np.log(grid[ok]), np.log(surv[ok]), 1)[0]
        regression_index = float(-slope)

    return DivergenceReport(
        schedule=schedule,
        running_means=tuple(running),
        running_ses=tuple(running_ses),
        hill_index=hill_index,
        lemma_points=lemma_points,
        lemma_min=lemma_min,
        regression_index=regression_index,
        kappa=kappa_root(law),
        n_env=n_env,
        env_failures=failures,
        seed=seed,
    )


def _site_dtype(levels: Optional[np.ndarray]) -> np.dtype:
    """float64 for omega itself, else the smallest unsigned dtype indexing ``levels``."""
    return np.dtype(np.float64) if levels is None else np.min_scalar_type(levels.size - 1)


def _site_rows(
    law: EnvLaw, levels: Optional[np.ndarray], seeds: Sequence[int], sites: np.ndarray
) -> np.ndarray:
    """The windows of ``sites`` for each env seed, back to back in one flat array.

    With ``levels`` (``law.omega_levels()``) each site is stored as the
    index of its omega in ``levels``, the category of omega under the edges
    ``levels[1:]`` by the one categorical rule, so ``levels[flat]`` is
    bitwise what ``omega_at_sites`` returns; a single level is a
    deterministic environment and draws no site uniforms.  Without, the
    array holds omega.  Sites are realized through ``omega_at_sites``, the
    public draw that benchmark tracing counts.
    """
    flat = np.zeros(len(seeds) * sites.size, dtype=_site_dtype(levels))
    if levels is not None and levels.size == 1:
        return flat
    edges = None if levels is None else np.append(levels[1:], 1.0)
    for i, env_seed in enumerate(seeds):
        omega = omega_at_sites(law, env_seed, sites)
        row = omega if edges is None else _categories(edges, omega)
        flat[i * sites.size : (i + 1) * sites.size] = row
    return flat


def _batches(ends: np.ndarray, rows: int):
    """Consecutive replicate ranges [start, end) of at most ``rows`` replicates.

    ``ends`` are the shard boundaries.  A range that contains a boundary is
    cut back to the last one, so a shard is split only when it alone holds
    more than ``rows`` replicates, and then into chunks of ``rows`` from its
    start.
    """
    start, total = 0, int(ends[-1])
    while start < total:
        end = min(start + rows, total)
        inside = ends[(ends > start) & (ends <= end)]
        if inside.size:
            end = int(inside[-1])
        yield start, end
        start = end


def speed_estimate(
    law: EnvLaw,
    horizon: int,
    reps: int,
    seed: int = 0,
    workers: int = 1,
) -> Estimate:
    """Averaged-law speed: mean of X_horizon / horizon over fresh environments.

    Replicate i draws its own environment on [-horizon, horizon] (the walk
    cannot leave it in ``horizon`` steps).  Finite-support environments are
    stored as level codes (one byte a site for up to 256 distinct omegas),
    continuous ones as float64 omega.  Worker shards are stream shards:
    worker w's generator drives the w-th consecutive block of replicates,
    and all shards of a batch are walked in one lockstep.  A batch holds as
    many windows as a fixed byte budget allows -- every replicate at the
    usual sizes -- and splits a shard only when the shard alone exceeds it.
    Batch sizes depend only on the parameters, so results are bit-identical
    for a given (seed, workers).
    """
    if horizon < 1:
        raise ValueError(f"speed_estimate needs horizon >= 1, got {horizon}")
    if reps < 1:
        raise ValueError(f"speed_estimate needs reps >= 1, got {reps}")
    window_len = 2 * horizon + 1
    levels = law.omega_levels()
    rows = max(1, _SITE_BUDGET // (window_len * _site_dtype(levels).itemsize))
    sites = np.arange(-horizon, horizon + 1, dtype=np.int64)
    rngs = worker_streams(seed, workers)
    sizes = shard_sizes(reps, workers)
    ends = np.cumsum(sizes)
    begins = ends - sizes
    finals = np.empty(reps)
    for start, end in _batches(ends, rows):
        seeds = [substream_seed(seed, 11, rep) for rep in range(start, end)]
        # path i starts at the centre of row i and cannot leave its row
        starts = np.arange(end - start, dtype=np.int64) * window_len + horizon
        in_batch = np.clip(ends, start, end) - np.clip(begins, start, end)
        shards = list(zip(rngs, in_batch.tolist()))
        pos, _, _ = _walk(
            _site_rows(law, levels, seeds, sites), starts, None, horizon, shards, levels
        )
        finals[start:end] = (pos - starts) / horizon
    tallies = [Tally.of(finals[b0:b1]) for b0, b1 in zip(begins, ends)]
    n_tot, mean, se, _, _ = merge_mean(tallies)
    return Estimate(value=mean, std_error=se, n=n_tot, method="speed-mc", seed=seed)
