"""Monte Carlo simulation of the walk itself.

Walk-level sampling is only used where it is unbiased and cheap: raw
stepping, first returns with a certified escape level, and conditioned
paths.  Conditional return times are sampled through the conditioned
(h-transformed) environment, under which the walk returns almost surely,
so no censoring bias ever enters a time estimate.  Averaged-measure
estimation replaces walk averages by the exact quenched values per sampled
environment (Rao-Blackwellization): in the weakly transient regime the
walk-level variance is infinite and environment-level statistics are the
meaningful ones.  Both averaged estimators, ``estimate_return_conditional``
and ``divergence_diagnostic``, take their per-environment values from one
loop, ``_env_pairs``: it keys environments by seed, runs them in blocks
through a row-wise exact kernel, and drops and counts failed ones.  No
worker streams enter it, so these results do not depend on ``workers``.

Every walk with stop sites steps in one lockstep kernel, ``_walk``: paths
live on a flat omega array whose two end sites stop them, and step k draws
one uniform per live path, in path order.
Worker shards are stream shards: each worker's generator drives its own
consecutive block of paths, and all blocks are walked in one lockstep, each
shard drawing for its own live paths in order, so the result equals
separate per-worker walks.  ``simulate_until`` and ``sample_first_return``
are its n = 1 wrappers, and a lone live path steps on scalar draws (a
scalar draw and a length-1 draw give the same uniform);
``_first_return_batch`` and the h-transform ``conditioned_sampler`` call it
with many paths, which step on buffers made once per call.  Rejection
sampling walks no path through it: it leaps counts of paths per window
site (``_rejection_batch``) ``_LEAP`` steps at a time, one multinomial
split of each site's count over the window's k-step law (``_leap_table``)
a leap, until no path is left.  Steps are +-1 and both end sites stop
paths, so no path leaves the array and no range check is made:
``simulate_until`` takes a step off a window end that is no target by
hand, and ``_first_return_batch`` stops paths at its certified guard depth
and raises when one ends there.
Speed walks have no stop sites and run in ``_free_walk`` on the same
stream, a block of steps per draw with the step categories found once per
block.  Their sites live in ``_Rows``, one row per replicate, site-major:
a step moves a path by the number of rows.  A finite-support law with
L = 2..6 levels stores at each site one byte, the neighbourhood code
formed by the level codes of the 2s-1 sites around it, s the largest span
with L^(2s-1) <= 256 (4 for two levels); one lookup in a table built per
call then advances s steps on the same uniforms, in the same order.  From
seven levels up s = 1 and the code is the level code (beyond
``_CODED_LEVELS`` levels rows hold omega, as for continuous laws).
Rows start small and grow as the walks spread; sites are keyed by
(seed, x), so every result equals a walk on full windows.

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
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .env import (
    EnvLaw, EnvWindow, _categories, _mean_omega, mean_log_rho, moment_rho, omega_at_sites,
    sample_window,
)
from .estimate import Estimate, Tally, merge_mean, ratio_of_means, ratio_of_samples
from .exact import (
    ConvergenceError,
    _Workspace,
    _conditional_rows,
    _decompositions,
    _log_escape_bounds,
    _log_guard_bounds,
    _log_h_escape_bounds,
    _source,
    conditioned_env,
    return_decomposition,
)
from .rng import _busy_shards, _substream_seeds, worker_streams

RETURNED = "returned"
ESCAPED = "escaped"
CENSORED = "censored"

DEFAULT_ESCAPE_EPS = 1e-9
_FAIL_FRACTION = 1e-3  # tolerated fraction of non-convergent environments
_HILL_TOP = 10  # fewest order statistics in the Hill tail-index estimate
_SITE_BUDGET = 1 << 26  # bytes of realized sites per speed_estimate batch
# Bytes of per-environment series work per block of environments: 81 rows.
# A block's fixed cost (its many small numpy calls, and a second sweep for
# the rows that fail their anchor certificate) is paid once a block: in one
# interpreter FIX-C rows ran 11% faster in blocks of 81 than of 40.  The
# blocks of one call share one workspace (``_env_pairs``), so a block's large
# arrays do not go back to the allocator between blocks: when each block
# allocated its own, glibc trimmed the 1.4 MB they took from the top of the
# heap after every 81-row FIX-C block, and the next block faulted it back in.
_ENV_BUDGET = 2 << 20
# Peak bytes of one environment's row in that work (tracemalloc, blocks of 81
# rows, the most over 25 blocks), measured on the widest rows the sweep
# builds: FIX-C, 257 sweep sites plus a 384- to 480-site anchor block, and
# longer blocks for the rows that fail the certificate.  17.2 KiB at tol
# 1e-8, 18.4 at 1e-10, 19.5 at 1e-12; FIX-A 10.1, Beta(5,2) 13.1 at 1e-10
# and Beta(2,1.5) 17.7 at 1e-8 (its Beta quantiles run in strips, whose
# temporaries no longer grow with the block).  25 KiB covers these with
# room.  These are the peaks of a block with no workspace.  In ``_env_pairs``
# the workspace holds 1.9 MB for FIX-C at tol 1e-8 (23 KiB a row) from the
# first block to the last, and each later block adds a fifth of that.
_ENV_ROW_BYTES = 25 << 10
_DRAW_BLOCK = 1 << 16  # uniforms per block drawn ahead by a walk without stop sites
_ROW_REACH = 32  # sites on each side of a speed_estimate row before it grows
_ROW_GROWTH = 4  # a side of rows that grows gains at least 1/_ROW_GROWTH of its reach
_STRIP_SITES = 1 << 14  # most values realized per block of sites (one site of every row at least)
_CODED_LEVELS = 1 << 9  # most levels stored as codes: the one-step table has (L+1) L entries
_SIGN = np.array([-1, 1], dtype=np.int64)  # the step of a path, indexed by "it steps up"
# Steps a rejection batch's count chain advances per multinomial call (one
# leap).  ``conditioned_sampler`` on FIX-C environment 101 at n = 10^4 (a
# batch of 3 x 10^4 paths, 6 400-8 300 steps until the last one is absorbed;
# in-process best of 5 at seeds 32, 1032 and 5032, 2-core box), by leap:
# 8: 30-35 ms, 16: 18-20, 24: 15-17, 32: 13-14, 48: 12, 64: 11-12, 128:
# 11-14, 256: 15; one binomial split a step, with ``_walk`` for the last
# 256 paths, took 66-67 ms.  A leap draws about one binomial per occupied
# site and outcome it can reach, so short leaps pay numpy's per-call cost
# and long ones draw for ever less likely end sites.  48 and 64 read 1-2 ms
# faster than 32, under 1% of the bench's path-short; 32 keeps the table,
# (M - 1) (2k + 2) floats, at half the size it has at 64.  A first version
# on dense (M + 1)^2 tables, on a box where the binomial chain took 91-99
# ms, read 52-54, 26-27, 17-18, 15-21, 20-21, 21-22 and 27-28 ms at leaps
# of 8, 16, 32, 48, 64, 128 and 256.
_LEAP = 32
# multivariate_hypergeometric's "marginals" method needs fewer than 10^9 items.
_MAX_BATCH = 10**9 - 1


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
    omega: np.ndarray,
    starts,
    stop: np.ndarray,
    cap: int,
    shards: Sequence[tuple[np.random.Generator, int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step independent paths on the site array ``omega`` until a stop site or ``cap``.

    Positions are indices into ``omega``, and ``stop`` (one flag a site)
    must stop paths at both end sites: steps are +-1, so no live path can
    leave the array, and no range check is made.  ``shards`` pairs each
    generator with the number of paths it drives: shard w owns the w-th
    consecutive block of ``starts``.  The live paths are kept in a compact
    array in path order, and at step k each shard draws one uniform per
    live path of its own, in that order; a k-shard walk is therefore
    bit-identical to k separate walks.  Once one path is left it steps on
    scalar ``rng.random()`` draws from its shard, the same uniforms, so a
    lone path is exactly a scalar loop.

    Buffers of two floats, one bool and one int64 per path are made at the
    first step with more than one live path: each shard with live paths
    draws into its slice of the first float buffer with
    ``rng.random(out=...)``, the draws of ``rng.random(k)``; the step is one
    ``np.less`` against omega gathered into the second and one gather of
    +-1, and the stop test gathers ``stop`` into the bool buffer.  Shard
    slices are found again only on steps where paths stop.  Returns (final
    index, steps taken, stopped); a path that starts on a stop site takes 0
    steps, one that runs out of steps reports ``cap``.
    """
    pos = np.array(starts, dtype=np.int64)
    ends = np.cumsum([n for _, n in shards])
    if ends[-1] != pos.size:
        raise ValueError("shard sizes must add up to the number of paths")
    # The gathers below use mode="clip", which would quietly read an end
    # site for an index off the array: this check keeps every index on it.
    if not (stop.size == omega.size > 0 and stop[0] and stop[-1]):
        raise ValueError("a walk needs one stop flag a site, set at both end sites")
    if pos.size and (pos.min() < 0 or pos.max() >= omega.size):
        raise IndexError("walk starts outside the site array")
    rngs = [r for r, _ in shards]
    steps = np.full(pos.size, cap, dtype=np.int64)
    stopped = stop[pos]
    steps[stopped] = 0
    idx = np.flatnonzero(~stopped)
    live = pos[idx]
    buffers = cuts = None  # made once more than one path is live
    for step in range(1, cap + 1):
        k = idx.size
        if not k:
            break
        if k == 1:  # a lone path steps on scalar draws from its shard: the same uniforms
            i, x = int(idx[0]), int(live[0])
            rng = rngs[int(np.searchsorted(ends, i, side="right"))]
            for step in range(step, cap + 1):
                x += 1 if rng.random() < omega[x] else -1
                if stop[x]:
                    steps[i], stopped[i] = step, True
                    break
            pos[i] = x
            return pos, steps, stopped
        if cuts is None:  # the first step of many paths, or paths stopped at the last one
            if buffers is None:
                buffers = np.empty(k), np.empty(k), np.empty(k, dtype=bool), np.empty(k, np.int64)
            cuts = [0, *np.searchsorted(idx, ends).tolist()]  # shard w: live[cuts[w]:cuts[w+1]]
            u, at, hit, move = (b[:k] for b in buffers)
        for r, a, b in zip(rngs, cuts, cuts[1:]):
            if a < b:
                r.random(out=u[a:b])
        # mode="clip" skips take's buffered copy; every live index is on the array.
        np.less(u, omega.take(live, out=at, mode="clip"), out=hit)
        live += _SIGN.take(hit.view(np.uint8), out=move, mode="clip")
        done = stop.take(live, out=hit, mode="clip")
        if done.any():
            out = idx[done]
            pos[out] = live[done]
            steps[out] = step
            stopped[out] = True
            keep = np.logical_not(done, out=hit)
            idx, live, cuts = idx[keep], live[keep], None
    pos[idx] = live
    return pos, steps, stopped


def _free_walk(
    pos: np.ndarray,
    cap: int,
    shards: Sequence[tuple[np.random.Generator, int]],
    rows: "_Rows",
) -> None:
    """Advance every path ``cap`` steps from ``pos`` (indices into
    ``rows.flat``), in place: the walk of speed replicates, with no stop sites.

    A step moves a path by +-n for n paths (rows are site-major), so the
    step tables and ``_SIGN`` are scaled by n once per call.  Each shard
    draws many steps into one reused (steps, paths) buffer, the same stream
    as one row per step.  A site steps up iff u < omega, that is iff its
    level code is at least k(u), the number of levels <= u; the categories
    k are found once per block.  With L >= 2 levels one lookup advances
    s = ``rows.span`` steps: the block's categories are combined s rows at a
    time into one index, and ``_step_table`` maps index plus neighbourhood
    code to the s-step displacement.  Fewer than s steps, as at the end of
    a block or of the walk, go one at a time on the table of single steps,
    which reads only the code's centre digit.  When every site has the same
    omega a block moves each path by its count of up-steps, and omega itself
    is compared for continuous laws.  Steps run in stretches no longer than
    the margin that the last ``_Rows.fit`` left, which covers the next s
    steps (or all that remain), so no path leaves its row.
    """
    n = pos.size
    if not n:
        return
    depth = max(1, _DRAW_BLOCK // n)
    levels, span = rows.levels, rows.span
    flat = levels is not None and levels.size == 1
    coded = levels is not None and not flat
    if coded:
        cum, base, codes = np.append(levels, 1.0), levels.size + 1, levels.size ** (2 * span - 1)
        tables = {s: n * _step_table(levels.size, span, s) for s in {1, span}}
    sign = n * _SIGN
    shards = [(r, k) for r, k in shards if k]
    bufs = [np.empty((depth, k)) for _, k in shards]
    draws = bufs[0] if len(bufs) == 1 else np.empty((depth, n))
    slack = rows.fit(pos, min(span, cap))
    for first in range(0, cap, depth):
        steps = min(depth, cap - first)
        for (r, _), buf in zip(shards, bufs):
            r.random(out=buf[:steps])
        if len(bufs) > 1:
            np.concatenate([buf[:steps] for buf in bufs], axis=1, out=draws[:steps])
        block = _categories(cum, draws[:steps]) if coded else draws[:steps]
        done = 0
        while done < steps:
            m = min(steps - done, slack)
            if flat:
                pos += n * (2 * np.count_nonzero(block[done : done + m] < levels[0], axis=0) - m)
            elif not coded:
                sites = rows.flat
                for row in block[done : done + m]:
                    pos += sign.take(np.greater(sites.take(pos), row).view(np.uint8))
            else:
                per = span if m >= span else 1
                m -= m % per
                table, sites = tables[per], rows.flat
                for index in _combine(block[done : done + m], per, base, codes):
                    pos += table[sites[pos] + index]
            done += m
            slack -= m
            if slack < span:
                slack = rows.fit(pos, min(span, cap - first - done))


def _span(n_levels: int) -> int:
    """Steps per table lookup for L >= 2 levels: the largest s with
    L^(2s-1) <= 256, so that the level codes of the 2s-1 sites an s-step
    move can read fit one byte (4 for two levels, 3 for three, 2 for four
    to six, 1 from seven up)."""
    s = 1
    while n_levels ** (2 * s + 1) <= 256:
        s += 1
    return s


def _step_table(n_levels: int, span: int, steps: int) -> np.ndarray:
    """Displacements of ``steps`` <= ``span`` single steps over every
    neighbourhood code of span ``span`` (see ``_encode``).

    Entry (sum_i k_i (L+1)^i) * L^(2 span - 1) + code is where a path ends
    after steps i = 0, 1, ... with categories k_i, starting from the centre
    of the neighbourhood: step i goes up iff the level code of the site it
    stands on, a digit of the code, is >= k_i."""
    codes = np.arange(n_levels ** (2 * span - 1))
    digits = (codes // n_levels ** np.arange(2 * span - 1)[:, None]) % n_levels
    cats = np.arange((n_levels + 1) ** steps)[:, None]
    at = np.zeros((cats.size, codes.size), dtype=np.intp)
    for i in range(steps):
        k = (cats // (n_levels + 1) ** i) % (n_levels + 1)
        at += np.where(digits[at + span - 1, codes] >= k, 1, -1)
    return at.ravel()


def _combine(cats: np.ndarray, span: int, base: int, codes: int) -> np.ndarray:
    """Rows of step categories (steps, paths), taken ``span`` at a time, as
    ``_step_table`` indices less the code: one row per lookup."""
    group = cats.reshape(-1, span, cats.shape[1])
    index = group[:, span - 1].astype(np.intp)
    for i in range(span - 2, -1, -1):
        index *= base
        index += group[:, i]
    index *= codes
    return index


def _encode(levels: np.ndarray, n_levels: int, span: int, out: np.ndarray) -> None:
    """Neighbourhood codes of sites (axis 0) into ``out``, from the level
    codes ``levels`` of those sites and span - 1 more on each side: at site
    x the base-L number sum_j c(x+j) L^(j+span-1), j = 1-span..span-1, one
    byte, by Horner's rule.  With span 1 it is the level code (or omega)."""
    width = out.shape[0]
    np.copyto(out, levels[2 * (span - 1) :])
    for p in range(2 * span - 3, -1, -1):
        out *= n_levels
        out += levels[p : p + width]


class _Rows:
    """Site windows [lo, hi] of n rows, one per env seed, site-major in one
    flat array: site x of row r is at index (x - cap_lo) * n + r.

    Rows start at [-reach, reach].  Finite-support laws with 2 to
    ``_CODED_LEVELS`` levels store each site's neighbourhood code
    (``_encode``, of span ``_span(L)``), continuous laws omega, and one level
    nothing.  Sites are realized in blocks of at most ``_STRIP_SITES``
    values, with span - 1 sites of context on either side from the keyed
    site RNG, so every stored code is complete.  The array holds
    sites [cap_lo, cap_hi]; a side that outgrows it doubles it toward that
    side in one copy, and positions shift only when cap_lo moves.
    """

    def __init__(self, law: EnvLaw, levels, seeds: Sequence[int], reach: int, bound: int):
        self.law, self.levels, self.bound, self.n = law, levels, bound, len(seeds)
        self.seeds, self.lo, self.hi = np.asarray(seeds, dtype=np.uint64), -reach, reach
        self.span = _span(levels.size) if levels is not None and levels.size > 1 else 1
        if levels is not None and levels.size == 1:
            self.flat, self.cap_lo, self.cap_hi = None, -bound, bound
        else:
            self.flat = np.empty(self.n * (2 * reach + 1), dtype=_site_dtype(levels))
            self.cap_lo, self.cap_hi = -reach, reach
            self._fill(-reach, reach)

    def _stored(self, a: int, b: int) -> np.ndarray:
        """The stored sites a..b of every row, a (sites, rows) view."""
        return self.flat.reshape(-1, self.n)[a - self.cap_lo : b + 1 - self.cap_lo]

    def _fill(self, a: int, b: int) -> None:
        """Realize (``_site_rows``) and store sites a..b of every row, a block
        at a time, carrying over the 2(span - 1) sites blocks share."""
        c, width = self.span - 1, max(1, _STRIP_SITES // self.n)
        values, head = None, a - c  # head: the first site not drawn yet
        for x in range(a, b + 1, width):
            y = min(x + width - 1, b)
            fresh = _site_rows(self.law, self.levels, self.seeds, np.arange(head, y + c + 1))
            values = fresh if values is None or not c else np.concatenate((values[-2 * c :], fresh))
            head = y + c + 1
            _encode(values, self.levels.size if c else 1, self.span, self._stored(x, y))

    def sites(self, pos: np.ndarray) -> np.ndarray:
        """The site of each path."""
        return pos // self.n + self.cap_lo

    def fit(self, pos: np.ndarray, need: int) -> int:
        """The margin of the rows, the fewest sites beyond the outermost path
        on either side: steps every path can take in its row.  Each side
        whose margin is below ``need`` first grows, to the margin ``need`` or
        by 1/``_ROW_GROWTH`` of its reach, whichever goes further, but not
        past ``bound``.  Raises if a margin is still below ``need``: the walk
        would leave its bounds."""
        first, last = int(self.sites(pos.min())), int(self.sites(pos.max()))
        if first - self.lo < need and self.lo > -self.bound:
            lo = min(self.lo - -self.lo // _ROW_GROWTH, first - need)
            self._grow(pos, self.lo - max(lo, -self.bound), 0)
        if self.hi - last < need and self.hi < self.bound:
            hi = max(self.hi + self.hi // _ROW_GROWTH, last + need)
            self._grow(pos, 0, min(hi, self.bound) - self.hi)
        margin = min(first - self.lo, self.hi - last)
        if margin < need:
            raise RuntimeError("walk would leave the bounds of its rows; size them larger")
        return margin

    def _grow(self, pos: np.ndarray, a: int, b: int) -> None:
        """Add ``a`` sites on the left of every row or ``b`` on the right
        (one side per call); ``pos`` shifts in place if cap_lo moves."""
        lo, hi = self.lo - a, self.hi + b
        if self.flat is not None:
            if lo < self.cap_lo or hi > self.cap_hi:
                self._double(pos, lo, hi)
            self._fill(*((lo, self.lo - 1) if a else (self.hi + 1, hi)))
        self.lo, self.hi = lo, hi

    def _double(self, pos: np.ndarray, lo: int, hi: int) -> None:
        """Double the storage toward [lo, hi], within bound, in one copy."""
        cap_lo, cap_hi = self.cap_lo, self.cap_hi
        width = cap_hi - cap_lo + 1
        if lo < cap_lo:
            cap_lo = max(min(lo, cap_hi + 1 - 2 * width), -self.bound)
        else:
            cap_hi = min(max(hi, cap_lo - 1 + 2 * width), self.bound)
        old = self._stored(self.lo, self.hi)
        self.flat = np.empty((cap_hi - cap_lo + 1) * self.n, dtype=old.dtype)
        pos += (self.cap_lo - cap_lo) * self.n
        self.cap_lo, self.cap_hi = cap_lo, cap_hi
        self._stored(self.lo, self.hi)[...] = old


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
    realized window raises, at the step it does.  Sizing the window is the
    caller's job.
    """
    if not env.lo <= start <= env.hi:
        raise IndexError("start outside window")
    for t in targets:
        if not env.lo <= t <= env.hi:
            raise IndexError("target outside window")
    # The sites a path can reach, within cap steps of the start and not past
    # the nearest target on either side; both ends stop the walk.
    a = max(env.lo, start - cap, *(t for t in targets if t <= start))
    b = min(env.hi, start + cap, *(t for t in targets if t >= start))
    omega = env.omega[a - env.lo : b - env.lo + 1]
    stop = np.zeros(omega.size, dtype=bool)
    stop[[0, -1, *(t - a for t in targets if a <= t <= b)]] = True
    x, left = start - a, cap
    while True:
        pos, steps, stopped = _walk(omega, [x], stop, left, [(stream, 1)])
        x, left = int(pos[0]), left - int(steps[0])
        if stopped[0] and x + a in targets:
            return x + a, cap - left
        if not left:  # out of steps, also on an end at start +- cap
            return None, cap
        # On a window end that is not a target, with steps left: the next
        # step, on the uniform the walk would draw, leaves or comes back in.
        x += 1 if stream.random() < omega[x] else -1
        left -= 1
        if not 0 <= x < omega.size:
            raise RuntimeError("walk left the realized window; size it larger")


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
    bound.  Reaching the left end raises (``first_return_window`` certifies
    its depth).  Step exhaustion is censored, never silently retried.
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
    """n first-return attempts: (status codes 0=ret/1=esc/2=cens, steps, first).

    The guard end ``env.lo`` stops paths too, and a path that ends there
    raises: that is the event whose chance ``first_return_window``'s guard
    depth L certifies, P^{-1}(T_{-L} < T_0) <= escape_eps."""
    omega0 = env.omega_at(0)
    first = np.where(rng.random(n) < omega0, 1, -1).astype(np.int64)
    origin, edge = -env.lo, env.hi - env.lo
    stop = np.zeros(env.omega.size, dtype=bool)
    stop[[0, origin, edge]] = True
    end, steps, _ = _walk(env.omega, first + origin, stop, cap - 1, [(rng, n)])
    if (end == 0).any():
        raise RuntimeError(
            f"first-return walk reached the guard end {env.lo} of its window; deepen the guard"
        )
    status = np.full(n, 2, dtype=np.int8)
    status[end == origin] = 0
    status[end == edge] = 1
    return status, steps + 1, first


def _leap_table(omega: np.ndarray, k: int) -> np.ndarray:
    """The k-step law of the walk on the window ``omega`` (sites 0..M, both
    end sites absorbing), one row a start site: row x - 1 of the
    (M - 1) x (2k + 2) table holds, for a walk from x = 1..M-1, the chance
    that it reaches 0 at step s (column s - 1, s = 1..k), that it sits at
    x - k + 2j after k steps (column k + j, j = 0..k) and that it has
    reached M (the last column).  An end column whose site lies off the
    interior holds exactly 0, as does a return at a step s of the other
    parity than x.

    Forward recursion over the band: after t steps a walk from x sits at
    x - t + 2j, j = 0..t, so the table's k + 1 end columns hold every start's
    law as it goes, and a step is two products with zero-copy views of the
    up and down chances along the band's diagonals.  Mass that reaches an
    end site is moved to its column at once.  Memory is O(M k): the table
    and one band-sized scratch array, both column-major, so that a step's
    products run over contiguous columns without numpy's iteration buffers.
    """
    m = omega.size - 1
    rows = m - 1
    table = np.zeros((rows, 2 * k + 2), order="F")
    band = table[:, k : 2 * k + 1]  # band[r, j]: at site r + 1 - t + 2j after t steps
    band[:, 0] = 1.0
    # chance[i]: the up (down) chance at site i - k, 0 off the interior sites
    up, down = np.zeros(m + 2 * k - 1), np.zeros(m + 2 * k - 1)
    up[k + 1 : k + m] = omega[1:m]
    down[k + 1 : k + m] = 1.0 - omega[1:m]
    # diagonals[r, c] = chance[r + c]: site r + 1 - t + 2j sits at c = k + 1 - t + 2j
    ups, downs = (np.lib.stride_tricks.sliding_window_view(a, 2 * k + 1) for a in (up, down))
    scratch = np.empty((rows, k), order="F")
    for t in range(k):
        cols = slice(k + 1 - t, k + 2 + t, 2)
        here, moved = band[:, : t + 1], scratch[:, : t + 1]
        np.multiply(here, ups[:rows, cols], out=moved)
        here *= downs[:rows, cols]
        band[:, 1 : t + 2] += moved
        s = t + 1  # mass at site 0 (j = (s - 1 - r) / 2) and at M (r = M - 1 + s - 2j)
        r = np.arange(s - 1, -1, -2)
        r = r[r < rows]
        j = (s - 1 - r) // 2
        table[r, s - 1] = band[r, j]
        band[r, j] = 0.0
        j = np.arange((s + 2) // 2, min(s, (m - 1 + s) // 2) + 1)
        r = m - 1 + s - 2 * j
        table[r, -1] += band[r, j]
        band[r, j] = 0.0
    return table


def _rejection_batch(
    omega: np.ndarray, table: np.ndarray, batch: int, cap: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Walk ``batch`` paths from site 1 of the rejection window ``omega``
    (sites 0..M, both ends stopping) and return (times, counts): counts[i]
    paths returned to 0 at step times[i], the escapes to M dropped.  Only
    returned paths are counted.

    Every path walks the same sites, so the number of paths at each interior
    site is a Markov chain, and ``table`` (``_leap_table(omega, k)``) is its
    k-step law with the step of each return.  A leap splits the count at
    each occupied site over its row in one ``rng.multinomial`` call: the
    return columns, summed over rows, are the returns at the next k steps,
    the end columns go back into the counts by one ``np.bincount``, and the
    escapes are dropped.  All paths start at one site and step together, so
    the occupied sites share one parity and only every other row is drawn.
    Per-path walks give the same joint law of return counts, from other
    draws.  When fewer than k steps of ``cap`` are left, one table of the
    steps left finishes the walk; paths still live after ``cap`` steps raise.
    """
    k = (table.shape[1] - 2) // 2
    at = np.array([batch], dtype=np.int64)  # at[i]: paths at site lo + 2i, none at the ends
    lo = 1
    back = []  # each leap's returns, one count a step: step s is entry s - 1 of them joined
    step = 0
    while at.size:
        if step == cap:
            raise RuntimeError(f"path cap {cap} exhausted")
        if cap - step < k:
            k = cap - step
            table = _leap_table(omega, k)
        moves = rng.multinomial(at, table[lo - 1 : lo - 1 + 2 * at.size : 2])
        back.append(moves[:, :k].sum(axis=0))
        # the path from site lo + 2i to end column j sits at lo - k + 2 (i + j)
        sites = np.add.outer(np.arange(at.size), np.arange(k + 1)).ravel()
        ends = np.bincount(sites, moves[:, k : 2 * k + 1].ravel(), at.size + k)
        live = np.flatnonzero(ends)
        if live.size:
            lo += 2 * int(live[0]) - k
            at = ends[live[0] : live[-1] + 1].astype(np.int64)
        else:
            at = live
        step += k
    back = np.concatenate(back)
    first = np.flatnonzero(back)
    return first + 1, back[first]


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
    chance that a path reaches the certified edge and ends the run.  Its
    paths walk one by one in ``workers`` stream shards, so its samples
    depend on (seed, workers).

    mode="rejection" walks the original environment and keeps paths that
    reach 0 before the certified escape level M.  Discarding escapes biases
    the kept law by at most escape_eps in total variation only: the few
    paths that return after reaching M take very long, so the bias of the
    mean is far larger.  On FIX-C environment 101 (M = 75, where Q's
    spectral radius is 0.99838) the kept mean E[T_0 | T_0 < T_M] is 56.455
    against the target 56.512, about 10^3 times escape_eps relative, which
    is 0.02 SE at n = 10^4.  Rejection steps no path on its own: it leaps
    a chain of how many paths sit at each window site ``_LEAP`` steps at a
    time (``_rejection_batch``), over the window's k-step law with the step
    of each return, built once a call (``_leap_table``).  It runs on the one
    stream ``worker_streams(seed, 1)[0]``, so its samples depend on the seed
    alone; ``workers`` is accepted and not read.  The first batch walks 3n
    paths, and each later one twice as many paths per sample still needed
    as the batch before it.  A batch with more returns than needed keeps a uniform
    random subset of them (``rng.multivariate_hypergeometric`` over the
    return times), and the kept samples are returned in an order permuted
    by the same stream, so they are i.i.d. in the order given.

    Exhausting the path cap raises in both modes.
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

    if mode == "h_transform":  # every path returns, so one walk of n paths
        stop = np.zeros(window.omega.size, dtype=bool)
        stop[[0, window.hi]] = True  # reaching hi ends the run
        shards = _busy_shards(seed, n, workers)
        end, steps, stopped = _walk(window.omega, np.ones(n, dtype=np.int64), stop, cap, shards)
        if not stopped.all():
            raise RuntimeError(f"path cap {cap} exhausted")
        if np.any(end != 0):
            raise RuntimeError("conditioned walk reached the window edge; enlarge hi")
        return steps

    rng = worker_streams(seed, 1)[0]
    table = _leap_table(window.omega, _LEAP)
    kept, need, per = [], n, 3  # per: paths walked per sample still needed
    while need:
        times, counts = _rejection_batch(window.omega, table, min(per * need, _MAX_BATCH), cap, rng)
        if counts.sum() > need:
            counts = rng.multivariate_hypergeometric(counts, need)
        kept.append(np.repeat(times, counts))
        need, per = need - kept[-1].size, 2 * per
    return rng.permutation(np.concatenate(kept))


def estimate_return_conditional(
    law: EnvLaw,
    mode: str,
    n_env: int = 1000,
    n_walk: int = 0,
    tol: float = 1e-10,
    seed: int = 0,
) -> Estimate:
    """E[r | r < inf], the expected return time given return.

    mode="quenched": evaluates the exact first-step decomposition on the
    single environment keyed by ``seed`` (a point value with zero standard
    error); when n_walk > 0 an independent walk-level Monte Carlo check is
    run on the same environment and a gross mismatch raises.

    mode="averaged": ratio of means over n_env sampled environments with a
    delta-method standard error (numerator and denominator share
    environments).  For E[rho] = m < 1, omega_0 and the left branch, which
    read sites other than the right branch's, enter by their exact means
    Ew = E[omega_0] and EL = 1 + 2m/(1-m) (conditional Monte Carlo): with
    q = R_1/(1+R_1) and C the conditional series of one
    ``exact._conditional_rows`` row, the pair is (1-Ew + Ew q,
    1 + (1-Ew) EL + Ew q C).  For m >= 1 (weakly transient) EL is infinite:
    the whole ``exact._decompositions`` row is sampled and the finite value
    is flagged ``theory_infinite``.  ``_env_pairs`` drops a failed or
    unconverged environment alone (``extras["env_failures"]``), so the value
    depends on (law, n_env, tol, seed) only.
    """
    m = moment_rho(law, 1.0)
    flags: tuple[str, ...] = ("theory_infinite",) if m >= 1.0 - 1e-12 else ()

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

    if flags:
        kernel, pair = _decompositions, lambda rd: (rd.p_return, rd.e_return_indicator)
    else:
        e_omega = _mean_omega(law)
        left = 1.0 + (1.0 - e_omega) * (1.0 + 2.0 * m / (1.0 - m))

        def pair(row):
            cond, _, r1 = row
            q = e_omega * (r1 / (1.0 + r1))
            return (1.0 - e_omega + q, left + q * cond.value) if cond.converged else None

        kernel = _conditional_rows
    xs, ys, failures = _env_pairs(kernel, pair, law, seed, 1, n_env, tol)
    n_ok, ratio, se = ratio_of_samples(xs, ys)
    return Estimate(
        value=ratio,
        std_error=se,
        n=n_ok,
        method="return-conditional-averaged-rb",
        seed=seed,
        flags=flags,
        extras={"env_failures": float(failures)},
    )


def _env_pairs(kernel, pair, law: EnvLaw, seed: int, tag: int, n_env: int, tol: float):
    """Two numbers per sampled environment, the one loop of both averaged
    estimators: (a, b, failures).

    Environment j is keyed by ``substream_seed(seed, tag, j)``; the seeds go
    through the row kernel ``kernel(law, seeds, tol, work=work)`` in blocks
    of ``_ENV_BUDGET // _ENV_ROW_BYTES`` environments, each block's seeds
    made as one uint64 array by ``rng._substream_seeds``.  ``work`` is one
    ``exact._Workspace`` made for this call and dropped when it returns:
    every block takes its large arrays from it, so the memory of the first
    block serves the rest, and no workspace outlives the call (nor grows
    across calls).  The kernel's outputs are Python numbers and hold no view
    into it.  An output that is a ``ConvergenceError``, or for which
    ``pair(output)`` is None, is a failed environment and is dropped alone;
    the others give ``pair(output)``, kept in environment order as the float
    arrays a and b.  More than ``_FAIL_FRACTION`` of n_env failures raise
    ConvergenceError.
    """
    rows = max(1, _ENV_BUDGET // _ENV_ROW_BYTES)
    a, b, failures = array("d"), array("d"), 0
    work = _Workspace()
    for start in range(0, n_env, rows):
        seeds = _substream_seeds(seed, tag, start, min(start + rows, n_env))
        for out in kernel(law, seeds, tol, work=work):
            both = None if isinstance(out, ConvergenceError) else pair(out)
            if both is None:
                failures += 1
            else:
                a.append(both[0])
                b.append(both[1])
    if failures > _FAIL_FRACTION * n_env:
        raise ConvergenceError(f"{failures}/{n_env} environments failed to converge")
    return np.frombuffer(a), np.frombuffer(b), failures


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
    run through the row-wise ``exact._conditional_rows`` in ``_env_pairs``;
    a failed one, or one whose series did not converge, is dropped alone
    (``env_failures``).
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
    r1s, ys, failures = _env_pairs(
        _conditional_rows,
        lambda out: (out[2], out[0].value) if out[0].converged else None,
        law, seed, 7, n_env, tol,
    )
    ws = r1s / (1.0 + r1s)
    n_ok = ys.size

    wy = ws * ys
    sums = [np.cumsum(v) for v in (ws, wy, ws * ws, wy * wy, ws * wy)]
    running, running_ses = [], []
    for s in schedule:
        m = min(s, n_ok)
        ratio, se = ratio_of_means(m, *(float(c[m - 1]) for c in sums))
        running.append((s, ratio))
        running_ses.append((s, se))

    k = max(_HILL_TOP, int(math.ceil(0.01 * n_ok)))
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
    """Site ``sites[i]`` of env seed r at entry (i, r), for every seed.

    With ``levels`` (``law.omega_levels()``) each site is stored as the
    index of its omega in ``levels``, the category of omega under the edges
    ``levels[1:]`` by the one categorical rule, so ``levels[flat]`` is
    bitwise what ``omega_at_sites`` returns; a single level is a
    deterministic environment and draws no site uniforms.  Without, the
    array holds omega.  Sites are realized through ``omega_at_sites``, the
    public draw that benchmark tracing counts, in one call.
    """
    if levels is not None and levels.size == 1:
        return np.zeros((sites.size, len(seeds)), dtype=_site_dtype(levels))
    omega = omega_at_sites(law, np.asarray(seeds, dtype=np.uint64), sites[:, None])
    if levels is None:
        return omega
    return _categories(np.append(levels[1:], 1.0), omega).astype(_site_dtype(levels), copy=False)


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

    Replicate i draws its own environment, keyed by its seed, on [-horizon,
    horizon] (the walk cannot leave it in ``horizon`` steps), but realizes
    only the part its batch's walk reaches: each row starts at
    [-``_ROW_REACH``, ``_ROW_REACH``], clipped to the horizon, and a side
    whose margin runs short grows in every row of the batch (``_Rows``);
    each path starts at site 0 of its row.  Sites are keyed by (seed, x),
    so a grown row is bitwise the full window wherever the walk reads it.
    Finite-support environments are stored one byte a site as
    neighbourhood codes when they have two to six levels, which lets
    ``_free_walk`` advance up to four steps per table lookup, else as level
    codes (up to ``_CODED_LEVELS`` levels); continuous ones as float64
    omega.  Worker shards are stream shards: worker w's generator drives
    the w-th consecutive block of replicates, and all shards of a batch are
    walked in one lockstep.  A batch holds as many full windows as a fixed byte
    budget allows -- every replicate at the usual sizes -- and splits a
    shard only when the shard alone exceeds it.  Batch sizes depend only on
    the parameters, so results are bit-identical for a given (seed, workers).
    """
    if horizon < 1:
        raise ValueError(f"speed_estimate needs horizon >= 1, got {horizon}")
    if reps < 1:
        raise ValueError(f"speed_estimate needs reps >= 1, got {reps}")
    levels = law.omega_levels()
    rows = max(1, _SITE_BUDGET // ((2 * horizon + 1) * _site_dtype(levels).itemsize))
    if levels is not None and levels.size > _CODED_LEVELS:
        levels = None  # rows hold omega, in the batches of level codes
    reach = min(_ROW_REACH, horizon)
    rngs, sizes = zip(*_busy_shards(seed, reps, workers))
    ends = np.cumsum(sizes)
    begins = ends - sizes
    finals = np.empty(reps)
    for start, end in _batches(ends, rows):
        grid = _Rows(law, levels, _substream_seeds(seed, 11, start, end), reach, horizon)
        pos = np.arange(grid.n) - grid.cap_lo * grid.n  # path r starts at site 0 of row r
        in_batch = np.clip(ends, start, end) - np.clip(begins, start, end)
        _free_walk(pos, horizon, list(zip(rngs, in_batch.tolist())), grid)
        finals[start:end] = grid.sites(pos) / horizon
    tallies = [Tally.of(finals[b0:b1]) for b0, b1 in zip(begins, ends)]
    n_tot, mean, se, _, _ = merge_mean(tallies)
    return Estimate(value=mean, std_error=se, n=n_tot, method="speed-mc", seed=seed)
