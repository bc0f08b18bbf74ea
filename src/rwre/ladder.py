"""Negative-drift random-walk analytics: exponential tilting, level-crossing
tails, lattice overshoot, and the pre-passage exponential functional.

For an i.i.d. walk S_n = xi_1 + ... + xi_n with E[xi] < 0 and a positive
root gamma of the moment equation E[e^{gamma xi}] = 1, the tilted law Q
with dQ/dP = e^{gamma S_n} turns the drift positive and gives the exact
level-crossing identity

    P(sup_n S_n >= t) = E_Q[ e^{-gamma S_tau(t)} ],   tau(t) = inf{n>=1: S_n >= t},

which is the zero-bias importance-sampling estimator used here.  On a
lattice a*Z the scaled crossing probabilities e^{gamma a k} P(sup >= a k)
converge to a constant (a renewal-theory age limit), which
``overshoot_constant`` probes empirically.  ``phi_estimate`` targets
phi(t) = E[ sum_{n=0}^{nu(t)-1} e^{-S_n} ] with nu(t) = inf{n>=1: S_n <= -t}.

All four estimators (the importance and naive ``sup_tail`` estimators,
``overshoot_constant`` and ``phi_estimate``) run on one lockstep first-exit
kernel, ``_first_exit``.  It keeps only the partial sums of the paths still
inside.  Float walks return their exit values in exit order (by exit step,
path order within a step), and every consumer (exactly rounded tallies,
min/max) is order-free; lattice walks return how many paths left at each
value, tallied as each step's paths leave, with no per-path array.  An
overshoot scan is one walk, to its top level K:
the tilted drift is positive, so each path passes every lower level on its
way up, and the kernel also keeps each path's running maximum and counts
its rises to a new maximum, from which every level's first passage and
overshoot are read.  The scan's tallies come from those counts alone.  For
laws that are skip-free upward each entry equals a separate walk to its
level; for other lattice laws the entries below K are common-random-number
estimates from the same paths, correlated across k.  A phi walk has a lower
level only, and each path carries its running sum of e^{-S_n} beside its
partial sum; the kernel returns those sums at exit, in exit order.

The kernel turns each uniform into an increment by the package's one
categorical rule, ``env._categories``.  Lattice laws are simulated in exact
integer units so that skip-free importance weights are bit-identical across
paths.  Each step goes through ``_step``, which
draws each step's uniforms ``_STEP_CHUNK`` paths at a time into one
chunk-sized buffer per shard and advances each chunk before drawing the
next; PCG64 draws its doubles in sequence, so the chunks make exactly the
draws of one call for every live path, and the chunk size never changes a
result.  The walk reuses one bool buffer for every compare pass and exit
test.  Integer units add their increments in place by compare passes
(``env._add_steps``); float laws gather theirs into the spent uniforms.
Integer partial sums sit in the narrowest signed dtype that holds the next
step's positions (int8 while they stay within -128..127), widening once a
falling floor or a rising ceiling needs it.

Worker shards run through ``rng._map_shards``, on up to usable-CPU threads.
A shard's thread runs only the private walk and numpy; the tallies are taken
afterwards in the caller's thread, in shard order, so every result depends
on (seed, workers) only.  Lattice tallies come from exit counts
(``Tally.of_counts``), never from a per-path sample array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .env import EnvLaw, _add_steps, _categories, _positive_root, _thresholds
from .estimate import Estimate, Tally, merge_mean
from .rng import _map_shards

LATTICE_ATOL = 1e-9
_STEP_GUARD = 10_000_000_000  # total step budget per worker; trips on misuse
_STEP_CHUNK = 1 << 16  # paths drawn and advanced at a time: bounds the uniform buffer


def _float_gcd(values: Sequence[float], scale: float) -> float:
    g = 0.0
    stop = LATTICE_ATOL * scale
    for v in values:
        a, b = abs(float(v)), g
        while b > stop:
            a, b = b, math.fmod(a, b)
        g = a
    return g


def _detect_lattice(values: Sequence[float]) -> Optional[tuple[float, tuple[int, ...]]]:
    scale = max(abs(v) for v in values)
    g = _float_gcd(values, scale)
    # Spacings below 1e-6 of the value scale are indistinguishable from an
    # irrational ratio at the 1e-9 tolerance; treat them as non-lattice.
    if g <= 1e-6 * scale:
        return None
    units = [round(v / g) for v in values]
    if any(u == 0 and abs(v) > LATTICE_ATOL for v, u in zip(values, units)):
        return None
    # Least-squares refinement of the spacing through the rounded units.
    a = math.fsum(v * u for v, u in zip(values, units)) / math.fsum(u * u for u in units)
    if any(abs(v - u * a) > LATTICE_ATOL * max(1.0, abs(v)) for v, u in zip(values, units)):
        return None
    return a, tuple(units)


@dataclass(frozen=True)
class StepLaw:
    """Finite-support increment law for the auxiliary walk.

    ``lattice`` is the positive spacing a with every support value in a*Z
    (within 1e-9), or None for non-lattice support; ``units`` holds the
    integer multiples when lattice.
    """

    weights: tuple[float, ...]
    values: tuple[float, ...]
    lattice: Optional[float] = None
    units: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.values):
            raise ValueError("step law needs matching weights and values")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be strictly positive")
        if abs(math.fsum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        if self.lattice is not None:
            if self.lattice <= 0 or self.units is None:
                raise ValueError("lattice laws need a > 0 and integer units")
            for v, u in zip(self.values, self.units):
                if abs(v - u * self.lattice) > LATTICE_ATOL * max(1.0, abs(v)):
                    raise ValueError("support value not an integer multiple of the lattice")

    @staticmethod
    def of(
        pairs: Sequence[tuple[float, float]],
        lattice: Union[str, float, None] = "detect",
    ) -> "StepLaw":
        """Build from (weight, value) pairs.

        lattice="detect" derives the spacing by a float gcd; an explicit
        float is verified; None forces non-lattice treatment.
        """
        weights = tuple(float(w) for w, _ in pairs)
        values = tuple(float(v) for _, v in pairs)
        if lattice == "detect":
            found = _detect_lattice(values)
            if found is None:
                return StepLaw(weights, values)
            a, units = found
            return StepLaw(weights, values, lattice=a, units=units)
        if lattice is None:
            return StepLaw(weights, values)
        a = float(lattice)
        units = tuple(round(v / a) for v in values)
        return StepLaw(weights, values, lattice=a, units=units)

    @property
    def mean(self) -> float:
        return math.fsum(w * v for w, v in zip(self.weights, self.values))

    def mgf(self, u: float) -> float:
        return math.fsum(w * math.exp(u * v) for w, v in zip(self.weights, self.values))


def step_from_env(law: EnvLaw) -> StepLaw:
    """Increment law of log rho under a finite-support environment law."""
    pairs = [(w, math.log(rho)) for w, rho in law.rho_support()]
    return StepLaw.of(pairs)


@dataclass(frozen=True)
class TiltedLaw:
    """Exponentially tilted increment law q_i = p_i e^{gamma x_i}."""

    base: StepLaw
    gamma: float
    q_weights: tuple[float, ...]

    @property
    def mean(self) -> float:
        return math.fsum(q * v for q, v in zip(self.q_weights, self.base.values))


def gamma_root(step: StepLaw, tol: float = 1e-12, bracket_cap: float = 64.0) -> float:
    """Positive root gamma of E[e^{gamma xi}] = 1.

    Needs E[xi] < 0 and some positive support (otherwise no root exists and
    a ValueError is raised); raises if the geometric bracket expansion hits
    ``bracket_cap`` before the moment crosses 1.  Also verifies the strict
    convexity consequence E[e^{(gamma/2) xi}] < 1.
    """
    if not step.mean < 0.0:
        raise ValueError(f"gamma_root needs E[xi] < 0, got {step.mean}")
    if not any(v > 0 for v in step.values):
        raise ValueError("gamma_root: no positive support, the moment never returns to 1")

    gamma = _positive_root(lambda u: step.mgf(u) - 1.0, tol, bracket_cap)
    if gamma is None:
        raise RuntimeError(f"gamma_root: no crossing of 1 below bracket cap {bracket_cap}")
    if not step.mgf(gamma / 2.0) < 1.0:
        raise ArithmeticError("convexity check E[e^{(gamma/2) xi}] < 1 failed")
    return gamma


def tilt(step: StepLaw, gamma: float) -> TiltedLaw:
    """Tilted law with q_i = p_i e^{gamma x_i}.

    The weights must already sum to 1 within 1e-9 (i.e. gamma solves the
    moment equation; gamma = 0 gives the identity tilt); they are then
    normalized exactly for sampling.
    """
    q = [w * math.exp(gamma * v) for w, v in zip(step.weights, step.values)]
    z = math.fsum(q)
    if abs(z - 1.0) > 1e-9:
        raise ValueError(f"tilt weights sum to {z}, not 1: gamma is not a moment root")
    return TiltedLaw(base=step, gamma=gamma, q_weights=tuple(qi / z for qi in q))


def _unit_level(t: float, a: float) -> int:
    """Smallest integer u with u*a >= t (snapping exact multiples)."""
    return math.ceil(t / a - 1e-9)


_SUM_DTYPES = (np.int8, np.int16, np.int32, np.int64)


def _sum_dtype(lo: int, hi: int) -> np.dtype:
    """Smallest signed integer dtype holding every integer in [lo, hi]."""
    for dt in _SUM_DTYPES:
        info = np.iinfo(dt)
        if info.min <= lo and hi <= info.max:
            return np.dtype(dt)
    raise OverflowError(f"lattice positions [{lo}, {hi}] do not fit in int64")


def _advance(live: np.ndarray, cumw: np.ndarray, incs: np.ndarray, u: np.ndarray,
             hit: np.ndarray) -> None:
    """One step of every partial sum in ``live``, from one uniform each.
    Integer sums add their increments by compare passes into ``hit``; float
    sums gather theirs into ``u``, which the step uses up."""
    if live.dtype.kind == "i":
        _add_steps(live, cumw, u, incs, hit)
    else:
        # mode="clip" skips take's buffered copy; every category is in range.
        live += np.take(incs, _categories(cumw, u), out=u, mode="clip")


def _step(live: np.ndarray, cumw: np.ndarray, incs: np.ndarray, rng: np.random.Generator,
          u_buf: np.ndarray, hit: np.ndarray) -> None:
    """One step of every partial sum in ``live``, from the draws of
    ``rng.random(live.size)``: ``u_buf.size`` paths at a time, each slice of
    ``live`` advanced from the uniforms drawn into ``u_buf`` before the next
    slice draws.  ``hit`` is a bool buffer as long as ``live``."""
    for a in range(0, live.size, u_buf.size):
        part = live[a : a + u_buf.size]
        _advance(part, cumw, incs, rng.random(out=u_buf[: part.size]), hit[: part.size])


def _first_exit(
    cumw: np.ndarray,
    incs: np.ndarray,
    up,
    down,
    n: int,
    rng: np.random.Generator,
    integer_units: bool,
    levels: Optional[np.ndarray] = None,
    scale: Optional[float] = None,
):
    """Walk n >= 1 paths until S >= up or S <= down.  Float walks return S
    at exit in exit order: the paths that left at step 1 in path order, then
    those that left at step 2, and so on.  Lattice walks, in integer units
    with integer ``up`` and ``down``, return (lo, counts): counts[i] paths
    left at S = lo + i, tallied step by step.

    down = -inf walks every path to its first crossing of ``up``, up = +inf
    to its first drop to ``down``.  Each step draws one uniform for each path
    still inside, in path order, through ``_step``: at most ``_STEP_CHUNK``
    floats at a time into one buffer, so the walk makes the draws of
    ``rng.random(live.size)`` per step without an n-float buffer.  One bool
    buffer of n serves every compare pass and the exit test of the step,
    which, like the tallies and the compaction, runs over the whole live
    array.

    Integer partial sums are held in the smallest signed dtype that holds
    every position reachable at the next step, and every difference of
    increments the compare passes add.  After step k >= 1 a live path lies
    in [max(down + 1, k min_inc), min(up - 1, k max_inc)], and every path
    starts at 0, so the next step lies in that range (with 0) widened by
    [min_inc, max_inc]; ``range_at(k)`` gives both bounds.  With down = -inf
    the floor falls with k, with up = +inf the ceiling rises, and one
    ``astype`` widens the sums just before either bound would leave the
    dtype.  The same ranges size counts from a finite ``up``: every exit
    lies in [lo, max(0, up - 1) + max_inc], with lo = max(up, min_inc) for
    down = -inf and lo = min(0, down + 1) + min_inc otherwise.

    ``scale`` gives each path one float total, started at 1 (S_0 = 0) and
    compacted with its partial sum; after each exit test the paths still
    inside add e^{-S scale}.  The walk then returns every path's total at
    exit, in exit order, for lattice and float walks alike.

    ``levels`` (lattice only: sorted distinct integer levels, the last one
    ``up``, with down = -inf) records every level's first passage instead.
    Each path keeps its running maximum beside its partial sum, started just
    below levels[0] so that only steps n >= 1 count, and a rise from ``old``
    to ``new`` is the first passage of every level in (old, new].  Each step
    counts the rises of the paths at a new running maximum (``live > top``)
    by (new, new - old), in one ``bincount``.  Level k was first passed at
    k + o by the rises to k + o of size above o, so after the walk the level
    counts are suffix sums of that histogram over rise size.  Returns
    (counts, exits) with no per-path array: counts[i, o] paths first crossed
    levels[i] at levels[i] + o, and exits[k-1] paths reached ``up`` at step
    k.  The walk draws exactly what the walk to ``up`` without ``levels``
    draws.
    """
    u_buf = np.empty(min(n, _STEP_CHUNK))
    hit_buf = np.empty(n, dtype=bool)
    if integer_units:
        lo_inc, hi_inc = int(incs.min()), int(incs.max())
        spread = hi_inc - lo_inc  # bounds the differences the compare passes add

        def range_at(k):  # lowest and highest values held at step k + 1
            return (min(min(0, max(down + 1, k * lo_inc)) + lo_inc, -spread),
                    max(max(0, min(up - 1, k * hi_inc)) + hi_inc, spread))

        live = np.zeros(n, dtype=_sum_dtype(*range_at(0)))
        if levels is None and scale is None:  # exits counted by value
            lo = max(up, lo_inc) if down == -math.inf else min(0, down + 1) + lo_inc
            left = np.zeros(max(0, up - 1) + hi_inc - lo + 1, dtype=np.int64)  # [i]: out at lo + i
    else:
        live = np.zeros(n)
    if scale is not None:
        total = np.ones(n)  # each path's sum of e^{-S_j scale} so far, S_0 = 0 included
    if levels is not None:
        first = int(levels[0])
        top = np.full(n, first - 1, dtype=np.int64)  # running max, floored just below levels[0]
        width = int(incs.max()) - min(0, first - 1)  # rises lie in 1..width, overshoots below
        # rises[(new - first) * (width + 1) + r]: rises of size r to a new maximum new
        rises = np.zeros((int(levels[-1]) - first + width) * (width + 1), dtype=np.int64)
    exits = []  # exits[k-1]: S or total of each path out at step k (their count with levels)
    steps = guard = 0
    while live.size:
        if integer_units and (dtype := _sum_dtype(*range_at(steps))) != live.dtype:
            live = live.astype(dtype)
        hit = hit_buf[: live.size]
        _step(live, cumw, incs, rng, u_buf, hit)
        steps += 1
        guard += live.size
        if levels is not None:
            rise = np.flatnonzero(live > top)  # the paths at a new running maximum
            if rise.size:
                old = top[rise]
                top[rise] = live[rise]
                new = top[rise]
                rises += np.bincount((new - first) * (width + 1) + (new - old), minlength=rises.size)
        done = np.greater_equal(live, up, out=hit)
        if down > -math.inf:
            done |= live <= down
        if levels is not None:
            exits.append(np.count_nonzero(done))
        elif integer_units and scale is None:
            left += np.bincount(np.subtract(live[done], lo, dtype=np.intp), minlength=left.size)
        else:
            exits.append((live if scale is None else total)[done])
        keep = np.logical_not(done, out=hit)
        if levels is not None:
            top = top[keep]
        live = live[keep]
        if scale is not None:
            total = total[keep]
            total += np.exp(-(live * scale))
        if guard > _STEP_GUARD:
            raise RuntimeError("first-exit simulation exceeded the step budget")
    if levels is not None:
        above = np.cumsum(rises.reshape(-1, width + 1)[:, ::-1], axis=1)[:, ::-1]
        over = np.arange(width)
        counts = above[(levels - first)[:, None] + over, over + 1]
        return counts, np.array(exits, dtype=np.int64)
    if integer_units and scale is None:
        return lo, left
    # Free the step buffers before the exits are joined: it lowers the peak
    # memory of two threaded shards.
    del hit, done, keep, u_buf, hit_buf
    return np.concatenate(exits)


def _exit_tallies(cumw, incs, up, down, sample, lattice, seed, n, workers) -> list[Tally]:
    """Per-shard tallies of ``sample`` of the exit values S of ``_first_exit``.

    Lattice shards return only how many paths left at each value, and
    ``sample`` of those values goes into ``Tally.of_counts``, which equals
    ``Tally.of`` on the per-path samples bit for bit.  Float shards return
    their exits, sampled into ``Tally.of``.
    """
    shards = _map_shards(
        lambda rng, n_w: _first_exit(cumw, incs, up, down, n_w, rng, lattice), seed, n, workers
    )
    if lattice:
        return [Tally.of_counts(sample(np.arange(lo, lo + c.size)), c) for lo, c in shards]
    return [Tally.of(sample(s)) for s in shards]


def sup_tail(
    step: StepLaw,
    t: float,
    n: int,
    method: str = "importance",
    seed: int = 0,
    workers: int = 1,
    censor_eps: float = 1e-12,
) -> Estimate:
    """Estimate P(sup_{n>=1} S_n >= t) for a negative-drift walk.

    method="importance" simulates under the tilted law Q up to tau(t)
    (almost surely finite there) and averages e^{-gamma S_tau}; for a
    skip-free-up lattice law at a lattice level all weights coincide, so
    the estimator has zero variance.

    method="naive" simulates under the original law and abandons a path as
    a certified miss once it falls to a level -m with
    e^{-gamma (t+m)} < censor_eps; the censoring bias bound is reported in
    ``error_budget``, never mixed into the standard error.
    """
    if not step.mean < 0.0:
        raise ValueError("sup_tail needs E[xi] < 0")
    if n < 1:
        raise ValueError(f"sup_tail needs n >= 1, got {n}")
    if not math.isfinite(t):
        raise ValueError(f"sup_tail needs a finite level t, got {t}")
    gamma = gamma_root(step)
    lattice = step.lattice is not None

    if method == "importance":
        q = tilt(step, gamma)
        cumw = _thresholds(q.q_weights)
        incs = np.asarray(step.units if lattice else step.values)
        level = _unit_level(t, step.lattice) if lattice else t

        def weights(x):
            x = -gamma * (x * step.lattice if lattice else x)
            return np.exp(x, out=x)

        tallies = _exit_tallies(cumw, incs, level, -math.inf, weights, lattice, seed, n, workers)
        n_tot, mean, se, lo, hi = merge_mean(tallies)
        return Estimate(
            value=mean,
            std_error=se,
            n=n_tot,
            method="sup-tail-importance",
            seed=seed,
            extras={"gamma": gamma, "weight_spread": hi - lo},
        )

    if method == "naive":
        m = max(0.0, -math.log(censor_eps) / gamma - t)
        cumw = _thresholds(step.weights)
        incs = np.asarray(step.units if lattice else step.values)
        if lattice:
            up = _unit_level(t, step.lattice)
            down = min(-1, math.floor(-m / step.lattice + 1e-9))
        else:
            # a path at or below -m is abandoned; when m = 0 any dip below 0
            # already certifies the miss, so the level just excludes 0 itself
            up, down = t, min(-1e-300, -m)

        tallies = _exit_tallies(cumw, incs, up, down, lambda x: x >= up, lattice, seed, n, workers)
        n_tot, mean, se, _, _ = merge_mean(tallies)
        return Estimate(
            value=mean,
            std_error=se,
            n=n_tot,
            method="sup-tail-naive",
            seed=seed,
            error_budget=censor_eps,
            extras={"gamma": gamma, "censor_level": -m},
        )

    raise ValueError("method must be 'importance' or 'naive'")


@dataclass(frozen=True)
class OvershootEntry:
    k: int
    level: float
    scaled: float  # e^{gamma a k} * P-hat(sup >= a k)
    scaled_se: float


@dataclass(frozen=True)
class WaldCheck:
    k: int
    mean_s_tau: float
    se_s_tau: float
    mean_tau: float
    se_tau: float
    drift_q: float  # E_Q[xi]


@dataclass(frozen=True)
class OvershootScan:
    gamma: float
    lattice_a: float
    entries: tuple[OvershootEntry, ...]
    overshoot_pmf: dict[int, float]  # overshoot in lattice units, at largest k
    wald: WaldCheck
    n_per_level: int
    seed: int


def overshoot_constant(
    step: StepLaw,
    k_range: Sequence[int],
    n: int,
    seed: int = 0,
    workers: int = 1,
) -> OvershootScan:
    """Scaled crossing probabilities e^{gamma a k} P(sup >= a k) over k.

    The scaled sequence stabilizes to the renewal limit constant; its value
    is estimated, never asserted.  Also records the empirical overshoot
    distribution and the Wald-identity data (mean S_tau vs E_Q[xi] mean tau)
    at the largest k.  Non-lattice laws are rejected: only the lattice
    limit is probed here.

    One scan is one walk of n tilted paths to K = max(k_range): the drift is
    positive under Q, so each path passes every lower level on its way up,
    and ``_first_exit`` records each level's first passage and overshoot as
    counts.  The walk to K draws what a walk to K alone draws, so the k = K
    entry, the Wald data and the overshoot law do not depend on the other
    levels.  For laws that are skip-free upward every path crosses level k
    exactly at k, so every entry equals a separate walk to its own level;
    for other laws the lower entries are common-random-number estimates from
    the same paths, correlated across k.
    """
    if step.lattice is None:
        raise ValueError("overshoot_constant needs a lattice step law")
    if n < 1:
        raise ValueError(f"overshoot_constant needs n >= 1, got {n}")
    ks = sorted(int(k) for k in k_range)
    if not ks:
        raise ValueError("overshoot_constant needs a nonempty k_range")
    gamma = gamma_root(step)
    q = tilt(step, gamma)
    cumw = _thresholds(q.q_weights)
    incs = np.asarray(step.units)
    a = step.lattice
    levels = np.array(sorted(set(ks)))
    top = ks[-1]
    shards = _map_shards(
        lambda rng, n_w: _first_exit(cumw, incs, top, -math.inf, n_w, rng, True, levels),
        seed, n, workers,
    )
    over = np.arange(shards[0][0].shape[1])  # overshoot in lattice units

    def merged(pairs):  # (values, counts) per shard
        return merge_mean([Tally.of_counts(values, counts) for values, counts in pairs])

    entry = {}
    for row, k in enumerate(levels.tolist()):
        weights = np.exp(-gamma * ((k + over) * a))
        _, mean, se, _, _ = merged((weights, counts[row]) for counts, _ in shards)
        scale = math.exp(gamma * a * k)
        entry[k] = OvershootEntry(k=k, level=a * k, scaled=scale * mean, scaled_se=scale * se)
    _, ms, ses, _, _ = merged(((top + over) * a, counts[-1]) for counts, _ in shards)
    _, mt, set_, _, _ = merged(
        (np.arange(1, exits.size + 1, dtype=np.float64), exits) for _, exits in shards
    )
    hits = sum(counts[-1] for counts, _ in shards)
    total = int(hits.sum())
    return OvershootScan(
        gamma=gamma,
        lattice_a=a,
        entries=tuple(entry[k] for k in ks),
        overshoot_pmf={int(u): int(c) / total for u, c in zip(over, hits) if c},
        wald=WaldCheck(
            k=top, mean_s_tau=ms, se_s_tau=ses, mean_tau=mt, se_tau=set_, drift_q=q.mean
        ),
        n_per_level=n,
        seed=seed,
    )


def phi_estimate(
    step: StepLaw,
    t: float,
    n: int,
    seed: int = 0,
    workers: int = 1,
) -> Estimate:
    """Monte Carlo value of phi(t) = E[ sum_{n=0}^{nu(t)-1} e^{-S_n} ].

    nu(t) = inf{n>=1: S_n <= -t} is the first drop below -t; it has
    exponential tails under any negative-drift finite-support law, so the
    paths are simulated to completion under the original measure.  The
    n = 0 term contributes e^{-S_0} = 1 to every path.
    """
    if not step.mean < 0.0:
        raise ValueError("phi_estimate needs E[xi] < 0")
    if n < 1:
        raise ValueError(f"phi_estimate needs n >= 1, got {n}")
    if not math.isfinite(t):
        raise ValueError(f"phi_estimate needs a finite level t, got {t}")
    lattice = step.lattice is not None
    a = step.lattice or 1.0  # a lattice walk runs in units u, with S = a u
    cumw = _thresholds(step.weights)
    incs = np.asarray(step.units if lattice else step.values)
    down = math.floor(-t / a + 1e-9) if lattice else -t  # S <= -t  <=>  u <= floor(-t/a), snapped
    shards = _map_shards(
        lambda rng, n_w: _first_exit(cumw, incs, math.inf, down, n_w, rng, lattice, scale=a),
        seed, n, workers,
    )
    n_tot, mean, se, _, _ = merge_mean([Tally.of(f) for f in shards])
    return Estimate(value=mean, std_error=se, n=n_tot, method="phi-mc", seed=seed)
