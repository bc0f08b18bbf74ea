"""Ladder worker shards on the thread pool (``rng._map_shards``), the
exit-order first-exit kernel they run, its chunked draws, the
occupation-count kernel of lattice estimates, and the block-wise exact sum
behind ``Tally`` and ``ratio_of_samples``.

The shards of float ``sup_tail`` and of ``phi_estimate`` run on up to
usable-CPU threads.  Results must not depend on whether the pool runs, the
pool must never be larger than the usable CPUs nor exist for one busy shard,
and pool threads must run no public ``rwre`` function (the benchmark tracer
keeps one span stack and wraps public functions only).  ``_first_exit`` is
checked against the per-path kernel it replaced, which kept S and tau in
path order (``walks._per_path_first_exit``): float exits in exit order, and
narrow lattice partial sums that widen when they must; phi's per-path totals
against the loop ``phi_estimate`` ran before (``walks._per_path_phi``).
Lattice ``sup_tail`` and ``overshoot_constant`` walk one chain of
occupation counts (``ladder._count_exit``) on the caller's thread, so their
results depend on the seed alone.  The chain draws the law of per-path walks
from other draws, so it is checked in law, by G-tests against the exact laws
of ``tests/chains.py`` (the exit law of a band, each level's tilted
first-passage law and the exit-step law), against per-path exits in a
two-sample test, and as ``sup_tail`` estimates against per-path tallies.
The per-path walks draw each step's uniforms ``ladder._STEP_CHUNK`` paths at
a time, and no chunk size may change a result.

Both modes of ``conditioned_sampler`` leap a chain of how many paths sit
at each site of their window (``mc._leap_batch``) on one stream, so their
samples depend on the seed alone.  Their samples are G-tested against the
exact law of the return time on their windows (``chains.return_time_law``),
and the chain against per-path ``mc._walk`` walks of the same window in a
two-sample test, its escapes included.  A coarse test, a few cells of equal
exact mass and the tail T_0 >= 2000 on its own, sees the tail faults that
the fine test spreads too thin.  The chain's k-step table is checked
against ``chains.leap_law``, and its cap at the edges of a leap, in both
modes.

``speed_estimate`` on a one-level law draws X_h as one binomial per
replicate from the seed's first stream.  Its finals are G-tested against
the exact Binomial(h, omega) law (``chains.simple_walk_law``) and against
per-step walks (``walks._per_step_speed``) in a two-sample test.
"""

import concurrent.futures
import csv
import inspect
import math
import os
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binomtest, chi2

from rwre import (
    EnvLaw,
    EnvWindow,
    Estimate,
    StepLaw,
    conditioned_env,
    conditioned_sampler,
    gamma_root,
    overshoot_constant,
    phi_estimate,
    sample_window,
    speed_estimate,
    step_from_env,
    sup_tail,
    tilt,
)
from rwre import estimate, ladder, mc, rng as rng_mod
from rwre.cli import main
from rwre.env import _thresholds
from rwre.estimate import Tally, ratio_of_means, ratio_of_samples
from rwre.exact import _log_escape_bounds, _log_h_escape_bounds
from rwre.rng import worker_streams

import chains
from laws import CONST_7, FIX_A, FIX_C, FIX_F, ONE_ATOM_3, TWIN_6
from walks import _per_path_first_exit, _per_path_phi, _per_step_speed

SKIP_FREE = StepLaw.of([(0.3, 1.0), (0.7, -1.0)])
GENERAL = StepLaw.of([(0.5, -1.7), (0.5, 0.9)], lattice=None)
JUMPY = StepLaw.of([(0.3, 2.0), (0.2, 1.0), (0.5, -3.0)])  # units (2, 1, -3)
PLUS2_MINUS1 = StepLaw.of([(0.25, 2.0), (0.75, -1.0)])
FIX_F_STEP = step_from_env(FIX_F)


# ------------------------------------------------------------ exact sums

@pytest.mark.parametrize("size", [0, 1, 2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 7])
def test_blockwise_fsum_equals_one_list_fsum(size):
    g = np.random.default_rng(size)
    xs = np.where(g.random(size) < 0.5, -1.0, 1.0) * 10.0 ** g.uniform(-300, 300, size)
    assert estimate._fsum(xs) == math.fsum(xs.tolist())
    # With no negative value the sum is certified from one running cumsum.
    for xs in (np.abs(xs), g.random(size), np.abs(g.standard_normal(size))):
        assert estimate._fsum(xs) == math.fsum(xs.tolist())
    # Tallies also sum squares and products, so keep those finite.
    xs = g.standard_normal(size) * 10.0 ** g.uniform(-150, 150, size)
    ys = g.standard_normal(size) * 10.0 ** g.uniform(-150, 150, size)
    if size:
        t = Tally.of(xs)
        assert (t.total, t.total_sq) == (math.fsum(xs.tolist()), math.fsum((xs * xs).tolist()))
        sums = (math.fsum(v.tolist()) for v in (xs, ys, xs * xs, ys * ys, xs * ys))
        assert ratio_of_samples(xs, ys) == (size, *ratio_of_means(size, *sums))


def _exact_sum(xs, counts):
    """Correctly rounded sum of counts[i] copies of xs[i], in rationals."""
    return float(sum((Fraction(x) * c for x, c in zip(xs, counts)), Fraction(0)))


@pytest.mark.parametrize("seed", range(6))
def test_count_tally_equals_tally_of_repeated_samples(seed):
    g = np.random.default_rng(seed)
    size = int(g.integers(1, 40))
    counts = g.integers(0, 50, size) * (g.random(size) < 0.7)  # zero counts included
    xs = np.where(g.random(size) < 0.5, -1.0, 1.0) * 10.0 ** g.uniform(-300, 300, size)
    assert estimate._counted_fsum(xs[counts > 0], counts[counts > 0].tolist()) == math.fsum(
        np.repeat(xs, counts).tolist()
    )
    # Tallies also sum squares, so keep those finite.
    xs = g.standard_normal(size) * 10.0 ** g.uniform(-150, 150, size)
    assert Tally.of_counts(xs, counts) == Tally.of(np.repeat(xs, counts))
    weights = np.exp(-0.48 * (np.arange(size) + 17) * 0.69)  # overshoot weights
    assert Tally.of_counts(weights, counts) == Tally.of(np.repeat(weights, counts))


@pytest.mark.parametrize("xs, counts", [
    ([2.5], [1]),
    ([-1e-300], [7]),
    ([1e150, -1e150, 3.0], [5, 5, 1]),
    ([1e-300, 1e150, -0.0], [3, 1, 2]),
    ([0.1, 0.2, 0.3], [0, 3, 0]),
    ([1.0, 2.0], [0, 0]),
    ([], []),
])
def test_count_tally_edge_cases(xs, counts):
    xs = np.array(xs, dtype=np.float64)
    assert Tally.of_counts(xs, counts) == Tally.of(np.repeat(xs, np.array(counts, dtype=np.int64)))


@pytest.mark.parametrize("seed", range(4))
def test_count_tally_with_counts_up_to_2_to_the_40(seed):
    # Too many samples to repeat: the reference is the exact rational sum.
    g = np.random.default_rng(seed)
    xs = np.where(g.random(12) < 0.5, -1.0, 1.0) * 10.0 ** g.uniform(-140, 140, 12)
    counts = g.integers(0, 2**40, 12, endpoint=True)
    counts[0] = 2**40
    t = Tally.of_counts(xs, counts)
    assert t.n == sum(counts.tolist())
    assert t.total == _exact_sum(xs.tolist(), counts.tolist())
    assert t.total_sq == _exact_sum((xs * xs).tolist(), counts.tolist())
    assert (t.minimum, t.maximum) == (xs[counts > 0].min(), xs[counts > 0].max())


# ------------------------------------------------------- first-exit kernel

def _kernel_args(step, tilted, up, down):
    lattice = step.lattice is not None
    weights = tilt(step, gamma_root(step)).q_weights if tilted else step.weights
    incs = np.asarray(step.units if lattice else step.values)
    return _thresholds(weights), incs, up, down, lattice


KERNEL_CASES = {
    "lattice-up": (SKIP_FREE, True, 4, -math.inf),
    "lattice-band": (SKIP_FREE, False, 4, -12),
    "logrho-up": (FIX_F_STEP, True, 7, -math.inf),
    "float-up": (GENERAL, True, 6.0, -math.inf),
    "float-band": (GENERAL, False, 6.0, -9.5),
    "jumpy-up": (JUMPY, True, 5, -math.inf),
    "jumpy-band": (JUMPY, False, 5, -12),
    # positions below -128 need int16: finite down, then a long walk up
    "lattice-deep-band": (SKIP_FREE, False, 4, -200),
    "lattice-long-up": (SKIP_FREE, True, 60, -math.inf),
}
FLOAT_CASES = sorted(c for c, (step, *_) in KERNEL_CASES.items() if step.lattice is None)
LATTICE_CASES = sorted(c for c, (step, *_) in KERNEL_CASES.items() if step.lattice is not None)
BAND_CASES = [c for c in LATTICE_CASES if KERNEL_CASES[c][3] > -math.inf]
UP_CASES = [c for c in LATTICE_CASES if KERNEL_CASES[c][3] == -math.inf]


@pytest.mark.parametrize("n", [1, 7, 3000])
@pytest.mark.parametrize("case", FLOAT_CASES)
def test_first_exit_equals_per_path_kernel(case, n):
    cumw, incs, up, down, lattice = _kernel_args(*KERNEL_CASES[case])
    ref_rng, new_rng = worker_streams(17, 1)[0], worker_streams(17, 1)[0]
    s_ref, tau_ref = _per_path_first_exit(cumw, incs, up, down, n, ref_rng, lattice)
    got = ladder._first_exit(cumw, incs, up, down, n, new_rng, lattice)
    # the exits in exit order: by exit step, in path order within a step
    np.testing.assert_array_equal(got, s_ref[np.argsort(tau_ref, kind="stable")])
    assert new_rng.random() == ref_rng.random()  # the same draws were made


def _phi_args(step, t):
    """``_first_exit`` arguments of ``phi_estimate``'s walk: no upper level,
    down the first S <= -t, and the scale of e^{-S}."""
    cumw, incs, _, _, lattice = _kernel_args(step, False, math.inf, None)
    down = math.floor(-t / step.lattice + 1e-9) if lattice else -t
    return cumw, incs, math.inf, down, lattice, step.lattice or 1.0


PHI_CASES = {
    "phi-fix-f": (FIX_F_STEP, 2.0),
    "phi-jumpy": (JUMPY, 12.0),
    "phi-general": (GENERAL, 2.0),
    "phi-long": (SKIP_FREE, 60.0),  # paths live past step 127, where +1 steps can pass 127
}


@pytest.mark.parametrize("n", [1, 7, 3000])
@pytest.mark.parametrize("case", sorted(PHI_CASES))
def test_first_exit_totals_equal_per_path_phi(case, n):
    cumw, incs, up, down, lattice, scale = _phi_args(*PHI_CASES[case])
    ref_rng, new_rng = worker_streams(17, 1)[0], worker_streams(17, 1)[0]
    f_ref, nu_ref = _per_path_phi(cumw, incs, down, n, ref_rng, lattice, scale)
    got = ladder._first_exit(cumw, incs, up, down, n, new_rng, lattice, scale=scale)
    # the totals in exit order: by exit step, in path order within a step
    np.testing.assert_array_equal(got, f_ref[np.argsort(nu_ref, kind="stable")])
    assert new_rng.random() == ref_rng.random()  # the same draws were made


@pytest.mark.parametrize("case, widest", [
    ("phi-fix-f", np.int8), ("phi-long", np.int16), ("phi-jumpy", np.int16),
])
def test_first_exit_sums_start_narrow_and_widen_once_needed(monkeypatch, case, widest):
    cumw, incs, up, down, lattice, scale = _phi_args(*PHI_CASES[case])
    seen = []
    advance = ladder._advance

    def spy(live, *args):
        seen.append(live.dtype)
        return advance(live, *args)

    monkeypatch.setattr(ladder, "_advance", spy)
    ladder._first_exit(cumw, incs, up, down, 3000, worker_streams(17, 1)[0], lattice, scale)
    assert seen[0] == np.int8 and max(seen, key=lambda dt: dt.itemsize) == widest
    assert seen[: seen.index(widest)] == [np.int8] * seen.index(widest)
    if widest == np.int16:  # widened at the first step k + 1 whose ceiling (k + 1) max_inc passes 127
        assert seen.index(widest) == -(-128 // int(incs.max())) - 1


def test_first_exit_step_guard_still_trips(monkeypatch):
    monkeypatch.setattr(ladder, "_STEP_GUARD", 500)
    cumw, incs, _, down, lattice = _kernel_args(*KERNEL_CASES["float-up"])
    with pytest.raises(RuntimeError, match="step budget"):
        ladder._first_exit(cumw, incs, 40.0, down, 100, worker_streams(1, 1)[0], lattice)


# -------------------------------------------------- occupation-count kernel

def _g_pvalue(observed, expected, least=20.0):
    """p-value of the G statistic 2 sum O log(O / E) of counts against
    expected counts, both of shape (rows, cells), on cells - 1 degrees of
    freedom: one row fitted to a known law, or two rows tested for one law.
    Neighbouring cells are pooled, in order, until the smallest expected
    count of each pooled cell is at least ``least``; a short run left at the
    end joins the cell before it.  With 5 expected a cell, and most of the
    return-time cells at 5-20, the statistic ran above its nominal rate."""
    observed = np.atleast_2d(observed).astype(np.float64)
    expected = np.atleast_2d(expected).astype(np.float64)
    label, cell, run = [], 0, np.zeros(expected.shape[0])
    for column in expected.T:
        label.append(cell)
        run += column
        if run.min() >= least:
            cell, run = cell + 1, np.zeros_like(run)
    label = np.array(label)
    if cell and label[-1] == cell:  # the last run is short
        label[label == cell] = cell - 1
    observed = np.array([np.bincount(label, row) for row in observed])
    expected = np.array([np.bincount(label, row) for row in expected])
    seen = observed > 0
    g = 2.0 * np.sum(observed[seen] * np.log(observed[seen] / expected[seen]))
    dof = observed.shape[1] - 1
    return chi2.sf(g, dof) if dof else float(abs(g) < 1e-9)


def _count_up(case, n, seed):
    """``_count_exit`` on a lattice kernel case, with its one level ``up``."""
    cumw, incs, up, down, _ = _kernel_args(*KERNEL_CASES[case])
    return ladder._count_exit(cumw, incs, np.array([up]), down, n, worker_streams(seed, 1)[0])


@pytest.mark.parametrize("n", [1, 7, 3000])
@pytest.mark.parametrize("case", LATTICE_CASES)
def test_count_exit_counts_every_path_once_where_it_can_leave(case, n):
    _, incs, up, down, _ = _kernel_args(*KERNEL_CASES[case])
    counts, exits, below = _count_up(case, n, 17)
    assert counts.dtype == exits.dtype == np.int64 and (counts >= 0).all() and (exits >= 0).all()
    assert counts.sum() + below == n and exits.sum() == counts.sum()
    assert not below or down > -math.inf
    # every path at up leaves from a value below it, by one step
    assert not counts[0, incs.max() :].any()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("case", BAND_CASES)
def test_count_exit_follows_the_exact_exit_law_of_a_band(case, seed):
    step, tilted, up, down = KERNEL_CASES[case]
    assert not tilted
    values, law = chains.exit_law(step.weights, step.units, up, down)
    assert abs(law.sum() - 1.0) <= 1e-12 and law.min() > 1e-4
    # the lower exits pooled, then the overshoots at up
    expected = np.append(law[values <= down].sum(), law[values >= up])
    n = 20_000
    counts, _, below = _count_up(case, n, seed)
    observed = np.append(below, counts[0, : expected.size - 1])
    assert observed.sum() == n  # no path left anywhere else
    assert _g_pvalue(observed, n * expected) > 1e-6


@pytest.mark.parametrize("case", UP_CASES)
def test_count_exit_matches_per_path_exits_in_law(case):
    cumw, incs, up, down, _ = _kernel_args(*KERNEL_CASES[case])
    n = 5000
    for seed in range(4):
        counts, _, _ = _count_up(case, n, seed)
        s, _ = _per_path_first_exit(cumw, incs, up, down, n, worker_streams(seed + 100, 1)[0], True)
        ref = np.bincount(s - up, minlength=counts.shape[1])
        assert ref.size == counts.shape[1]  # the per-path exits lie in the kernel's range too
        table = np.array([counts[0], ref])[:, (counts[0] + ref) > 0]
        expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / (2 * n)
        assert _g_pvalue(table, expected) > 1e-6


# Tilted walks on laws with up-jumps of 2 (a level can be passed without
# landing on it) and a skip-free one, over levels from 0 and below to above
# the start, adjacent levels included.
CHAIN_LAWS = {
    "jumpy": (JUMPY, [-3, 0, 1, 2, 5, 9]),
    "plus2-minus1": (PLUS2_MINUS1, [-1, 1, 2, 3, 6, 10]),
    "fix-f": (FIX_F_STEP, [1, 2, 4, 7]),
}


def _tilted_chain(law):
    step, levels = CHAIN_LAWS[law]
    gamma = gamma_root(step)
    q = tilt(step, gamma).q_weights
    return step, np.array(levels), q, gamma * step.lattice  # the root in lattice units


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("law", sorted(CHAIN_LAWS))
def test_count_exit_level_counts_follow_the_first_passage_law(law, seed):
    step, levels, q, gamma = _tilted_chain(law)
    n = 20_000
    counts, exits, below = ladder._count_exit(
        _thresholds(q), np.asarray(step.units), levels, -math.inf, n, worker_streams(seed, 1)[0]
    )
    assert below == 0 and exits.sum() == n
    for level, row in zip(levels.tolist(), counts):
        passage, lost = chains.first_passage_law(q, step.units, level, gamma)
        assert lost <= 1e-12 and abs(passage.sum() + lost - 1.0) <= 1e-12
        assert row.sum() == n and not row[passage.size :].any()
        # the law is exact within ``lost``
        assert _g_pvalue(row[: passage.size], n * passage / passage.sum()) > 1e-6


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("law", sorted(CHAIN_LAWS))
def test_count_exit_exit_steps_follow_the_exit_step_law(law, seed):
    step, levels, q, gamma = _tilted_chain(law)
    steps = 80  # the steps 1..79, then the tail pooled
    expected, lost = chains.exit_step_law(q, step.units, int(levels[-1]), steps, gamma)
    assert lost <= 1e-12 and 1e-4 < expected[-1] < 0.2
    n = 20_000
    _, exits, _ = ladder._count_exit(
        _thresholds(q), np.asarray(step.units), levels, -math.inf, n, worker_streams(seed, 1)[0]
    )
    observed = np.zeros(steps, dtype=np.int64)
    observed[: min(exits.size, steps - 1)] = exits[: steps - 1]
    observed[-1] = exits[steps - 1 :].sum()
    assert _g_pvalue(observed, n * expected) > 1e-6


def _per_path_sup_tail(step, t, n, method, seed, workers, censor_eps=1e-12):
    """``sup_tail`` on a lattice law rebuilt from per-path exits and ``Tally.of``."""
    gamma, a = gamma_root(step), step.lattice
    up, incs = ladder._unit_level(t, a), np.asarray(step.units)
    if method == "importance":
        cumw, down = _thresholds(tilt(step, gamma).q_weights), -math.inf
        sample = lambda s: np.exp(-gamma * (s * a))
    else:
        m = max(0.0, -math.log(censor_eps) / gamma - t)
        cumw, down = _thresholds(step.weights), min(-1, math.floor(-m / a + 1e-9))
        sample = lambda s: s >= up
    tallies = [Tally.of(sample(_per_path_first_exit(cumw, incs, up, down, n_w, rng, True)[0]))
               for rng, n_w in rng_mod._busy_shards(seed, n, workers)]
    n_tot, mean, se, lo, hi = estimate.merge_mean(tallies)
    if method == "importance":
        return Estimate(value=mean, std_error=se, n=n_tot, method="sup-tail-importance",
                        seed=seed, extras={"gamma": gamma, "weight_spread": hi - lo})
    return Estimate(value=mean, std_error=se, n=n_tot, method="sup-tail-naive", seed=seed,
                    error_budget=censor_eps, extras={"gamma": gamma, "censor_level": -m})


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("method", ["importance", "naive"])
@pytest.mark.parametrize("law", ["skip-free", "jumpy", "fix-f"])
def test_lattice_sup_tail_on_count_exit_agrees_with_per_path_tallies(law, method, workers):
    step = {"skip-free": SKIP_FREE, "jumpy": JUMPY, "fix-f": FIX_F_STEP}[law]
    est = sup_tail(step, 4.0, 2000, method, seed=6, workers=workers)
    ref = _per_path_sup_tail(step, 4.0, 2000, method, 6, workers)
    assert (est.n, est.method, est.error_budget) == (ref.n, ref.method, ref.error_budget)
    assert est.extras.keys() == ref.extras.keys() and est.extras["gamma"] == ref.extras["gamma"]
    assert abs(est.value - ref.value) <= 3.0 * math.hypot(est.std_error, ref.std_error)
    if method == "importance" and law != "jumpy":  # skip-free upward: every path exits at up
        assert est == ref
    if method == "importance" and law == "skip-free":
        assert est.value == pytest.approx((3.0 / 7.0) ** 4, rel=1e-12, abs=1e-12)
        assert est.std_error == 0.0


def test_count_exit_takes_a_last_weight_lost_to_rounding_as_zero():
    # The weights sum to 1 within 1e-12, but the thresholds pass 1 before
    # the last one: no uniform in [0, 1) picks it, and a step weight of
    # -5e-13 would make ``rng.multinomial`` raise.
    step = StepLaw.of([(0.7, -1.0), (0.3 + 5e-13, 1.0), (1e-13, 3.0)])
    cumw = _thresholds(step.weights)
    assert cumw[-2] > 1.0
    counts, _, below = ladder._count_exit(cumw, np.asarray(step.units), np.array([4]), -12,
                                          3000, worker_streams(2, 1)[0])
    assert counts.sum() + below == 3000
    assert not counts[0, 1:].any()  # an overshoot only by a step of 3


def test_count_exit_step_guard_still_trips(monkeypatch):
    monkeypatch.setattr(ladder, "_STEP_GUARD", 500)
    cumw, incs, _, down, _ = _kernel_args(*KERNEL_CASES["lattice-up"])
    with pytest.raises(RuntimeError, match="step budget"):
        ladder._count_exit(cumw, incs, np.array([40]), down, 100, worker_streams(1, 1)[0])


# ------------------------------------------------- rejection count chain

def _rejection_window(law, env_seed, eps=1e-6):
    """The window ``conditioned_sampler``'s rejection mode walks: sites 0..M."""
    m = mc._least_certified(_log_escape_bounds, law, env_seed, eps)
    return sample_window(law, env_seed, 0, m)


def _return_time_cells(samples, steps=2000):
    """Counts of the odd return times below ``steps`` (even), then of the rest."""
    assert steps % 2 == 0 and np.all(samples % 2 == 1)
    return np.bincount(np.minimum(samples, steps) // 2, minlength=steps // 2 + 1)


def _return_time_pvalue(samples, omega, steps=2000):
    """G-test of return times against the exact law of T_0 from 1 given
    T_0 < T_M on the window ``omega``: odd times below ``steps``, the tail
    pooled into one cell."""
    law, tail, p = chains.return_time_law(omega, steps)
    expected = samples.size * np.append(law[::2], tail) / p  # law[k - 1], k = 1, 3, 5, ...
    return _g_pvalue(_return_time_cells(samples, steps), expected)


@pytest.mark.parametrize("seed", range(5))
def test_rejection_count_samples_follow_the_exact_return_time_law(seed):
    window = _rejection_window(FIX_C, 101)
    law, tail, p = chains.return_time_law(window.omega, 2000)
    assert window.hi == 75 and abs(p - 0.486265821387) <= 1e-11
    assert abs(law.sum() + tail - p) <= 1e-12
    samples = conditioned_sampler((FIX_C, 101), "rejection", n=10_000, seed=seed)
    assert samples.size == 10_000
    assert _return_time_pvalue(samples, window.omega) > 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_h_transform_samples_follow_the_exact_return_time_law(seed):
    n = 10_000
    hi = mc._least_certified(_log_h_escape_bounds, FIX_C, 101, 1e-6 / n)
    window = conditioned_env(FIX_C, 101, hi, tol=1e-12)
    _, _, p = chains.return_time_law(window.omega, 2000)
    assert window.lo == 0 and 1.0 - 1e-9 < p <= 1.0  # the walk returns before hi
    samples = conditioned_sampler((FIX_C, 101), "h_transform", n=n, seed=seed)
    assert _return_time_pvalue(samples, window.omega) > 1e-6


def _equal_mass_cells(samples, omega, cells=8, steps=2000):
    """(observed, expected) counts of return times in ``cells`` runs of odd
    times below ``steps`` of about equal exact mass, then the tail T_0 >=
    ``steps``, under the exact law of T_0 from 1 given T_0 < T_M."""
    law, tail, p = chains.return_time_law(omega, steps)
    mass = law[::2] / p  # times 1, 3, ..., steps - 1
    before = np.cumsum(mass) - mass  # the mass of the earlier times
    cell = np.minimum((cells * before / mass.sum()).astype(np.int64), cells - 1)
    cell = np.unique(cell, return_inverse=True)[1]  # one label a run, numbered from 0
    observed = np.bincount(cell, _return_time_cells(samples, steps)[:-1])
    return (np.append(observed, (samples >= steps).sum()),
            samples.size * np.append(np.bincount(cell, mass), tail / p))


@pytest.mark.parametrize("seed", range(5))
def test_rejection_count_tail_follows_the_exact_return_time_law(seed):
    # The fine G-test above spreads the tail cell's share over hundreds of
    # degrees of freedom: a fault confined to the returns after 2000 steps
    # moves too few samples to show there.
    window = _rejection_window(FIX_C, 101)
    n = 100_000
    samples = conditioned_sampler((FIX_C, 101), "rejection", n=n, seed=seed)
    observed, expected = _equal_mass_cells(samples, window.omega)
    assert expected[-1] > 250  # about 275 returns after step 2000
    assert binomtest(int(observed[-1]), n, expected[-1] / n).pvalue > 1e-6
    assert _g_pvalue(observed, expected) > 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_h_transform_tail_follows_the_exact_return_time_law(seed):
    n = 100_000
    hi = mc._least_certified(_log_h_escape_bounds, FIX_C, 101, 1e-6 / n)
    window = conditioned_env(FIX_C, 101, hi, tol=1e-12)
    samples = conditioned_sampler((FIX_C, 101), "h_transform", n=n, seed=seed)
    assert samples.size == n  # every path returns, and each is one sample
    observed, expected = _equal_mass_cells(samples, window.omega)
    assert expected[-1] > 250  # about 275 returns after step 2000
    assert binomtest(int(observed[-1]), n, expected[-1] / n).pvalue > 1e-6
    assert _g_pvalue(observed, expected) > 1e-6


def test_rejection_count_chain_matches_per_path_walks_in_law():
    window = _rejection_window(FIX_C, 101)
    stop = np.zeros(window.omega.size, dtype=bool)
    stop[[0, window.hi]] = True
    n = 10_000
    for seed in range(2):
        chain = conditioned_sampler((FIX_C, 101), "rejection", n=n, seed=seed)
        # per-path walks of the same window on another stream: every return kept
        rng = worker_streams(seed + 100, 1)[0]
        end, steps, stopped = mc._walk(window.omega, np.ones(3 * n, np.int64), stop, 10**7, rng)
        assert stopped.all()
        table = np.array([_return_time_cells(chain), _return_time_cells(steps[end == 0])])
        expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
        assert _g_pvalue(table, expected) > 1e-6


LEAP_WINDOWS = {"FIX-C-101": (FIX_C, 101), "FIX-A-2": (FIX_A, 2),
                "constant-0.51": (EnvLaw.constant(0.51), 0)}


@pytest.mark.parametrize("k", [1, 7, mc._LEAP])
@pytest.mark.parametrize("name", LEAP_WINDOWS)
def test_rejection_count_leap_table_is_the_exact_k_step_law(name, k):
    window = _rejection_window(*LEAP_WINDOWS[name])
    m = window.hi
    tracemalloc.start()
    table = mc._leap_table(window.omega, k)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    law = chains.leap_law(window.omega, k)
    assert table.shape == law.shape == (m - 1, 2 * k + 2)
    assert np.abs(table - law).max() <= 1e-13
    assert np.abs(table.sum(axis=1) - 1.0).max() <= 1e-12
    x = np.arange(1, m)[:, None]
    assert not table[:, :k][(np.arange(1, k + 1) - x) % 2 == 1].any()  # a return at odd s - x
    sites = x - k + 2 * np.arange(k + 1)
    assert not table[:, k : 2 * k + 1][(sites <= 0) | (sites >= m)].any()
    # M = 346: the table and one band-sized scratch array; at a short leap,
    # numpy's fixed iteration buffer (up to 64 KiB) would outweigh them
    if name == "constant-0.51" and k == mc._LEAP:
        assert m == 346 and peak <= 2 * table.nbytes


CAPS = pytest.mark.parametrize("cap", [1, mc._LEAP - 1, mc._LEAP, mc._LEAP + 1, 2 * mc._LEAP + 1])


def _one_step_window():
    """omega_1 = 0: every path returns at step 1."""
    omega = np.full(40, 0.5)
    omega[1] = 0.0
    return omega


def _climb_window():
    """Half the paths return at step 1, the rest climb to M = k + 2 at step
    k + 1, k = ``mc._LEAP``."""
    omega = np.ones(mc._LEAP + 3)
    omega[1] = 0.5
    return omega


def _trap_window():
    """Site 1 sends every path up and site 2 sends it back: none ever ends."""
    omega = np.full(40, 0.5)
    omega[1], omega[2] = 1.0, 0.0
    return omega


@CAPS
def test_rejection_count_batch_raises_exactly_when_paths_outlive_the_cap(cap):
    k, rng = mc._LEAP, worker_streams(0, 1)[0]
    omega = _one_step_window()
    times, counts, escapes = mc._leap_batch(omega, mc._leap_table(omega, k), 50, cap, rng)
    assert times.tolist() == [1] and counts.tolist() == [50] and escapes == 0
    omega = _climb_window()
    table = mc._leap_table(omega, k)
    if cap < k + 1:
        with pytest.raises(RuntimeError, match=f"path cap {cap} exhausted"):
            mc._leap_batch(omega, table, 50, cap, rng)
    else:
        times, counts, escapes = mc._leap_batch(omega, table, 50, cap, rng)
        assert times.tolist() == [1] and 0 < counts[0] < 50 and counts[0] + escapes == 50
    omega = _trap_window()
    with pytest.raises(RuntimeError, match=f"path cap {cap} exhausted"):
        mc._leap_batch(omega, mc._leap_table(omega, k), 50, cap, rng)


@CAPS
def test_h_transform_raises_exactly_when_paths_outlive_the_cap(monkeypatch, cap):
    k = mc._LEAP
    window = {}
    monkeypatch.setattr(mc, "conditioned_env", lambda law, seed, hi, tol: window["env"])

    def sample(omega):
        window["env"] = EnvWindow(lo=0, hi=omega.size - 1, omega=omega, law=FIX_C, seed=101)
        return conditioned_sampler((FIX_C, 101), "h_transform", n=50, cap=cap, seed=3)

    assert sample(_one_step_window()).tolist() == [1] * 50
    # the climbers reach the edge at step k + 1: the cap raises first if it is shorter
    if cap < k + 1:
        with pytest.raises(RuntimeError, match=f"path cap {cap} exhausted"):
            sample(_climb_window())
    else:
        with pytest.raises(RuntimeError, match="reached the window edge; enlarge hi"):
            sample(_climb_window())
    with pytest.raises(RuntimeError, match=f"path cap {cap} exhausted"):
        sample(_trap_window())


def test_count_chain_escapes_match_per_path_walks():
    # Every path is counted once, as a return or an escape, and the escapes
    # follow the law of per-path walks: a two-sample test of (returns,
    # escapes) and each against P^1(T_M < T_0) from the exact law.
    window = sample_window(FIX_C, 101, 0, 12)
    omega, m = window.omega, window.hi
    stop = np.zeros(m + 1, dtype=bool)
    stop[[0, m]] = True
    table = mc._leap_table(omega, mc._LEAP)
    _, _, p = chains.return_time_law(omega, 2)
    assert 0.1 < 1.0 - p < 0.9
    n = 20_000
    for seed in range(3):
        _, counts, escapes = mc._leap_batch(omega, table, n, 10**7, worker_streams(seed, 1)[0])
        assert counts.sum() + escapes == n
        end, _, stopped = mc._walk(omega, np.ones(n, np.int64), stop, 10**7,
                                   worker_streams(seed + 100, 1)[0])
        assert stopped.all()
        walked = int((end == m).sum())
        for k in (escapes, walked):
            assert binomtest(k, n, 1.0 - p).pvalue > 1e-6
        split = np.array([[n - escapes, escapes], [n - walked, walked]])
        expected = np.outer(split.sum(axis=1), split.sum(axis=0)) / split.sum()
        assert _g_pvalue(split, expected) > 1e-6
    # a window that every path climbs: all escape, at step M - 1, none return
    omega = np.ones(m + 1)
    _, counts, escapes = mc._leap_batch(omega, mc._leap_table(omega, mc._LEAP), n, 10**7,
                                        worker_streams(0, 1)[0])
    assert escapes == n and not counts.size


@pytest.mark.parametrize("law,env_seed,n", [(FIX_C, 101, 2000), (FIX_C, 101, 5), (FIX_A, 2, 121)])
def test_rejection_count_samples_depend_on_the_seed_alone(law, env_seed, n):
    one, two, three = (conditioned_sampler((law, env_seed), "rejection", n=n, seed=3, workers=w)
                       for w in (1, 2, 3))
    assert one.size == n
    np.testing.assert_array_equal(one, two)
    np.testing.assert_array_equal(one, three)


@pytest.mark.parametrize("law,env_seed,n", [(FIX_C, 101, 2000), (FIX_C, 101, 2), (FIX_A, 2, 121)])
def test_h_transform_samples_depend_on_the_seed_alone(law, env_seed, n):
    one, two, three = (conditioned_sampler((law, env_seed), "h_transform", n=n, seed=3, workers=w)
                       for w in (1, 2, 3))
    assert one.size == n
    np.testing.assert_array_equal(one, two)
    np.testing.assert_array_equal(one, three)


# -------------------------------------------------------- one-level speed

ONE_LEVEL_LAWS = pytest.mark.parametrize("law", [CONST_7, ONE_ATOM_3, TWIN_6],
                                         ids=["CONST-0.7", "one-atom-0.3", "twin-atoms-0.6"])


def _one_level_ups(law, horizon, reps, seed):
    """The up-step counts B = (X_h + h) / 2 of ``speed_estimate``'s finals on
    a one-level law, taken from the one ``Tally`` it makes of them."""
    seen, of = [], Tally.of

    def spy(samples):
        seen.append(np.asarray(samples))
        return of(samples)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc.Tally, "of", staticmethod(spy))
        speed_estimate(law, horizon=horizon, reps=reps, seed=seed)
    (finals,) = seen
    x = np.rint(finals * horizon).astype(np.int64)
    assert x.size == reps and (abs(x) <= horizon).all() and ((x + horizon) % 2 == 0).all()
    return (x + horizon) // 2


@ONE_LEVEL_LAWS
@pytest.mark.parametrize("horizon", [9, 40])
def test_one_level_speed_follows_the_exact_binomial_law(law, horizon):
    (p,) = law.omega_levels()
    expected = chains.simple_walk_law(p, horizon)
    assert abs(expected.sum() - 1.0) <= 1e-12
    n = 100_000
    for seed in range(5):
        observed = np.bincount(_one_level_ups(law, horizon, n, seed), minlength=horizon + 1)
        assert _g_pvalue(observed, n * expected) > 1e-6


@pytest.mark.parametrize("law", [CONST_7, ONE_ATOM_3], ids=["CONST-0.7", "one-atom-0.3"])
@pytest.mark.parametrize("horizon", [9, 40])
def test_one_level_speed_matches_per_step_walks_in_law(law, horizon):
    n = 100_000
    ups = _one_level_ups(law, horizon, n, 0)
    (finals,) = _per_step_speed(law, horizon, n, 100, 1, 10_000)
    walked = (np.rint(finals * horizon).astype(np.int64) + horizon) // 2
    table = np.array([np.bincount(ups, minlength=horizon + 1),
                      np.bincount(walked, minlength=horizon + 1)])
    table = table[:, table.sum(axis=0) > 0]
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / (2 * n)
    assert _g_pvalue(table, expected) > 1e-6


# ------------------------------------------------------------------- pool

# The estimators that walk path by path, in worker shards on the pool.
POOLED = {
    "sup-float": lambda n, w: sup_tail(GENERAL, 6.0, n, "importance", seed=5, workers=w),
    "sup-float-naive": lambda n, w: sup_tail(GENERAL, 6.0, n, "naive", seed=5, workers=w),
    "phi": lambda n, w: phi_estimate(FIX_F_STEP, 2.0, n, seed=5, workers=w),
}
# The lattice estimates, one chain of occupation counts on the caller's thread.
CHAINED = {
    "sup-naive": lambda n, w: sup_tail(SKIP_FREE, 4, n, "naive", seed=5, workers=w),
    "sup-importance": lambda n, w: sup_tail(SKIP_FREE, 4, n, "importance", seed=5, workers=w),
    "sup-jumpy-naive": lambda n, w: sup_tail(JUMPY, 4, n, "naive", seed=5, workers=w),
    "sup-jumpy-importance": lambda n, w: sup_tail(JUMPY, 4, n, "importance", seed=5, workers=w),
    "overshoot": lambda n, w: overshoot_constant(FIX_F_STEP, range(3, 6), n, seed=5, workers=w),
    "overshoot-jumpy": lambda n, w: overshoot_constant(JUMPY, range(1, 6), n, seed=5, workers=w),
}
ESTIMATORS = {**POOLED, **CHAINED}


def _pools(monkeypatch, cpus):
    """Set the usable-CPU count; returns the max_workers of every pool made."""
    made = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(rng_mod, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return made


@pytest.mark.parametrize("n, workers", [(1500, 1), (1500, 2), (1500, 3), (1500, 4), (3, 5)])
@pytest.mark.parametrize("name", sorted(POOLED))
def test_pool_on_equals_pool_off(monkeypatch, name, n, workers):
    run = POOLED[name]
    made = _pools(monkeypatch, 1)
    serial = run(n, workers)
    assert made == []
    made = _pools(monkeypatch, 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more threads than cores, switching often
    try:
        threaded = run(n, workers)
    finally:
        sys.setswitchinterval(interval)
    busy = min(n, workers)
    assert set(made) == ({busy} if busy > 1 else set())
    assert threaded == serial


@pytest.mark.parametrize("name", sorted(CHAINED))
def test_lattice_estimates_depend_on_the_seed_alone(monkeypatch, name):
    def refuse(*args):
        raise AssertionError("a lattice estimate mapped worker shards")

    monkeypatch.setattr(ladder, "_map_shards", refuse)
    run = CHAINED[name]
    one, two, three = (run(1500, workers) for workers in (1, 2, 3))
    assert one == two == three


class _FakePool:
    """Records its size and runs the shards in the caller's thread."""

    made = []

    def __init__(self, max_workers):
        _FakePool.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("cpus, n, expected", [(3, 1000, 3), (128, 1000, 64), (128, 5, 5)])
def test_pool_never_exceeds_usable_cpus_or_busy_shards(monkeypatch, cpus, n, expected):
    monkeypatch.setattr(_FakePool, "made", [])
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _FakePool)
    monkeypatch.setattr(rng_mod, "_usable_cpus", lambda: cpus)
    threads_before = threading.active_count()
    est = sup_tail(GENERAL, 6.0, n, "importance", seed=2, workers=64)
    assert _FakePool.made == [expected]
    assert threading.active_count() == threads_before
    assert est.n == n


def test_usable_cpus_follow_the_affinity_mask():
    if hasattr(os, "sched_getaffinity"):
        assert rng_mod._usable_cpus() == len(os.sched_getaffinity(0))
    else:
        assert rng_mod._usable_cpus() == (os.cpu_count() or 1)


@pytest.mark.parametrize("n, workers", [(500, 1), (1, 3)])
def test_one_busy_shard_makes_no_pool(monkeypatch, n, workers):
    class Refuse:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a pool was made for one busy shard")

    monkeypatch.setattr(rng_mod, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Refuse)
    for run in ESTIMATORS.values():
        run(n, workers)


def test_step_guard_error_from_a_pool_thread_reaches_the_caller(monkeypatch, tmp_path):
    made = _pools(monkeypatch, 2)
    monkeypatch.setattr(ladder, "_STEP_GUARD", 100)
    raised = []
    kernel = ladder._first_exit

    def spy(*args):
        try:
            return kernel(*args)
        except RuntimeError as exc:
            raised.append((threading.current_thread(), exc))
            raise

    monkeypatch.setattr(ladder, "_first_exit", spy)
    with pytest.raises(RuntimeError, match="step budget") as info:
        sup_tail(GENERAL, 50.0, 1000, "importance", seed=1, workers=2)
    assert made == [2]
    assert raised and all(t is not threading.main_thread() for t, _ in raised)
    assert any(info.value is exc for _, exc in raised)
    out = str(tmp_path / "guard")
    argv = ["ladder", "--step", "general:0.5@-1.7,0.5@0.9", "--sup-tail", "50",
            "-n", "1000", "--seed", "1", "--workers", "2", "--out", out]
    assert main(argv) == 2


def _public_code_objects():
    """Code of every function the benchmark tracer wraps: public functions of
    the rwre modules and public methods of the classes they define."""
    codes = set()
    for name, module in list(sys.modules.items()):
        if not (name == "rwre" or name.startswith("rwre.")):
            continue
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                codes.add(obj.__code__)
            elif inspect.isclass(obj):
                for mattr, mobj in vars(obj).items():
                    if mattr.startswith("_"):
                        continue
                    fn = mobj.__func__ if isinstance(mobj, (staticmethod, classmethod)) else mobj
                    if inspect.isfunction(fn):
                        codes.add(fn.__code__)
    return codes


def test_pool_threads_run_no_public_function(monkeypatch):
    public = _public_code_objects()
    assert Tally.of.__code__ in public and sup_tail.__code__ in public
    made = _pools(monkeypatch, 4)
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    threading.setprofile(profile)  # new threads only; this thread is not profiled
    try:
        for run in POOLED.values():
            run(1500, 3)
    finally:
        threading.setprofile(None)
    assert made and set(made) == {3}
    assert ladder._first_exit.__code__ in seen  # the kernel did run in the pool
    leaked = {f"{c.co_filename}:{c.co_name}" for c in seen & public}
    assert not leaked


# ---------------------------------------------------------------- streams

def _count_generators(monkeypatch):
    """Make ``rng.worker_streams``, also as ``mc`` imported it, record how
    many generators it builds."""
    built = []
    real = rng_mod.worker_streams

    def counting(seed, workers):
        built.append(workers)
        return real(seed, workers)

    monkeypatch.setattr(rng_mod, "worker_streams", counting)
    monkeypatch.setattr(mc, "worker_streams", counting)
    return built


def test_busy_shards_are_the_leading_streams():
    shards = rng_mod._busy_shards(9, 5, 8)
    assert [n_w for _, n_w in shards] == [1] * 5
    refs = worker_streams(9, 8)
    assert all(r.random() == ref.random() for (r, _), ref in zip(shards, refs))
    assert [n_w for _, n_w in rng_mod._busy_shards(9, 10, 4)] == [3, 3, 2, 2]
    with pytest.raises(ValueError, match="workers must be >= 1"):
        rng_mod._busy_shards(9, 10, 0)


def test_ladder_run_builds_no_stream_for_an_empty_shard(monkeypatch, tmp_path):
    monkeypatch.setattr(rng_mod, "_usable_cpus", lambda: 2)
    built = _count_generators(monkeypatch)
    csvs = []
    for workers in ("1000", "100000"):
        out = str(tmp_path / f"w{workers}")
        argv = ["ladder", "--step", "lattice:0.3@+1,0.7@-1", "--phi", "2",
                "-n", "1000", "--seed", "3", "--workers", workers, "--out", out]
        assert main(argv) == 0
        with open(out + ".csv", newline="") as fh:
            csvs.append(list(csv.reader(fh)))
    assert csvs[0] == csvs[1]
    assert built == [1000, 1000]


@pytest.mark.parametrize("name", ["conditioned-h", "conditioned-rejection", "speed"])
def test_walk_estimators_build_no_stream_for_an_empty_shard(monkeypatch, name):
    run = {
        "conditioned-h": lambda w: conditioned_sampler((FIX_C, 101), "h_transform", n=3, cap=10**5,
                                                       seed=4, workers=w),
        "conditioned-rejection": lambda w: conditioned_sampler((FIX_C, 101), "rejection", n=3,
                                                               cap=10**5, seed=4, workers=w),
        "speed": lambda w: speed_estimate(FIX_A, horizon=300, reps=3, seed=4, workers=w),
    }[name]
    built = _count_generators(monkeypatch)
    streams = 1 if name.startswith("conditioned") else 3  # conditioned: one stream for all paths
    busy = run(3)
    assert built == [streams]
    many = run(5000)
    assert built == [streams, streams]
    if name == "speed":
        assert many == busy
    else:
        np.testing.assert_array_equal(many, busy)


# ---------------------------------------------------------- chunked draws

@pytest.mark.parametrize("chunk", [1000, 7])
@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_step_chunk_never_changes_a_result(monkeypatch, name, chunk):
    run = ESTIMATORS[name]
    expected = run(3000, 2)  # shards of 1500 paths, above both chunk sizes
    sizes = []
    advance = ladder._advance

    def spy(live, *args):
        sizes.append(live.size)
        return advance(live, *args)

    monkeypatch.setattr(ladder, "_STEP_CHUNK", chunk)
    monkeypatch.setattr(ladder, "_advance", spy)
    assert run(3000, 2) == expected
    if name in CHAINED:  # count chains draw no uniforms
        assert sizes == []
    else:
        assert max(sizes) == chunk


# ----------------------------------------------------------------- memory

def test_count_exit_peak_memory_of_the_sup_naive_chain():
    # The benchmark's sup_naive, 10^6 paths: 5.2 MiB traced for one of its
    # two 5x10^5-path shards with an n-float uniform buffer, 1.9 MiB with
    # chunk-sized draws, and a few KiB as occupation counts, which do not
    # grow with the paths.
    step = SKIP_FREE
    m = -math.log(1e-12) / gamma_root(step) - 4.0
    cumw, incs, up, down, _ = _kernel_args(step, False, 4, math.floor(-m + 1e-9))
    tracemalloc.start()
    try:
        counts, _, below = ladder._count_exit(cumw, incs, np.array([up]), down, 10**6,
                                              worker_streams(3, 1)[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() + below == 10**6
    assert peak < 0.1 * 2**20


@pytest.mark.parametrize("method", ["naive", "importance"])
def test_sup_tail_peak_memory_with_both_shards_live(monkeypatch, method):
    # Float walks on two threads, each shard with 2x10^5 live partial sums
    # (1.6 MB), its exit values and a bool buffer: 7.5-8.1 MiB traced over
    # seeds 0..7 on either method.
    monkeypatch.setattr(rng_mod, "_usable_cpus", lambda: 2)
    tracemalloc.start()
    try:
        est = sup_tail(GENERAL, 6.0, 400_000, method, seed=3, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(est, Estimate) and est.n == 400_000
    assert peak < 10 * 2**20
