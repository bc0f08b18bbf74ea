"""Walk stepping, first returns, conditioned samplers, MC estimators."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from rwre import (
    EnvLaw,
    ReturnOutcome,
    conditioned_return_expectation,
    conditioned_sampler,
    divergence_diagnostic,
    estimate_return_conditional,
    first_return_window,
    sample_first_return,
    sample_window,
    simulate_until,
    speed_estimate,
)
from rwre import mc
from rwre.rng import worker_streams

from laws import CONST_7, CONST_9, FIX_A, FIX_C, FIX_D

KS_CRIT_1PCT = 1.628  # Smirnov large-sample coefficient at alpha = 0.01


def stream(seed):
    return worker_streams(seed, 1)[0]


class TestSimulateUntil:
    def test_start_in_targets(self):
        w = sample_window(CONST_7, 0, -5, 5)
        assert simulate_until(w, 2, {2}, 100, stream(0)) == (2, 0)

    def test_near_deterministic_drift(self):
        w = sample_window(EnvLaw.constant(0.999), 0, -5, 20)
        site, steps = simulate_until(w, 0, {10}, 10000, stream(1))
        assert site == 10
        assert steps <= 14  # ~10 steps typical at p = 0.999

    def test_mean_steps_matches_exact(self):
        w = sample_window(CONST_7, 0, -80, 2)
        rng = stream(2)
        steps = [simulate_until(w, 0, {1}, 10**6, rng)[1] for _ in range(20000)]
        mean = float(np.mean(steps))
        se = float(np.std(steps, ddof=1) / math.sqrt(len(steps)))
        assert abs(mean - 2.5) <= 3.0 * se

    def test_censored(self):
        w = sample_window(CONST_7, 0, -50, 50)
        site, steps = simulate_until(w, 0, {40}, 3, stream(3))
        assert site is None and steps == 3

    def test_walks_off_window_raises(self):
        w = sample_window(EnvLaw.constant(0.999), 0, -2, 3)
        with pytest.raises(RuntimeError):
            simulate_until(w, 0, {-2}, 10000, stream(4))

    def test_walks_off_window_on_last_step_raises(self):
        # the only step leaves the window (p = 0.999 at the right edge)
        w = sample_window(EnvLaw.constant(0.999), 0, -2, 3)
        with pytest.raises(RuntimeError):
            simulate_until(w, 3, {-2}, 1, stream(4))


class TestReturnOutcome:
    def test_parity_enforced(self):
        with pytest.raises(ValueError):
            ReturnOutcome(status="returned", first_step=1, steps=3)
        with pytest.raises(ValueError):
            ReturnOutcome(status="returned", first_step=1, steps=0)
        ReturnOutcome(status="returned", first_step=-1, steps=2)

    def test_escaped_carries_bound(self):
        with pytest.raises(ValueError):
            ReturnOutcome(status="escaped", first_step=1)
        ReturnOutcome(status="escaped", first_step=1, certified_bound=1e-13)


class TestSampleFirstReturn:
    def test_return_probability_07(self):
        win = first_return_window(CONST_7, 5, 1e-12)
        rng = stream(5)
        outs = [sample_first_return(win, 10**6, 1e-12, rng) for _ in range(20000)]
        returned = [o for o in outs if o.status == "returned"]
        p_hat = len(returned) / len(outs)
        se = math.sqrt(p_hat * (1 - p_hat) / len(outs))
        assert abs(p_hat - 0.6) <= 3.0 * se
        assert all(o.steps % 2 == 0 and o.steps >= 2 for o in returned)

    def test_return_probability_09(self):
        win = first_return_window(CONST_9, 5, 1e-12)
        rng = stream(6)
        outs = [sample_first_return(win, 10**6, 1e-12, rng) for _ in range(20000)]
        p_hat = sum(o.status == "returned" for o in outs) / len(outs)
        se = math.sqrt(p_hat * (1 - p_hat) / len(outs))
        assert abs(p_hat - 0.2) <= 3.0 * se

    def test_escape_bound_echoed(self):
        win = first_return_window(CONST_7, 5, 1e-12)
        rng = stream(7)
        escaped = None
        for _ in range(200):
            o = sample_first_return(win, 10**6, 1e-12, rng)
            if o.status == "escaped":
                escaped = o
                break
        assert escaped is not None
        assert escaped.certified_bound <= 1e-12

    def test_window_too_small(self):
        # hi = 0 has no positive escape edge: P^0(T_0 < inf) = 1 certifies nothing.
        for lo, hi in ((-20, 8), (-64, 0)):
            with pytest.raises(ValueError):
                sample_first_return(sample_window(CONST_7, 5, lo, hi), 100, 1e-12, stream(8))


class TestConditionedSampler:
    def test_h_transform_constant_env(self):
        s = conditioned_sampler((CONST_7, 3), "h_transform", n=20000, seed=21)
        # conditioned walk is the p = 0.3 walk: mean T_0 from 1 is 2.5
        se = s.std(ddof=1) / math.sqrt(s.size)
        assert abs(s.mean() - 2.5) <= 3.0 * se
        assert np.all(s % 2 == 1)

    def test_rejection_parity(self):
        s = conditioned_sampler((CONST_7, 3), "rejection", n=5000, seed=22)
        assert np.all(s % 2 == 1)

    @pytest.mark.parametrize("law,env_seed", [(FIX_C, 101), (FIX_A, 11), (CONST_9, 1)])
    def test_sampler_equivalence_ks(self, law, env_seed):
        n = 4000
        h = conditioned_sampler((law, env_seed), "h_transform", n=n, seed=31)
        r = conditioned_sampler((law, env_seed), "rejection", n=n, seed=32)
        crit = KS_CRIT_1PCT * math.sqrt(2.0 / n)
        assert ks_2samp(h, r).statistic < crit

    def test_matches_exact_conditional_mean(self):
        for env_seed in (101, 303):
            exact = conditioned_return_expectation(FIX_C, env_seed, tol=1e-12).value
            s = conditioned_sampler((FIX_C, env_seed), "h_transform", n=20000, seed=41)
            se = s.std(ddof=1) / math.sqrt(s.size)
            assert abs(s.mean() - exact) <= 3.0 * se

    def test_deterministic(self):
        a = conditioned_sampler((FIX_C, 101), "h_transform", n=500, seed=5, workers=2)
        b = conditioned_sampler((FIX_C, 101), "h_transform", n=500, seed=5, workers=2)
        assert np.array_equal(a, b)

    def test_h_transform_window_edge_raises(self, monkeypatch):
        real = mc.conditioned_env
        monkeypatch.setattr(
            mc, "conditioned_env", lambda law, seed, hi, tol: real(law, seed, 2, tol=tol)
        )
        with pytest.raises(RuntimeError, match="reached the window edge; enlarge hi"):
            conditioned_sampler((CONST_7, 3), "h_transform", n=200, seed=21)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            conditioned_sampler((CONST_7, 1), "bogus", n=10)
        with pytest.raises(ValueError):
            conditioned_sampler((EnvLaw.constant(0.4), 1), "h_transform", n=10)


class TestEstimateReturnConditional:
    def test_quenched_constant_exact(self):
        est = estimate_return_conditional(CONST_7, "quenched", seed=3, n_walk=20000, tol=1e-12)
        assert est.value == pytest.approx(25.0 / 6.0, abs=1e-10)
        assert est.std_error == 0.0
        # the walk-level cross-check ran and stored its statistic
        assert abs(est.extras["mc_check"] - 3.5) <= 5.0 * est.extras["mc_check_se"]

    def test_averaged_constant_matches_quenched(self):
        est = estimate_return_conditional(CONST_7, "averaged", n_env=100, seed=3, tol=1e-12)
        assert est.value == pytest.approx(25.0 / 6.0, abs=1e-9)
        assert est.flags == ()

    def test_averaged_fix_a_stable_in_n_env(self):
        small = estimate_return_conditional(FIX_A, "averaged", n_env=400, seed=17)
        large = estimate_return_conditional(FIX_A, "averaged", n_env=4000, seed=18)
        tol = 3.0 * math.hypot(small.std_error, large.std_error)
        assert abs(small.value - large.value) <= tol
        assert small.flags == ()

    def test_fix_c_flagged_theory_infinite(self):
        est = estimate_return_conditional(FIX_C, "averaged", n_env=300, seed=19)
        assert "theory_infinite" in est.flags
        assert math.isfinite(est.value)


class TestDivergenceDiagnostic:
    def test_fix_c_heavy_tail_small_scale(self):
        rep = divergence_diagnostic(FIX_C, [500, 2000, 8000], seed=3)
        assert rep.hill_index < 0.9
        assert rep.lemma_min >= 0.05
        assert rep.kappa == pytest.approx(0.5233, abs=1e-3)
        assert abs(rep.regression_index - rep.kappa) <= 0.2

    def test_fix_a_light_tail(self):
        rep = divergence_diagnostic(FIX_A, [500, 2000, 8000], seed=3)
        assert rep.hill_index > 2.0
        vals = dict(rep.running_means)
        ses = dict(rep.running_ses)
        # flat within 3 SE: bounded R_1 <= 2 forces light tails
        assert abs(vals[8000] - vals[500]) <= 3.0 * math.hypot(ses[500], ses[8000])

    def test_deterministic(self):
        a = divergence_diagnostic(FIX_C, [200, 500], seed=23)
        b = divergence_diagnostic(FIX_C, [200, 500], seed=23)
        assert a == b


class TestSpeedEstimate:
    def test_constant_07(self):
        est = speed_estimate(CONST_7, horizon=20000, reps=60, seed=4)
        assert abs(est.value - 0.4) <= 3.0 * est.std_error

    def test_fix_a(self):
        est = speed_estimate(FIX_A, horizon=20000, reps=60, seed=29)
        assert abs(est.value - 13.0 / 35.0) <= 3.0 * est.std_error

    def test_deterministic_given_seed_workers(self):
        a = speed_estimate(CONST_7, horizon=2000, reps=10, seed=5, workers=2)
        b = speed_estimate(CONST_7, horizon=2000, reps=10, seed=5, workers=2)
        assert a == b

    @pytest.mark.parametrize("kwargs,name", [
        ({"horizon": 0, "reps": 10}, "horizon"),
        ({"horizon": -3, "reps": 10}, "horizon"),
        ({"horizon": 100, "reps": 0}, "reps"),
    ])
    def test_rejects_nonpositive_sizes(self, kwargs, name):
        with pytest.raises(ValueError, match=f"needs {name} >= 1"):
            speed_estimate(CONST_7, seed=1, **kwargs)

    def test_beta_budgeted_batches(self, monkeypatch):
        # float64 windows; a budget of 7 windows splits each worker's 30
        # replicates into five batches
        horizon = 4000
        monkeypatch.setattr(mc, "_SITE_BUDGET", 7 * (2 * horizon + 1) * 8)
        est = speed_estimate(FIX_D, horizon=horizon, reps=60, seed=13, workers=2)
        assert est.n == 60
        assert abs(est.value - 1.0 / 3.0) <= 3.0 * est.std_error  # E[rho] = 1/2

    def test_compact_sites_bound_memory(self):
        # 100 windows of 40001 sites: 4 MB as one-byte level codes, 32 MB as float64
        tracemalloc.start()
        try:
            speed_estimate(FIX_A, horizon=20000, reps=100, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12e6
