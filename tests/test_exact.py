"""Cascade arithmetic, hitting laws, conditioned environment, oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwre import (
    ConvergenceError,
    EnvLaw,
    EnvWindow,
    absorption_oracle,
    cascade,
    conditioned_env,
    conditioned_return_expectation,
    expected_hit,
    hitting_prob,
    r_tail,
    return_decomposition,
    sample_window,
    speed_and_et1,
)
from rwre.exact import _decompositions
from rwre.rng import substream_seed

from laws import CONST_7, CONST_9, FIX_A, FIX_C, FIX_D, FIX_F


def make_window(omegas, lo=0, law=CONST_7, seed=0):
    return EnvWindow(
        lo=lo, hi=lo + len(omegas) - 1, omega=np.asarray(omegas, dtype=float), law=law, seed=seed
    )


def ruin_p_left(rho, x, a, b):
    """Classical homogeneous gambler's-ruin P^x(T_a < T_b)."""
    if rho == 1.0:
        return (b - x) / (b - a)
    return (rho ** (x - a) - rho ** (b - a)) / (1.0 - rho ** (b - a))


class TestCascade:
    def test_single_site(self):
        w = sample_window(CONST_7, 0, -2, 2)
        pi, r = cascade(w, 0, 0)
        assert pi == pytest.approx(3.0 / 7.0, abs=1e-14)
        assert r == pytest.approx(3.0 / 7.0, abs=1e-14)

    def test_two_sites_hand_sum(self):
        w = sample_window(CONST_7, 0, 0, 3)
        pi, r = cascade(w, 0, 1)
        assert pi == pytest.approx(9.0 / 49.0, rel=1e-13)
        assert r == pytest.approx(3.0 / 7.0 + 9.0 / 49.0, rel=1e-13)

    def test_index_errors(self):
        w = sample_window(CONST_7, 0, 0, 3)
        with pytest.raises(IndexError):
            cascade(w, -1, 2)
        with pytest.raises(IndexError):
            cascade(w, 0, 4)

    @settings(max_examples=60, deadline=None)
    @given(
        omegas=st.lists(st.floats(0.1, 0.9), min_size=2, max_size=12),
        data=st.data(),
    )
    def test_splitting_identities(self, omegas, data):
        w = make_window(omegas)
        j = len(omegas) - 1
        k = data.draw(st.integers(0, j - 1))
        pi_all, r_all = cascade(w, 0, j)
        pi_l, r_l = cascade(w, 0, k)
        pi_r, r_r = cascade(w, k + 1, j)
        assert pi_all == pytest.approx(pi_l * pi_r, rel=1e-12)
        assert r_all == pytest.approx(r_l + pi_l * r_r, rel=1e-12)


class TestRTail:
    def test_geometric_07(self):
        sv = r_tail(CONST_7, 1, 1, tol=1e-12)
        assert sv.converged
        assert sv.value == pytest.approx(0.75, abs=1e-12)
        assert sv.remainder_bound <= 1e-10

    def test_geometric_055(self):
        sv = r_tail(EnvLaw.constant(0.55), 1, 1, tol=1e-12)
        assert sv.value == pytest.approx(4.5, rel=1e-12)

    def test_remainder_brackets_truth_constant(self):
        # bracketing is about the truncation; allow float-rounding slack
        sv = r_tail(CONST_7, 1, 5, tol=1e-6)
        eps = 1e-13 * sv.value
        assert sv.value - eps <= 0.75 <= sv.value + sv.remainder_bound + eps

    def test_precondition(self):
        with pytest.raises(ValueError):
            r_tail(EnvLaw.constant(0.5), 1, 0)
        with pytest.raises(ValueError):
            r_tail(EnvLaw.constant(0.3), 1, 0)

    def test_doubling_horizon_consistency(self):
        # stopping policy cross-check: doubling the budget moves the value
        # by less than the reported remainder bound
        for seed in range(5):
            a = r_tail(FIX_C, seed, 1, tol=1e-10)
            b = r_tail(FIX_C, seed, 1, tol=1e-14)
            assert abs(a.value - b.value) <= a.remainder_bound + 1e-12 * b.value


class TestHittingProb:
    def test_symmetric_ruin(self):
        w = sample_window(EnvLaw.constant(0.5), 0, 0, 10)
        p_left, p_right = hitting_prob(w, 3, 0, 10)
        assert p_left == pytest.approx(0.7, abs=1e-13)
        assert p_right == pytest.approx(0.3, abs=1e-13)

    def test_single_step_decision(self):
        w = sample_window(CONST_7, 0, 0, 2)
        p_left, p_right = hitting_prob(w, 1, 0, 2)
        assert p_left == pytest.approx(0.3, abs=1e-14)

    def test_classical_formula(self):
        w = sample_window(CONST_7, 0, 0, 10)
        p_left, _ = hitting_prob(w, 3, 0, 10)
        assert p_left == pytest.approx(ruin_p_left(3.0 / 7.0, 3, 0, 10), rel=1e-13)

    def test_edge_conventions(self):
        w = sample_window(CONST_7, 0, 0, 10)
        assert hitting_prob(w, 0, 0, 10) == (1.0, 0.0)
        assert hitting_prob(w, 10, 0, 10) == (0.0, 1.0)

    def test_b_may_exceed_window_by_one(self):
        w = sample_window(CONST_7, 0, 0, 9)
        p_left, p_right = hitting_prob(w, 5, 0, 10)
        assert p_left + p_right == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        omegas=st.lists(st.floats(0.1, 0.9), min_size=3, max_size=20),
        data=st.data(),
    )
    def test_completeness_and_monotonicity(self, omegas, data):
        w = make_window(omegas)
        b = len(omegas)
        lefts = [hitting_prob(w, x, 0, b)[0] for x in range(0, b + 1)]
        sums = [sum(hitting_prob(w, x, 0, b)) for x in range(0, b + 1)]
        assert all(abs(s - 1.0) <= 1e-12 for s in sums)
        assert all(lefts[i] >= lefts[i + 1] - 1e-12 for i in range(b))


class TestExpectedHit:
    def test_constant_right(self):
        sv = expected_hit((CONST_7, 0), 0, "right", tol=1e-13)
        assert sv.converged
        assert abs(sv.value - 2.5) <= 1e-12

    def test_constant_left_diverges(self):
        sv = expected_hit((CONST_7, 0), 0, "left")
        assert not sv.converged
        assert sv.value == math.inf

    def test_mirror_symmetry(self):
        sv = expected_hit((EnvLaw.constant(0.3), 0), 5, "left", tol=1e-13)
        assert abs(sv.value - 2.5) <= 1e-12

    def test_any_x_same_for_constant(self):
        for x in (-4, 0, 11):
            sv = expected_hit((CONST_7, 0), x, "right", tol=1e-12)
            assert sv.value == pytest.approx(2.5, abs=1e-11)

    def test_window_truncation_reports_nonconverged(self):
        w = sample_window(FIX_C, 3, -6, 6)
        sv = expected_hit(w, 0, "right", tol=1e-12)
        assert not sv.converged  # 7 leftward terms cannot satisfy a 32-run
        assert sv.terms_used == 7

    def test_vs_deep_absorption_oracle(self):
        w = sample_window(CONST_7, 0, -60, 1)
        _, e_absorb = absorption_oracle(w, -60, 1, 0)
        assert e_absorb == pytest.approx(2.5, abs=1e-10)


class TestConditionedEnv:
    def test_constant_07(self):
        ce = conditioned_env(CONST_7, 5, 32, tol=1e-13)
        assert np.max(np.abs(ce.omega[1:] - 0.3)) <= 1e-12
        assert ce.omega[0] == pytest.approx(0.7)

    def test_constant_09(self):
        ce = conditioned_env(CONST_9, 5, 32, tol=1e-13)
        assert np.max(np.abs(ce.omega[1:] - 0.1)) <= 1e-12

    def test_thinner_than_base(self):
        for seed in range(5):
            base = sample_window(FIX_C, seed, 0, 64)
            ce = conditioned_env(FIX_C, seed, 64, tol=1e-12)
            assert np.all(ce.omega[1:] < base.omega[1:])

    def test_rho_tilde_identity(self):
        # (1 - omega~_x)/omega~_x == (1 + R_x)/R_{x+1}, R from independent tail sums
        for seed in (1, 4):
            ce = conditioned_env(FIX_C, seed, 24, tol=1e-13)
            for x in (1, 5, 11):
                r_x = r_tail(FIX_C, seed, x, tol=1e-13).value
                r_x1 = r_tail(FIX_C, seed, x + 1, tol=1e-13).value
                lhs = (1.0 - ce.omega[x]) / ce.omega[x]
                assert lhs == pytest.approx((1.0 + r_x) / r_x1, rel=1e-10)


class TestConditionedReturnExpectation:
    def test_constant_values(self):
        assert conditioned_return_expectation(CONST_7, 3, tol=1e-13).value == pytest.approx(
            2.5, abs=1e-11
        )
        assert conditioned_return_expectation(CONST_9, 3, tol=1e-13).value == pytest.approx(
            1.25, abs=1e-11
        )

    def test_h_transform_identity_on_fixtures(self):
        for law, hi in ((FIX_A, 256), (FIX_C, 512), (FIX_D, 256), (FIX_F, 384)):
            for seed in range(5):
                direct = conditioned_return_expectation(law, seed, tol=1e-12)
                through = expected_hit(conditioned_env(law, seed, hi, tol=1e-12), 1, "left", tol=1e-12)
                assert direct.converged and through.converged
                assert abs(direct.value - through.value) <= 1e-8

    def test_precondition(self):
        with pytest.raises(ValueError):
            conditioned_return_expectation(EnvLaw.constant(0.5), 0)

    def test_short_horizon_reports_nonconverged(self):
        # 40 terms reach neither the series' stopping rule nor the anchor
        # tail at site 257: budget exhaustion is reported, not raised.
        sv = conditioned_return_expectation(FIX_C, 0, horizon=40)
        assert not sv.converged
        assert sv.terms_used == 40
        with pytest.raises(ConvergenceError):
            return_decomposition(FIX_C, 0, horizon=40)


class TestReturnDecomposition:
    def test_constant_07(self):
        rd = return_decomposition(CONST_7, 11, tol=1e-13)
        assert rd.p_return == pytest.approx(0.6, abs=1e-12)
        assert rd.e_return_indicator == pytest.approx(2.5, abs=1e-11)
        assert rd.p_right_return == pytest.approx(3.0 / 7.0, abs=1e-12)
        assert rd.e_return_given_return == pytest.approx(25.0 / 6.0, abs=1e-10)

    def test_constant_09(self):
        rd = return_decomposition(CONST_9, 11, tol=1e-13)
        assert rd.p_return == pytest.approx(0.2, abs=1e-12)
        assert rd.e_return_given_return == pytest.approx(6.25, abs=1e-10)

    def test_first_step_identity_on_random_envs(self):
        # reconstruct the decomposition identity from the reported parts
        for k in range(100):
            seed = substream_seed(777, k)
            rd = return_decomposition(FIX_C, seed, tol=1e-10)
            omega0 = sample_window(FIX_C, seed, 0, 0).omega[0]
            rebuilt = (
                1.0
                + (1.0 - omega0) * rd.e_left_hit
                + omega0 * rd.p_right_return * rd.e_cond_right
            )
            assert abs(rd.e_return_indicator - rebuilt) <= 1e-12 * max(1.0, rebuilt)
            assert rd.p_return == pytest.approx(
                (1.0 - omega0) + omega0 * rd.p_right_return, abs=1e-14
            )
            assert 0.0 < rd.p_right_return < 1.0
            assert rd.e_return_given_return >= 2.0

    def test_block_outcomes_equal_one_row_outcomes(self):
        # Beta site values must not depend on the block an environment shares.
        seeds = [substream_seed(5, 2, j) for j in range(200)]
        rows = [out for start in range(0, 200, 40)
                for out in _decompositions(FIX_D, seeds[start:start + 40], 1e-10)]
        for seed, row in zip(seeds, rows):
            one = _decompositions(FIX_D, [seed], 1e-10)[0]
            assert repr(row) == repr(one), seed  # float repr round-trips exactly

    def test_series_failure_propagates(self):
        with pytest.raises((ConvergenceError, ValueError)):
            return_decomposition(EnvLaw.constant(0.5), 0)

    def test_p_right_return_matches_tight_r1(self):
        # A quiet-run R_1 scan at tol=1e-8 can stop before FIX-C's series
        # climbs back (misses up to 7.6e-7 on these seeds); the sweep's
        # anchored R_1 must not.
        for k in range(200):
            seed = substream_seed(3, 7, k)
            p = return_decomposition(FIX_C, seed, tol=1e-8).p_right_return
            r1 = r_tail(FIX_C, seed, 1, tol=1e-14).value
            assert abs(p - r1 / (1.0 + r1)) <= 1e-9, k


class TestSpeedAndEt1:
    def test_constant(self):
        for p in (0.55, 0.7, 0.9):
            speed, e_t1 = speed_and_et1(EnvLaw.constant(p))
            assert speed == pytest.approx(2.0 * p - 1.0, abs=1e-12)
            assert speed * e_t1 == pytest.approx(1.0, abs=1e-12)

    def test_fix_a(self):
        speed, e_t1 = speed_and_et1(FIX_A)
        assert speed == pytest.approx(13.0 / 35.0, abs=1e-12)
        assert e_t1 == pytest.approx(35.0 / 13.0, abs=1e-12)
        assert speed * e_t1 == pytest.approx(1.0, abs=1e-12)

    def test_fix_c_zero_speed(self):
        speed, e_t1 = speed_and_et1(FIX_C)
        assert speed == 0.0
        assert e_t1 == math.inf

    def test_left_transient(self):
        speed, e_t1 = speed_and_et1(FIX_A.mirror())
        assert speed == pytest.approx(-13.0 / 35.0, abs=1e-12)
        assert e_t1 == math.inf


class TestAbsorptionOracle:
    def test_symmetric_ruin(self):
        w = sample_window(EnvLaw.constant(0.5), 0, 0, 10)
        p_left, e_absorb = absorption_oracle(w, 0, 10, 3)
        assert p_left == pytest.approx(0.7, abs=1e-12)
        assert e_absorb == pytest.approx(21.0, rel=1e-12)

    def test_one_step(self):
        w = sample_window(CONST_7, 0, 0, 2)
        p_left, e_absorb = absorption_oracle(w, 0, 2, 1)
        assert p_left == pytest.approx(0.3, abs=1e-14)
        assert e_absorb == pytest.approx(1.0, rel=1e-14)

    def test_matches_hitting_prob_random_envs(self):
        worst = 0.0
        for k in range(100):
            w = sample_window(FIX_C, substream_seed(31337, k), 0, 20)
            for x in range(1, 20):
                p_formula, _ = hitting_prob(w, x, 0, 20)
                p_solve, _ = absorption_oracle(w, 0, 20, x)
                worst = max(worst, abs(p_formula - p_solve))
        assert worst <= 1e-10

    def test_boundaries(self):
        w = sample_window(CONST_7, 0, 0, 5)
        assert absorption_oracle(w, 0, 5, 0) == (1.0, 0.0)
        assert absorption_oracle(w, 0, 5, 5) == (0.0, 0.0)
