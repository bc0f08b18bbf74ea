"""Moment functionals, kappa root, regime classification, window sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special, stats

from rwre import (
    EnvLaw,
    classify_regime,
    kappa_root,
    mean_log_rho,
    moment_rho,
    moment_rho_log_rho,
    sample_window,
)
from rwre.env import _beta_inverse, _digamma, _mean_omega, _trigamma, omega_at_sites
from rwre.rng import site_uniforms

from laws import CONST_7, CONST_HALF, FIX_A, FIX_C, FIX_D, FIX_E, FIX_F

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def beta_moment_oracle(alpha, beta, u):
    """E[rho^u] for Beta(alpha, beta) by direct quadrature of the integral."""
    val, err = integrate.quad(
        lambda w: ((1.0 - w) / w) ** u * stats.beta.pdf(w, alpha, beta), 0.0, 1.0
    )
    assert err < 1e-7
    return val


def bisect_oracle(f, lo, hi, tol=1e-13):
    """Plain interval bisection, independent of the library's root finder."""
    assert f(lo) < 0.0 < f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestMomentRho:
    def test_constant(self):
        assert moment_rho(CONST_7, 1.0) == pytest.approx(3.0 / 7.0, abs=1e-15)

    def test_discrete_hand_sum(self):
        # 1/2 * (1/3 + 2)
        assert moment_rho(FIX_C, 1.0) == pytest.approx(7.0 / 6.0, abs=1e-14)

    def test_beta_closed_form_vs_quadrature(self):
        for u in (-1.0, 0.5, 1.0, 2.0, 3.5):
            assert moment_rho(FIX_D, u) == pytest.approx(
                beta_moment_oracle(5.0, 2.0, u), rel=1e-8
            )
        assert moment_rho(FIX_D, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_beta_divergence(self):
        assert moment_rho(FIX_D, 5.0) == math.inf
        assert moment_rho(FIX_D, 7.3) == math.inf
        assert moment_rho(FIX_D, -2.0) == math.inf

    def test_u_zero_is_one(self):
        for law in (CONST_7, FIX_A, FIX_C, FIX_D):
            assert moment_rho(law, 0.0) == pytest.approx(1.0, abs=1e-14)


class TestMeanOmega:
    def test_finite_support_direct_sum(self):
        for law in (CONST_7, CONST_HALF, FIX_A, FIX_C, FIX_E, FIX_F):
            direct = math.fsum(w * o for w, o in zip(law.weights, law.omegas))
            assert _mean_omega(law) == direct
        assert _mean_omega(FIX_A) == pytest.approx(0.7, abs=1e-15)

    @pytest.mark.parametrize("a,b", [(5.0, 2.0), (0.5, 0.5), (100.0, 100.0), (2.5, 7.0)])
    def test_beta_matches_scipy(self, a, b):
        expect = stats.beta.mean(a, b)
        assert _mean_omega(EnvLaw.beta_law(a, b)) == pytest.approx(expect, rel=1e-15)


class TestMeanLogRho:
    def test_symmetric_walk(self):
        assert mean_log_rho(CONST_HALF) == 0.0

    def test_discrete_hand(self):
        assert mean_log_rho(FIX_C) == pytest.approx(0.5 * math.log(2.0 / 3.0), abs=1e-14)

    def test_beta_digamma(self):
        assert mean_log_rho(FIX_D) == pytest.approx(-13.0 / 12.0, abs=1e-12)

    def test_beta_vs_quadrature(self):
        val, err = integrate.quad(
            lambda w: math.log((1.0 - w) / w) * stats.beta.pdf(w, 5.0, 2.0), 0.0, 1.0
        )
        assert mean_log_rho(FIX_D) == pytest.approx(val, abs=1e-8)


def test_moment_rho_log_rho_boundary_hand_sum():
    # 1/2 * (0.5 log 0.5 + 1.5 log 1.5)
    expect = 0.5 * (0.5 * math.log(0.5) + 1.5 * math.log(1.5))
    assert moment_rho_log_rho(FIX_E) == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(0.1308, abs=5e-5)


class TestKappaRoot:
    def test_fix_c_vs_bisection_oracle(self):
        oracle = bisect_oracle(lambda k: 0.5 * (3.0**-k + 2.0**k) - 1.0, 0.1, 1.0)
        kappa = kappa_root(FIX_C, tol=1e-12)
        assert kappa == pytest.approx(oracle, abs=1e-9)
        assert kappa == pytest.approx(0.524, abs=1e-3)

    def test_fix_f_golden_ratio(self):
        # y = 2^kappa solves y^3 - 2 y^2 + 1 = 0, giving the golden ratio
        assert kappa_root(FIX_F, tol=1e-12) == pytest.approx(math.log2(GOLDEN), abs=1e-9)

    def test_beta_exact(self):
        # Gamma(5-u) Gamma(2+u) is symmetric around u = (5-2); root at alpha-beta
        assert kappa_root(FIX_D, tol=1e-12) == pytest.approx(3.0, abs=1e-9)

    def test_absent_when_rho_below_one(self):
        assert kappa_root(FIX_A) is None

    def test_precondition(self):
        with pytest.raises(ValueError):
            kappa_root(CONST_HALF)
        with pytest.raises(ValueError):
            kappa_root(EnvLaw.constant(0.3))

    def test_half_point_convexity(self):
        for law in (FIX_C, FIX_D, FIX_F):
            kappa = kappa_root(law)
            assert moment_rho(law, kappa / 2.0) < 1.0

    def test_moment_at_root(self):
        for law in (FIX_C, FIX_D, FIX_F):
            assert abs(moment_rho(law, kappa_root(law, tol=1e-12)) - 1.0) <= 1e-12


class TestClassifyRegime:
    def test_ballistic(self):
        rep = classify_regime(FIX_A)
        assert rep.direction == "right"
        assert rep.speed == pytest.approx(13.0 / 35.0, abs=1e-12)
        assert rep.ballistic
        assert rep.quenched_strongly_transient
        assert rep.averaged_strongly_transient == "yes"
        assert rep.kappa is None

    def test_weakly_transient(self):
        rep = classify_regime(FIX_C)
        assert rep.direction == "right"
        assert rep.speed == 0.0
        assert not rep.ballistic
        assert rep.quenched_strongly_transient
        assert rep.averaged_strongly_transient == "no"
        assert rep.mean_rho == pytest.approx(7.0 / 6.0, abs=1e-14)
        assert rep.mean_inv_rho == pytest.approx(7.0 / 4.0, abs=1e-14)

    def test_boundary(self):
        rep = classify_regime(FIX_E)
        assert rep.mean_rho == pytest.approx(1.0, abs=1e-12)
        assert rep.rho_log_rho_finite is True
        assert rep.averaged_strongly_transient == "no"
        assert rep.speed == 0.0

    def test_recurrent(self):
        rep = classify_regime(CONST_HALF)
        assert rep.direction == "recurrent"
        assert rep.speed == 0.0
        assert not rep.quenched_strongly_transient
        assert rep.averaged_strongly_transient is None
        assert rep.kappa is None

    def test_left_transient_mirror(self):
        left = FIX_A.mirror()
        rep = classify_regime(left)
        assert rep.direction == "left"
        assert rep.speed == pytest.approx(-13.0 / 35.0, abs=1e-12)
        assert rep.averaged_strongly_transient == "yes"

    def test_beta_kappa_filled(self):
        rep = classify_regime(FIX_D)
        assert rep.kappa == pytest.approx(3.0, abs=1e-9)
        assert rep.speed == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_jensen_inequality_fixtures():
    for law in (CONST_7, FIX_A, FIX_C, FIX_D, FIX_F):
        if mean_log_rho(law) < 0:
            assert 1.0 / moment_rho(law, -1.0) <= moment_rho(law, 1.0) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    w=st.floats(0.05, 0.95),
    o1=st.floats(0.05, 0.95),
    o2=st.floats(0.05, 0.95),
)
def test_jensen_inequality_random_laws(w, o1, o2):
    law = EnvLaw.discrete([(w, o1), (1.0 - w, o2)])
    assert 1.0 / moment_rho(law, -1.0) <= moment_rho(law, 1.0) + 1e-12


class TestSampleWindow:
    def test_range_and_length(self):
        for law in (FIX_C, FIX_D, CONST_7):
            w = sample_window(law, 42, -5, 5)
            assert len(w.omega) == 11
            assert np.all((w.omega > 0.0) & (w.omega < 1.0))

    def test_bit_identical_regeneration(self):
        a = sample_window(FIX_D, 42, -5, 5)
        b = sample_window(FIX_D, 42, -5, 5)
        assert np.array_equal(a.omega, b.omega)

    def test_subwindow_site_agreement(self):
        big = sample_window(FIX_C, 42, 0, 10)
        small = sample_window(FIX_C, 42, -5, 5)
        assert np.array_equal(big.omega[0:6], small.omega[5:11])

    def test_seed_changes_values(self):
        a = sample_window(FIX_D, 1, 0, 50)
        b = sample_window(FIX_D, 2, 0, 50)
        assert not np.array_equal(a.omega, b.omega)

    def test_immutable(self):
        w = sample_window(FIX_C, 1, 0, 5)
        with pytest.raises(ValueError):
            w.omega[0] = 0.5

    def test_discrete_support_only(self):
        w = sample_window(FIX_C, 7, 0, 1000)
        assert set(np.unique(w.omega)) <= {0.75, 1 / 3}

    def test_empirical_log_rho_moment(self):
        # one-million-site window mean within 4 standard errors
        for law in (FIX_C, FIX_D):
            w = sample_window(law, 2024, 0, 10**6 - 1)
            logs = np.log((1.0 - w.omega) / w.omega)
            se = logs.std(ddof=1) / math.sqrt(logs.size)
            assert abs(logs.mean() - mean_log_rho(law)) <= 4.0 * se

    def test_omega_at_sites_matches_window(self):
        xs = np.array([-3, 0, 7, 1000, -1000])
        vals = omega_at_sites(FIX_C, 9, xs)
        for x, v in zip(xs, vals):
            assert sample_window(FIX_C, 9, int(x), int(x)).omega[0] == v


class TestBetaWithoutScipy:
    """The numpy Beta quantile and digamma against scipy.special."""

    # Beta(100, 100) takes the density from logs: alpha + beta > 170.
    @pytest.mark.parametrize("alpha,beta", [
        (5.0, 2.0), (2.0, 5.0), (0.5, 0.7), (1.0, 1.0), (100.0, 100.0),
    ])
    def test_quantiles_match_betaincinv(self, alpha, beta):
        seeds, sites = np.arange(3, dtype=np.uint64)[:, None], np.arange(-2000, 2000)
        omega = omega_at_sites(EnvLaw.beta_law(alpha, beta), seeds, sites)
        ref = special.betaincinv(alpha, beta, site_uniforms(seeds, sites))
        assert omega.shape == ref.shape
        assert np.max(np.abs(omega - ref) / ref) <= 1e-13
        # site_uniforms returns (z + 1/2) 2^-53 for 53-bit z: 2^-54 up to 1 - 2^-54,
        # which rounds to 1.0, whose quantile is clipped below 1.
        u = np.array([2.0**-54, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0 - 2.0**-54])
        x = _beta_inverse(alpha, beta, u)
        assert np.all((x > 0.0) & (x < 1.0))
        ref = special.betaincinv(alpha, beta, u)
        assert np.max(np.abs(x - ref) / ref) <= 1e-13

    # Beta(0.5, 0.5) and Beta(100, 100) differed in thousands of sites when
    # one array-wide Halley stop decided every element's last step.
    @pytest.mark.parametrize("alpha,beta", [(5.0, 2.0), (0.5, 0.5), (1.5, 0.8), (100.0, 100.0)])
    def test_sites_equal_in_every_sub_window(self, alpha, beta):
        law = EnvLaw.beta_law(alpha, beta)
        for seed in range(2):
            full = omega_at_sites(law, seed, np.arange(-1000, 1000))
            for width in (5, 333):
                parts = [omega_at_sites(law, seed, np.arange(lo, min(lo + width, 1000)))
                         for lo in range(-1000, 1000, width)]
                np.testing.assert_array_equal(np.concatenate(parts), full)

    def test_strips_change_no_bit(self, monkeypatch):
        # One strip of 4200 uniforms against strips of 37: each quantile
        # stops its own Halley steps, so where the strips end changes nothing.
        law, seeds = EnvLaw.beta_law(2.0, 1.5), np.arange(3, dtype=np.uint64)[:, None]
        whole = omega_at_sites(law, seeds, np.arange(-700, 700))
        monkeypatch.setattr("rwre.env._BETA_STRIP", 37)
        assert omega_at_sites(law, seeds, np.arange(-700, 700)).tobytes() == whole.tobytes()

    def test_digamma_matches_scipy(self):
        xs = np.concatenate([np.linspace(0.05, 50.0, 1999), [9.0, 10.0, 11.0]])
        got = np.array([_digamma(float(x)) for x in xs])
        assert np.max(np.abs(got - special.digamma(xs))) <= 1e-14

    def test_trigamma_matches_scipy(self):
        xs = np.concatenate([np.linspace(0.05, 50.0, 1999), [9.0, 10.0, 11.0]])
        got = np.array([_trigamma(float(x)) for x in xs])
        ref = special.polygamma(1, xs)
        assert np.max(np.abs(got - ref) / ref) <= 1e-14


class TestEnvLawValidation:
    def test_constant_bounds(self):
        with pytest.raises(ValueError):
            EnvLaw.constant(0.0)
        with pytest.raises(ValueError):
            EnvLaw.constant(1.0)

    def test_constant_is_the_one_atom_discrete_law(self, monkeypatch):
        law = EnvLaw.constant(0.7)
        assert law == EnvLaw.discrete([(1.0, 0.7)]) and law.omega_levels().tolist() == [0.7]
        assert law.mirror() == EnvLaw.constant(1.0 - 0.7)
        # A one-atom law draws no site uniforms.
        monkeypatch.setattr("rwre.env.site_uniforms", None)
        omega = omega_at_sites(law, np.array([[1], [2]]), np.arange(-3, 4))
        assert omega.shape == (2, 7) and (omega == 0.7).all()

    def test_discrete_weights(self):
        with pytest.raises(ValueError):
            EnvLaw.discrete([(0.5, 0.5), (0.4, 0.6)])  # sums to 0.9
        with pytest.raises(ValueError):
            EnvLaw.discrete([(1.5, 0.5), (-0.5, 0.6)])  # negative weight

    def test_omega_open_interval(self):
        with pytest.raises(ValueError):
            EnvLaw.discrete([(0.5, 1.0), (0.5, 0.5)])

    def test_beta_positive(self):
        with pytest.raises(ValueError):
            EnvLaw.beta_law(0.0, 2.0)
        with pytest.raises(ValueError):
            EnvLaw.beta_law(5.0, -1.0)

    def test_window_lo_le_hi(self):
        with pytest.raises(ValueError):
            sample_window(FIX_C, 1, 5, 4)
