"""Tilting machinery, level-crossing estimators, overshoot, phi functional."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rwre import (
    StepLaw,
    gamma_root,
    kappa_root,
    ladder,
    overshoot_constant,
    phi_estimate,
    step_from_env,
    sup_tail,
    tilt,
)
from rwre.env import _thresholds
from rwre.estimate import Tally, merge_mean
from rwre.ladder import OvershootEntry, OvershootScan, WaldCheck
from rwre.rng import _busy_shards, _map_shards

from laws import FIX_C, FIX_D, FIX_F
from walks import _per_path_first_exit

SKIP_FREE = StepLaw.of([(0.3, 1.0), (0.7, -1.0)])
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


class TestStepLaw:
    def test_unit_lattice(self):
        assert SKIP_FREE.lattice == pytest.approx(1.0)
        assert SKIP_FREE.units == (1, -1)

    def test_fix_f_lattice_is_log2(self):
        step = step_from_env(FIX_F)
        assert step.lattice == pytest.approx(math.log(2.0), abs=1e-12)
        assert step.units == (-2, 1)

    def test_fix_c_non_lattice(self):
        assert step_from_env(FIX_C).lattice is None

    def test_user_supplied_lattice_verified(self):
        step = StepLaw.of([(0.5, 2.0), (0.5, -4.0)], lattice=2.0)
        assert step.units == (1, -2)
        with pytest.raises(ValueError):
            StepLaw.of([(0.5, 2.0), (0.5, -3.1)], lattice=2.0)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            StepLaw.of([(0.6, 1.0), (0.6, -1.0)])

    def test_beta_law_has_no_step_law(self):
        with pytest.raises(ValueError):
            step_from_env(FIX_D)


class TestGammaRoot:
    def test_skip_free_closed_form(self):
        # 0.3 y^2 - y + 0.7 = 0 with y = e^gamma has root y = 7/3
        assert abs(gamma_root(SKIP_FREE, tol=1e-13) - math.log(7.0 / 3.0)) <= 1e-12

    def test_matches_kappa_of_env_law(self):
        for law in (FIX_C, FIX_F):
            step = step_from_env(law)
            assert gamma_root(step, tol=1e-12) == pytest.approx(
                kappa_root(law, tol=1e-12), abs=1e-10
            )

    def test_fix_f_golden_ratio(self):
        assert gamma_root(step_from_env(FIX_F), tol=1e-12) == pytest.approx(
            math.log2(GOLDEN), abs=1e-9
        )

    def test_no_positive_support(self):
        with pytest.raises(ValueError):
            gamma_root(StepLaw.of([(1.0, -1.0)]))

    def test_nonnegative_drift_rejected(self):
        with pytest.raises(ValueError):
            gamma_root(StepLaw.of([(0.5, 1.0), (0.5, -1.0)]))

    def test_half_point_mgf_below_one(self):
        g = gamma_root(SKIP_FREE)
        assert SKIP_FREE.mgf(g / 2.0) < 1.0


class TestTilt:
    def test_drift_reversal(self):
        q = tilt(SKIP_FREE, math.log(7.0 / 3.0))
        assert q.q_weights[0] == pytest.approx(0.7, abs=1e-12)
        assert q.mean == pytest.approx(0.4, abs=1e-12)

    def test_identity_tilt(self):
        q = tilt(SKIP_FREE, 0.0)
        assert q.q_weights == pytest.approx((0.3, 0.7), abs=1e-15)

    def test_normalization_guard(self):
        with pytest.raises(ValueError):
            tilt(SKIP_FREE, 0.5)  # not a moment root

    def test_weights_sum_to_one(self):
        q = tilt(SKIP_FREE, gamma_root(SKIP_FREE, tol=1e-13))
        assert abs(math.fsum(q.q_weights) - 1.0) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        w=st.floats(0.05, 0.45),
        up=st.floats(0.2, 3.0),
        down=st.floats(-3.0, -0.5),
    )
    def test_tilted_mean_positive(self, w, up, down):
        step = StepLaw.of([(w, up), (1.0 - w, down)])
        assume(step.mean < -1e-3)
        q = tilt(step, gamma_root(step, tol=1e-12))
        assert q.mean > 0.0
        assert abs(math.fsum(q.q_weights) - 1.0) <= 1e-12


class TestSupTail:
    def test_skip_free_exact_zero_variance(self):
        est = sup_tail(SKIP_FREE, t=10, n=2000, method="importance", seed=7)
        assert est.value == pytest.approx((3.0 / 7.0) ** 10, rel=1e-12)
        assert est.std_error == 0.0
        assert est.extras["weight_spread"] <= 1e-12

    def test_importance_monotone_in_t(self):
        vals = [
            sup_tail(SKIP_FREE, t=t, n=5000, method="importance", seed=11).value
            for t in (2, 4, 6, 8)
        ]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_naive_agrees_with_importance(self):
        imp = sup_tail(SKIP_FREE, t=4, n=10**5, method="importance", seed=5)
        nai = sup_tail(SKIP_FREE, t=4, n=10**5, method="naive", seed=5)
        tol = 3.0 * math.hypot(imp.std_error, nai.std_error) + nai.error_budget
        assert abs(imp.value - nai.value) <= tol
        assert nai.error_budget == pytest.approx(1e-12)

    def test_lattice_snap_at_level(self):
        step = step_from_env(FIX_F)  # spacing log 2
        est = sup_tail(step, t=10 * math.log(2.0), n=500, method="importance", seed=3)
        gamma = gamma_root(step)
        assert est.value == pytest.approx(math.exp(-gamma * 10 * math.log(2.0)), rel=1e-10)
        assert est.extras["weight_spread"] <= 1e-12

    def test_positive_drift_rejected(self):
        with pytest.raises(ValueError):
            sup_tail(StepLaw.of([(0.7, 1.0), (0.3, -1.0)]), t=3, n=10, method="importance")

    def test_deterministic_given_seed_and_workers(self):
        a = sup_tail(SKIP_FREE, t=6, n=4000, method="naive", seed=9, workers=4)
        b = sup_tail(SKIP_FREE, t=6, n=4000, method="naive", seed=9, workers=4)
        assert a == b
        c = sup_tail(SKIP_FREE, t=6, n=4000, method="naive", seed=9, workers=2)
        assert c.value != a.value or c.n == a.n  # different sharding may shift draws


class TestOvershoot:
    def test_skip_free_scaled_exactly_one(self):
        scan = overshoot_constant(SKIP_FREE, range(5, 11), n=2000, seed=1)
        for entry in scan.entries:
            assert entry.scaled == pytest.approx(1.0, abs=1e-12)
        assert scan.overshoot_pmf == {0: 1.0}

    def test_fix_f_scaled_pairwise(self):
        step = step_from_env(FIX_F)
        scan = overshoot_constant(step, range(6, 12), n=20000, seed=2)
        vals = [e.scaled for e in scan.entries]
        ses = [e.scaled_se for e in scan.entries]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                tol = 3.0 * math.hypot(ses[i], ses[j]) + 1e-12
                assert abs(vals[i] - vals[j]) <= tol

    def test_wald_identity(self):
        step = step_from_env(FIX_F)
        scan = overshoot_constant(step, range(6, 12), n=20000, seed=2)
        w = scan.wald
        tol = 3.0 * (w.se_s_tau + abs(w.drift_q) * w.se_tau)
        assert abs(w.mean_s_tau - w.drift_q * w.mean_tau) <= tol

    def test_non_lattice_rejected(self):
        with pytest.raises(ValueError):
            overshoot_constant(step_from_env(FIX_C), range(3, 5), n=10)


def _per_level_scan(step, k_range, n, seed=0, workers=1):
    """The scan as n fresh tilted paths walked to each level k in turn, on
    the same worker streams each time: the reference for the one-walk scan."""
    ks = sorted(int(k) for k in k_range)
    gamma = gamma_root(step)
    q = tilt(step, gamma)
    cumw, incs, a = _thresholds(q.q_weights), np.asarray(step.units), step.lattice
    entries, pmf, wald = [], {}, None
    for k in ks:
        exits = _map_shards(
            lambda rng, n_w: _per_path_first_exit(cumw, incs, k, -math.inf, n_w, rng, True),
            seed, n, workers,
        )
        _, mean, se, _, _ = merge_mean([Tally.of(np.exp(-gamma * (s * a))) for s, _ in exits])
        scale = math.exp(gamma * a * k)
        entries.append(OvershootEntry(k=k, level=a * k, scaled=scale * mean, scaled_se=scale * se))
        if k == ks[-1]:
            _, ms, ses, _, _ = merge_mean([Tally.of(s * a) for s, _ in exits])
            _, mt, set_, _, _ = merge_mean([Tally.of(t.astype(np.float64)) for _, t in exits])
            wald = WaldCheck(k=k, mean_s_tau=ms, se_s_tau=ses, mean_tau=mt, se_tau=set_,
                             drift_q=q.mean)
            over, counts = np.unique(np.concatenate([s for s, _ in exits]) - k, return_counts=True)
            pmf = {int(u): int(c) / n for u, c in zip(over, counts)}
    return OvershootScan(gamma=gamma, lattice_a=a, entries=tuple(entries), overshoot_pmf=pmf,
                         wald=wald, n_per_level=n, seed=seed)


# Upward jumps of 2 and 1: a path can pass a level without landing on it.
JUMPY = StepLaw.of([(0.3, 2.0), (0.2, 1.0), (0.5, -3.0)])


class TestOvershootScan:
    """``overshoot_constant`` walks once, to the top level, and records every
    lower level's first passage on the way; ``_per_level_scan`` above is the
    design it replaced."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("k_range", [range(1, 5), range(-2, 3), [3, 7, 12]])
    @pytest.mark.parametrize("law", ["fix-f", "skip-free"])
    def test_skip_free_up_scan_equals_per_level_walks(self, law, k_range, workers):
        step = step_from_env(FIX_F) if law == "fix-f" else SKIP_FREE
        scan = overshoot_constant(step, k_range, n=1500, seed=3, workers=workers)
        assert scan == _per_level_scan(step, k_range, 1500, seed=3, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_jumpy_top_level_wald_and_pmf_equal_per_level_walks(self, workers):
        assert JUMPY.units == (2, 1, -3) and JUMPY.lattice == pytest.approx(1.0)
        scan = overshoot_constant(JUMPY, range(1, 9), n=4000, seed=5, workers=workers)
        ref = _per_level_scan(JUMPY, range(1, 9), 4000, seed=5, workers=workers)
        assert scan.entries[-1] == ref.entries[-1]
        assert scan.wald == ref.wald
        assert scan.overshoot_pmf == ref.overshoot_pmf
        assert scan.entries[:-1] != ref.entries[:-1]  # common-random-number estimates

    def test_jumpy_lower_levels_agree_in_distribution(self):
        worst = 0.0
        for seed in range(20):
            scan = overshoot_constant(JUMPY, range(1, 9), n=3000, seed=seed)
            ref = _per_level_scan(JUMPY, range(1, 9), 3000, seed=seed)
            for e, r in zip(scan.entries, ref.entries):
                assert e.k == r.k and e.scaled_se > 0.0
                worst = max(worst, abs(e.scaled - r.scaled) / math.hypot(e.scaled_se, r.scaled_se))
        assert worst <= 4.0

    def test_duplicate_levels_keep_their_entries(self):
        k_range = [5, 3, 9, 5, 3, 3]
        for step in (step_from_env(FIX_F), JUMPY):
            scan = overshoot_constant(step, k_range, n=2000, seed=7, workers=2)
            assert [e.k for e in scan.entries] == [3, 3, 3, 5, 5, 9]
            assert scan.entries[0] == scan.entries[1] == scan.entries[2]
            if step is not JUMPY:
                assert scan == _per_level_scan(step, k_range, 2000, seed=7, workers=2)

    def test_one_map_of_shards_drawing_one_walk_to_the_top(self, monkeypatch):
        step = step_from_env(FIX_F)
        maps, drawn = [], []
        real = ladder._map_shards

        class Counting:
            def __init__(self, rng):
                self.rng = rng

            def random(self, size=None, out=None):
                drawn.append(size if out is None else out.size)
                return self.rng.random(size, out=out)

        def spy(fn, seed, n, workers):
            maps.append((seed, n, workers))
            return real(lambda rng, n_w: fn(Counting(rng), n_w), seed, n, workers)

        monkeypatch.setattr(ladder, "_map_shards", spy)
        overshoot_constant(step, range(10, 21), n=3000, seed=4, workers=2)
        assert maps == [(4, 3000, 2)]
        cumw, incs = _thresholds(tilt(step, gamma_root(step)).q_weights), np.asarray(step.units)
        path_steps = sum(  # the sum of tau over a walk to K = 20 alone
            int(_per_path_first_exit(cumw, incs, 20, -math.inf, n_w, rng, True)[1].sum())
            for rng, n_w in _busy_shards(4, 3000, 2)
        )
        assert sum(drawn) == path_steps

    @pytest.mark.parametrize("levels", [[4], [1, 2, 3, 4], [-3, 0, 4], [-6, -4]])
    @pytest.mark.parametrize("law", ["fix-f", "jumpy"])
    def test_level_counts_match_the_walk_to_the_top(self, law, levels):
        step = step_from_env(FIX_F) if law == "fix-f" else JUMPY
        cumw = _thresholds(tilt(step, gamma_root(step)).q_weights)
        incs, top = np.asarray(step.units), levels[-1]
        ref_rng, new_rng = (_busy_shards(11, 1, 1)[0][0] for _ in range(2))
        s, tau = _per_path_first_exit(cumw, incs, top, -math.inf, 2500, ref_rng, True)
        counts, exits = ladder._first_exit(
            cumw, incs, top, -math.inf, 2500, new_rng, True, np.array(levels)
        )
        assert counts.dtype == exits.dtype == np.int64
        assert counts.sum(axis=1).tolist() == [2500] * len(levels)
        np.testing.assert_array_equal(exits, np.bincount(tau)[1:])
        np.testing.assert_array_equal(counts[-1][: np.max(s) - top + 1], np.bincount(s - top))
        assert not counts[-1][np.max(s) - top + 1 :].any()
        assert new_rng.random() == ref_rng.random()  # the same draws were made

    @pytest.mark.parametrize(
        "levels", [[4], [1, 2, 3, 4], [-3, 0, 4], [-6, -4], [2, 5, 6, 9], list(range(-8, 7))]
    )
    @pytest.mark.parametrize("law", ["fix-f", "jumpy"])
    def test_every_level_count_matches_per_path_first_passages(self, law, levels):
        step = step_from_env(FIX_F) if law == "fix-f" else JUMPY
        cumw = _thresholds(tilt(step, gamma_root(step)).q_weights)
        incs, n = np.asarray(step.units), 2500
        ref_rng, new_rng = (_busy_shards(13, 1, 1)[0][0] for _ in range(2))
        # Each path's partial sums at steps 1, 2, ... until it reaches the top
        # level, one draw per path still below it, in path order; first[i, p]
        # is the first sum of path p at or above levels[i].
        s, first = np.zeros(n, dtype=np.int64), np.full((len(levels), n), np.iinfo(np.int64).min)
        idx = np.arange(n)
        while idx.size:
            s[idx] += incs[ladder._categories(cumw, ref_rng.random(idx.size))]
            for i, level in enumerate(levels):
                new = idx[(s[idx] >= level) & (first[i, idx] == np.iinfo(np.int64).min)]
                first[i, new] = s[new]
            idx = idx[s[idx] < levels[-1]]
        counts, _ = ladder._first_exit(
            cumw, incs, levels[-1], -math.inf, n, new_rng, True, np.array(levels)
        )
        for i, level in enumerate(levels):
            expected = np.bincount(first[i] - level)
            assert expected.size <= counts.shape[1]
            np.testing.assert_array_equal(counts[i][: expected.size], expected)
            assert not counts[i][expected.size :].any()
        if law == "jumpy" and 1 in np.diff(levels):  # some step crosses two adjacent levels
            assert any((first[i] >= levels[i + 1]).any() for i in range(len(levels) - 1))
        assert new_rng.random() == ref_rng.random()


class TestPhi:
    def test_t_zero_small_value(self):
        est = phi_estimate(SKIP_FREE, t=0.0, n=20000, seed=4)
        assert 1.0 <= est.value <= 2.0
        assert est.std_error > 0.0

    def test_monotone_in_t(self):
        ests = [phi_estimate(SKIP_FREE, t=float(t), n=20000, seed=6) for t in (0, 1, 2, 3)]
        for a, b in zip(ests, ests[1:]):
            assert b.value >= a.value - 3.0 * math.hypot(a.std_error, b.std_error)

    def test_recursion_bound_small(self):
        phis = {k: phi_estimate(step_from_env(FIX_F), t=float(k), n=20000, seed=8) for k in range(4)}
        for k in range(1, 4):
            se = math.sqrt(
                phis[k].std_error ** 2
                + phis[k - 1].std_error ** 2
                + math.exp(2 * k) * phis[1].std_error ** 2
            )
            assert phis[k].value <= phis[k - 1].value + math.exp(k) * phis[1].value + 3.0 * se

    def test_deterministic(self):
        a = phi_estimate(SKIP_FREE, t=2.0, n=5000, seed=13, workers=3)
        b = phi_estimate(SKIP_FREE, t=2.0, n=5000, seed=13, workers=3)
        assert a == b


GENERAL = StepLaw.of([(0.5, -1.7), (0.5, 0.9)], lattice=None)


# A path never reaches an infinite level, and no exit test is true at NaN: a
# walk to either would end at the step guard or give a value without meaning.
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("step", [SKIP_FREE, GENERAL], ids=["lattice", "float"])
@pytest.mark.parametrize("estimator", [
    lambda step, t: sup_tail(step, t, 10, "importance"),
    lambda step, t: sup_tail(step, t, 10, "naive"),
    lambda step, t: phi_estimate(step, t, 10),
], ids=["sup-importance", "sup-naive", "phi"])
def test_non_finite_levels_are_rejected(estimator, step, t):
    with pytest.raises(ValueError, match="finite level"):
        estimator(step, t)
