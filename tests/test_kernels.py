"""Pins for the shared numeric kernels: the one categorical draw
(``env._categories``, against ``searchsorted``, and ``env._add_steps``,
against the gathered steps), the truncated-series scan, the moment-root
bisection, the anchored sweep behind ``conditioned_env`` and
``conditioned_return_expectation``, the first-return window edges, the
ladder first-exit walk (phi included), and the ``mc`` lockstep walk behind
``simulate_until``, ``sample_first_return``, ``conditioned_sampler`` and
``speed_estimate``, with its worker shards and rows that grow on demand;
the free kernel of speed walks, which advances several steps per table
lookup on neighbourhood codes, is checked against per-step walks on full
windows, its step tables entry by entry against single steps, the
keyed site RNG against a pure-Python SplitMix64, and the vectorized
environment seeds against ``substream_seed``.  The conditional rows' first
sweep, sized by the law, is checked against a fixed 256-site one.

The golden literals were recorded before these kernels were merged from
their per-caller copies; the merged code must reproduce them bit for bit.
Likewise the digests of per-environment series outcomes were recorded
while those series still ran one environment at a time, before they ran in
blocks of environments, and blocks of any size must give the same numbers.
The escape and guard bounds that size first-return windows, and the
conditioned-walk edge bound that sizes the h-transform window, are also
pinned against the banded-LU ``absorption_oracle``, an independent solver,
and the window edges are checked to be the least certified ones.  The
lockstep ``conditioned_sampler`` is checked against a per-worker reference
loop, and the stop-site walk, whose array must end in stop sites at both
sides, against scalar draws in lockstep.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwre import (
    EnvLaw,
    EnvWindow,
    SeriesValue,
    absorption_oracle,
    StepLaw,
    conditioned_env,
    conditioned_return_expectation,
    conditioned_sampler,
    divergence_diagnostic,
    estimate_return_conditional,
    first_return_window,
    gamma_root,
    kappa_root,
    overshoot_constant,
    phi_estimate,
    r_tail,
    sample_first_return,
    sample_window,
    simulate_until,
    speed_estimate,
    step_from_env,
    sup_tail,
)
from rwre import env, exact, mc
from rwre.env import omega_at_sites
from rwre.estimate import Tally, merge_mean
from rwre.exact import (
    ConvergenceError,
    _conditional_return,
    _log_escape_bounds,
    _log_guard_bounds,
    _log_h_escape_bounds,
    return_decomposition,
)
from rwre.ladder import WaldCheck
from rwre.mc import _encode, _site_rows, _span, _step_table, _walk
from rwre.rng import (
    MASK64, _avalanche, _substream_seeds, mix64, shard_sizes, site_uniforms, substream_seed,
    worker_streams,
)

from laws import CONST_7, FIX_A, FIX_C, FIX_D, FIX_E, FIX_F

SKIP_FREE = StepLaw.of([(0.3, 1.0), (0.7, -1.0)])
GENERAL = StepLaw.of([(0.5, -1.7), (0.5, 0.9)], lattice=None)
THREE_LEVELS = EnvLaw.discrete([(0.3, 0.8), (0.3, 0.6), (0.4, 0.45)])  # s = 3


@pytest.mark.parametrize("law", [FIX_C, FIX_E, FIX_F], ids=["FIX-C", "FIX-E", "FIX-F"])
def test_kappa_and_gamma_solve_the_same_equation(law):
    # E[rho^u] = 1 and E[e^{u log rho}] = 1 are one equation, solved by one helper.
    assert abs(kappa_root(law) - gamma_root(step_from_env(law))) <= 1e-13


@pytest.mark.parametrize("law", [FIX_A, FIX_C, FIX_F], ids=["FIX-A", "FIX-C", "FIX-F"])
@pytest.mark.parametrize("seed", [0, 7])
def test_series_sum_is_exactly_rounded(law, seed):
    sv = r_tail(law, seed, 1, tol=1e-10)
    om = omega_at_sites(law, seed, np.arange(1, sv.terms_used + 1, dtype=np.int64))
    terms = np.exp(np.cumsum(np.log((1.0 - om) / om)))
    assert sv.value == math.fsum(terms.tolist())


def test_sup_tail_golden():
    naive = sup_tail(SKIP_FREE, 4.0, 2000, method="naive", seed=8)
    imp = sup_tail(SKIP_FREE, 4.0, 2000, method="importance", seed=8)
    flt = sup_tail(GENERAL, 6.0, 2000, method="importance", seed=8)
    flt_naive = sup_tail(GENERAL, 6.0, 2000, method="naive", seed=8)
    assert (naive.value, naive.std_error, naive.n) == (0.0275, 0.003657671975743734, 2000)
    assert (imp.value, imp.std_error, imp.n) == (0.033735943356934514, 0.0, 2000)
    assert (flt.value, flt.std_error) == (0.03897928930836969, 9.131540394552779e-05)
    assert (flt_naive.value, flt_naive.std_error) == (0.039, 0.004329997048176663)


def test_overshoot_wald_golden():
    scan = overshoot_constant(step_from_env(FIX_F), range(10, 13), n=2000, seed=9)
    assert scan.wald == WaldCheck(
        k=12,
        mean_s_tau=8.317766166719345,
        se_s_tau=0.0,
        mean_tau=28.5105,
        se_tau=0.336050457267826,
        drift_q=0.29600918490833683,
    )
    assert [(e.scaled, e.scaled_se) for e in scan.entries] == [
        (0.9999999999999999, 0.0),
        (0.9999999999999999, 0.0),
        (1.0, 0.0),
    ]


def stream(seed):
    return worker_streams(seed, 1)[0]


def test_simulate_until_golden():
    w = sample_window(FIX_C, 3, -12, 12)
    rng = stream(12)
    assert [simulate_until(w, 0, {-6, 7}, 60, rng) for _ in range(12)] == [
        (None, 60), (None, 60), (7, 23), (7, 31), (-6, 52), (-6, 54),
        (-6, 12), (None, 60), (None, 60), (None, 60), (7, 59), (-6, 24),
    ]


def test_sample_first_return_golden():
    win = first_return_window(CONST_7, 4, 1e-6)
    rng = stream(13)
    outs = [sample_first_return(win, cap, 1e-6, rng) for cap in (100, 30) * 8]
    assert [(o.status[0], o.first_step, o.steps or o.cap) for o in outs] == [
        ("r", -1, 8), ("r", -1, 6), ("r", -1, 2), ("r", 1, 10), ("e", 1, None), ("c", 1, 30),
        ("e", 1, None), ("c", 1, 30), ("r", -1, 2), ("r", 1, 2), ("e", 1, None), ("r", 1, 2),
        ("r", 1, 4), ("r", 1, 6), ("r", 1, 2), ("r", 1, 2),
    ]
    assert outs[4].certified_bound == 1.677810355594698e-12


def test_conditioned_sampler_golden():
    h = conditioned_sampler((FIX_C, 101), "h_transform", n=16, seed=5, workers=2)
    r = conditioned_sampler((FIX_C, 101), "rejection", n=16, seed=5, workers=2)
    assert h.tolist() == [1, 1, 1, 7, 3, 3, 7, 69, 1, 11, 1, 1, 1, 1, 9, 7]
    assert r.tolist() == [1, 1, 77, 3, 11, 1, 449, 1, 1, 1, 1, 1, 1, 5, 1571, 13]


def test_speed_estimate_golden():
    est = speed_estimate(FIX_A, horizon=400, reps=7, seed=3, workers=2)
    assert (est.value, est.std_error, est.n) == (0.38642857142857145, 0.015572957548350284, 7)


def test_phi_estimate_golden():
    lat = phi_estimate(step_from_env(FIX_F), 2.0, 2000, seed=6, workers=2)
    flt = phi_estimate(GENERAL, 2.0, 2000, seed=6, workers=2)
    assert (lat.value, lat.std_error, lat.n) == (8.687383758544922, 0.1264812029054743, 2000)
    assert (flt.value, flt.std_error, flt.n) == (9.400229009996876, 0.13281044947521936, 2000)


@pytest.mark.parametrize("law,seed,tol,expected", [
    (FIX_A, 0, 1e-10, SeriesValue(1.6221330723389742, 1.0691743568907673e-24, 62, True)),
    (FIX_A, 7, 1e-10, SeriesValue(2.624082674339286, 7.5884317442216e-24, 60, True)),
    (FIX_C, 0, 1e-10, SeriesValue(469.853314013797, 5.119599736870144e-10, 112, True)),
    (FIX_C, 7, 1e-10, SeriesValue(27.659273277718455, 4.3771110211239247e-16, 104, True)),
    (FIX_C, 15, 1e-14, SeriesValue(12.428247659131234, 2.114996298634565e-18, 263, True)),
    (FIX_F, 0, 1e-10, SeriesValue(83.83886660637086, 1.40688087307519e-13, 90, True)),
    (FIX_F, 7, 1e-10, SeriesValue(36.07053904676931, 3.7332159068304234e-14, 79, True)),
    (FIX_D, 0, 1e-10, SeriesValue(5.160431009224911, 1.2941946525139559e-23, 51, True)),
    (FIX_D, 7, 1e-10, SeriesValue(1.8392525910056936, 7.348901060923155e-26, 48, True)),
])
def test_conditioned_return_expectation_golden(law, seed, tol, expected):
    # FIX-C seed 15 at tol 1e-14 needs 263 terms, so the sweep doubles past 256.
    assert conditioned_return_expectation(law, seed, tol=tol) == expected


@pytest.mark.parametrize("law,expected", [
    (FIX_A, [0.6, 0.1793429287732827, 0.3308908200573739, 0.4095131232236078,
             0.39386215558975013]),
    (FIX_C, [0.3333333333333333, 0.3289745048708287, 0.7466875636272972,
             0.7061491778397351, 0.33257838003636186]),
    (FIX_F, [0.3333333333333333, 0.3189261184707052, 0.7909651709106089,
             0.7183358809300506, 0.33244645000671885]),
    (FIX_D, [0.8796008909573649, 0.3374899979675087, 0.24701518740399636,
             0.23693738163442593, 0.1971279529017563]),
], ids=["FIX-A", "FIX-C", "FIX-F", "FIX-D"])
def test_conditioned_env_golden(law, expected):
    env = conditioned_env(law, 3, 64)
    assert [float(env.omega[x]) for x in (0, 1, 2, 17, 64)] == expected


def _outcome_digest(fn, law, **kw):
    """SHA-256 of the reprs of fn(law, substream_seed(3, 7, j), **kw) for j < 400."""
    lines = []
    for j in range(400):
        try:
            lines.append(repr(fn(law, substream_seed(3, 7, j), **kw)))
        except ConvergenceError as exc:
            lines.append(f"ConvergenceError({exc})")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("law,kw,cond,decomp", [
    (FIX_A, {"tol": 1e-8},
     "172e7b770302ab4822888425aba67813682ad6c912669027eb66df9c18ffff20",
     "23acf1f8bcead11bcf423f94cc79330d9d6abb9caf75840624ee216ead9b18a2"),
    (FIX_A, {"tol": 1e-10},
     "03966cf07e6e029c314af1e979931ac307c54be515fafd12f3f6556f794327df",
     "320bfa14b1459d003113dbf20190373056d82f39763a4c88c2649088ca703d0a"),
    (FIX_C, {"tol": 1e-8},
     "a855862584a814ac5c12d1182e33a9c0cc9ac8ec23df5d0bbd40eb9217e92df8",
     "08e919b0e36d3b62fb8465ef6fc1f8a3316007a7c078d70b155134a10aebe032"),
    (FIX_C, {"tol": 1e-10},
     "ca205564dcfea36d2b9ed047373b8c541705a53b0511812c45ac9c2cef05cee1",
     "8f98b467505b5bc446a09ceffbd2693fcf4228a70b0c03d7e2540de14bb9f8ea"),
    (FIX_C, {"tol": 1e-14},
     "a6d8df8161ef1d0d7d1d4deef103653d74cd0fba9fa9faecaa4521000843f8f5",
     "ac90cd686402f8b95d6efd6551130501ab6aa072fad8bf54d5b8c66e7b942951"),
    (FIX_C, {"tol": 1e-8, "horizon": 40},
     "32cbe27d0f34ef8899818b5061e04bbd8ffbed49c43525f95c8cf9fe3349bd38",
     "40d561d67a69eb34cfac896997c8a360734d4ce42553e70a31166dd20e6df7c8"),
    (FIX_D, {"tol": 1e-8},
     "ac9fb81927f54cf33f65a7d91d54b4c3b129083c51f645562bc9099edfb7bc62", None),
    (FIX_D, {"tol": 1e-10},
     "6625683294fee47ced2991a76c6163763cf5154e9fa777d4a7df8968cb740a83", None),
    (FIX_F, {"tol": 1e-8},
     "adc20388385fe75cd6d90d35612f802b684d8ff42df10c0a4ff54c82f05eb196",
     "abc451b79fb939e0f0d205cbbf96111f6e58b89456a39b21a87eb3c20d952464"),
    (FIX_F, {"tol": 1e-10},
     "0e767eb18599d93015977923d33b178ba820c7da319c4f15d72aacff3b575d1a",
     "c109758a2910461547f88ffbbe50949e9e87284cb2d7d83069c1c982058ca3ad"),
], ids=["FIX-A-1e-8", "FIX-A-1e-10", "FIX-C-1e-8", "FIX-C-1e-10", "FIX-C-1e-14",
        "FIX-C-horizon-40", "FIX-D-1e-8", "FIX-D-1e-10", "FIX-F-1e-8", "FIX-F-1e-10"])
def test_per_environment_series_digests(law, kw, cond, decomp):
    # Digests of 400 environments' outcomes, recorded before the per-environment
    # series were evaluated in blocks of environments.  Tol 1e-14 on FIX-C has
    # rows whose sweep doubles past 256 sites; horizon 40 leaves every row
    # unconverged (return_decomposition raises for each).  FIX-D's
    # decomposition is skipped: its leftward beta-law series is slow.
    assert _outcome_digest(_conditional_return, law, **kw) == cond
    if decomp is not None:
        assert _outcome_digest(return_decomposition, law, **kw) == decomp


@pytest.mark.parametrize("law,tol,n0", [
    (FIX_A, 1e-8, 128), (FIX_A, 1e-10, 128), (FIX_D, 1e-8, 128), (FIX_D, 1e-10, 128),
    (CONST_7, 1e-8, 128), (CONST_7, 1e-10, 128), (FIX_A, 0.0, 256),
    (FIX_C, 1e-8, 256), (FIX_C, 1e-10, 256), (FIX_E, 1e-10, 256), (FIX_F, 1e-10, 256),
])
def test_first_sweep_sites(law, tol, n0):
    assert exact._first_sweep_sites(exact.mean_log_rho(law), tol) == n0


@pytest.mark.parametrize("law", [FIX_A, FIX_D, CONST_7], ids=["FIX-A", "FIX-D", "CONST-7"])
@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_law_sized_first_sweep_equals_256_sites(monkeypatch, law, tol):
    # A first sweep of 128 sites gives every row's doubles of a 256-site one.
    seeds = _substream_seeds(2, 1, 0, 2000)
    sized = [repr(row) for row in exact._conditional_rows(law, seeds, tol)]
    monkeypatch.setattr(exact, "_first_sweep_sites", lambda drift, tol: 256)
    assert [repr(row) for row in exact._conditional_rows(law, seeds, tol)] == sized


@pytest.mark.parametrize("law,tol", [(FIX_A, 1e-10), (FIX_C, 1e-14)])
def test_consistency_check_catches_a_perturbed_row(monkeypatch, law, tol):
    # Scaling one row's Pi_{1,k} by e^{1e-3} moves its series sum but not its
    # check sum, which reads R_x alone: that row fails, and no other changes.
    seeds = [substream_seed(5, 1, j) for j in range(40)]
    base = exact._conditional_rows(law, seeds, tol)
    sweep, bad = exact._sweep_rows, seeds[17] & MASK64

    def perturbed(law, rows, n, tol, horizon):
        om, cum, log_r, anchored = sweep(law, rows, n, tol, horizon)
        cum[rows == bad, 1:] += 1e-3
        return om, cum, log_r, anchored

    monkeypatch.setattr(exact, "_sweep_rows", perturbed)
    out = exact._conditional_rows(law, seeds, tol)
    assert isinstance(out[17], ConvergenceError)
    assert "h-transform consistency check failed" in str(out[17])
    assert out[:17] + out[18:] == base[:17] + base[18:]


@settings(max_examples=30, deadline=None)
@given(law=st.sampled_from([FIX_A, FIX_C, FIX_D]), seed=st.integers(0, 2**32), data=st.data())
def test_check_sums_equal_exactly_rounded_sums(law, seed, data):
    # The in-order check sums against math.fsum of the same terms, per row
    # and at any number of terms.
    seeds = exact._seed_rows([substream_seed(seed, 1, j) for j in range(8)])
    _, _, log_r, _ = exact._sweep_rows(law, seeds, 256, 1e-10, exact.DEFAULT_HORIZON)
    log_1r = np.logaddexp(0.0, log_r)
    used = np.array(data.draw(st.lists(st.integers(1, 256), min_size=8, max_size=8)))
    got = exact._check_sums(log_r, log_1r, used)
    alt = np.exp(-np.cumsum(log_1r[:, :256] - log_r[:, 1:], axis=1))
    for i, m in enumerate(used.tolist()):
        assert got[i] == pytest.approx(math.fsum(alt[i, :m].tolist()), rel=1e-12)


@pytest.mark.parametrize("law,seed,lo,hi", [
    (FIX_A, 0, -32, 32), (FIX_A, 5, -32, 33),
    (FIX_C, 0, -128, 95), (FIX_C, 4, -256, 62), (FIX_C, 6, -256, 135),
    (FIX_F, 3, -32, 44), (FIX_F, 4, -128, 47), (FIX_F, 5, -64, 183),
])
def test_first_return_window_golden(law, seed, lo, hi):
    # The left guard doubles past its 32-site start for FIX-C and FIX-F.
    win = first_return_window(law, seed)
    assert (win.lo, win.hi) == (lo, hi)


FIXTURES = pytest.mark.parametrize(
    "law", [FIX_A, FIX_C, FIX_D, FIX_F], ids=["FIX-A", "FIX-C", "FIX-D", "FIX-F"]
)


def _escape_oracle(law, seed, m, far=800):
    """P^m(T_0 < T_far): P^m(T_0 < inf) up to about P^far(T_0 < inf)."""
    return absorption_oracle(sample_window(law, seed, 0, far), 0, far, m)[0]


def _guard_oracle(law, seed, depth):
    return absorption_oracle(sample_window(law, seed, -depth, 0), -depth, 0, -1)[0]


@FIXTURES
@pytest.mark.parametrize("seed", range(5))
def test_escape_and_guard_bounds_match_oracle(law, seed):
    # A tight anchor isolates the sweep's algebra from the tail truncation.
    escape = np.exp(_log_escape_bounds(law, seed, 300, tol=1e-14))  # entry M-1
    for m in (1, 2, 17, 32, 60, 150, 300):
        ref = _escape_oracle(law, seed, m)
        assert escape[m - 1] == pytest.approx(ref, rel=1e-9, abs=0.0)
        # At the default tol the truncated anchor underestimates R_m, so the
        # certificate can only err low (FIX-C seed 1, m = 300: by 4.8e-9).
        assert mc._escape_bound(law, seed, m) <= ref * (1.0 + 1e-12)
    guard = np.exp(_log_guard_bounds(law, seed, 300))  # entry L-1
    for depth in (2, 5, 32, 64, 200, 300):
        ref = _guard_oracle(law, seed, depth)
        assert guard[depth - 1] == pytest.approx(ref, rel=1e-9, abs=0.0)


@FIXTURES
@pytest.mark.parametrize("seed", range(5))
def test_window_edges_are_least_certified(law, seed):
    for eps in (1e-6, 1e-9, 1e-12):
        win = first_return_window(law, seed, eps)
        m, depth = win.hi, -win.lo
        assert mc._escape_bound(law, seed, m) <= eps
        assert _escape_oracle(law, seed, m, m + 800) <= eps
        assert m == 32 or _escape_oracle(law, seed, m - 1, m + 800) > eps
        assert depth >= 32 and depth & (depth - 1) == 0
        assert _guard_oracle(law, seed, depth) <= eps
        assert depth == 32 or _guard_oracle(law, seed, depth // 2) > eps


def _h_escape_oracle(law, seed, m):
    """P~^1(T_m < T_0) on the conditioned window, as the absorption at -m of
    its mirror image (omega -> 1 - omega, x -> -x), so no 1 - u cancels."""
    win = conditioned_env(law, seed, m + 5, tol=1e-14)
    mirror = EnvWindow(lo=-win.hi, hi=0, omega=1.0 - win.omega[::-1], law=law, seed=seed)
    return absorption_oracle(mirror, -m, 0, -1)[0]


@FIXTURES
@pytest.mark.parametrize("seed", range(5))
def test_h_escape_bound_matches_oracle(law, seed):
    bound = np.exp(_log_h_escape_bounds(law, seed, 300, tol=1e-14))  # entry M-1
    for m in (1, 2, 5, 17, 32, 40, 60, 120, 150):
        assert bound[m - 1] == pytest.approx(_h_escape_oracle(law, seed, m), rel=1e-9, abs=0.0)


class _Sized(Exception):
    """Raised in place of building the conditioned window; carries its hi."""


@FIXTURES
@pytest.mark.parametrize("seed", range(5))
def test_h_transform_window_is_least_certified(monkeypatch, law, seed):
    def record(law, seed, hi, tol):
        raise _Sized(hi)

    monkeypatch.setattr(mc, "conditioned_env", record)
    for n, eps in ((1, 1e-6), (10**4, 1e-6), (100, 1e-12)):
        with pytest.raises(_Sized) as sized:
            conditioned_sampler((law, seed), "h_transform", n=n, escape_eps=eps)
        hi = sized.value.args[0]
        assert hi >= 32
        assert n * _h_escape_oracle(law, seed, hi) <= eps
        assert hi == 32 or n * _h_escape_oracle(law, seed, hi - 1) > eps


def _per_worker_sampler(window, mode, n, cap, seed, workers):
    """Reference for ``conditioned_sampler``: each worker walks alone, round
    after round until its quota is met.  Returns the samples and each
    worker's number of rounds."""
    stop = np.zeros(window.omega.size, dtype=bool)
    stop[[0, window.hi]] = True
    out, rounds = [], []
    for rng, quota in zip(worker_streams(seed, workers), shard_sizes(n, workers)):
        have = k = 0
        while have < quota:
            batch = quota - have if mode == "h_transform" else max(64, 2 * (quota - have))
            end, steps, stopped = _walk(
                window.omega, np.ones(batch, dtype=np.int64), stop, cap, [(rng, batch)]
            )
            assert stopped.all()
            kept = (steps if mode == "h_transform" else steps[end == 0])[: quota - have]
            out.append(kept)
            have, k = have + kept.size, k + 1
        rounds.append(k)
    return np.concatenate(out), rounds


@pytest.mark.parametrize("law,env_seed,mode,n", [
    (FIX_C, 101, "h_transform", 40),
    (FIX_C, 101, "rejection", 40),
    (FIX_A, 2, "h_transform", 2),  # fewer paths than 3 workers: an empty shard
    (FIX_A, 2, "rejection", 2),
    (FIX_A, 2, "rejection", 121),  # returns ~46%: shards need 2 or 3 rounds
], ids=["FIX-C-h", "FIX-C-rej", "FIX-A-h-empty-shard", "FIX-A-rej-empty-shard", "FIX-A-rej-rounds"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_conditioned_lockstep_equals_per_worker_loop(law, env_seed, mode, n, workers):
    eps, cap, seed = 1e-6, 10**6, 17
    if mode == "h_transform":
        hi = mc._least_certified(_log_h_escape_bounds, law, env_seed, eps / n)
        window = conditioned_env(law, env_seed, hi, tol=1e-12)
    else:
        window = sample_window(
            law, env_seed, 0, mc._least_certified(_log_escape_bounds, law, env_seed, eps)
        )
    expected, rounds = _per_worker_sampler(window, mode, n, cap, seed, workers)
    got = conditioned_sampler((law, env_seed), mode, n=n, cap=cap, seed=seed, workers=workers)
    assert got.tolist() == expected.tolist()
    if n == 121 and workers > 1:
        assert len(set(rounds)) > 1


def _scalar_walk(env, start, targets, cap, rng):
    """One path, one uniform per step: the reference for ``simulate_until``."""
    pos = start
    if pos in targets:
        return pos, 0
    for step in range(1, cap + 1):
        pos += 1 if rng.random() < env.omega[pos - env.lo] else -1
        if not env.lo <= pos <= env.hi:
            raise RuntimeError("walked off the window")
        if pos in targets:
            return pos, step
    return None, cap


@st.composite
def _walk_cases(draw):
    lo = draw(st.integers(-8, 0))
    hi = draw(st.integers(lo, lo + 12))
    sites = st.integers(lo, hi)
    law = draw(st.sampled_from([FIX_A, FIX_C, EnvLaw.constant(0.3), EnvLaw.constant(0.9)]))
    env = sample_window(law, draw(st.integers(0, 50)), lo, hi)
    targets = draw(st.sets(sites, max_size=3))
    return env, draw(sites), targets, draw(st.integers(0, 40)), draw(st.integers(0, 2**32))


@settings(max_examples=200, deadline=None)
@given(case=_walk_cases())
def test_simulate_until_matches_scalar_loop(case):
    env, start, targets, cap, seed = case
    ref_rng, rng = stream(seed), stream(seed)
    try:
        expected = _scalar_walk(env, start, targets, cap, ref_rng)
    except RuntimeError:
        with pytest.raises(RuntimeError):
            simulate_until(env, start, targets, cap, rng)
        return
    assert simulate_until(env, start, targets, cap, rng) == expected
    assert rng.random() == ref_rng.random()  # one uniform per step, no more


@st.composite
def _shard_cases(draw):
    size = draw(st.integers(1, 24))
    law = draw(st.sampled_from([FIX_A, FIX_C, EnvLaw.constant(0.3), EnvLaw.constant(0.9)]))
    omega = sample_window(law, draw(st.integers(0, 50)), 0, size - 1).omega
    sizes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    starts = draw(st.lists(st.integers(0, size - 1), min_size=sum(sizes), max_size=sum(sizes)))
    stop = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    stop[[0, -1]] = True  # a closed window
    return omega, sizes, starts, stop, draw(st.integers(0, 40)), draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(case=_shard_cases())
def test_shard_lockstep_equals_separate_walks(case):
    omega, sizes, starts, stop, cap, seed = case
    rngs, refs = worker_streams(seed, len(sizes)), worker_streams(seed, len(sizes))
    offsets = np.cumsum([0] + sizes)
    parts = [_walk(omega, starts[a:b], stop, cap, [(rng, b - a)])
             for rng, a, b in zip(refs, offsets[:-1], offsets[1:])]
    got = _walk(omega, starts, stop, cap, list(zip(rngs, sizes)))
    for g, ref in zip(got, zip(*parts)):
        assert np.array_equal(g, np.concatenate(ref))
    assert [r.random() for r in rngs] == [r.random() for r in refs]


def _closed(size):
    """A stop mask of ``size`` sites that stops paths at both end sites only."""
    stop = np.zeros(size, dtype=bool)
    stop[[0, -1]] = True
    return stop


@pytest.mark.parametrize("start", [-1, 21])
def test_walk_rejects_starts_off_the_array(start):
    # A negative index would otherwise read a site from the far end.
    omega = sample_window(FIX_A, 8, 0, 20).omega
    with pytest.raises(IndexError, match="starts outside"):
        _walk(omega, [10, start], _closed(21), 5, [(stream(1), 2)])


@pytest.mark.parametrize("stops,size", [
    (set(), 21), ({0}, 21), ({20}, 21), ({0, 10}, 21), ({0, 19}, 20), ({0, 21}, 22),
], ids=["none", "left-only", "right-only", "interior", "shorter-mask", "longer-mask"])
def test_walk_needs_stop_sites_at_both_ends(stops, size):
    # The gathers clip indices to the array, so an open end would quietly read
    # an end site; the walk refuses it before drawing anything.
    omega = sample_window(FIX_A, 8, 0, 20).omega
    stop = np.zeros(size, dtype=bool)
    stop[list(stops)] = True
    rng, ref = stream(2), stream(2)
    with pytest.raises(ValueError, match="both end sites"):
        _walk(omega, [10, 5], stop, 50, [(rng, 2)])
    assert rng.random() == ref.random()


MANY_LEVELS = EnvLaw.discrete([(1 / 300, (i + 0.5) / 300) for i in range(300)])
REPEATED = EnvLaw.discrete([(0.25, 0.6), (0.25, 0.8), (0.5, 0.6)])
MORE_LEVELS = EnvLaw.discrete([(1 / 600, (i + 0.5) / 600) for i in range(600)])  # omega in rows
SPEED_LAWS = pytest.mark.parametrize("law", [
    FIX_A, FIX_C, FIX_D, THREE_LEVELS, FIX_A.mirror(), MANY_LEVELS, CONST_7, MORE_LEVELS,
], ids=["FIX-A", "FIX-C", "beta", "three-levels", "FIX-A-mirror", "300-levels", "CONST-0.7",
        "600-levels"])


@pytest.mark.parametrize("law,dtype", [
    (FIX_A, np.uint8), (FIX_C, np.uint8), (FIX_F, np.uint8), (CONST_7, np.uint8),
    (REPEATED, np.uint8), (MANY_LEVELS, np.uint16), (FIX_D, np.float64),
], ids=["FIX-A", "FIX-C", "FIX-F", "CONST-0.7", "repeated", "300-levels", "beta"])
def test_site_rows_round_trip_bitwise(law, dtype):
    seeds, sites = [3, 9, 2**63 + 5], np.arange(-700, 701, dtype=np.int64)
    levels = law.omega_levels()
    rows = _site_rows(law, levels, seeds, sites)
    assert rows.dtype == dtype
    omega = rows if levels is None else levels[rows]
    expected = np.stack([omega_at_sites(law, s, sites) for s in seeds], axis=1)  # site-major
    assert omega.tobytes() == expected.tobytes()


def test_single_level_draws_no_site_uniforms(monkeypatch):
    def refuse(*args):
        raise AssertionError("a constant environment needs no site uniforms")

    monkeypatch.setattr(env, "site_uniforms", refuse)
    rows = _site_rows(CONST_7, CONST_7.omega_levels(), [1, 2], np.arange(-5, 6))
    assert rows.dtype == np.uint8 and not rows.any()


def test_constant_omega_draws_no_site_uniforms(monkeypatch):
    def refuse(*args):
        raise AssertionError("a constant environment needs no site uniforms")

    monkeypatch.setattr(env, "site_uniforms", refuse)
    omega = omega_at_sites(CONST_7, np.array([[1], [2]]), np.arange(-5, 6))
    assert omega.shape == (2, 11) and (omega == 0.7).all()


@st.composite
def _category_cases(draw):
    m = draw(st.sampled_from([1, 2, 3, 7, 149, 150, 151, 300]))
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m))
    cum = env._thresholds(np.array(weights) / math.fsum(weights))
    edges = cum[:-1]
    u = np.concatenate([
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0), [0.0, np.nextafter(1.0, 0.0)],
        np.array(draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))),
    ])
    return cum, u[u < 1.0]


@settings(max_examples=200, deadline=None)
@given(case=_category_cases())
def test_categories_equal_right_searchsorted(case):
    cum, u = case
    for draws in (u, np.resize(u, env._DRAWS_PER_PASS * cum.size)):  # both sides of the size rule
        got = env._categories(cum, draws)
        assert np.array_equal(got, np.searchsorted(cum, draws, side="right"))
        assert np.iinfo(got.dtype).max >= cum.size - 1


@settings(max_examples=200, deadline=None)
@given(case=_category_cases(), data=st.data())
def test_add_steps_equals_the_gathered_steps(case, data):
    cum, u = case
    steps = np.array(data.draw(st.lists(st.integers(-20, 20), min_size=cum.size,
                                        max_size=cum.size)), dtype=np.int64)
    for draws in (u, np.resize(u, env._DRAWS_PER_PASS * cum.size)):  # both sides of the size rule
        start = np.arange(draws.size) % 101 - 50  # partial sums and steps fit in int8
        for dtype in (np.int8, np.int64):
            acc = start.astype(dtype)
            env._add_steps(acc, cum, draws, steps, np.empty(draws.size, dtype=bool))
            assert acc.dtype == dtype
            assert np.array_equal(acc, start + steps[env._categories(cum, draws)])


def test_add_steps_sends_a_draw_on_a_threshold_up():
    cum = env._thresholds([0.25, 0.25, 0.5])
    draws = np.resize([0.0, 0.25, np.nextafter(0.25, 0.0), 0.5, np.nextafter(0.5, 0.0)], 1000)
    acc = np.zeros(draws.size, dtype=np.int8)
    env._add_steps(acc, cum, draws, np.array([2, 1, -3]), np.empty(draws.size, dtype=bool))
    assert acc[:5].tolist() == [2, 1, 2, -3, 1]


def test_a_site_uniform_of_one_takes_the_last_category(monkeypatch):
    # 2^53 - 1 + 0.5 rounds up to 2^53: one 53-bit site draw in 2^53 maps to 1.0.
    assert (float(2**53 - 1) + 0.5) * 2.0**-53 == 1.0
    monkeypatch.setattr(env, "site_uniforms", lambda seed, sites: np.ones(np.shape(sites)))
    omega = omega_at_sites(MANY_LEVELS, 0, np.arange(3))  # the binary search: 300 levels
    assert omega.tolist() == [MANY_LEVELS.omegas[-1]] * 3
    for cum in (env._thresholds([0.5, 0.25, 0.25]), env._thresholds(np.full(300, 1 / 300))):
        for n in (1, env._DRAWS_PER_PASS * cum.size):  # both sides of the size rule
            u = np.ones(n)
            assert (env._categories(cum, u) == cum.size - 1).all()
            acc = np.zeros(n, dtype=np.int64)
            env._add_steps(acc, cum, u, np.arange(cum.size), np.empty(n, dtype=bool))
            assert (acc == cum.size - 1).all()


def _speed_per_worker(law, horizon, reps, seed, workers, sub):
    """Each worker walks its own replicates alone, ``sub`` float64 windows at
    a time: the reference for how ``speed_estimate`` batches its shards."""
    sites = np.arange(-horizon, horizon + 1, dtype=np.int64)
    tallies, rep0 = [], 0
    for rng, n_w in zip(worker_streams(seed, workers), shard_sizes(reps, workers)):
        finals = []
        for done in range(0, n_w, sub):
            b = min(sub, n_w - done)
            omega = np.stack([omega_at_sites(law, substream_seed(seed, 11, rep0 + done + i), sites)
                              for i in range(b)])
            pos = np.full(b, horizon)
            for _ in range(horizon):
                pos += np.where(rng.random(b) < omega[np.arange(b), pos], 1, -1)
            finals.extend((pos - horizon) / horizon)
        tallies.append(Tally.of(np.array(finals)))
        rep0 += n_w
    return merge_mean(tallies)[:3]


@SPEED_LAWS
@pytest.mark.parametrize("rows", [4, 10, 17, 64])
def test_speed_batches_equal_per_worker_walks(monkeypatch, law, rows):
    # 23 replicates on 3 workers (8, 8, 7): a budget of 4 windows splits every
    # shard, 10 walks them one at a time, 17 two together, 64 all at once.
    # Rows start at [-2, 2] and grow on both sides, several times in 300
    # steps, and must read what the full float64 windows of the reference hold.
    horizon, itemsize = 300, mc._site_dtype(law.omega_levels()).itemsize
    monkeypatch.setattr(mc, "_SITE_BUDGET", rows * (2 * horizon + 1) * itemsize)
    monkeypatch.setattr(mc, "_ROW_REACH", 2)
    grown, grow = [], mc._Rows._grow

    def spy(self, pos, a, b):
        grown.append((a, b))
        return grow(self, pos, a, b)

    monkeypatch.setattr(mc._Rows, "_grow", spy)
    est = speed_estimate(law, horizon=horizon, reps=23, seed=4, workers=3)
    sub = min(rows, 8)
    assert (est.n, est.value, est.std_error) == _speed_per_worker(law, horizon, 23, 4, 3, sub)
    assert sum(a > 0 for a, _ in grown) >= 2 and sum(b > 0 for _, b in grown) >= 2


@SPEED_LAWS
@pytest.mark.parametrize("depth", range(1, 8))
@pytest.mark.parametrize("horizon", [1, 2, 9, 40])
def test_free_walk_blocks_equal_per_step_walks(monkeypatch, law, depth, horizon):
    # Draw blocks of 1 to 7 steps for 5 replicates on 3 workers (2, 2, 1), so
    # table lookups of s steps are cut at block ends and the steps left over
    # go one at a time; rows start at [-2, 2] and grow as the walks spread.
    monkeypatch.setattr(mc, "_DRAW_BLOCK", depth * 5)
    monkeypatch.setattr(mc, "_ROW_REACH", 2)
    est = speed_estimate(law, horizon=horizon, reps=5, seed=11, workers=3)
    assert (est.n, est.value, est.std_error) == _speed_per_worker(law, horizon, 5, 11, 3, 5)


def _full_window(rows):
    """What ``rows`` should hold at sites -bound..bound (sites x rows):
    ``_encode`` of the level codes, or omega, of the full window."""
    c = rows.span - 1
    sites = np.arange(-rows.bound - c, rows.bound + c + 1)
    omega = np.stack([omega_at_sites(rows.law, s, sites) for s in rows.seeds], axis=1)
    values = omega if rows.levels is None else np.searchsorted(rows.levels, omega)
    out = np.empty((2 * rows.bound + 1, rows.n), dtype=rows.flat.dtype)
    _encode(values.astype(out.dtype), rows.levels.size if c else 1, rows.span, out)
    return out


def _assert_rows_hold_the_full_window(rows):
    stored = rows.flat.reshape(-1, rows.n)[rows.lo - rows.cap_lo : rows.hi - rows.cap_lo + 1]
    full = _full_window(rows)[rows.lo + rows.bound : rows.hi + rows.bound + 1]
    assert stored.tobytes() == full.tobytes()


def test_rows_grow_to_the_margin_asked_and_raise_past_their_bounds():
    # Rows [-8, 8] that may grow to [-20, 20]; paths at site -5 of row 0 and
    # site 6 of row 1 leave margins of 3 on the left and 2 on the right.  A
    # side grows to the margin asked or by a quarter of its reach, whichever
    # goes further.  Storage starts at [-8, 8] and doubles twice.
    rows = mc._Rows(FIX_A, FIX_A.omega_levels(), [3, 4], 8, 20)
    pos = (np.array([-5, 6]) + 8) * 2 + np.arange(2)
    for need, margin, lo, hi in [
        (2, 2, -8, 8),  # no growth needed
        (3, 3, -8, 10),  # the right side: a quarter of 8 beats the margin 3 asked
        (4, 4, -10, 10),  # then the left, by a quarter again; the storage moves left
        (9, 9, -14, 15),  # both sides to the margin 9 asked
        (14, 14, -19, 20),  # the right side to its bound
    ]:
        assert rows.fit(pos, need) == margin and (rows.lo, rows.hi) == (lo, hi)
        assert rows.sites(pos).tolist() == [-5, 6]
        _assert_rows_hold_the_full_window(rows)
    assert (rows.cap_lo, rows.cap_hi) == (-20, 20)
    with pytest.raises(RuntimeError, match="bounds of its rows"):
        rows.fit(pos, 15)  # the right margin stays 14 at the bound
    assert (rows.lo, rows.hi) == (-20, 20)  # the left side clipped at its bound
    assert rows.sites(pos).tolist() == [-5, 6]
    _assert_rows_hold_the_full_window(rows)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_grown_rows_hold_the_full_window(data):
    # Paths jump anywhere within their rows and ask for random margins, so
    # both sides grow in any order and the storage doubles either way; every
    # stored site must equal the full window's, and no path may change site.
    law = data.draw(st.sampled_from([FIX_A, THREE_LEVELS, FIX_C, MANY_LEVELS, FIX_D, CONST_7]))
    n, reach = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    bound = data.draw(st.integers(reach, 40))
    seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc, "_STRIP_SITES", data.draw(st.integers(1, 3 * n)))
        rows = mc._Rows(law, law.omega_levels(), seeds, reach, bound)
        for need in data.draw(st.lists(st.integers(0, 12), min_size=1, max_size=10)):
            sites = np.array([data.draw(st.integers(rows.lo, rows.hi)) for _ in range(n)])
            pos = (sites - rows.cap_lo) * n + np.arange(n)
            try:
                margin = rows.fit(pos, need)
            except RuntimeError:  # a side short of the margin asked is at its bound
                assert min(sites.min() - rows.lo, rows.hi - sites.max()) < need
                assert sites.min() - rows.lo >= need or rows.lo == -bound
                assert rows.hi - sites.max() >= need or rows.hi == bound
                break
            assert margin == min(sites.min() - rows.lo, rows.hi - sites.max()) >= need
            assert rows.sites(pos).tolist() == sites.tolist()
            assert rows.cap_lo <= rows.lo and rows.hi <= rows.cap_hi
            if rows.flat is not None:
                _assert_rows_hold_the_full_window(rows)


@SPEED_LAWS
def test_rows_realize_little_beyond_the_walks(monkeypatch, law):
    # Each side of the final rows lies at most a quarter of its reach plus s
    # beyond the farthest site the paths reached on it (seen at every fit),
    # unless it never grew from the start [-32, 32].
    seen = {}
    fit = mc._Rows.fit

    def spy(self, pos, need):
        at = self.sites(pos)
        lo, hi = seen.get(self, (0, 0))
        seen[self] = min(lo, int(at.min())), max(hi, int(at.max()))
        return fit(self, pos, need)

    monkeypatch.setattr(mc._Rows, "fit", spy)
    speed_estimate(law, horizon=3000, reps=12, seed=5, workers=2)
    assert seen
    for rows, (first, last) in seen.items():
        quarter = -rows.lo // mc._ROW_GROWTH, rows.hi // mc._ROW_GROWTH
        assert rows.lo == -mc._ROW_REACH or first - rows.lo <= rows.span + quarter[0]
        assert rows.hi == mc._ROW_REACH or rows.hi - last <= rows.span + quarter[1]


def _steps_by_rule(code, cats, n_levels, span):
    """Where single steps with categories ``cats`` end from the centre of a
    neighbourhood code: step up iff the current site's level code >= k."""
    at = 0
    for k in cats:
        at += 1 if code // n_levels ** (at + span - 1) % n_levels >= k else -1
    return at


@pytest.mark.parametrize("n_levels,span", [(2, 4), (3, 3), (4, 2), (5, 2), (6, 2), (7, 1)])
def test_step_tables_equal_single_steps(n_levels, span):
    # The span rule (the largest s with L^(2s-1) <= 256), then every entry of
    # the s-step and one-step tables: for every tuple of step categories
    # 0..L and every neighbourhood code, the displacement of single steps.
    assert _span(n_levels) == span
    codes = n_levels ** (2 * span - 1)
    assert codes <= 256 and (n_levels ** (2 * span + 1) > 256)
    for steps in sorted({1, span}):
        table = _step_table(n_levels, span, steps)
        assert table.size == (n_levels + 1) ** steps * codes
        for index in range((n_levels + 1) ** steps):
            cats = [index // (n_levels + 1) ** i % (n_levels + 1) for i in range(steps)]
            expected = [_steps_by_rule(c, cats, n_levels, span) for c in range(codes)]
            assert table[index * codes : (index + 1) * codes].tolist() == expected


@pytest.mark.parametrize("n_levels,span", [(2, 4), (3, 3), (6, 2), (7, 1)])
def test_neighbourhood_codes(n_levels, span):
    # digit j + span - 1 of site x's code is the level code of site x + j; the
    # level codes (sites x rows) hold span - 1 more sites on each side
    c = span - 1
    levels = np.random.default_rng(n_levels).integers(0, n_levels, size=(9 + 2 * c, 3))
    levels = levels.astype(np.uint8)
    codes = np.empty((9, 3), dtype=np.uint8)
    _encode(levels, n_levels, span, codes)
    for x, r in np.ndindex(*codes.shape):
        digits = [levels[x + c + j, r] for j in range(1 - span, span)]
        assert codes[x, r] == sum(int(d) * n_levels**p for p, d in enumerate(digits))


def _block_outputs():
    rep = divergence_diagnostic(FIX_C, [50, 200], seed=3)
    ests = [estimate_return_conditional(law, "averaged", n_env=101, seed=3)
            for law in (FIX_A, FIX_D)]
    return rep, [(e.value, e.std_error, e.n, e.extras) for e in ests]


def test_environment_blocks_equal_default(monkeypatch):
    # Blocks of 1, 3 and 17 environments (101 on 3 workers: shards of 34, 34
    # and 33) give the same numbers as the default block size.
    expected = _block_outputs()
    for rows in (1, 3, 17):
        monkeypatch.setattr(mc, "_ENV_BUDGET", rows * mc._ENV_ROW_BYTES)
        assert _block_outputs() == expected


def test_mix64_matches_numpy_avalanche():
    # Python-int SplitMix64 equals the uint64 finalizer, inputs reduced mod 2^64.
    rng = np.random.default_rng(64)
    values = [int(v) for v in rng.integers(0, 2**64, size=10**4, dtype=np.uint64)]
    for v in values + [0, MASK64, -1, -(2**64) - 3, 2**64, 2**65 + 7, 3 * 2**70 + 11]:
        with np.errstate(over="ignore"):
            assert mix64(v) == int(_avalanche(np.uint64(v & MASK64)))


def _site_uniform_ref(seed, site):
    """``site_uniforms`` in Python ints: SplitMix64 of mix64(seed) + site * golden."""
    bits = mix64(mix64(seed) + site * 0x9E3779B97F4A7C15)
    return (float(bits >> 11) + 0.5) * 2.0**-53


def test_site_uniforms_match_python_reference():
    sites = np.array([-(2**63), -(2**40) - 3, -70_001, -1, 0, 1, 2, 2**31, 2**62 + 7, 2**63 - 1])
    sites = np.concatenate([sites, np.arange(-50, 50)])
    seeds = [0, 5, 2**63 + 5, MASK64]
    for seed in seeds:
        got = site_uniforms(seed, sites)
        assert got.tolist() == [_site_uniform_ref(seed, int(x)) for x in sites]
    rows = site_uniforms(np.array(seeds, dtype=np.uint64)[:, None], sites)
    assert rows.shape == (len(seeds), sites.size)
    assert rows.tolist() == [[_site_uniform_ref(s, int(x)) for x in sites] for s in seeds]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.one_of(st.integers(-(2**70), 2**70), st.integers(2**63, 2**64 - 1)),
    tag=st.integers(-(2**65), 2**65),
    start=st.one_of(st.integers(0, 2**40), st.integers(2**32 - 40, 2**32)),
    size=st.integers(0, 60),
)
def test_substream_seeds_equal_substream_seed(seed, tag, start, size):
    got = _substream_seeds(seed, tag, start, start + size)
    assert got.dtype == np.uint64
    assert got.tolist() == [substream_seed(seed, tag, j) for j in range(start, start + size)]


def test_seed_rows_take_lists_and_arrays_alike():
    seeds = _substream_seeds(3, 7, 0, 500)
    rows = exact._seed_rows(seeds.tolist())
    assert rows.dtype == exact._seed_rows(seeds).dtype == np.uint64
    assert np.array_equal(exact._seed_rows(seeds), rows)
    assert exact._seed_rows([-1, 2**64 + 5]).tolist() == [MASK64, 5]


def _scalar_lockstep(env, starts, stops, cap, shards):
    """The step of ``_scalar_walk`` in lockstep: at each step every live
    path, in path order, takes one scalar draw from its shard's stream.
    Returns (final index, steps taken, stopped) in path order, as ``_walk``."""
    owner = np.repeat(np.arange(len(shards)), [n for _, n in shards])
    pos = list(starts)
    steps = [0 if x in stops else cap for x in pos]
    live = [i for i, x in enumerate(pos) if x not in stops]
    for step in range(1, cap + 1):
        for i in live:
            pos[i] += 1 if shards[owner[i]][0].random() < env.omega[pos[i]] else -1
            if not 0 <= pos[i] < env.omega.size:
                raise RuntimeError("walked off the window")
            if pos[i] in stops:
                steps[i] = step
        live = [i for i in live if pos[i] not in stops]
    return np.array(pos), np.array(steps), np.array([x in stops for x in pos])


@st.composite
def _stopped_window_cases(draw):
    size = draw(st.integers(2, 24))
    law = draw(st.sampled_from([FIX_A, FIX_C, EnvLaw.constant(0.3), EnvLaw.constant(0.9)]))
    env = sample_window(law, draw(st.integers(0, 50)), 0, size - 1)
    stops = {0, size - 1} | draw(st.sets(st.integers(0, size - 1), max_size=3))
    sizes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    starts = draw(st.lists(st.integers(0, size - 1), min_size=sum(sizes), max_size=sum(sizes)))
    return env, stops, sizes, starts, draw(st.integers(0, 60)), draw(st.integers(0, 2**32))


def _stopped_walk(env, stops, sizes, starts, cap, seed):
    stop = np.zeros(env.omega.size, dtype=bool)
    stop[list(stops)] = True
    rngs, refs = worker_streams(seed, len(sizes)), worker_streams(seed, len(sizes))
    got = _walk(env.omega, starts, stop, cap, list(zip(rngs, sizes)))
    ref = _scalar_lockstep(env, starts, stops, cap, list(zip(refs, sizes)))
    for g, r in zip(got, ref):
        assert g.tolist() == r.tolist()
    assert [r.random() for r in rngs] == [r.random() for r in refs]  # as many uniforms
    return got


@settings(max_examples=200, deadline=None)
@given(case=_stopped_window_cases())
def test_walk_between_two_stop_sites_equals_scalar_walks(case):
    _stopped_walk(*case)


def test_walk_between_two_stop_sites_with_shards_that_empty():
    # Shard 1 drives no path and every path of shard 2 starts on a stop site;
    # shard 3's paths start next to one and all stop while shard 0 walks on.
    env = sample_window(FIX_C, 4, 0, 40)
    starts = [18, 25, 32, 21, 9, 40, 1, 10, 8]
    _, steps, stopped = _stopped_walk(env, {0, 9, 40}, [4, 0, 2, 3], starts, 3000, 6)
    assert stopped.all() and steps[4:6].tolist() == [0, 0]
    assert 1 < steps[6:].max() < steps[:4].max()
