"""Pins for the shared numeric kernels: the one categorical draw
(``env._categories``, against ``searchsorted``, and ``env._add_steps``,
against the gathered steps), the truncated-series scan, the moment-root
bisection, the anchored sweep behind ``conditioned_env`` and
``conditioned_return_expectation``, the first-return window edges, the
ladder first-exit walk (phi included), the ``mc`` lockstep walk behind
``simulate_until`` and ``sample_first_return``, on one generator, and
``speed_estimate`` with its worker shards and rows that grow on demand,
and on a one-level law its one binomial draw per replicate, which builds no
rows; the free kernel of speed walks, which advances several steps per
table lookup on neighbourhood codes, is checked against per-step walks on
full windows (a one-level law too, which it walks on level code 0), its
step tables entry by entry against single steps, the keyed site RNG
against a pure-Python SplitMix64, and the vectorized environment seeds
against ``substream_seed``.  The conditional rows' first
sweep, sized by the law, is checked against a fixed 256-site one.

The golden literals were recorded before these kernels were merged from
their per-caller copies; the merged code must reproduce them bit for bit.
Likewise the digests of per-environment series outcomes were recorded
while those series still ran one environment at a time, before they ran in
blocks of environments, and blocks of any size must give the same numbers.
The anchored sweep's literals (conditional-return and conditioned-environment
goldens, series digests) were re-recorded once, when its R sums moved from
the logaddexp recursion to max-shifted sums: over the digests' environments
every value moved by at most 5e-14 relative, and every ``terms_used``,
``converged`` flag and ConvergenceError stayed the same.  The FIX-C series
digests were re-recorded once more when the anchor R_{n+1} became a
certified block of sites: values moved by at most 1.5e-15 relative and the
heuristic remainder bounds, which read R_x at the series' reach, by at most
5.8e-9, with every ``terms_used``, ``converged`` flag and ConvergenceError
the same (``tests/test_anchor.py`` pins those).  The lattice naive
``sup_tail`` literal was re-recorded twice: when lattice sup-tail walks moved
onto occupation counts of S, which draw the same law from different draws
(over 400 seeds its z-scores against the exact (3/7)^4 kept mean -0.02,
SD 1.01 and 2 of 400 beyond 3 SE), and when every lattice estimate moved
onto one chain of (running maximum, distance below it) counts,
``ladder._count_exit`` (mean -0.03, SD 1.04, 3 of 400 beyond 3 SE).  The
overshoot Wald literal's mean tau and its SE were re-recorded then too: over
400 seeds their z-scores against the exact E_Q[tau] = 28.0997 from the
exit-step law in ``tests/chains.py`` have mean -0.08, SD 0.94 and none beyond
3 SE.  The sweep's logs are
checked against an exact rational recursion, on both of its branches.
The escape and guard bounds that size first-return windows, and the
conditioned-walk edge bound that sizes the h-transform window, are also
pinned against the banded-LU ``absorption_oracle``, an independent solver,
and the window edges are checked to be the least certified ones.  Both
modes of ``conditioned_sampler`` are checked against a plain loop of leaps
over the whole window on one stream, driven by the k-step law of
``tests/chains.py``, and the stop-site walk, whose array must end in stop
sites at both sides, against scalar draws in lockstep.  The rejection
literal was re-recorded twice, each time the same law from other draws,
checked by G-tests against the exact return-time law in
``tests/test_shards.py``: when rejection moved from per-path walks in
worker shards to one count chain keyed by the seed alone, and when that
chain moved from one binomial split a step to one multinomial split a leap
of ``mc._LEAP`` steps.  The h-transform literal was re-recorded once, the
same law from other draws checked the same way, when it moved from
per-path walks in worker shards onto that leap chain.
"""

import hashlib
import math
from fractions import Fraction

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
    MASK64, _avalanche, _substream_seeds, mix64, site_uniforms, substream_seed,
    worker_streams,
)

import chains
import walks
from laws import CONST_7, FIX_A, FIX_C, FIX_D, FIX_E, FIX_F, ONE_ATOM_3, TWIN_6

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
    assert (naive.value, naive.std_error, naive.n) == (0.0305, 0.003846072169833502, 2000)
    assert (imp.value, imp.std_error, imp.n) == (0.033735943356934514, 0.0, 2000)
    assert (flt.value, flt.std_error) == (0.03897928930836969, 9.131540394552779e-05)
    assert (flt_naive.value, flt_naive.std_error) == (0.039, 0.004329997048176663)


def test_overshoot_wald_golden():
    scan = overshoot_constant(step_from_env(FIX_F), range(10, 13), n=2000, seed=9)
    assert scan.wald == WaldCheck(
        k=12,
        mean_s_tau=8.317766166719345,
        se_s_tau=0.0,
        mean_tau=28.224,
        se_tau=0.31843698443574087,
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
    assert h.tolist() == [1, 3, 3, 19, 1, 1493, 5, 1, 3, 1, 19, 1, 1, 1, 27, 19]
    assert r.tolist() == [27, 193, 1, 1093, 1, 19, 1, 1, 1, 1243, 1, 1, 3, 3, 1, 1]


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
    (FIX_C, 0, 1e-10, SeriesValue(469.8533140137967, 5.119599736870144e-10, 112, True)),
    (FIX_C, 7, 1e-10, SeriesValue(27.659273277718384, 4.3771110211239247e-16, 104, True)),
    (FIX_C, 15, 1e-14, SeriesValue(12.42824765913123, 2.114996298634565e-18, 263, True)),
    (FIX_F, 0, 1e-10, SeriesValue(83.83886660637087, 1.40688087307519e-13, 90, True)),
    (FIX_F, 7, 1e-10, SeriesValue(36.07053904676931, 3.7332159068304234e-14, 79, True)),
    (FIX_D, 0, 1e-10, SeriesValue(5.160431009224911, 1.2941946525139559e-23, 51, True)),
    (FIX_D, 7, 1e-10, SeriesValue(1.8392525910056936, 7.348901060923155e-26, 48, True)),
])
def test_conditioned_return_expectation_golden(law, seed, tol, expected):
    # FIX-C seed 15 at tol 1e-14 needs 263 terms, so the sweep doubles past 256.
    assert conditioned_return_expectation(law, seed, tol=tol) == expected


@pytest.mark.parametrize("law,expected", [
    (FIX_A, [0.6, 0.17934292877328264, 0.3308908200573739, 0.4095131232236078,
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
     "533ea36c673fd7ec97d278f8f8e7ea52f61399f989e47c88ce9cdcc5b6c7d7af",
     "952684dd5b2a38d6a4379c3cb140bd82358e52dd621c13990ae1bca61b4102c9"),
    (FIX_A, {"tol": 1e-10},
     "a258cd1e7b542588d6d3abe9ee4f227e88778682bdc9bc0738122f1eec179c12",
     "7a1f1c28f5e640665c2a8c57655e2a92b442c49b53b5b0c619f5d16306bab934"),
    (FIX_C, {"tol": 1e-8},
     "052197f89cbfefa695237f301fad04ad534968a0df9fb7b967ac92a155d954c9",
     "937865c6bf67876245eebc84b3e1c74f5932615688b0db8bed7b64c946866dc2"),
    (FIX_C, {"tol": 1e-10},
     "2783fad38dc6580038d75792d43f956f8958b6f7ccde45548b1fbff727d36fed",
     "269152f8318e16a035f4948f470a0cb78db21cd18c8333830ad7817c9828b264"),
    (FIX_C, {"tol": 1e-14},
     "e40ea6c1620ca6315094ec129c68087fdb66fee52174f8e3c6583c282e3fad9c",
     "2742724c0a60f5c9a2e36d7089f0d12ffc8aa80761df3b454d83703fcd1c57cc"),
    (FIX_C, {"tol": 1e-8, "horizon": 40},
     "ddeaf13e9685651f2d343911380bdd08cfca1a6c66d3cda8627f97fb0db5fcaf",
     "40d561d67a69eb34cfac896997c8a360734d4ce42553e70a31166dd20e6df7c8"),
    (FIX_D, {"tol": 1e-8},
     "d3639736427f9d10fc1b9393574c565e929b9c6a085b9ed35ae69cb9935885c6", None),
    (FIX_D, {"tol": 1e-10},
     "acecc40d764e35169aedd83324ecab59936ccd625fde254906d226194adffd2d", None),
    (FIX_F, {"tol": 1e-8},
     "0daed50d7f7bee82cc385d02e05b0716675d8a8f8256ceb2f44d5766791f5278",
     "6322fb2dd6dc6b77e7232748422d9962cffe664205e47c2766f3c8932823f13e"),
    (FIX_F, {"tol": 1e-10},
     "c1fc76e0d24ceceabc0ad7adb75630d78c872b1aabb363e66924db9605fe1f29",
     "6f40069904d750ac4da87214d8782be837dd4966c6a8184091461f11c520ec86"),
], ids=["FIX-A-1e-8", "FIX-A-1e-10", "FIX-C-1e-8", "FIX-C-1e-10", "FIX-C-1e-14",
        "FIX-C-horizon-40", "FIX-D-1e-8", "FIX-D-1e-10", "FIX-F-1e-8", "FIX-F-1e-10"])
def test_per_environment_series_digests(law, kw, cond, decomp):
    # Digests of 400 environments' outcomes, recorded before the per-environment
    # series were evaluated in blocks of environments (and re-recorded for the
    # sweep's shifted sums and its certified anchor block, see the module
    # docstring).  Tol 1e-14 on FIX-C has
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

    def perturbed(law, rows, n, tol, horizon, scan, work):
        def shifted(om, cum, log_r, log_rho, work):  # the series reads cum; the check does not
            hit = (om == omega_at_sites(law, bad, np.arange(n + 1, dtype=np.int64))).all(axis=1)
            cum = cum.copy()
            cum[hit, 1:] += 1e-3
            return scan(om, cum, log_r, log_rho, work)

        return sweep(law, rows, n, tol, horizon, shifted, work)

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


WIDE = EnvLaw.discrete([(0.5, 0.99), (0.5, 0.9)])  # E[log rho] = -3.40: 256 sites span ~870 nats


def _exact_sweep_logs(om, log_anchor):
    """(log R_x, log(1+R_x)) for x = 1..n+1 by the backward recursion
    R_x = rho_x (1 + R_{x+1}) in exact rationals, on the float omegas of
    sites 0..n and the float anchor R_{n+1} = exp(log_anchor).  Each log is
    of the correctly rounded quotient of numerator and denominator: their
    separate logs, for integers of ~13 000 bits, are each off by an ulp of
    ~9 000 (1.8e-12)."""
    def log(q):
        return math.log(q.numerator / q.denominator)

    n = om.size - 1
    r = Fraction(math.exp(log_anchor))
    out = np.empty((2, n + 1))
    for x in range(n + 1, 0, -1):
        if x <= n:
            w = Fraction(om[x])
            r = (1 - w) / w * (1 + r)
        out[:, x - 1] = log(r), log(1 + r)
    return out


# Worst error seen on these laws is 2.5e-13 at 256 sites (400 FIX-C rows) and
# 4.2e-13 at 1024, at the logaddexp recursion and the shifted sums alike: it
# is the rounding that cum's running sum of logs carries, not the sums'.
@pytest.mark.parametrize("law,n,rows,atol", [
    (FIX_A, 256, 50, 4e-13), (FIX_C, 256, 50, 4e-13), (FIX_D, 256, 50, 4e-13),
    (FIX_E, 256, 50, 4e-13), (FIX_F, 256, 50, 4e-13), (CONST_7, 256, 50, 4e-13),
    (FIX_C, 1024, 8, 1e-12), (WIDE, 256, 50, 4e-13),
], ids=["FIX-A", "FIX-C", "FIX-D", "FIX-E", "FIX-F", "CONST-7", "FIX-C-1024", "WIDE"])
def test_sweep_logs_match_exact_rationals(monkeypatch, law, n, rows, atol):
    # The WIDE rows exceed the shift range and take the logaddexp recursion;
    # every other row is summed shifted.  Forcing the recursion on every row
    # must give the same logs, up to a few ulps of the row's largest |log Pi|
    # (both subtract log Pi_{1,x-1} from a log-sum of that size).
    seeds = exact._seed_rows([substream_seed(11, 3, j) for j in range(rows)])
    shift_span, logs = exact._SHIFT_SPAN, []
    for span in (shift_span, -1.0):  # -1: every row takes the recursion
        monkeypatch.setattr(exact, "_SHIFT_SPAN", span)
        om, cum, log_r, ok = exact._sweep_rows(law, seeds, n, 1e-10, exact.DEFAULT_HORIZON)
        assert ok.all()
        log_rho = np.log((1.0 - om[:, 1:]) / om[:, 1:])
        logs.append(np.stack((log_r, exact._log_one_plus_r(log_rho, log_r)), axis=1))
    cols = np.concatenate((cum[:, 1:], cum[:, -1:] + log_r[:, -1:]), axis=1)  # the sums' terms
    wide = np.ptp(cols, axis=1) > shift_span
    assert wide.all() if law is WIDE else not wide.any()
    for i in range(rows):
        want = _exact_sweep_logs(om[i], log_r[i, n])
        assert np.abs(logs[0][i] - want).max() <= atol
        assert np.abs(logs[1][i] - want).max() <= atol
    ulps = 4.0 * np.finfo(float).eps * (1.0 + np.abs(cum).max(axis=1))
    assert (np.abs(logs[0] - logs[1]) <= ulps[:, None, None]).all()


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
        # At the default tol the anchor takes the upper end of its certified
        # interval: the certificate may err high by up to tol, never low
        # beyond rounding.  The low slack is the oracle's: on FIX-C seed 4,
        # m = 300, the banded LU errs high by 2.6e-12 against exact rationals
        # on the same omegas, and the bound by 4.5e-13.
        bound = mc._escape_bound(law, seed, m)
        assert ref * (1.0 - 1e-11) <= bound <= ref * (1.0 + exact.DEFAULT_TOL)
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


def _leap_chain_batch(omega, batch, cap, rng, laws):
    """One batch of the reference chain: ``batch`` paths from site 1 of the
    window ``omega`` leap as counts of paths at every interior site
    ``mc._LEAP`` steps at a time: each site splits its count over its row of
    ``chains.leap_law`` (a site with no paths draws nothing), and a law of
    the steps left makes the last leap before ``cap``.  ``laws`` caches the
    laws by leap.  Returns (return steps, their counts, escapes)."""
    m = omega.size - 1
    occ = np.zeros(m + 1, dtype=np.int64)
    occ[1] = batch
    back, step, escapes = [], 0, 0
    while occ.any():
        assert step < cap
        k = min(mc._LEAP, cap - step)
        if k not in laws:
            laws[k] = chains.leap_law(omega, k)
        moves = rng.multinomial(occ[1:m], laws[k])
        back.extend(moves[:, :k].sum(axis=0).tolist())
        escapes += int(moves[:, -1].sum())
        sites = np.arange(1, m)[:, None] - k + 2 * np.arange(k + 1)
        inside = (sites > 0) & (sites < m)
        ends = moves[:, k : 2 * k + 1]
        assert not ends[~inside].any()
        occ = np.bincount(sites[inside], ends[inside], m + 1).astype(np.int64)
        step += k
    times = [k + 1 for k, b in enumerate(back) if b]
    return times, [b for b in back if b], escapes


def _leap_chain_sampler(window, n, cap, seed, mode="rejection"):
    """Reference for ``conditioned_sampler``, whatever the workers, on the
    seed's first stream.  h-transform: one batch of n paths, none of which
    may escape, its return steps permuted.  Rejection: batches of 3, 6, 12,
    ... paths per sample still needed, each keeping a uniform subset of its
    returns by one multivariate hypergeometric draw over the return steps
    in step order, the kept samples permuted at the end.  Returns the
    samples and the number of batches."""
    rng = worker_streams(seed, 1)[0]
    laws = {}
    if mode == "h_transform":
        times, counts, escapes = _leap_chain_batch(window.omega, n, cap, rng, laws)
        assert not escapes
        return rng.permutation(np.repeat(times, counts)), 1
    kept, need, per, rounds = [], n, 3, 0
    while need:
        times, counts, _ = _leap_chain_batch(window.omega, per * need, cap, rng, laws)
        if sum(counts) > need:
            counts = rng.multivariate_hypergeometric(counts, need)
        kept.append(np.repeat(times, counts))
        need, per, rounds = need - kept[-1].size, 2 * per, rounds + 1
    return rng.permutation(np.concatenate(kept)), rounds


@pytest.mark.parametrize("law,env_seed,mode,n", [
    (FIX_C, 101, "h_transform", 40),
    (FIX_C, 101, "rejection", 40),
    (FIX_A, 2, "h_transform", 2),  # fewer paths than 3 workers
    (FIX_A, 2, "rejection", 2),
    (FIX_A, 2, "rejection", 121),  # 363 paths
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
    expected, _ = _leap_chain_sampler(window, n, cap, seed, mode)
    got = conditioned_sampler((law, env_seed), mode, n=n, cap=cap, seed=seed, workers=workers)
    assert got.tolist() == expected.tolist()


@pytest.mark.parametrize("n", [1, 2, 40])
def test_rejection_count_batches_equal_the_reference(n):
    window = sample_window(FIX_A, 2, 0, mc._least_certified(_log_escape_bounds, FIX_A, 2, 1e-6))
    rounds = []
    for seed in range(12):
        expected, k = _leap_chain_sampler(window, n, 10**6, seed)
        got = conditioned_sampler((FIX_A, 2), "rejection", n=n, seed=seed)
        assert got.tolist() == expected.tolist()
        rounds.append(k)
    if n < 40:  # batches of 3n and 6n paths: some seed needs a second one
        assert max(rounds) > 1


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
        _walk(omega, [10, start], _closed(21), 5, stream(1))


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
        _walk(omega, [10, 5], stop, 50, rng)
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
    """(n, mean, SE) of per-step walks, each worker's replicates alone,
    ``sub`` float64 windows at a time: the reference for how speed walks
    batch their shards."""
    shards = walks._per_step_speed(law, horizon, reps, seed, workers, sub)
    return merge_mean([Tally.of(finals) for finals in shards])[:3]


def _walked_speed(law, horizon, reps, seed, workers):
    """(n, mean, SE) of the speed walks (``mc._speed_walks``), which
    ``speed_estimate`` runs for every law with two levels or more.  A
    one-level law walks there on the same level codes, all 0."""
    return merge_mean(mc._speed_walks(law, horizon, reps, seed, workers))[:3]


ONE_LEVEL_LAWS = pytest.mark.parametrize("law", [CONST_7, ONE_ATOM_3, TWIN_6],
                                        ids=["CONST-0.7", "one-atom-0.3", "twin-atoms-0.6"])


@ONE_LEVEL_LAWS
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_one_level_speed_is_one_binomial_per_replicate(law, workers):
    # One omega level makes the walk simple: X_h = 2B - h, B ~ Binomial(h,
    # omega), one draw per replicate from the seed's first stream, tallied
    # once, whatever ``workers`` is.
    (p,) = law.omega_levels()
    for horizon, reps, seed in [(1, 1, 0), (9, 23, 4), (40, 5, 11), (100_000, 100, 12)]:
        ups = worker_streams(seed, 1)[0].binomial(horizon, p, reps)
        expected = merge_mean([Tally.of((2 * ups - horizon) / horizon)])[:3]
        est = speed_estimate(law, horizon=horizon, reps=reps, seed=seed, workers=workers)
        assert (est.n, est.value, est.std_error) == expected
        assert (est.method, est.seed) == ("speed-mc", seed)


@ONE_LEVEL_LAWS
def test_one_level_speed_builds_no_rows_and_draws_no_site_uniforms(monkeypatch, law):
    def refuse(*args, **kwargs):
        raise AssertionError("a one-level speed walk needs no rows and no site uniforms")

    monkeypatch.setattr(mc, "_Rows", refuse)
    monkeypatch.setattr(env, "site_uniforms", refuse)
    assert speed_estimate(law, horizon=100_000, reps=100, seed=12, workers=2).n == 100


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
    sub = min(rows, 8)
    assert _walked_speed(law, horizon, 23, 4, 3) == _speed_per_worker(law, horizon, 23, 4, 3, sub)
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
    assert _walked_speed(law, horizon, 5, 11, 3) == _speed_per_worker(law, horizon, 5, 11, 3, 5)


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
    _walked_speed(law, 3000, 12, 5, 2)
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
    tight = divergence_diagnostic(FIX_C, [50, 200], seed=3, tol=1e-12)
    ests = [estimate_return_conditional(law, "averaged", n_env=101, seed=3)
            for law in (FIX_A, FIX_D)]
    return rep, tight, [(e.value, e.std_error, e.n, e.extras) for e in ests]


def test_environment_blocks_equal_default(monkeypatch):
    # Blocks of 1, 3 and 17 environments (101 on 3 workers: shards of 34, 34
    # and 33) and of twice the default give the same numbers as the default
    # block size.  At tol 1e-12 many FIX-C rows fail their first anchor block
    # and are swept again, with blocks grown by what the worst row of their
    # block lacks.
    expected = _block_outputs()
    for rows in (1, 3, 17, 2 * (mc._ENV_BUDGET // mc._ENV_ROW_BYTES)):
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


def _scalar_lockstep(env, starts, stops, cap, rng):
    """The step of ``_scalar_walk`` in lockstep: at each step every live
    path, in path order, takes one scalar draw from ``rng``.  Returns
    (final index, steps taken, stopped) in path order, as ``_walk``."""
    pos = list(starts)
    steps = [0 if x in stops else cap for x in pos]
    live = [i for i, x in enumerate(pos) if x not in stops]
    for step in range(1, cap + 1):
        for i in live:
            pos[i] += 1 if rng.random() < env.omega[pos[i]] else -1
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
    starts = draw(st.lists(st.integers(0, size - 1), max_size=20))
    return env, stops, starts, draw(st.integers(0, 60)), draw(st.integers(0, 2**32))


def _stopped_walk(env, stops, starts, cap, seed):
    stop = np.zeros(env.omega.size, dtype=bool)
    stop[list(stops)] = True
    rng, ref = stream(seed), stream(seed)
    got = _walk(env.omega, starts, stop, cap, rng)
    expected = _scalar_lockstep(env, starts, stops, cap, ref)
    for g, r in zip(got, expected):
        assert g.tolist() == r.tolist()
    assert rng.random() == ref.random()  # as many uniforms
    return got


@settings(max_examples=200, deadline=None)
@given(case=_stopped_window_cases())
def test_walk_between_two_stop_sites_equals_scalar_walks(case):
    _stopped_walk(*case)


def test_walk_between_two_stop_sites_with_paths_that_stop_early():
    # Two paths start on a stop site, and the last three start next to one
    # and all stop while the first four walk on: the live views are cut
    # again at each step where paths stop.
    env = sample_window(FIX_C, 4, 0, 40)
    starts = [18, 25, 32, 21, 9, 40, 1, 10, 8]
    _, steps, stopped = _stopped_walk(env, {0, 9, 40}, starts, 3000, 6)
    assert stopped.all() and steps[4:6].tolist() == [0, 0]
    assert 1 < steps[6:].max() < steps[:4].max()
