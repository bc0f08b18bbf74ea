"""The certified anchor block of ``exact._sweep_rows``.

The sweep sums the anchor R_{n+1} over a block of B sites past n and accepts
a row only when what the block leaves out, Pi_{1,n+B} R' with
P(R' > 1/x*) <= ANCHOR_DELTA, is at most tol/4 of T_reach.  These tests pin
the constant x* against an independent maximization, check the truncation
against the exact tail of a constant law and against a 4096-site reference
anchored by a tol-1e-14 scan, pin that every ``terms_used``, ``converged``
flag and ConvergenceError is the one the quiet-run anchor gave, and force
blocks that are too short to see the failing rows extend.  The block sizes
are pinned with their margin for the spread of log rho, the rows swept a
second time are counted, and a block of environment rows is held to the
bytes per row that the averaged estimators budget for it.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln, polygamma

from rwre import EnvLaw, exact, mc
from rwre.env import _var_log_rho, omega_at_sites
from rwre.exact import ConvergenceError
from rwre.rng import _substream_seeds, substream_seed

from laws import CONST_7, CONST_HALF, FIX_A, FIX_C, FIX_D, FIX_F

LAWS = {"FIX-A": FIX_A, "FIX-C": FIX_C, "FIX-D": FIX_D, "FIX-F": FIX_F, "CONST-7": CONST_7}
BETA_LONG = EnvLaw.beta_law(2.0, 1.5)  # E[log rho] = -0.39: a long first sweep and anchor block


def _moments(law, s):
    """E[rho^s] on an array of s: support sums, or the Beta closed form by
    scipy's log-gamma (independent of ``env.moment_rho``)."""
    if law.kind == "beta":
        a, b = law.alpha, law.beta
        return np.exp(gammaln(a - s) + gammaln(b + s) - gammaln(a) - gammaln(b))
    rho = (1.0 - np.array(law.omegas)) / np.array(law.omegas)
    return np.array(law.weights) @ rho[:, None] ** s[None, :]


@pytest.mark.parametrize("law,x_star,s_star", [
    (FIX_C, 1.79e-17, 0.50), (FIX_A, 1.18e-6, 1.0), (FIX_D, 1.0e-6, 1.0),
], ids=["FIX-C", "FIX-A", "FIX-D"])
def test_certificate_constant_matches_a_fine_grid(law, x_star, s_star):
    s = np.linspace(1e-4, 1.0, 100_001)
    m = _moments(law, s)
    ok = m < 1.0
    fine = (math.log(exact.ANCHOR_DELTA) + np.log1p(-m[ok]) - np.log(m[ok])) / s[ok]
    got = exact._log_x_star(law)
    # The 50-point grid can only lose to the fine one, and by little.
    assert fine.max() - 0.01 <= got <= fine.max() + 1e-12
    assert math.exp(got) == pytest.approx(x_star, rel=0.01)
    assert s[ok][fine.argmax()] == pytest.approx(s_star, abs=0.01)
    # Some grid order certifies it: m/(1 - m) x*^s <= delta (Markov on E[R^s]).
    grid = exact._S_GRID
    mg = _moments(law, grid)
    bound = mg / (1.0 - mg) * np.exp(got * grid)
    assert bound[mg < 1.0].min() <= exact.ANCHOR_DELTA * (1.0 + 1e-12)


def test_no_certificate_without_a_moment_below_one():
    # E[log rho] >= 0 makes E[rho^s] >= 1 for every s: nothing is certified,
    # and a window on such a law raises instead of reading sites.
    assert exact._log_x_star(CONST_HALF) == -math.inf
    with pytest.raises(ConvergenceError, match="could not be certified"):
        exact._log_escape_bounds(CONST_HALF, 1, 64)
    with pytest.raises(ConvergenceError, match="could not be certified"):
        exact._sweep_log_r(FIX_A, 1, 64, 0.0)


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_certified_truncation_of_the_exact_constant_tail(tol):
    # rho = 3/7 everywhere, so every R_x is exactly rho/(1 - rho) = 3/4.  The
    # windows' upper anchor may only err high, a scanned row's block sum only
    # low, each by at most tol/4 relative up to its reach (beyond rounding:
    # cum's running sum of logs carries a few ulps of 128 log(3/7)).
    exact_r, n, reach, ulps = 0.75, 128, 100, 1e-13
    seeds = _substream_seeds(1, 2, 0, 8)
    _, _, log_r, ok = exact._sweep_rows(CONST_7, seeds, n, tol, exact.DEFAULT_HORIZON)
    assert ok.all()
    rel = np.exp(log_r) / exact_r - 1.0
    assert (rel >= -ulps).all() and (rel <= tol / 4.0 + ulps).all()

    def scan(om, cum, log_r, log_rho, work):
        return (np.full(len(om), reach),)

    _, _, log_r, ok = exact._sweep_rows(CONST_7, seeds, n, tol, exact.DEFAULT_HORIZON, scan)
    assert ok.all()
    rel = np.exp(log_r[:, :reach]) / exact_r - 1.0
    assert (rel <= ulps).all() and (rel >= -tol / 4.0 - ulps).all()
    # The bound the certificate charges, 1/x*, covers the true tail 3/4.
    assert exact_r <= math.exp(-exact._log_x_star(CONST_7))


_REF_SITES = 4096


@pytest.fixture(scope="module")
def reference():
    """Per law, (cum, log R_x) of a 4096-site sweep of the 400 digest
    environments, anchored at site 4097 by a tol-1e-14 quiet-run scan and
    summed by the logaddexp recursion."""
    seeds = _substream_seeds(3, 7, 0, 400)
    out = {}
    for name, law in LAWS.items():
        om = omega_at_sites(law, seeds[:, None], np.arange(0, _REF_SITES + 1, dtype=np.int64))
        cum = np.zeros((len(seeds), _REF_SITES + 1))
        cum[:, 1:] = np.cumsum(np.log((1.0 - om[:, 1:]) / om[:, 1:]), axis=1)
        chunks = exact._log_pi_rows(law, seeds, _REF_SITES + 1, None, 1, 1.0)
        anchor, _, _, ok = exact._scan_rows(chunks, len(seeds), 1e-14, exact.DEFAULT_HORIZON)
        assert ok.all()
        cols = np.concatenate((cum[:, -1:] + np.log(anchor)[:, None], cum[:, :0:-1]), axis=1)
        out[name] = cum, np.logaddexp.accumulate(cols, axis=1)[:, ::-1] - cum
    return seeds, out


@pytest.mark.parametrize("name", list(LAWS))
@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_anchor_agrees_with_a_long_reference(reference, name, tol):
    # R_1 and the conditional value (its first terms_used terms, from the
    # reference's R_x) within tol/4 relative of the reference, on every row.
    seeds, refs = reference
    cum, log_r = refs[name]
    log_w = log_r + np.logaddexp(0.0, log_r)
    for i, row in enumerate(exact._conditional_rows(LAWS[name], seeds, tol)):
        series, _, r1 = row
        assert series.converged
        u = series.terms_used
        terms = np.exp(cum[i, 1 : u + 1] + log_w[i, 1 : u + 1] - log_w[i, 0])
        value = 1.0 + 2.0 * math.fsum(terms.tolist())
        assert abs(r1 - math.exp(log_r[i, 0])) <= tol / 4.0 * math.exp(log_r[i, 0])
        assert abs(series.value - value) <= tol / 4.0 * value


def _meta_digest(law, tol, **kw):
    """SHA-256 of each digest environment's terms_used and converged, or its
    ConvergenceError, from ``_conditional_rows``."""
    rows = exact._conditional_rows(law, [substream_seed(3, 7, j) for j in range(400)], tol, **kw)
    lines = [f"ConvergenceError({r})" if isinstance(r, ConvergenceError)
             else f"{r[0].terms_used} {r[0].converged}" for r in rows]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("law,kw,digest", [
    (FIX_A, {"tol": 1e-8}, "cac3c1c3d5523b56f4bd2628ab66403253cf5182413976382922447a8ada84c1"),
    (FIX_A, {"tol": 1e-10}, "aa5038060865f72b210606e2b5e9666f6cc149a85d85d28586dd3467a768669d"),
    (FIX_C, {"tol": 1e-8}, "6bedc629eeb7fa27a081bad0bf87f3c00d0f306302484f76a8116a1975396b1b"),
    (FIX_C, {"tol": 1e-10}, "ff615b2a9ee4427c22741d85cd7d9c741ce663ea9027754d129fd10d0fdd7d6d"),
    (FIX_C, {"tol": 1e-14}, "498edb1a1579dd53948aa787ef47e4080cb84e6a48dc439e837a90a7d3c760d0"),
    (FIX_C, {"tol": 1e-8, "horizon": 40},
     "8b43679cc563f89d8c2b5808d0205fe047189f391073fadfb03ec34e4ad9980c"),
    (FIX_D, {"tol": 1e-8}, "e9d2a0e9cb2e820f3bc15dd2592fffd9b26fc4c78aaa66441b2fb89bb1e310c0"),
    (FIX_D, {"tol": 1e-10}, "62607cbdf07210bd9170d70f8b22487b818be10d52b092059cf3c64b82752c6b"),
    (FIX_F, {"tol": 1e-8}, "9aa3bf3bb02473f51c8b3a1037f242451b4c4eaea39dafd5368acfdb912cc2c9"),
    (FIX_F, {"tol": 1e-10}, "9f9b4cf3ec40c21753aca98365c28df3cc62a6b7fa68ac3776b7ab29d6c2a5d2"),
    (CONST_7, {"tol": 1e-8}, "f8c56166226bc6677ba5343644268c820df8e53da9bf000a2b40bafbc79ed559"),
    (CONST_7, {"tol": 1e-10}, "d829df7e88016b3ead9fb5b9f1a14be2bae01d4a9f772f396a72b4cd288715d9"),
], ids=["FIX-A-1e-8", "FIX-A-1e-10", "FIX-C-1e-8", "FIX-C-1e-10", "FIX-C-1e-14",
        "FIX-C-horizon-40", "FIX-D-1e-8", "FIX-D-1e-10", "FIX-F-1e-8", "FIX-F-1e-10",
        "CONST-7-1e-8", "CONST-7-1e-10"])
def test_terms_and_convergence_equal_the_quiet_run_anchor(law, kw, digest):
    # Recorded while the anchor was still a quiet-run scan of R_{n+1}: the
    # certified block leaves every stop, flag and failure where it was.
    assert _meta_digest(law, **kw) == digest


@pytest.mark.parametrize("law,tol", [(FIX_C, 1e-8), (FIX_F, 1e-10), (FIX_A, 1e-10)],
                         ids=["FIX-C", "FIX-F", "FIX-A"])
@pytest.mark.parametrize("short", [0, 1])
def test_too_short_blocks_extend_to_the_same_values(monkeypatch, law, tol, short):
    # FIX-A's conditional rows need no block (their n = 128 already certify),
    # so they must come out bit for bit; its windows still need one.
    seeds = _substream_seeds(4, 2, 0, 120)
    base = exact._conditional_rows(law, seeds, tol)
    windows = [np.exp(exact._log_escape_bounds(law, s, 200, tol)) for s in range(3)]
    draws = []
    real = exact.omega_at_sites

    def counted(law, rows, sites):
        draws.append(np.shape(rows)[0])
        return real(law, rows, sites)

    monkeypatch.setattr(exact, "_anchor_sites", lambda law, n, reach, tol: short)
    monkeypatch.setattr(exact, "omega_at_sites", counted)
    got = exact._conditional_rows(law, seeds, tol)
    if law is FIX_A:
        assert got == base and draws == [len(seeds)]
    else:
        assert len(draws) > 1  # rows that failed the certificate were swept again
    for (s0, om0, r0), (s1, om1, r1) in zip(base, got):
        assert (s1.terms_used, s1.converged, om1) == (s0.terms_used, s0.converged, om0)
        assert s1.value == pytest.approx(s0.value, rel=tol / 4.0, abs=0.0)
        assert r1 == pytest.approx(r0, rel=tol / 4.0, abs=0.0)
    for seed, bound in enumerate(windows):
        draws.clear()
        again = np.exp(exact._log_escape_bounds(law, seed, 200, tol))
        assert len(draws) > 1
        assert again == pytest.approx(bound, rel=tol / 4.0, abs=0.0)


@pytest.mark.parametrize("law", [FIX_A, FIX_C, FIX_D, FIX_F, CONST_7],
                         ids=["FIX-A", "FIX-C", "FIX-D", "FIX-F", "CONST-7"])
def test_spread_is_the_variance_of_log_rho(law):
    # sigma^2 = Var[log rho] = d^2/ds^2 log E[rho^s] at s = 0: the support
    # sums for finite laws, trigamma(alpha) + trigamma(beta) for Beta, and
    # both a central difference of the independent moments at s = 0.
    if law.kind == "beta":
        exact_var = float(polygamma(1, law.alpha) + polygamma(1, law.beta))
    else:
        w, om = np.array(law.weights), np.array(law.omegas)
        lr = np.log((1.0 - om) / om)
        exact_var = w @ lr**2 - (w @ lr) ** 2
    assert _var_log_rho(law) == pytest.approx(exact_var, rel=1e-14, abs=1e-15)
    h = 1e-3
    curvature = np.log(_moments(law, np.array([h, -h]))).sum() / h**2
    assert _var_log_rho(law) == pytest.approx(curvature, rel=1e-5, abs=1e-9)


@pytest.mark.parametrize("law,tol,block", [
    (FIX_C, 1e-8, 384), (FIX_C, 1e-10, 416), (FIX_C, 1e-12, 480),
    (FIX_F, 1e-8, 128), (FIX_F, 1e-10, 128), (FIX_F, 1e-12, 160),
    (FIX_A, 1e-8, 0), (FIX_A, 1e-10, 0), (FIX_A, 1e-12, 0),
    (FIX_D, 1e-8, 0), (FIX_D, 1e-10, 0), (FIX_D, 1e-12, 0),
], ids=["FIX-C-1e-8", "FIX-C-1e-10", "FIX-C-1e-12", "FIX-F-1e-8", "FIX-F-1e-10",
        "FIX-F-1e-12", "FIX-A-1e-8", "FIX-A-1e-10", "FIX-A-1e-12", "FIX-D-1e-8",
        "FIX-D-1e-10", "FIX-D-1e-12"])
def test_first_anchor_block_covers_the_spread(monkeypatch, law, tol, block):
    # The first block of a conditional-rows sweep is the least multiple of 32
    # sites B with |d| L - z sigma sqrt(L) >= log(4/tol) - log x* for
    # L = n + B - reach.  At the mean drift alone (z = 0) FIX-C took 256 at
    # tol 1e-8; FIX-A and Beta(5,2) fit their reach in n and read no block.
    sizes, real = [], exact._anchor_sites

    def spy(law, n, reach, tol):
        sizes.append((n, reach, real(law, n, reach, tol)))
        return sizes[-1][2]

    monkeypatch.setattr(exact, "_anchor_sites", spy)
    exact._conditional_rows(law, _substream_seeds(4, 2, 0, 8), tol)
    n, reach, got = sizes[0]
    assert got == block
    drop, sigma = -exact.mean_log_rho(law), math.sqrt(_var_log_rho(law))
    gap = math.log(4.0 / tol) - exact._log_x_star(law)

    def covers(b):
        sites = n + b - reach
        return sites >= 0 and drop * sites - exact._ANCHOR_Z * sigma * math.sqrt(sites) >= gap

    assert covers(block) and (block == 0 or not covers(block - exact._ANCHOR_STEP))


@pytest.mark.parametrize("tol,ceiling", [(1e-8, 40), (1e-10, 100), (1e-12, 190)])
def test_few_rows_are_swept_again(monkeypatch, tol, ceiling):
    # 2000 FIX-C environments in the averaged estimators' blocks of 81: 27,
    # 71 and 138 sweeps of a row past its first.  Anchor blocks sized at the
    # mean drift alone, in blocks of 40 environments, took 215, 483 and 891.
    rows, drawn, real = mc._ENV_BUDGET // mc._ENV_ROW_BYTES, [], exact.omega_at_sites

    def counted(law, seeds, sites):
        drawn.append(np.shape(seeds)[0])
        return real(law, seeds, sites)

    monkeypatch.setattr(exact, "omega_at_sites", counted)
    for start in range(0, 2000, rows):
        exact._conditional_rows(FIX_C, _substream_seeds(4, 2, start, min(start + rows, 2000)), tol)
    assert sum(drawn) - 2000 <= ceiling


@pytest.mark.parametrize("law,tol", [(FIX_C, 1e-8), (FIX_C, 1e-12), (FIX_A, 1e-10),
                                     (FIX_D, 1e-10), (BETA_LONG, 1e-8)],
                         ids=["FIX-C-1e-8", "FIX-C-1e-12", "FIX-A-1e-10", "FIX-D-1e-10",
                              "Beta(2,1.5)-1e-8"])
def test_a_block_of_rows_fits_its_budget(law, tol):
    # The averaged estimators size their blocks by mc._ENV_ROW_BYTES a row.
    # Beta(2,1.5) took 44 KiB a row while its quantiles ran on a whole block
    # at once; in strips it takes 18.
    rows = mc._ENV_BUDGET // mc._ENV_ROW_BYTES
    for start in range(0, 4 * rows, rows):
        seeds = _substream_seeds(3, 11, start, start + rows)
        tracemalloc.start()
        try:
            exact._conditional_rows(law, seeds, tol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rows * mc._ENV_ROW_BYTES


def _bits(rows):
    """Every number of each ``_conditional_rows`` row as exact hex, or the
    text of its ConvergenceError."""
    return [f"ConvergenceError({r})" if isinstance(r, ConvergenceError) else
            (r[0].value.hex(), r[0].remainder_bound.hex(), r[0].terms_used, r[0].converged,
             r[1].hex(), r[2].hex()) for r in rows]


@pytest.mark.parametrize("law,tol", [(FIX_C, 1e-8), (FIX_C, 1e-12), (FIX_A, 1e-10)],
                         ids=["FIX-C-1e-8", "FIX-C-1e-12", "FIX-A-1e-10"])
def test_a_reused_workspace_keeps_every_bit(monkeypatch, law, tol):
    # One workspace through blocks of 81, 5, 81 and 120 seeds, whose arrays
    # shrink and grow between blocks: every row equals that of a call with
    # none.  On FIX-C the blocks also reach the passes for rows not certified
    # (drawn without the workspace) and the 2n sweeps (drawn with it).
    real_sweep, real_draw, sweeps, draws = exact._sweep_rows, exact.omega_at_sites, [], []

    def sweep(law, seeds, n, tol, horizon, scan=None, work=None):
        sweeps.append(n)
        return real_sweep(law, seeds, n, tol, horizon, scan, work)

    def draw(law, seeds, sites, **buffers):
        draws.append(bool(buffers))
        return real_draw(law, seeds, sites, **buffers)

    work, start = exact._Workspace(), 0
    for size in (81, 5, 81, 120):
        seeds = _substream_seeds(5, 7, start, start + size)
        fresh = exact._conditional_rows(law, seeds, tol)
        with monkeypatch.context() as patch:
            patch.setattr(exact, "_sweep_rows", sweep)
            patch.setattr(exact, "omega_at_sites", draw)
            reused = exact._conditional_rows(law, seeds, tol, work=work)
        assert _bits(reused) == _bits(fresh)
        start += size
    if law is FIX_C:
        assert max(sweeps) > min(sweeps)  # some row ran a 2n sweep
        assert True in draws and False in draws  # and some row a second pass


def test_window_results_are_no_views_into_a_workspace():
    # The window callers take no workspace: what they returned stays as it
    # was while an averaged estimator runs its blocks through one, also after
    # an earlier run (a workspace kept between calls would be large enough
    # by then to hold the windows' arrays).
    mc.divergence_diagnostic(FIX_C, (100, 400), seed=3)
    env = exact.conditioned_env(FIX_C, 101, 200)
    sweep = exact._sweep_log_r(FIX_C, 101, 200, 1e-10)
    bounds = exact._log_escape_bounds(FIX_C, 101, 200)
    kept = [a.tobytes() for a in (env.omega, *sweep, bounds)]
    mc.divergence_diagnostic(FIX_C, (100, 400), seed=3)
    assert [a.tobytes() for a in (env.omega, *sweep, bounds)] == kept


def test_later_blocks_reuse_the_first_blocks_memory():
    # tracemalloc, not the allocator: over one _env_pairs run on FIX-C the
    # first block takes the workspace, and each later block's peak is at
    # most a quarter of the first's (each peaked as high as the first when
    # every block allocated its own arrays).
    rows, peaks = mc._ENV_BUDGET // mc._ENV_ROW_BYTES, []

    def kernel(law, seeds, tol, work):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = exact._conditional_rows(law, seeds, tol, work=work)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return out

    tracemalloc.start()
    try:
        mc._env_pairs(kernel, lambda out: (out[2], out[0].value), FIX_C, 3, 7, 4 * rows, 1e-8)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 4
    assert max(peaks[1:]) <= peaks[0] / 4
