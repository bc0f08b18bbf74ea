"""The quiet-run scanner ``exact._scan_rows`` and its certified row sums.

``_reference_scan_rows`` below is the scanner as it was before its chunks
were settled in one vectorized pass: it keeps every row's terms in a list,
merges running sums by ``math.fsum`` and sums each row by one final
``math.fsum``.  The scanner must return the same (sums, last, used, ok),
bit for bit, on every source it serves: the conditional-return rows, the
left-hit block of ``_decompositions``, ``r_tail`` rows, ``expected_hit`` on
(law, seed) pairs and on windows, whose supply ends at the window edge, and
rows cut by the horizon.

The sums of the rows that stop in their first chunk are certified from the
stop rule's own running sums (``estimate._certified_sums``) and fall back to
``math.fsum`` where the certificate fails; ``estimate._fsum`` uses the same
certificate for arrays with no negative value.  Both must return exactly
what ``math.fsum`` returns, ties, specials and overflow included.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwre import EnvLaw, estimate, exact
from rwre.cli import format_law, main
from rwre.env import sample_window
from rwre.exact import QUIET_RUN, _PEEK
from rwre.rng import _substream_seeds

from laws import CONST_7, FIX_A, FIX_C, FIX_D, FIX_F

BETA_LONG = EnvLaw.beta_law(2.0, 1.5)

CASES = {
    "FIX-A-1e-10": (FIX_A, 1e-10),
    "FIX-C-1e-8": (FIX_C, 1e-8),
    "FIX-C-1e-10": (FIX_C, 1e-10),
    "FIX-C-1e-12": (FIX_C, 1e-12),
    "FIX-C-1e-14": (FIX_C, 1e-14),
    "FIX-D-1e-10": (FIX_D, 1e-10),
    "FIX-F-1e-10": (FIX_F, 1e-10),
    "CONST-7-1e-10": (CONST_7, 1e-10),
    "Beta(2,1.5)-1e-8": (BETA_LONG, 1e-8),
}
# E[log rho] = -0.02: rows of about a thousand terms, run past their first chunks
SLOW = EnvLaw.discrete([(0.5, 0.55), (0.5, 0.46)])
LONG_CASES = {**CASES, "SLOW-1e-10": (SLOW, 1e-10)}
SEEDS = _substream_seeds(3, 7, 0, 400)  # the digest environments


def _reference_scan_rows(chunk, rows, tol, horizon):
    """The scanner before one-pass settling: lists of terms, fsum merges."""
    last = np.full(rows, math.nan)
    used = np.zeros(rows, dtype=np.int64)
    ok = np.zeros(rows, dtype=bool)
    total = np.zeros(rows)
    carry = np.zeros(rows, dtype=np.int64)
    kept = [[] for _ in range(rows)]
    live = np.arange(rows)
    done = 0

    def settle(terms):
        nonlocal live
        pos = np.arange(terms.shape[1])
        bar = np.cumsum(terms, axis=1)
        bar += total[live, None]
        bar *= tol
        runlen = np.where(terms < bar, -1, pos)
        del bar
        np.maximum.accumulate(runlen, axis=1, out=runlen)
        fresh = runlen < 0
        np.subtract(pos, runlen, out=runlen)
        np.add(runlen, carry[live, None], out=runlen, where=fresh)
        hit = runlen >= QUIET_RUN
        stopped = hit.any(axis=1)
        idx = np.flatnonzero(stopped)
        first = hit[idx].argmax(axis=1)
        ended = live[idx]
        last[ended], used[ended], ok[ended] = terms[idx, first], done + first + 1, True
        for i, r, s in zip(idx.tolist(), ended.tolist(), first.tolist()):
            kept[r].append(terms[i, : s + 1])
        live = live[~stopped]
        return terms[~stopped], runlen[~stopped, -1]

    while live.size and done < horizon:
        terms = chunk(live, done, _PEEK if done == 0 else None)
        if done == 0 and terms is not None and terms.shape[1] == _PEEK < horizon:
            settle(terms)
            terms = chunk(live, done, None) if live.size else None
        if terms is None:
            break
        terms, runlen = settle(terms[:, : horizon - done])
        for i, r in enumerate(live.tolist()):
            kept[r].append(terms[i])
            total[r] = math.fsum([total[r], *terms[i].tolist()])
        last[live], carry[live] = terms[:, -1], runlen
        done += terms.shape[1]
        used[live] = done
    sums = np.array([math.fsum(np.concatenate(p).tolist()) if p else 0.0 for p in kept])
    return sums, last, used, ok


def _bits(a):
    a = np.asarray(a)
    return a.view(np.int64) if a.dtype == np.float64 else a


def assert_same_scan(new, ref):
    for name, x, y in zip(("sums", "last", "used", "ok"), new, ref):
        np.testing.assert_array_equal(_bits(x), _bits(y), err_msg=name)


def _scan_both(make_source, rows, tol, horizon=exact.DEFAULT_HORIZON):
    """The scanner and the reference, each on its own fresh source (a
    ``_log_pi_rows`` source carries state, so it serves one scan only)."""
    new = exact._scan_rows(make_source(), rows, tol, horizon)
    assert_same_scan(new, _reference_scan_rows(make_source(), rows, tol, horizon))
    return new


# --------------------------------------------------------- the oracle


@pytest.mark.parametrize("horizon", [exact.DEFAULT_HORIZON, 40], ids=["", "horizon-40"])
@pytest.mark.parametrize("name", list(CASES))
def test_conditional_rows_scan_as_the_reference(monkeypatch, name, horizon):
    # The conditional source is a block built once, so both scanners can
    # read it; every block of every sweep (the 2n ones too) is compared.
    law, tol = CASES[name]
    real = exact._scan_rows
    calls = []

    def both(chunk, rows, tol, horizon):
        new = real(chunk, rows, tol, horizon)
        assert_same_scan(new, _reference_scan_rows(chunk, rows, tol, horizon))
        calls.append(rows)
        return new

    monkeypatch.setattr(exact, "_scan_rows", both)
    exact._conditional_rows(law, SEEDS, tol, horizon)
    assert calls and calls[0] == len(SEEDS)


@pytest.mark.parametrize("horizon", [exact.DEFAULT_HORIZON, 100, 600])
@pytest.mark.parametrize("name", list(LONG_CASES))
def test_left_hit_block_scans_as_the_reference(name, horizon):
    # _decompositions' block: Pi_{i,-1} for i <= -1, one row per seed.
    law, tol = LONG_CASES[name]
    _, _, used, _ = _scan_both(
        lambda: exact._log_pi_rows(law, SEEDS, -1, None, -1, 1.0), len(SEEDS), tol, horizon
    )
    assert used.max() <= horizon


@pytest.mark.parametrize("name", list(LONG_CASES))
def test_r_tail_rows_scan_as_the_reference(name):
    law, tol = LONG_CASES[name]
    _, _, used, ok = _scan_both(lambda: exact._log_pi_rows(law, SEEDS, 1, None, 1, 1.0), len(SEEDS), tol)
    assert ok.all()
    if law is SLOW:
        assert (used > 2 * exact._CHUNK).any()  # rows that run past their first chunks
    # r_tail itself is a one-row scan of the same source.
    for seed in SEEDS[:5].tolist():
        rows = exact._seed_rows([seed])
        ref = _reference_scan_rows(exact._log_pi_rows(law, rows, 1, None, 1, 1.0), 1, tol,
                                   exact.DEFAULT_HORIZON)
        sv = exact.r_tail(law, seed, 1, tol)
        assert (sv.value, sv.terms_used, sv.converged) == (ref[0][0], ref[2][0], ref[3][0])


@pytest.mark.parametrize("name", list(LONG_CASES))
def test_expected_hit_on_a_law_scans_as_the_reference(name):
    # E^x[T_{x+1}]: the terms Pi_{i,x} for i <= x, at x = 5.
    law, tol = LONG_CASES[name]
    sums, _, _, _ = _scan_both(lambda: exact._log_pi_rows(law, SEEDS, 5, None, -1, 1.0), len(SEEDS), tol)
    for seed, total in zip(SEEDS[:5].tolist(), sums.tolist()):
        assert exact.expected_hit((law, seed), 5, "right", tol).value == 1.0 + 2.0 * total


@pytest.mark.parametrize("name", list(CASES))
def test_expected_hit_on_windows_scans_as_the_reference(name):
    # One row per window; the supply ends at its edge, so both ends show:
    # rows that stop inside and rows cut at the edge.
    law, tol = CASES[name]
    cut = 0
    for seed in SEEDS.tolist():
        window = sample_window(law, seed, -150, 150)
        rows = exact._seed_rows([seed])
        for step, sign in ((-1, 1.0), (1, -1.0)):  # direction "right", then "left"
            _, _, _, ok = _scan_both(
                lambda: exact._log_pi_rows(law, rows, 0, window, step, sign), 1, tol
            )
            cut += not ok[0]
    assert 0 < cut < 2 * len(SEEDS)


# ------------------------------------------------------ certified sums


def _outcome(f, *args):
    """f's value as float bits, or the type of what it raised."""
    try:
        return float(f(*args)).hex()
    except (OverflowError, ValueError) as e:
        return type(e).__name__


def _rows_sum(row):
    """``exact._row_sums`` of one row (as the scanner calls it)."""
    x = np.asarray(row, dtype=np.float64)[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        run = np.cumsum(x, axis=1)
    return exact._row_sums(x, run, np.array([0]), np.array([x.size - 1]), np.empty_like(x))[0]


_WIDE = st.builds(
    math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1080, 1000)
) | st.sampled_from([0.0, 5e-324, 2.0**-1022, 1.0])


@settings(max_examples=400, deadline=None)
@given(st.lists(_WIDE, min_size=1, max_size=60))
def test_certified_sums_equal_fsum_bitwise(row):
    # Subnormals, zeros and single-term rows included; ldexp of an exponent
    # below -1074 gives 0 or a subnormal.
    want = _outcome(math.fsum, row)
    assert _outcome(_rows_sum, row) == want
    assert _outcome(estimate._fsum, np.array(row)) == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(_WIDE, min_size=1, max_size=40), min_size=1, max_size=8))
def test_a_block_of_row_sums_equals_fsum_bitwise(rows):
    # Rows of a block end at different terms; each span is its own.
    ends = np.array([len(r) - 1 for r in rows])
    x = np.zeros((len(rows), ends.max() + 1))
    for i, r in enumerate(rows):
        x[i, : len(r)] = r
    with np.errstate(over="ignore"):
        run = np.cumsum(x, axis=1)
    if not np.isfinite(run).all():
        return
    got = exact._row_sums(x, run, np.arange(len(rows)), ends, np.empty_like(x))
    assert [v.hex() for v in got.tolist()] == [math.fsum(r).hex() for r in rows]


@pytest.mark.parametrize("row,certified", [
    ([1.0, 2.0**-53], False),  # fl(hi + lo) = 1 is a tie
    ([1.0, 2.0**-53, 2.0**-200], False),  # a near-tie: the exact sum rounds up
    ([2.0**-53, 1.0], False),
    ([1.0, 2.0**-53, 2.0**-53], True),  # the errors add up to one ulp of 1: no tie
])
def test_midpoint_ties_fall_back_to_fsum(row, certified):
    x = np.array(row)
    s = np.cumsum(x)
    lo = float(estimate._two_sum_errors(s[:-1], x[1:], s[1:]).sum())
    r, exact_ = estimate._certified_sums(s[-1:], np.array([lo]), np.array([x.size]))
    want = math.fsum(row)
    assert exact_[0] == certified
    assert not exact_[0] or r[0] == want
    assert _rows_sum(row) == want and estimate._fsum(x) == want


@pytest.mark.parametrize("row", [[1.0, math.inf], [math.inf, 2.0], [math.nan, 1.0],
                                 [1.0, 2.0, math.nan], [1.7e308, 1.7e308], [1e308] * 3])
def test_specials_and_overflow_behave_as_fsum(row):
    want = _outcome(math.fsum, row)
    assert _outcome(_rows_sum, row) == want
    assert _outcome(estimate._fsum, np.array(row)) == want
    if row[0] == 1.7e308:
        assert want == "OverflowError"


def test_cumsum_adds_in_order():
    # The certificate's errors assume s[k] = fl(s[k-1] + x[k]): pin it for
    # the row-wise cumsum of a block and for the 1-D in-place cumsum.
    g = np.random.default_rng(5)
    x = 10.0 ** g.uniform(-20, 20, (81, 300))
    s = np.cumsum(x, axis=1)
    assert (s[:, 0] == x[:, 0]).all()
    for k in range(1, x.shape[1]):
        assert np.array_equal(_bits(s[:, k]), _bits(s[:, k - 1] + x[:, k]))
    flat = x.reshape(-1).copy()
    np.cumsum(flat, out=flat)
    prev = 0.0
    for xk, sk in zip(x.reshape(-1).tolist()[:5000], flat.tolist()):
        assert sk == prev + xk
        prev = sk


def test_few_diverge_rows_fall_back(monkeypatch, tmp_path):
    # FIX-C at tol 1e-8 as ``diverge`` runs it (the bench command at seed 0):
    # count the rows whose first-chunk sum the certificate left to fsum.
    real = estimate._certified_sums
    rows, fallbacks = [0], [0]

    def counted(hi, lo, count):
        r, exact_ = real(hi, lo, count)
        rows[0] += exact_.size
        fallbacks[0] += int((~exact_).sum())
        return r, exact_

    monkeypatch.setattr(exact, "_certified_sums", counted)
    argv = ["diverge", "--law", format_law(FIX_C), "--schedule", "1000,4000", "--seed", "3",
            "--tol", "1e-8", "--workers", "2", "--out", os.fspath(tmp_path / "d")]
    assert main(argv) == 0
    assert rows[0] >= 4000
    assert fallbacks[0] <= 4
