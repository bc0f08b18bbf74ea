"""Ladder worker shards on the thread pool (``rng._map_shards``), the
exit-order first-exit kernel they run, its chunked draws, and the
block-wise exact sum behind ``Tally`` and ``ratio_of_samples``.

The shards of ``sup_tail``, ``overshoot_constant`` and ``phi_estimate`` run
on up to usable-CPU threads.  Results must not depend on whether the pool
runs, the pool must never be larger than the usable CPUs nor exist for one
busy shard, and pool threads must run no public ``rwre`` function (the
benchmark tracer keeps one span stack and wraps public functions only).
``_first_exit`` is checked against the per-path kernel it replaced, which
kept S and tau in path order (``walks._per_path_first_exit``): float exits
in exit order, lattice exits counted by value, also where its narrow
partial sums must widen; phi's per-path totals against the loop
``phi_estimate`` ran before (``walks._per_path_phi``); lattice ``sup_tail``
estimates, tallied from exit counts, against per-path tallies.  The walks draw each step's uniforms
``ladder._STEP_CHUNK`` paths at a time, and no chunk size may change a
result.
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

from rwre import (
    Estimate,
    StepLaw,
    conditioned_sampler,
    gamma_root,
    overshoot_constant,
    phi_estimate,
    speed_estimate,
    step_from_env,
    sup_tail,
    tilt,
)
from rwre import estimate, ladder, rng as rng_mod
from rwre.cli import main
from rwre.env import _thresholds
from rwre.estimate import Tally, ratio_of_means, ratio_of_samples
from rwre.rng import worker_streams

from laws import FIX_A, FIX_C, FIX_F
from walks import _per_path_first_exit, _per_path_phi

SKIP_FREE = StepLaw.of([(0.3, 1.0), (0.7, -1.0)])
GENERAL = StepLaw.of([(0.5, -1.7), (0.5, 0.9)], lattice=None)
JUMPY = StepLaw.of([(0.3, 2.0), (0.2, 1.0), (0.5, -3.0)])  # units (2, 1, -3)
FIX_F_STEP = step_from_env(FIX_F)


# ------------------------------------------------------------ exact sums

@pytest.mark.parametrize("size", [0, 1, 2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 7])
def test_blockwise_fsum_equals_one_list_fsum(size):
    g = np.random.default_rng(size)
    xs = np.where(g.random(size) < 0.5, -1.0, 1.0) * 10.0 ** g.uniform(-300, 300, size)
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


@pytest.mark.parametrize("n", [1, 7, 3000])
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_first_exit_equals_per_path_kernel(case, n):
    cumw, incs, up, down, lattice = _kernel_args(*KERNEL_CASES[case])
    ref_rng, new_rng = worker_streams(17, 1)[0], worker_streams(17, 1)[0]
    s_ref, tau_ref = _per_path_first_exit(cumw, incs, up, down, n, ref_rng, lattice)
    got = ladder._first_exit(cumw, incs, up, down, n, new_rng, lattice)
    if lattice:  # how many paths left at each value lo, lo + 1, ...
        lo, counts = got
        np.testing.assert_array_equal(np.repeat(np.arange(lo, lo + counts.size), counts),
                                      np.sort(s_ref))
    else:  # the exits in exit order: by exit step, in path order within a step
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
    ("lattice-up", np.int8), ("lattice-deep-band", np.int16), ("lattice-long-up", np.int16),
    ("phi-jumpy", np.int16),
])
def test_first_exit_sums_start_narrow_and_widen_once_needed(monkeypatch, case, widest):
    if case in PHI_CASES:
        cumw, incs, up, down, lattice, scale = _phi_args(*PHI_CASES[case])
    else:
        (cumw, incs, up, down, lattice), scale = _kernel_args(*KERNEL_CASES[case]), None
    seen = []
    advance = ladder._advance

    def spy(live, *args):
        seen.append(live.dtype)
        return advance(live, *args)

    monkeypatch.setattr(ladder, "_advance", spy)
    ladder._first_exit(cumw, incs, up, down, 3000, worker_streams(17, 1)[0], lattice, scale=scale)
    assert seen[0] == np.int8 and max(seen, key=lambda dt: dt.itemsize) == widest
    assert seen[: seen.index(widest)] == [np.int8] * seen.index(widest)
    if case in PHI_CASES:  # widened just before the ceiling 2k + 2 passes 127
        assert seen.index(widest) == 63
    elif widest == np.int16:  # widened just before a position below -128 could occur
        assert seen.index(widest) == 128


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
def test_lattice_sup_tail_tallies_from_counts_equal_per_path_tallies(law, method, workers):
    step = {"skip-free": SKIP_FREE, "jumpy": JUMPY, "fix-f": FIX_F_STEP}[law]
    est = sup_tail(step, 4.0, 2000, method, seed=6, workers=workers)
    assert est == _per_path_sup_tail(step, 4.0, 2000, method, 6, workers)


def test_first_exit_step_guard_still_trips(monkeypatch):
    monkeypatch.setattr(ladder, "_STEP_GUARD", 500)
    cumw, incs, up, down, lattice = _kernel_args(*KERNEL_CASES["lattice-up"])
    with pytest.raises(RuntimeError, match="step budget"):
        ladder._first_exit(cumw, incs, 40, down, 100, worker_streams(1, 1)[0], lattice)


# ------------------------------------------------------------------- pool

ESTIMATORS = {
    "sup-naive": lambda n, w: sup_tail(SKIP_FREE, 4, n, "naive", seed=5, workers=w),
    "sup-importance": lambda n, w: sup_tail(SKIP_FREE, 4, n, "importance", seed=5, workers=w),
    "sup-float": lambda n, w: sup_tail(GENERAL, 6.0, n, "importance", seed=5, workers=w),
    "sup-float-naive": lambda n, w: sup_tail(GENERAL, 6.0, n, "naive", seed=5, workers=w),
    "overshoot": lambda n, w: overshoot_constant(FIX_F_STEP, range(3, 6), n, seed=5, workers=w),
    "phi": lambda n, w: phi_estimate(FIX_F_STEP, 2.0, n, seed=5, workers=w),
}


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
@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_pool_on_equals_pool_off(monkeypatch, name, n, workers):
    run = ESTIMATORS[name]
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
    est = sup_tail(SKIP_FREE, 4, n, "importance", seed=2, workers=64)
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
        sup_tail(SKIP_FREE, 50, 1000, "importance", seed=1, workers=2)
    assert made == [2]
    assert raised and all(t is not threading.main_thread() for t, _ in raised)
    assert any(info.value is exc for _, exc in raised)
    out = str(tmp_path / "guard")
    argv = ["ladder", "--step", "lattice:0.3@+1,0.7@-1", "--sup-tail", "50",
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
        for run in ESTIMATORS.values():
            run(1500, 3)
    finally:
        threading.setprofile(None)
    assert made and set(made) == {3}
    assert ladder._first_exit.__code__ in seen  # the kernel did run in the pool
    leaked = {f"{c.co_filename}:{c.co_name}" for c in seen & public}
    assert not leaked


# ---------------------------------------------------------------- streams

def _count_generators(monkeypatch):
    """Make ``rng.worker_streams`` record how many generators it builds."""
    built = []
    real = rng_mod.worker_streams

    def counting(seed, workers):
        built.append(workers)
        return real(seed, workers)

    monkeypatch.setattr(rng_mod, "worker_streams", counting)
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
        argv = ["ladder", "--step", "lattice:0.3@+1,0.7@-1", "--overshoot", "1", "3",
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
    busy = run(3)
    assert built == [3]
    many = run(5000)
    assert built == [3, 3]
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
    assert max(sizes) == chunk


# ----------------------------------------------------------------- memory

def test_first_exit_peak_memory_of_a_sup_naive_shard():
    # One 5x10^5-path shard of the benchmark's sup_naive: 5.2 MiB traced with
    # an n-float uniform buffer, 1.9 MiB with chunk-sized draws.
    step = SKIP_FREE
    m = -math.log(1e-12) / gamma_root(step) - 4.0
    cumw, incs, up, down, lattice = _kernel_args(step, False, 4, math.floor(-m + 1e-9))
    tracemalloc.start()
    try:
        _, counts = ladder._first_exit(
            cumw, incs, up, down, 500_000, worker_streams(3, 1)[0], lattice
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == 500_000
    assert peak < 3.5 * 2**20


@pytest.mark.parametrize("method, limit_mib", [("naive", 12), ("importance", 15)])
def test_sup_tail_peak_memory_with_both_shards_live(monkeypatch, method, limit_mib):
    # The per-path kernel peaked at 12.6 MiB (naive) and 15.6 MiB
    # (importance) here, running its two shards one after the other.
    monkeypatch.setattr(rng_mod, "_usable_cpus", lambda: 2)
    tracemalloc.start()
    try:
        est = sup_tail(SKIP_FREE, 4, 400_000, method, seed=3, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(est, Estimate) and est.n == 400_000
    assert peak < limit_mib * 2**20

