"""Counter-based site RNG and reproducible worker streams.

Environment values are keyed per site: the uniform driving site x under
master seed s is a pure function of (s, x).  Any two windows drawn with the
same seed therefore agree bit-for-bit on shared sites, and windows can be
extended in either direction without replaying a sequential stream.

The per-site generator is SplitMix64 evaluated at counter x: the 64-bit
state is seed' + x * GOLDEN (wrapping), pushed through the standard
avalanche finalizer.  seed' is the pre-mixed master seed so that nearby
seeds give unrelated streams.

Worker streams shard replicates: worker w's generator, a pure function of
(seed, w), drives the w-th consecutive block of paths.  ``_map_shards`` runs
the busy shards on up to usable-CPU threads; each shard touches only its own
generator, so results depend on (seed, workers) only, never on the thread
count.  Only the non-empty shards get a generator (``_busy_shards``).
"""

from __future__ import annotations

import os

import numpy as np
import numpy.random  # every walk draws from it: loaded at import, not in a first command

MASK64 = (1 << 64) - 1

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MIX1, _MIX2 = np.uint64(_M1), np.uint64(_M2)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)


def _avalanche(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def mix64(value: int) -> int:
    """SplitMix64 finalizer of one integer, in Python ints masked to 64 bits."""
    z = value & MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def site_uniforms(seed, sites, out=None, state=None) -> np.ndarray:
    """Uniform(0,1) variates keyed by (seed, site), vectorized over sites.

    ``seed`` is one integer, or a column of seeds (shape (E, 1)) giving one
    row of variates per seed, each row bit-identical to its own call.
    Values lie in (0, 1] (offset-by-half mantissa mapping): never 0, and
    1.0 for the top 53-bit value alone, where 2^53 - 1 + 0.5 rounds up to
    2^53.  Inverse CDFs with an unbounded upper tail must clip that one.
    As for a numpy ufunc, ``out`` (float64) receives the result and is
    returned; ``state`` (uint64) holds the hash state.  Each has the
    result's shape and is allocated when None.
    """
    xs = np.asarray(sites, dtype=np.int64).view(np.uint64)
    with np.errstate(over="ignore"):
        key = _avalanche(np.asarray(seed & MASK64, dtype=np.uint64))
        z = np.add(key, xs * _GOLDEN, out=state)
        # The avalanche and the mantissa shift run in place on z, with the
        # result array as the shift scratch: two arrays of the output's size.
        out = np.empty(z.shape) if out is None else out
        scratch = out.view(np.uint64)
        for shift, mult in ((_S30, _MIX1), (_S27, _MIX2), (_S31, None)):
            z ^= np.right_shift(z, shift, out=scratch)
            if mult is not None:
                z *= mult
        z >>= _S11
    np.add(z, 0.5, out=out)
    out *= 2.0**-53
    return out


def substream_seed(seed: int, *path: int) -> int:
    """Derive a 64-bit child seed from a master seed and an index path."""
    z = seed & MASK64
    for p in path:
        z = mix64(z ^ mix64(p & MASK64))
    return z


def _substream_seeds(seed: int, tag: int, start: int, stop: int) -> np.ndarray:
    """``[substream_seed(seed, tag, j) for j in range(start, stop)]`` as one
    uint64 array, the last mix of the path vectorized over j."""
    js = np.arange(start, stop, dtype=np.int64).view(np.uint64)
    return _avalanche(np.uint64(substream_seed(seed, tag)) ^ _avalanche(js))


def worker_streams(seed: int, workers: int) -> list[np.random.Generator]:
    """Independent per-worker generators, deterministic in (seed, workers)."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return [
        np.random.default_rng(np.random.SeedSequence(entropy=(seed & MASK64, w)))
        for w in range(workers)
    ]


def shard_sizes(n: int, workers: int) -> list[int]:
    """Split n replicates across workers, earlier workers taking the remainder."""
    base, extra = divmod(n, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _busy_shards(seed: int, n: int, workers: int) -> list[tuple[np.random.Generator, int]]:
    """(stream, size) of every non-empty shard of n replicates over
    ``workers`` streams, in shard order.  Those are the first min(n, workers)
    shards, and stream w depends on (seed, w) only, so no generator is built
    for an empty shard."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    busy = min(n, workers)
    return list(zip(worker_streams(seed, busy), shard_sizes(n, busy))) if busy else []


def _map_shards(fn, seed: int, n: int, workers: int) -> list:
    """``fn(rng, n_w)`` for every non-empty shard of n replicates over
    ``workers`` streams, results in shard order.

    Shards run on a pool of min(busy shards, usable CPUs) threads; with one
    thread or one busy shard they run in the caller's thread and no pool is
    made.  ``workers`` sets the streams, never the thread count.  ``fn`` runs
    in pool threads, so it must keep to private kernels and numpy (tallies
    belong to the caller); an exception it raises reaches the caller.
    """
    jobs = _busy_shards(seed, n, workers)
    threads = min(len(jobs), _usable_cpus())
    if threads <= 1:
        return [fn(rng, n_w) for rng, n_w in jobs]
    # Imported here so that runs without a pool do not load the thread pool.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, *zip(*jobs)))
