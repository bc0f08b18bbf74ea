"""Per-path reference walks shared across the test modules."""

import numpy as np

from rwre import ladder
from rwre.env import omega_at_sites
from rwre.rng import shard_sizes, substream_seed, worker_streams


def _per_path_first_exit(cumw, incs, up, down, n, rng, integer_units):
    """The first-exit kernel before exit order: S and tau kept per path, in
    path order, with one draw per path still inside at each step."""
    s = np.zeros(n, dtype=np.int64 if integer_units else np.float64)
    tau = np.zeros(n, dtype=np.int64)
    live = s.copy()
    idx = np.arange(n)
    steps = guard = 0
    while idx.size:
        live += incs[ladder._categories(cumw, rng.random(idx.size))]
        steps += 1
        guard += idx.size
        done = (live >= up) | (live <= down)
        out = idx[done]
        s[out] = live[done]
        tau[out] = steps
        keep = ~done
        idx, live = idx[keep], live[keep]
        if guard > ladder._STEP_GUARD:
            raise RuntimeError("first-exit simulation exceeded the step budget")
    return s, tau


def _per_path_phi(cumw, incs, down, n, rng, integer_units, scale):
    """The loop ``phi_estimate`` ran before it moved onto the first-exit
    kernel: each path's sum of e^{-S_j scale} over j < nu, kept in path
    order beside its exit step nu (the first S <= down), with one draw per
    path still inside at each step."""
    f = np.ones(n)
    nu = np.zeros(n, dtype=np.int64)
    idx = np.arange(n)
    live = np.zeros(n, dtype=np.int64 if integer_units else np.float64)
    steps = guard = 0
    while idx.size:
        live += incs[ladder._categories(cumw, rng.random(idx.size))]
        steps += 1
        guard += idx.size
        keep = live > down
        nu[idx[~keep]] = steps
        idx, live = idx[keep], live[keep]
        f[idx] += np.exp(-(live * scale))
        if guard > ladder._STEP_GUARD:
            raise RuntimeError("phi simulation exceeded the step budget")
    return f, nu


def _per_step_speed(law, horizon, reps, seed, workers, sub):
    """X_horizon / horizon of every replicate of a speed walk, one array per
    worker shard: each worker walks its own replicates alone, ``sub`` float64
    windows at a time, one uniform per path per step."""
    sites = np.arange(-horizon, horizon + 1, dtype=np.int64)
    shards, rep0 = [], 0
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
        shards.append(np.array(finals))
        rep0 += n_w
    return shards
