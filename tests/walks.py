"""Per-path reference walks shared across the test modules."""

import numpy as np

from rwre import ladder


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
