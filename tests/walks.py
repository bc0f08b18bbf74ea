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
