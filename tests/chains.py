"""Exact laws of lattice walks, from their absorbing chains, for the
goodness-of-fit tests of the occupation-count kernels and the checks of
the Monte Carlo estimators against their exact values (numpy only): the
exit law of a band, the first-passage and exit-step laws under the tilt,
phi(t), the sup-tail, the return time and k-step law of a
nearest-neighbour walk on a window of sites, and the law of a simple
random walk after h steps.

Every walk starts at S_0 = 0 and takes its first step whatever the levels,
so a first passage is the first step k >= 1 with S_k >= level, as in
``ladder._count_exit``.  A walk under the tilted law Q of a negative-drift
law P (q_i = p_i e^{gamma x_i}) drifts up, so its first passages are
certain, but it can wander down without bound first; the laws below truncate
it at a floor ``down`` and report the mass lost there.  That mass is at most
e^{gamma down} (Lundberg's bound): e^{-gamma S_k} is a Q-martingale started
at 1, and it is at least e^{-gamma down} on the paths that reach the floor.
Walks run in lattice units, so ``gamma`` is the root in those units: gamma a
for a law on a*Z.
"""

import math

import numpy as np


def exit_law(weights, units, up, down):
    """Exit values of the walk absorbed at S >= up or S <= down (an integer
    below up) with their probabilities: the first step from 0, then row x of
    N for a step to x inside, where (I - Q) N = R over the values in
    (down, up)."""
    inside = range(down + 1, up)
    # a path leaves from 0 (its first step) or from a value inside, by one step
    exits = [*range(min(down + 1, 0) + min(units), down + 1),
             *range(up, max(up - 1, 0) + max(units) + 1)]
    q, r = np.zeros((len(inside), len(inside))), np.zeros((len(inside), len(exits)))
    for i, x in enumerate(inside):
        for w, d in zip(weights, units):
            if down < x + d < up:
                q[i, x + d - down - 1] += w
            else:
                r[i, exits.index(x + d)] += w
    n = np.linalg.solve(np.eye(len(inside)) - q, r)
    law = np.zeros(len(exits))
    for w, d in zip(weights, units):
        if down < d < up:
            law += w * n[d - down - 1]
        else:
            law[exits.index(d)] += w
    return np.array(exits), law


def lundberg_floor(gamma, eps):
    """The highest floor whose Lundberg bound e^{gamma down} is at most eps."""
    return math.floor(math.log(eps) / gamma)


def first_passage_law(weights, units, level, gamma, eps=1e-12):
    """(law, lost) of the overshoot S_tau - level of the first passage over
    ``level`` of the walk with step law (weights, units), Q-tilted by gamma:
    law[o] is the chance of first passing at level + o before falling to
    the Lundberg floor for ``eps``, and ``lost`` the mass that falls there
    first, at most e^{gamma down} <= eps.  Each law[o] is below its true
    chance by at most ``lost``."""
    down = min(lundberg_floor(gamma, eps), level - 1)
    values, law = exit_law(weights, units, level, down)
    above = values >= level
    return law[above][np.argsort(values[above])], law[~above].sum()


def exit_step_law(weights, units, top, steps, gamma, eps=1e-12):
    """(law, lost): law[k - 1] = P(tau = k) for k < ``steps``, tau the first
    step with S >= top > 0, by forward recursion of the law of S over the
    values in (down, top) on the paths still inside, with law[-1] =
    P(tau >= steps) pooling the tail.  The paths that fall to the Lundberg
    floor for ``eps`` are dropped; ``lost``, their mass, is at most eps and
    is pooled into the tail."""
    assert top > 0
    down = lundberg_floor(gamma, eps)
    lo, hi = min(0, *units), max(0, *units)  # one step moves by lo..hi
    inside = np.zeros(top - down - 1)  # inside[x - down - 1]: P(S_k = x, tau > k)
    inside[-down - 1] = 1.0
    law, lost = [], 0.0
    for _ in range(steps - 1):
        nxt = np.zeros(inside.size + hi - lo)  # nxt[y - down - 1 - lo]
        for w, d in zip(weights, units):
            nxt[d - lo : d - lo + inside.size] += w * inside
        lost += nxt[: -lo].sum()  # S <= down
        law.append(nxt[-lo + inside.size :].sum())  # S >= top
        inside = nxt[-lo : -lo + inside.size]
    law.append(1.0 - math.fsum(law))
    return np.array(law), lost


def return_time_law(omega, steps):
    """(law, tail, p) of the return time T_0 from 1 of the nearest-neighbour
    walk on the window omega[0..M], whose end sites 0 and M absorb it:
    law[k - 1] = P^1(T_0 = k < T_M) for k < ``steps``, tail =
    P^1(steps <= T_0 < T_M) and p = P^1(T_0 < T_M).  The law comes from a
    forward recursion of where the walk sits among 1..M-1 while it has not
    been absorbed.  A recursion alone does not end when Q, the walk killed at
    both ends, has spectral radius near 1, so the tail is the mass v left
    inside after steps - 1 steps times h = P^x(T_0 < T_M), from one solve of
    (I - Q) h = r, r the one-step chance of reaching 0."""
    omega = np.asarray(omega, dtype=np.float64)
    m = omega.size - 1
    up, down = omega[1:m], 1.0 - omega[1:m]  # at the interior sites 1..M-1
    q = np.diag(up[:-1], 1) + np.diag(down[1:], -1)
    r = np.zeros(m - 1)
    r[0] = down[0]
    h = np.linalg.solve(np.eye(m - 1) - q, r)
    v = np.zeros(m - 1)
    v[0] = 1.0
    law = np.zeros(steps - 1)
    for k in range(steps - 1):
        law[k] = v[0] * down[0]
        moved = np.zeros(m - 1)
        moved[1:] += v[:-1] * up[:-1]
        moved[:-1] += v[1:] * down[1:]
        v = moved
    return law, float(v @ h), float(h[0])


def leap_law(omega, k):
    """The k-step law of the nearest-neighbour walk on the window
    omega[0..M], whose end sites 0 and M absorb it, in the layout of
    ``mc._leap_table``: row x - 1 holds, for the walk from x = 1..M-1, the
    chance of reaching 0 at step s (column s - 1, s = 1..k), of sitting at
    x - k + 2j after k steps (column k + j, j = 0..k; 0 for a site off the
    interior) and of having reached M (the last column).  A forward
    recursion of where the walk from x sits among 0..M, one start at a time,
    its mass at an end site taken off after each step."""
    omega = np.asarray(omega, dtype=np.float64)
    m = omega.size - 1
    up, down = omega[1:m], 1.0 - omega[1:m]
    law = np.zeros((m - 1, 2 * k + 2))
    for x in range(1, m):
        v = np.zeros(m + 1)
        v[x] = 1.0
        for s in range(1, k + 1):
            moved = np.zeros(m + 1)
            moved[2:] += v[1:m] * up
            moved[: m - 1] += v[1:m] * down
            law[x - 1, s - 1] = moved[0]
            law[x - 1, -1] += moved[m]
            moved[0] = moved[m] = 0.0
            v = moved
        ends = x - k + 2 * np.arange(k + 1)
        inside = (ends > 0) & (ends < m)
        law[x - 1, k : 2 * k + 1][inside] = v[ends[inside]]
    return law


def phi_law(weights, units, a, t, top, gamma):
    """(phi, lost) for phi(t) = E[sum_{n < nu} e^{-S_n}], nu = inf{n >= 1:
    S_n <= -t}, of the walk S = a u with step law (weights, units) in
    lattice units and negative drift, from one solve over the values u in
    (down, top], down = floor(-t / a): phi = 1 (the n = 0 term) plus the
    first step from 0 into f = (I - Q)^{-1} w, w_u = e^{-a u}, Q the walk
    killed at or below down and above ``top``; f_u is the sum of e^{-S} a
    path from u collects before it leaves.  Killing above top drops the
    terms of the paths that climb past it, so phi errs low.  Such a path
    climbs past top with chance at most e^{-gamma top} (Lundberg's bound;
    ``gamma`` is the root in lattice units, gamma a in the units of S), and
    it then adds at most e^t a term (every S_n above -t), for
    nu(t + a u) - 1 more steps from the u it reached, u <= top + max unit.
    Wald's identity bounds that mean by (t + a (u + |min unit|)) / |E xi|;
    ``lost`` is the product of the three bounds, so phi <= the true value
    <= phi + lost."""
    weights, units = np.asarray(weights, dtype=np.float64), np.asarray(units)
    down = math.floor(-t / a + 1e-9)
    values = np.arange(down + 1, top + 1)
    q = np.zeros((values.size, values.size))
    for w, d in zip(weights, units):
        src = np.flatnonzero((values + d > down) & (values + d <= top))
        q[src, src + d] += w
    f = np.linalg.solve(np.eye(values.size) - q, np.exp(-a * values))
    phi = 1.0 + sum(w * f[d - down - 1] for w, d in zip(weights, units) if down < d <= top)
    drift = -float(weights @ units) * a
    steps = (t + a * (top + units.max() - units.min())) / drift
    return phi, math.exp(-gamma * top) * math.exp(t) * steps


def sup_law(weights, units, up, gamma, eps=1e-12):
    """(value, lost): P(sup_{k >= 1} S_k >= up) of the lattice walk with step
    law (weights, units) and negative drift, from the exit law of the band
    above the Lundberg floor for ``eps`` below up: the chance of reaching up
    before that floor.  A path that falls to the floor first climbs the rest
    of the way with chance at most eps (Lundberg's bound; ``gamma`` is the
    root in lattice units), so the value errs low by at most ``lost`` =
    P(floor first) * eps."""
    down = up + lundberg_floor(gamma, eps)
    values, law = exit_law(weights, units, up, down)
    return float(law[values >= up].sum()), float(law[values <= down].sum()) * eps


def simple_walk_law(p, h):
    """law[b] = P(X_h = 2b - h), b = 0..h, of the simple random walk from 0
    that steps up with chance p: the Binomial(h, p) pmf from ``math.comb``."""
    return np.array([math.comb(h, b) * p**b * (1.0 - p) ** (h - b) for b in range(h + 1)])
