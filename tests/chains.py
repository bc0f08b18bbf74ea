"""Exact laws of lattice walks, from their absorbing chains, for the
goodness-of-fit tests of the occupation-count kernel (numpy only).

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
