"""Pins for the shared numeric kernels: the truncated-series scan, the
moment-root bisection, and the ladder first-exit walk.

The golden literals were recorded before these kernels were merged from
their per-caller copies; the merged code must reproduce them bit for bit.
"""

import math

import numpy as np
import pytest

from rwre import (
    StepLaw,
    gamma_root,
    kappa_root,
    overshoot_constant,
    r_tail,
    step_from_env,
    sup_tail,
)
from rwre.env import omega_at_sites
from rwre.ladder import WaldCheck

from laws import FIX_A, FIX_C, FIX_E, FIX_F

SKIP_FREE = StepLaw.of([(0.3, 1.0), (0.7, -1.0)])
GENERAL = StepLaw.of([(0.5, -1.7), (0.5, 0.9)], lattice=None)


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
    assert (naive.value, naive.std_error, naive.n) == (0.0275, 0.003657671975743734, 2000)
    assert (imp.value, imp.std_error, imp.n) == (0.033735943356934514, 0.0, 2000)
    assert (flt.value, flt.std_error) == (0.03897928930836969, 9.131540394552779e-05)
    assert (flt_naive.value, flt_naive.std_error) == (0.039, 0.004329997048176663)


def test_overshoot_wald_golden():
    scan = overshoot_constant(step_from_env(FIX_F), range(10, 13), n=2000, seed=9)
    assert scan.wald == WaldCheck(
        k=12,
        mean_s_tau=8.317766166719345,
        se_s_tau=0.0,
        mean_tau=28.5105,
        se_tau=0.336050457267826,
        drift_q=0.29600918490833683,
    )
    assert [(e.scaled, e.scaled_se) for e in scan.entries] == [
        (0.9999999999999999, 0.0),
        (0.9999999999999999, 0.0),
        (1.0, 0.0),
    ]
