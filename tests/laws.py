"""Fixture laws shared across the test modules.

FIX-A  ballistic right        rho in {1/4, 2/3},  E[rho] = 11/24
FIX-C  weakly transient       rho in {1/3, 2},    E[rho] = 7/6, kappa ~ 0.5233
FIX-D  ballistic, continuous  Beta(5, 2),         E[rho] = 1/2, kappa = 3
FIX-E  boundary E[rho] = 1    rho in {1/2, 3/2}
FIX-F  zero speed, lattice    rho in {1/4, 2},    kappa = log2((1+sqrt(5))/2)
"""

from rwre import EnvLaw

FIX_A = EnvLaw.discrete([(0.5, 0.8), (0.5, 0.6)])
FIX_C = EnvLaw.discrete([(0.5, 0.75), (0.5, 1 / 3)])
FIX_D = EnvLaw.beta_law(5.0, 2.0)
FIX_E = EnvLaw.discrete([(0.5, 2 / 3), (0.5, 0.4)])
FIX_F = EnvLaw.discrete([(0.5, 0.8), (0.5, 1 / 3)])

CONST_7 = EnvLaw.constant(0.7)
CONST_9 = EnvLaw.constant(0.9)
CONST_HALF = EnvLaw.constant(0.5)
ONE_ATOM_3 = EnvLaw.discrete([(1.0, 0.3)])  # one level, as a discrete law
TWIN_6 = EnvLaw.discrete([(0.5, 0.6), (0.5, 0.6)])  # two atoms, one level
