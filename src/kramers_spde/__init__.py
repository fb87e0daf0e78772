"""Metastable transition times for the 1D stochastic Allen-Cahn equation.

Predicts expected transition times between the two stable states of
du = [u_xx - U'(u)] dt + sqrt(2 eps) dW on [0, L] (Neumann or periodic
boundary conditions) through the regime-dispatched Kramers-law formulas,
including the pitchfork-bifurcation crossovers at L = pi and L = 2 pi, and
measures them by spectral Galerkin Monte Carlo with exact low-dimensional
quadrature oracles.
"""

__version__ = "0.1.0"

import types

from .errors import (AllCensored, DomainError, EnergyOutOfRange, GridTooSmall,
                     InvalidPotential, KramersSpdeError, NoInstanton, NonFinite,
                     NotMonotone, OutOfRegime, QuadratureNotConverged,
                     ResolutionTooLow, UnsupportedRegime, WrongBoundaryCondition,
                     ZeroDenominator)
from .potential import (AssumptionReport, LocalPotential, check_assumptions, energy_V,
                        grad_V, quartic)
from .spectral import (BoundaryCondition, NEUMANN, PERIODIC, FourierState,
                       TransformPlan, from_grid, sup_dist, to_grid)
from .stationary import (InstantonProfile, barrier_height, dT_dE, instanton,
                         period_T, turning_points)
from .spectra import (SpectrumReport, closed_form_product, det_ratio,
                      eigs_constant, eigs_profile)
from .specialfn import erfcx, psi, theta
from .kramers import (KramersPrediction, RegimeTag, c4, predict_time,
                      remainder_scale, saddle_length)
from .simulate import (GalerkinErrorTable, SimConfig, TransitionSample,
                       TransitionStats, galerkin_error, mc_stats,
                       oracle_identity_1d, oracle_mfpt_1d, reduced_potential_1d,
                       run_replicas, sample_path, sample_transition, step)

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
