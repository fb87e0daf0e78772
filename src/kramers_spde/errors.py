"""Exception types shared across the package."""

import math


class KramersSpdeError(Exception):
    """Base class for all package-specific errors."""


class InvalidPotential(KramersSpdeError):
    """The polynomial does not define a valid normalized double well."""


class EnergyOutOfRange(KramersSpdeError):
    """Orbit energy outside (0, E0)."""


class QuadratureNotConverged(KramersSpdeError):
    """A quadrature failed its certificate (or adaptive refinement its tolerance)."""


class NoInstanton(KramersSpdeError):
    """No nonconstant stationary solution exists for this domain length."""


class NotMonotone(KramersSpdeError):
    """Bisection bracket for T(E) = target could not be established."""


class GridTooSmall(KramersSpdeError):
    """Evaluation grid cannot represent the requested mode content."""


class ResolutionTooLow(KramersSpdeError):
    """Finite-difference eigenvalues disagree between grids after extrapolation."""


class ZeroDenominator(KramersSpdeError):
    """A denominator eigenvalue in a spectral ratio product is zero."""


class OutOfRegime(KramersSpdeError):
    """Closed-form expression requested outside its validity range."""


class DomainError(KramersSpdeError):
    """Argument outside the domain of a special function."""


class WrongBoundaryCondition(KramersSpdeError):
    """Operation defined only for the other boundary condition."""


class UnsupportedRegime(KramersSpdeError):
    """Domain length beyond the second bifurcation; transition-state structure untreated."""


class NonFinite(KramersSpdeError):
    """A state coordinate left the representable range (blow-up or dt too large)."""


class AllCensored(KramersSpdeError):
    """Every Monte Carlo replica hit the censoring horizon."""


def require_finite(**values: float) -> None:
    """Raise ValueError naming the first of the keyword inputs that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
