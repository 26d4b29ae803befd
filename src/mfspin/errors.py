"""Exception types shared across the package."""


class MFSpinError(Exception):
    """Base class for all package errors."""


class DimensionTooSmall(MFSpinError):
    """Lattice dimension below 3; the infrared integrals diverge."""


class MethodInfeasible(MFSpinError):
    """Requested integration method cannot handle the given dimension."""


class QuadratureFailure(MFSpinError):
    """No two successive orders of a fixed rule agreed within tol/4, or the final
    error estimate exceeds tol, for an infrared integral."""


class OutOfSimplex(MFSpinError):
    """A probability-vector component left [0, 1]."""


class BoundaryMagnetization(MFSpinError):
    """Magnetization at or beyond the reachable range of g'; entropy is -inf."""


class BracketInvalid(MFSpinError):
    """No first-order jump to locate, or a transition bracket that excludes J_MF."""


class NoStableRoot(MFSpinError):
    """No stable root m >= 0 of the mean-field equation (e.g. at a marginal spinodal)."""


class WindowExcludesTransition(MFSpinError):
    """Certification window does not contain the located J_MF."""


class BudgetExceeded(MFSpinError):
    """Brute-force grid would exceed the configured evaluation budget."""


class InsufficientSamples(MFSpinError):
    """No histogram bin holds enough samples to estimate the rate function."""


class CouplingOverflow(MFSpinError):
    """Coupling too large for floating point: the heat-bath weights exp((J/N) k)
    overflow (J beyond ln(DBL_MAX)), the cubic oracle's Ising coupling 2J does,
    or the nematic oracle's |h|^2 does on its dual grid's box (J above about 2e153)."""
