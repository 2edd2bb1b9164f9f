"""Error types raised across the package, and the one transmittance check.

Everything derives from PhaseFisherError so callers can catch broadly.
"""


class PhaseFisherError(Exception):
    """Base class for all package errors."""


class TruncationTooSmall(PhaseFisherError):
    """The Fock cutoff is too small to hold the requested state within tolerance."""


class NotHermitian(PhaseFisherError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class NegativeEigenvalue(PhaseFisherError):
    """A density operator has an eigenvalue further below 0 than roundoff explains."""


class DimensionMismatch(PhaseFisherError):
    """Operands live on incompatible spaces."""


class InvalidEta(PhaseFisherError):
    """Transmittance outside [0, 1]."""


def check_eta(eta: float) -> None:
    """Raise InvalidEta unless 0 <= eta <= 1; NaN fails the comparison and raises too."""
    if not 0.0 <= eta <= 1.0:
        raise InvalidEta(f"eta must lie in [0, 1], got {eta}")


class DegenerateSpectrum(PhaseFisherError):
    """The two-level spectral data is numerically inconsistent."""


class InvalidWeights(PhaseFisherError):
    """Spectral weights are negative or sum beyond one."""


class NonpositiveFisher(PhaseFisherError):
    """Sensitivity requested for a nonpositive Fisher information."""


class NumericalOverflow(PhaseFisherError):
    """A closed form leaves the double-precision range, or an operator holds a non-finite entry."""


class OracleTooLarge(PhaseFisherError):
    """The Fock cutoff is too large for the brute-force oracle to allocate."""


class NoConvergence(PhaseFisherError):
    """An iterative solver exhausted its iteration budget."""


class NoCrossingFound(PhaseFisherError):
    """No sign change of the compared QFI curves on the search grid."""
