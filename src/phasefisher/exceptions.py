"""Error types raised across the package, its shared argument checks and the base of its value records.

Everything derives from PhaseFisherError so callers can catch broadly.
"""

import functools
import operator
from collections import namedtuple


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


def _integer(value, what: str) -> int:
    """value as an int when operator.index takes it (a Python or numpy integer), else ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _noon_order(n) -> int:
    """n as an int when it is an integer NOON order n >= 1, else ValueError."""
    n = _integer(n, "NOON order n")
    if n < 1:
        raise ValueError(f"NOON probe needs n >= 1, got {n}")
    return n


def _record(typename: str, field_names: str) -> type:
    """The namedtuple base of a value record, whose subclass checks its fields in __new__.

    _make, and with it _replace, builds through that __new__, so a copy with
    new field values is checked as a new record is.
    """
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class DegenerateSpectrum(PhaseFisherError):
    """The two-level spectral data is numerically inconsistent."""


class NonpositiveFisher(PhaseFisherError):
    """Sensitivity requested for a nonpositive Fisher information."""


class NumericalOverflow(PhaseFisherError):
    """A closed form leaves the double-precision range, or an operator holds a non-finite entry."""


def _in_double_range(closed_form):
    """Report a float overflow inside closed_form as NumericalOverflow naming it."""

    @functools.wraps(closed_form)
    def checked(*args, **kwargs):
        try:
            return closed_form(*args, **kwargs)
        except OverflowError as exc:
            message = f"{closed_form.__name__} overflows double precision at {args or kwargs}: {exc}"
            raise NumericalOverflow(message) from exc

    return checked


class OracleTooLarge(PhaseFisherError):
    """The Fock cutoff is too large for the brute-force oracle to allocate."""


class NoConvergence(PhaseFisherError):
    """An iterative solver exhausted its iteration budget."""


class NoCrossingFound(PhaseFisherError):
    """No sign change of the compared QFI curves on the search grid."""
