"""Exception types shared across the package, and its one warning helper."""

import os
import sys
import warnings

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def warn(message: str) -> None:
    """Issue a UserWarning attributed to the first frame outside this package.

    The frames between the public entry point and the warning differ from
    caller to caller, so no fixed ``stacklevel`` names the caller's line; the
    walk does.
    """
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


class KoopgenError(Exception):
    """Base class for all package-specific errors."""


class InputError(KoopgenError, ValueError):
    """Malformed numerical input (wrong shape, non-finite entries)."""


class DomainError(KoopgenError, ValueError):
    """A point lies outside the domain a basis is defined on."""


class UnsupportedDictionaryError(KoopgenError, TypeError):
    """The requested operation needs basis features this dictionary lacks."""


class IntegrationError(KoopgenError, RuntimeError):
    """Trajectory integration produced a non-finite state."""


class ClosureError(KoopgenError, ValueError):
    """A function needed in coefficient space is not in the dictionary span."""


class LogBranchError(KoopgenError, ValueError):
    """Matrix logarithm undefined: eigenvalue on the closed negative real axis."""


class IdentificationError(KoopgenError, ValueError):
    """System identification failed (e.g. diffusion not positive semidefinite)."""


class NumericalError(KoopgenError, RuntimeError):
    """A dense linear-algebra routine failed to converge."""


class ConfigError(KoopgenError, ValueError):
    """Invalid experiment configuration."""


class StabilityError(KoopgenError, ValueError):
    """Explicit time step violates the integrator stability bound."""
