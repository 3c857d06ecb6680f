"""Exception types shared across the package, and the finite-input guard."""

from __future__ import annotations

import numpy as np


class QuadricError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimensionError(QuadricError):
    """Requested complex dimension is outside the supported range."""


class NormalizationError(QuadricError):
    """A vector that must be unit length is not."""


class NonTangentError(QuadricError):
    """A vector that must be tangent to the hypersurface has a normal component."""


class AsymmetryError(QuadricError):
    """An operator that must be self-adjoint is not.

    Carries the measured defect ``max |op - op^T|``.
    """

    def __init__(self, defect: float, message: str | None = None):
        self.defect = float(defect)
        super().__init__(message or f"operator not self-adjoint (defect {self.defect:.3e})")


class NonFiniteError(QuadricError):
    """Input data has a NaN or infinite entry."""


class HopfRequiredError(QuadricError):
    """Operation is only defined for Hopf data (shape operator fixing the Reeb direction)."""


class ExcludedParameterError(QuadricError):
    """Parameter value lies outside the admissible range of the construction."""


class ModelValidationError(QuadricError):
    """Serialized or constructed data violates a structural invariant."""


def _require_finite(**values) -> None:
    """Raise :class:`NonFiniteError` for the first named value with a NaN or inf entry.

    ``None`` values (absent optional inputs) are skipped.  Tolerance guards
    of the form ``abs(x - 1) > tol`` are False for NaN, so every boundary
    that accepts outside data calls this first.
    """
    for name, value in values.items():
        if value is not None and not np.isfinite(value).all():
            raise NonFiniteError(f"{name} has non-finite entries")
