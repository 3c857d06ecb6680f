"""Linear model of the tangent space of the complex quadric.

The tangent space at a point of the complex quadric carries three compatible
structures: the flat metric ``g``, a complex structure ``J`` (``J^2 = -Id``),
and a circle family of real structures ``A_theta`` (orthogonal, self-adjoint
involutions anti-commuting with ``J``).  In the ordered orthonormal basis

    (Z_1, ..., Z_m, J Z_1, ..., J Z_m)

the metric is the identity, ``J`` maps ``Z_i -> J Z_i`` and ``J Z_i -> -Z_i``,
and the base conjugation ``A`` fixes every ``Z_i`` and negates every ``J Z_i``.
All three are exact integer matrices, so the structural identities hold with
no construction round-off.

This module also evaluates the ambient curvature tensor of the quadric and
the Jacobi operator of a unit direction, whose spectrum detects the two
singular types of tangent vectors (principal and isotropic with respect to
the conjugation family).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError, NormalizationError, _require_finite

#: Largest supported complex dimension; keeps every suite at desk scale.
MAX_COMPLEX_DIM = 64

#: Half-angle window (radians) used to tag a direction as singular.
ANGLE_EPS = 1e-8

#: Unit-norm slack accepted on vectors that must be normalized.
UNIT_TOL = 1e-9


@dataclass(frozen=True)
class TangentModel:
    """Real 2m-dimensional model of the quadric tangent space.

    Attributes:
        m: complex dimension (the real dimension is ``2m``).
        J: complex structure as a ``(2m, 2m)`` matrix.
        A: base real structure (conjugation) as a ``(2m, 2m)`` matrix.
    """

    m: int
    J: np.ndarray
    A: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.m

    @property
    def g(self) -> np.ndarray:
        """Gram matrix of the model basis (the identity)."""
        return np.eye(self.dim)

    def zvec(self, i: int) -> np.ndarray:
        """Basis vector ``Z_i`` (1-based index)."""
        e = np.zeros(self.dim)
        e[i - 1] = 1.0
        return e

    def jzvec(self, i: int) -> np.ndarray:
        """Basis vector ``J Z_i`` (1-based index)."""
        e = np.zeros(self.dim)
        e[self.m + i - 1] = 1.0
        return e


def build_tangent_model(m: int, conjugation: np.ndarray | None = None) -> TangentModel:
    """Construct the model in the standard basis.

    Args:
        m: complex dimension, ``1 <= m <= MAX_COMPLEX_DIM``.
        conjugation: optional replacement for the standard conjugation; it
            must be a symmetric orthogonal involution anti-commuting with J.
            Used by alternate model-space constructions.

    Raises:
        InvalidDimensionError: if ``m`` is not an integer in range.
    """
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise InvalidDimensionError(f"complex dimension must be an integer, got {m!r}")
    if m < 1:
        raise InvalidDimensionError(f"complex dimension must be >= 1, got {m}")
    if m > MAX_COMPLEX_DIM:
        raise InvalidDimensionError(f"complex dimension must be <= {MAX_COMPLEX_DIM}, got {m}")

    eye = np.eye(m)
    zero = np.zeros((m, m))
    J = np.block([[zero, -eye], [eye, zero]])
    if conjugation is None:
        A = np.block([[eye, zero], [zero, -eye]])
    else:
        A = np.asarray(conjugation, dtype=float)
        _check_conjugation(J, A)
    J.flags.writeable = False
    A.flags.writeable = False
    return TangentModel(m=int(m), J=J, A=A)


def _check_conjugation(J: np.ndarray, A: np.ndarray) -> None:
    n = J.shape[0]
    if A.shape != (n, n):
        raise InvalidDimensionError(f"conjugation must be {n}x{n}, got {A.shape}")
    checks = {
        "A not symmetric": A - A.T,
        "A not an involution": A @ A - np.eye(n),
        "A does not anti-commute with J": A @ J + J @ A,
    }
    for label, defect in checks.items():
        err = float(np.max(np.abs(defect)))
        if err > 1e-12:
            raise InvalidDimensionError(f"{label} (defect {err:.3e})")


def rotate_conjugation(model: TangentModel, theta: float) -> np.ndarray:
    """Member ``A_theta = cos(theta) A + sin(theta) J A`` of the conjugation circle.

    Every member is again a symmetric orthogonal involution anti-commuting
    with ``J``.
    """
    return math.cos(theta) * model.A + math.sin(theta) * (model.J @ model.A)


def principal_vector(model: TangentModel) -> np.ndarray:
    """Canonical unit vector fixed by the base conjugation (``Z_1``)."""
    return model.zvec(1)


def isotropic_vector(model: TangentModel) -> np.ndarray:
    """Canonical isotropic unit vector ``(Z_1 + J Z_2) / sqrt(2)``."""
    if model.m < 2:
        raise InvalidDimensionError("isotropic directions require complex dimension >= 2")
    return (model.zvec(1) + model.jzvec(2)) / math.sqrt(2.0)


@dataclass(frozen=True)
class CanonicalAngle:
    """Canonical angle of a unit direction and its singular-type tag."""

    t: float
    kind: str  # "A-principal" | "A-isotropic" | "generic"


def canonical_angle(model: TangentModel, U: np.ndarray, eps: float = ANGLE_EPS) -> CanonicalAngle:
    """Canonical angle ``t in [0, pi/4]`` of a unit direction.

    Every unit vector can be written ``cos(t) Z_1' + sin(t) J Z_2'`` with
    ``Z_1', Z_2'`` orthonormal in the fixed space of some member of the
    conjugation circle.  The angle is recovered from the base conjugation as

        t = arccos( sqrt( g(AU,U)^2 + g(JAU,U)^2 ) ) / 2,

    which is invariant under rotating the conjugation (the two pairings
    transform as a cosine/sine pair).  ``t = 0`` tags a principal direction,
    ``t = pi/4`` an isotropic one.

    Raises:
        NonFiniteError: if ``U`` has a NaN or infinite entry.
        NormalizationError: if ``U`` is not unit length.
    """
    U = np.asarray(U, dtype=float)
    _require_finite(direction=U)
    nrm = float(np.linalg.norm(U))
    if abs(nrm - 1.0) > UNIT_TOL:
        raise NormalizationError(f"direction must be unit length (|U| = {nrm:.12g})")
    a = float(U @ (model.A @ U))
    b = float(U @ (model.J @ (model.A @ U)))
    s = min(1.0, math.hypot(a, b))
    t = 0.5 * math.acos(s)
    if t < eps:
        kind = "A-principal"
    elif abs(t - math.pi / 4.0) < eps:
        kind = "A-isotropic"
    else:
        kind = "generic"
    return CanonicalAngle(t=t, kind=kind)


def adapted_conjugation(model: TangentModel, U: np.ndarray) -> tuple[np.ndarray, float]:
    """Member of the conjugation circle adapted to a unit direction.

    Returns the rotated conjugation ``A*`` (and its rotation angle) for which
    ``g(A*U, U) = cos(2t) >= 0`` and ``g(J A*U, U) = 0``; with respect to
    ``A*`` the direction takes the canonical form ``cos(t) Z_1 + sin(t) J Z_2``.
    For an isotropic ``U`` both pairings already vanish for every member and
    the base conjugation is returned unchanged.
    """
    U = np.asarray(U, dtype=float)
    a = float(U @ (model.A @ U))
    b = float(U @ (model.J @ (model.A @ U)))
    if math.hypot(a, b) < 1e-15:
        return model.A.copy(), 0.0
    theta = math.atan2(b, a)
    return rotate_conjugation(model, theta), theta


def _as_columns(*vectors: np.ndarray) -> tuple[list[np.ndarray], bool]:
    """Promote ``(n,)`` vectors and ``(n, k)`` column stacks to 2-D arrays.

    A single vector becomes one column ``(n, 1)``, which broadcasts against
    the ``k`` columns of any stack.  Also returns whether any input was a
    stack, so callers can hand a 1-D result back for all-vector input.
    """
    arrays = [np.asarray(V, dtype=float) for V in vectors]
    return [a.reshape(a.shape[0], -1) for a in arrays], any(a.ndim == 2 for a in arrays)


def _col_dot(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Per-column inner products ``g(U_j, V_j)`` of two column stacks."""
    return (U * V).sum(axis=0)


def ambient_curvature(
    model: TangentModel, X: np.ndarray, Y: np.ndarray, Z: np.ndarray
) -> np.ndarray:
    """Curvature tensor ``R(X, Y) Z`` of the quadric.

    Nine terms: the constant-curvature part, the complex-structure part, and
    the conjugation part,

        R(X,Y)Z = g(Y,Z) X - g(X,Z) Y + g(JY,Z) JX - g(JX,Z) JY
                  - 2 g(JX,Y) JZ + g(AY,Z) AX - g(AX,Z) AY
                  + g(JAY,Z) JAX - g(JAX,Z) JAY.

    Each argument is a vector ``(n,)`` or a column stack ``(n, k)``; a stack
    evaluates the tensor column by column (a vector pairs with every column)
    and returns ``(n, k)``.  All-vector input returns a vector.
    """
    (X, Y, Z), batched = _as_columns(X, Y, Z)
    J, A = model.J, model.A
    JX, JY, JZ = J @ X, J @ Y, J @ Z
    AX, AY = A @ X, A @ Y
    JAX, JAY = J @ AX, J @ AY
    R = (
        _col_dot(Y, Z) * X
        - _col_dot(X, Z) * Y
        + _col_dot(JY, Z) * JX
        - _col_dot(JX, Z) * JY
        - 2.0 * _col_dot(JX, Y) * JZ
        + _col_dot(AY, Z) * AX
        - _col_dot(AX, Z) * AY
        + _col_dot(JAY, Z) * JAX
        - _col_dot(JAX, Z) * JAY
    )
    return R if batched else R[:, 0]


def ambient_jacobi(model: TangentModel, U: np.ndarray) -> np.ndarray:
    """Jacobi operator ``Y -> R(Y, U) U`` of a unit direction, as a matrix.

    The operator is self-adjoint.  For a principal direction its eigenvalues
    are 0 and 2 (each with multiplicity m); for an isotropic direction they
    are 0, 1, 4 with multiplicities 3, 2m-4, 1.

    Raises:
        NonFiniteError: if ``U`` has a NaN or infinite entry.
        NormalizationError: if ``U`` is not unit length.
    """
    U = np.asarray(U, dtype=float)
    _require_finite(direction=U)
    nrm = float(np.linalg.norm(U))
    if abs(nrm - 1.0) > UNIT_TOL:
        raise NormalizationError(f"direction must be unit length (|U| = {nrm:.12g})")
    J, A = model.J, model.A
    n = model.dim
    JU = J @ U
    AU = A @ U
    JAU = J @ AU
    # Matrix form of Y -> R(Y,U)U; the J-only trace term g(JU,U) vanishes
    # identically but is kept so the expression mirrors the tensor.
    return (
        np.eye(n)
        - np.outer(U, U)
        + float(JU @ U) * J
        + 3.0 * np.outer(JU, JU)
        + float(AU @ U) * A
        - np.outer(AU, AU)
        + float(JAU @ U) * (J @ A)
        - np.outer(JAU, JAU)
    )
