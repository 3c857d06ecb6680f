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
from functools import cache, cached_property

import numpy as np

from .errors import InvalidDimensionError, NormalizationError, _require_finite

#: Largest supported complex dimension; keeps every suite at desk scale.
MAX_COMPLEX_DIM = 64

#: Half-angle window (radians) used to tag a direction as singular.
ANGLE_EPS = 1e-8

#: Unit-norm slack accepted on vectors that must be normalized.
UNIT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
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

    @cached_property
    def exact(self) -> bool:
        """Whether ``J`` and ``A`` are sealed and satisfy the model's algebra exactly.

        Sealed means read-only and owning their data, so no caller holds a
        writeable alias.  The algebra is compared with ``np.array_equal``,
        once per instance: ``J^T = -J``, ``J^2 = -Id``, ``A^T = A``,
        ``A^2 = Id`` and ``A J = -J A``.  The model of
        :func:`build_tangent_model` is exact; a model with a writeable
        array, a rotated conjugation (whose products round) or a broken
        entry is not.  On an exact model ``induce_from_normal`` skips its
        per-normal construction checks, which can then only see rounding.
        """
        J, A = self.J, self.A
        square = (self.dim, self.dim)
        if not (_sealed(J) and _sealed(A) and J.shape == A.shape == square):
            return False
        eye = np.eye(self.dim)
        return (
            np.array_equal(J.T, -J)
            and np.array_equal(J @ J, -eye)
            and np.array_equal(A.T, A)
            and np.array_equal(A @ A, eye)
            and np.array_equal(A @ J, -(J @ A))
        )

    def zvec(self, i: int) -> np.ndarray:
        """Basis vector ``Z_i`` (1-based index).

        Raises:
            IndexError: if ``i`` is not in ``1..m``.
        """
        return self._basis_vector(i, i - 1)

    def jzvec(self, i: int) -> np.ndarray:
        """Basis vector ``J Z_i`` (1-based index).

        Raises:
            IndexError: if ``i`` is not in ``1..m``.
        """
        return self._basis_vector(i, self.m + i - 1)

    def _basis_vector(self, i: int, position: int) -> np.ndarray:
        if not 1 <= i <= self.m:
            raise IndexError(f"basis index i = {i!r} is outside 1..m for m = {self.m}")
        e = np.zeros(self.dim)
        e[position] = 1.0
        return e


def _sealed(a: np.ndarray) -> bool:
    """Whether ``a`` is a read-only array that owns its data: no caller can write it."""
    return isinstance(a, np.ndarray) and not a.flags.writeable and a.flags.owndata


def build_tangent_model(m: int) -> TangentModel:
    """The model in the standard basis, with the base conjugation ``A``.

    The model depends on ``m`` alone, so there is one per dimension: every
    call with the same ``m`` returns the same instance, whose ``J`` and
    ``A`` are read-only and which is :attr:`TangentModel.exact`.  At most
    ``MAX_COMPLEX_DIM`` instances are kept, for the life of the process.
    ``m`` is validated before the shared instance is looked up, so
    ``True`` is refused rather than read as ``1``.

    A model with another member of the conjugation circle is
    ``TangentModel(m, J, rotate_conjugation(model, theta))``.

    Raises:
        InvalidDimensionError: if ``m`` is not an integer with
            ``1 <= m <= MAX_COMPLEX_DIM``.
    """
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise InvalidDimensionError(f"complex dimension must be an integer, got {m!r}")
    if m < 1:
        raise InvalidDimensionError(f"complex dimension must be >= 1, got {m}")
    if m > MAX_COMPLEX_DIM:
        raise InvalidDimensionError(f"complex dimension must be <= {MAX_COMPLEX_DIM}, got {m}")
    return _standard_model(int(m))


@cache
def _standard_model(m: int) -> TangentModel:
    """The shared model of :func:`build_tangent_model`, built once per validated ``m``."""
    eye = np.eye(m)
    J = np.zeros((2 * m, 2 * m))
    A = np.zeros((2 * m, 2 * m))
    J[:m, m:] = -eye
    J[m:, :m] = eye
    A[:m, :m] = eye
    A[m:, m:] = -eye
    J.flags.writeable = False
    A.flags.writeable = False
    return TangentModel(m=m, J=J, A=A)


def _require_dimension(m: int, command: str) -> None:
    """Refuse ``m`` unless it is an integer with ``2 <= m <= MAX_COMPLEX_DIM``."""
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or not 2 <= m <= MAX_COMPLEX_DIM:
        raise InvalidDimensionError(f"{command} requires 2 <= m <= {MAX_COMPLEX_DIM}, got {m!r}")


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


def _require_unit_direction(U: np.ndarray) -> np.ndarray:
    """``U`` as a float array; a non-finite or non-unit direction is refused."""
    U = np.asarray(U, dtype=float)
    _require_finite(direction=U)
    nrm = float(np.linalg.norm(U))
    if abs(nrm - 1.0) > UNIT_TOL:
        raise NormalizationError(f"direction must be unit length (|U| = {nrm:.12g})")
    return U


def canonical_angle(model: TangentModel, U: np.ndarray) -> CanonicalAngle:
    """Canonical angle ``t in [0, pi/4]`` of a unit direction.

    Every unit vector can be written ``cos(t) Z_1' + sin(t) J Z_2'`` with
    ``Z_1', Z_2'`` orthonormal in the fixed space of the adapted member
    ``A*`` (:func:`adapted_conjugation`, as ``induce_from_normal`` stores
    it), which fixes ``Z_1'`` and negates ``J Z_2'``.  So
    ``|A*U - U| = 2 sin(t)``, and ``t = arcsin(|A*U - U| / 2)`` is well
    conditioned at ``t = 0``.  ``t = 0`` tags a principal direction,
    ``t = pi/4`` an isotropic one, each up to ``ANGLE_EPS``.  ``classify``
    applies it to the normal of its data.

    Raises:
        NonFiniteError: if ``U`` has a NaN or infinite entry.
        NormalizationError: if ``U`` is not unit length.
    """
    U = _require_unit_direction(U)
    AU = adapted_conjugation(model, U) @ U
    t = math.asin(min(1.0, 0.5 * float(np.linalg.norm(AU - U))))
    if t < ANGLE_EPS:
        kind = "A-principal"
    elif abs(t - math.pi / 4.0) < ANGLE_EPS:
        kind = "A-isotropic"
    else:
        kind = "generic"
    return CanonicalAngle(t=t, kind=kind)


def adapted_conjugation(model: TangentModel, U: np.ndarray) -> np.ndarray:
    """Member of the conjugation circle adapted to a unit direction.

    Returns the rotated conjugation ``A*`` for which ``g(A*U, U) = cos(2t) >= 0``
    and ``g(J A*U, U) = 0``; with respect to ``A*`` the direction takes the
    canonical form ``cos(t) Z_1 + sin(t) J Z_2``.  For an isotropic ``U`` both
    pairings already vanish for every member, and the base conjugation is
    returned: the model's own ``A`` when it is read-only and owns its data
    (as in the model of :func:`build_tangent_model`), else a copy, so the
    result never aliases an array that a caller can still write.
    """
    U = np.asarray(U, dtype=float)
    a = float(U @ (model.A @ U))
    b = float(U @ (model.J @ (model.A @ U)))
    if math.hypot(a, b) < 1e-15:
        return model.A if _sealed(model.A) else model.A.copy()
    return rotate_conjugation(model, math.atan2(b, a))


def _as_columns(*vectors: np.ndarray) -> tuple[list[np.ndarray], bool]:
    """The one vector rule: every vector argument as a column stack ``(n, k)``.

    Axis 0 is the vector index.  A vector ``(n,)`` becomes the one column
    ``(n, 1)``, which pairs with every column of a stack; an ``(n, k)`` stack
    passes through unchanged.  Also returns whether any input was a stack,
    so callers can hand a vector (or a scalar) back for all-vector input.

    Raises:
        ValueError: if an argument is neither a vector ``(n,)`` nor a
            column stack ``(n, k)``.
    """
    arrays = [np.asarray(V, dtype=float) for V in vectors]
    for a in arrays:
        if a.ndim not in (1, 2):
            raise ValueError(f"expected a vector (n,) or a column stack (n, k), got {a.shape}")
    return [a if a.ndim == 2 else a[:, None] for a in arrays], any(a.ndim == 2 for a in arrays)


def _col_dot(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Inner products ``g(U, V)`` column by column of two column stacks."""
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

    Each argument is a vector or a column stack under :func:`_as_columns`;
    stacks evaluate column by column and return ``(n, k)``, and all-vector
    input returns a vector.
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
    U = _require_unit_direction(U)
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
