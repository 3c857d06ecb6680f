"""Pointwise calculus of a real hypersurface in the quadric.

A unit normal ``N`` induces the almost-contact structure on the tangent
hyperplane: the Reeb direction ``xi = -J N``, its dual 1-form ``eta``, and
the structure tensor ``phi`` (tangential part of ``J``).  Together with a
self-adjoint shape operator ``S`` this fixes every pointwise identity of the
geometry: the induced curvature via the Gauss equation, the Codazzi relation,
the Ricci operator, the structure Jacobi operator ``R_xi = R(., xi) xi`` and
its covariant derivative along the Reeb direction.

The conjugation bookkeeping follows the canonical form of the normal: the
model's conjugation circle is rotated so that ``g(J A N, N) = 0`` and
``g(A N, N) >= 0``.  With that adapted member, ``A xi`` and the tangential
part of ``A N`` are tangent fields and the splitting ``A X = B X + rho(X) N``
(``B`` the tangential part, ``rho(X) = g(A X, N)``) is exact.

Conventions used throughout:

* vectors live in the ambient ``2m``-dimensional model space;
* ``S`` is stored as a full ambient matrix annihilating ``N``;
* operators returned as matrices are composed with the tangent projection,
  so they annihilate the normal direction;
* the gauge scalar ``q(xi)`` of the conjugation derivative defaults to
  ``2 alpha`` (forced whenever ``g(A xi, xi) != 0``, a free gauge otherwise);
* the Reeb-curvature differential ``dalpha`` defaults to the closed Hopf
  form ``X alpha = (xi alpha) eta(X) + 2 g(A xi, xi) g(X, A N)`` with
  ``xi alpha = 0`` (both singular normal types have constant Reeb curvature).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AsymmetryError,
    HopfRequiredError,
    ModelValidationError,
    NonTangentError,
    NormalizationError,
    _require_finite,
)
from .tangent import (
    TangentModel,
    UNIT_TOL,
    _as_columns,
    _col_dot,
    adapted_conjugation,
    build_tangent_model,
)

#: Default tolerance for identity residuals (a few hundred flops per term).
IDENTITY_TOL = 1e-11

#: Default tolerance for construction residuals (exact arithmetic expected).
CONSTRUCTION_TOL = 1e-13

#: Relative symmetry slack accepted on caller-supplied operators.
OPERATOR_ASYM_TOL = 1e-8


@dataclass(frozen=True)
class ConjugationSplit:
    """Tangent/normal splitting of the adapted conjugation on the hypersurface.

    ``B`` is the tangential part of ``A`` (as an ambient matrix annihilating
    the normal), ``A_xi`` and ``A_N`` the images of the Reeb direction and of
    the normal, and ``g_axixi = g(A xi, xi)`` the conjugation pairing that
    separates the principal (``-1``), isotropic (``0``) and generic cases.
    """

    B: np.ndarray
    A_xi: np.ndarray
    A_N: np.ndarray
    g_axixi: float

    def rho(self, X: np.ndarray) -> float | np.ndarray:
        """Normal pairing ``rho(X) = g(A X, N) = g(X, A N)``, one value per column."""
        return self.A_N @ np.asarray(X, dtype=float)


@dataclass(frozen=True)
class HypersurfaceData:
    """Pointwise data of a real hypersurface of the quadric.

    Attributes:
        model: ambient tangent-space model.
        N: unit normal.
        xi: Reeb direction ``-J N``.
        phi: structure tensor (tangential part of ``J``, ``phi N = 0``).
        S: shape operator (ambient matrix, annihilates ``N``).
        alpha: Reeb curvature ``g(S xi, xi)``.
        q_xi: gauge scalar of the conjugation derivative in the Reeb direction.
        dalpha: metric dual of the Reeb-curvature differential.
        conj: conjugation adapted to the normal.
        conj_angle: rotation angle from the model conjugation to ``conj``.
        split: tangent/normal splitting of ``conj``.
        projector: orthogonal projection onto the tangent hyperplane.
        frame: orthonormal tangent basis, one vector per column.
        hopf: whether ``S xi = alpha xi`` holds to tolerance.
        warnings: construction notes (e.g. auto-projected shape operator).
    """

    model: TangentModel
    N: np.ndarray
    xi: np.ndarray
    phi: np.ndarray
    S: np.ndarray
    alpha: float
    q_xi: float
    dalpha: np.ndarray
    conj: np.ndarray
    conj_angle: float
    split: ConjugationSplit
    projector: np.ndarray
    frame: np.ndarray
    hopf: bool
    warnings: tuple[str, ...]

    @property
    def tangent_dim(self) -> int:
        return self.model.dim - 1

    def eta(self, X: np.ndarray) -> float | np.ndarray:
        """Contact form ``eta(X) = g(X, xi)``, one value per column."""
        return self.xi @ np.asarray(X, dtype=float)

    def is_tangent(self, X: np.ndarray, tol: float = UNIT_TOL) -> bool:
        """Whether ``X``, or every column of an ``(n, k)`` stack, is tangent.

        A column passes when ``|g(X, N)| <= tol * max(1, |X|)``.
        """
        X = np.asarray(X, dtype=float)
        bound = tol * np.maximum(1.0, np.linalg.norm(X, axis=0))
        return bool(np.all(np.abs(self.N @ X) <= bound))

    def require_tangent(self, *vectors: np.ndarray) -> None:
        """Check every vector, and every column of every stack, for tangency.

        Raises:
            NonFiniteError: if an input has a NaN or infinite entry.
            NonTangentError: if a vector or column has a normal component.
        """
        for X in vectors:
            X = np.asarray(X, dtype=float)
            _require_finite(vector=X)
            if not self.is_tangent(X):
                normal = np.atleast_1d(self.N @ X)
                worst = float(normal[np.argmax(np.abs(normal))])
                raise NonTangentError(f"vector has a normal component (g(X, N) = {worst:.3e})")

    def with_gauge(self, q_xi: float) -> "HypersurfaceData":
        """Copy with a different gauge scalar ``q(xi)``."""
        return replace(self, q_xi=float(q_xi))

    def with_dalpha(self, dalpha: np.ndarray) -> "HypersurfaceData":
        """Copy with a caller-declared Reeb-curvature differential."""
        v = np.asarray(dalpha, dtype=float).copy()
        v.flags.writeable = False
        return replace(self, dalpha=v)


def tangent_frame(N: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to ``N``.

    Columns 2..n of the Householder reflection mapping the first coordinate
    axis onto ``+-N``; stable for any unit ``N``.
    """
    N = np.asarray(N, dtype=float)
    n = N.size
    sign = -1.0 if N[0] >= 0.0 else 1.0
    u = N.copy()
    u[0] -= sign
    H = np.eye(n) - 2.0 * np.outer(u, u) / float(u @ u)
    return H[:, 1:]


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def induce_from_normal(
    model: TangentModel,
    N: np.ndarray,
    S: np.ndarray,
    q_xi: float | None = None,
    dalpha: np.ndarray | None = None,
    xi_alpha: float = 0.0,
    tol: float = CONSTRUCTION_TOL,
) -> HypersurfaceData:
    """Induce the full hypersurface data from a unit normal and shape operator.

    The conjugation is rotated into the member adapted to ``N`` before the
    splitting is computed, so ``g(xi, A N) = 0`` holds for every input.
    A shape operator that does not annihilate the normal is projected onto
    the tangent hyperplane and the fact recorded as a warning.

    Raises:
        NonFiniteError: if any input has a NaN or infinite entry.
        NormalizationError: if ``N`` is not unit length.
        AsymmetryError: if ``S`` is not self-adjoint on the tangent hyperplane.
    """
    N = np.asarray(N, dtype=float).copy()
    S = np.asarray(S, dtype=float)
    _require_finite(normal=N, shape_operator=S, q_xi=q_xi, dalpha=dalpha, xi_alpha=xi_alpha)
    nrm = float(np.linalg.norm(N))
    if abs(nrm - 1.0) > UNIT_TOL:
        raise NormalizationError(f"normal not unit (|N| = {nrm:.12g})")
    if S.shape != (model.dim, model.dim):
        raise ModelValidationError(f"shape operator must be {model.dim}x{model.dim}, got {S.shape}")

    P = np.eye(model.dim) - np.outer(N, N)
    warnings: list[str] = []
    normal_leak = max(float(np.max(np.abs(S @ N))), float(np.max(np.abs(N @ S))))
    if normal_leak > tol:
        S = P @ S @ P
        warnings.append(f"shape operator projected to the tangent space (leak {normal_leak:.3e})")
    else:
        S = S.copy()
    sym_defect = float(np.max(np.abs(P @ (S - S.T) @ P)))
    if sym_defect > max(tol, 1e-12 * max(1.0, float(np.max(np.abs(S))))):
        raise AsymmetryError(sym_defect, "shape operator not self-adjoint on the tangent space")

    xi = -(model.J @ N)
    phi = P @ model.J @ P
    alpha = float(xi @ (S @ xi))

    conj, theta = adapted_conjugation(model, N)
    A_xi = conj @ xi
    A_N = conj @ N
    B = P @ conj @ P
    c = float(A_xi @ xi)
    split = ConjugationSplit(B=B, A_xi=A_xi, A_N=A_N, g_axixi=c)

    # Construction invariants; all exact up to round-off by design.
    checks = {
        "phi xi != 0": float(np.max(np.abs(phi @ xi))),
        "phi^2 + Id - eta (x) xi != 0 on the tangent space": float(
            np.max(np.abs(P @ (phi @ phi + np.eye(model.dim) - np.outer(xi, xi)) @ P))
        ),
        "conjugation split does not reconstruct A": float(
            np.max(np.abs((B + np.outer(N, A_N)) @ P - conj @ P))
        ),
        "g(xi, A N) != 0": abs(float(xi @ A_N)),
    }
    for label, err in checks.items():
        if err > 100 * tol:
            raise ModelValidationError(f"{label} (defect {err:.3e})")

    if q_xi is None:
        q_xi = 2.0 * alpha
    if dalpha is None:
        dalpha_vec = xi_alpha * xi + 2.0 * c * A_N
    else:
        dalpha_vec = np.asarray(dalpha, dtype=float).copy()

    frame = tangent_frame(N)
    hopf = float(np.linalg.norm(S @ xi - alpha * xi)) < IDENTITY_TOL
    _freeze(N, xi, phi, S, conj, A_xi, A_N, B, P, frame, dalpha_vec)
    return HypersurfaceData(
        model=model,
        N=N,
        xi=xi,
        phi=phi,
        S=S,
        alpha=alpha,
        q_xi=float(q_xi),
        dalpha=dalpha_vec,
        conj=conj,
        conj_angle=theta,
        split=split,
        projector=P,
        frame=frame,
        hopf=hopf,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Curvature of the hypersurface
# ---------------------------------------------------------------------------

def induced_curvature(
    h: HypersurfaceData, X: np.ndarray, Y: np.ndarray, Z: np.ndarray
) -> np.ndarray:
    """Curvature ``R(X, Y) Z`` of the hypersurface via the Gauss equation.

    The ambient curvature is rewritten in hypersurface quantities (``phi``,
    the conjugation splitting ``B``/``rho``) and the shape-operator terms of
    the Gauss equation are added back:

        R(X,Y)Z = g(Y,Z) X - g(X,Z) Y + g(JY,Z) phi X - g(JX,Z) phi Y
                  - 2 g(JX,Y) phi Z + g(AY,Z) B X - g(AX,Z) B Y
                  + g(JAY,Z) phi B X - g(JAY,Z) rho(X) xi
                  - g(JAX,Z) phi B Y + g(JAX,Z) rho(Y) xi
                  + g(SY,Z) S X - g(SX,Z) S Y.

    Each argument is a tangent vector ``(n,)`` or a stack of tangent columns
    ``(n, k)``; a stack evaluates the tensor column by column (a vector pairs
    with every column) and returns ``(n, k)``.  All-vector input returns a
    vector.
    """
    h.require_tangent(X, Y, Z)
    (X, Y, Z), batched = _as_columns(X, Y, Z)
    J, A = h.model.J, h.conj
    phi, B, S = h.phi, h.split.B, h.S
    JX, JY = J @ X, J @ Y
    AX, AY = A @ X, A @ Y
    JAX, JAY = J @ AX, J @ AY
    BX, BY = B @ X, B @ Y
    SX, SY = S @ X, S @ Y
    g_JAX_Z, g_JAY_Z = _col_dot(JAX, Z), _col_dot(JAY, Z)
    R = (
        _col_dot(Y, Z) * X
        - _col_dot(X, Z) * Y
        + _col_dot(JY, Z) * (phi @ X)
        - _col_dot(JX, Z) * (phi @ Y)
        - 2.0 * _col_dot(JX, Y) * (phi @ Z)
        + _col_dot(AY, Z) * BX
        - _col_dot(AX, Z) * BY
        + g_JAY_Z * (phi @ BX)
        - g_JAX_Z * (phi @ BY)
        + np.outer(h.xi, g_JAX_Z * h.split.rho(Y) - g_JAY_Z * h.split.rho(X))
        + _col_dot(SY, Z) * SX
        - _col_dot(SX, Z) * SY
    )
    return R if batched else R[:, 0]


def ricci(h: HypersurfaceData, X: np.ndarray) -> np.ndarray:
    """Ricci operator of the hypersurface applied to a tangent vector.

        Ric X = (2m-1) X - 3 eta(X) xi + g(A xi, xi) B X - g(A X, N) phi A xi
                + g(A X, xi) A xi + tr(S) S X - S^2 X.

    ``X`` is a vector ``(n,)`` or a stack of tangent columns ``(n, k)``, and
    the result has the same shape.
    """
    h.require_tangent(X)
    (X,), batched = _as_columns(X)
    m = h.model.m
    A_xi = h.split.A_xi
    SX = h.S @ X
    R = (
        (2 * m - 1) * X
        - 3.0 * np.outer(h.xi, h.eta(X))
        + h.split.g_axixi * (h.split.B @ X)
        - np.outer(h.phi @ A_xi, h.split.rho(X))
        + np.outer(A_xi, A_xi @ X)
        + float(np.trace(h.S)) * SX
        - h.S @ SX
    )
    return R if batched else R[:, 0]


def ricci_contraction(h: HypersurfaceData, X: np.ndarray) -> np.ndarray:
    """Ricci by direct contraction ``sum_i R(X, e_i) e_i`` over a tangent frame.

    Independent route kept deliberately separate from :func:`ricci`; the two
    must agree for consistent data.  ``X`` is one tangent vector; the frame
    is contracted in one call of :func:`induced_curvature` on its columns.

    Raises:
        ValueError: if ``X`` is not a single vector.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 1:
        raise ValueError(f"ricci_contraction takes one vector, got shape {X.shape}")
    return induced_curvature(h, X, h.frame, h.frame).sum(axis=1)


def codazzi_rhs(h: HypersurfaceData, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Geometric side of the Codazzi equation, ``(nabla_X S)Y - (nabla_Y S)X``.

        eta(X) phi Y - eta(Y) phi X - 2 g(JX,Y) xi
        + rho(X) B Y - rho(Y) B X
        + eta(AX) phi B Y - eta(AX) rho(Y) xi
        - eta(AY) phi B X + eta(AY) rho(X) xi.
    """
    h.require_tangent(X, Y)
    phi, B, xi = h.phi, h.split.B, h.xi
    A_xi = h.split.A_xi
    rho_X, rho_Y = h.split.rho(X), h.split.rho(Y)
    eta_AX = float(X @ A_xi)
    eta_AY = float(Y @ A_xi)
    return (
        h.eta(X) * (phi @ Y)
        - h.eta(Y) * (phi @ X)
        - 2.0 * float((h.model.J @ X) @ Y) * xi
        + rho_X * (B @ Y)
        - rho_Y * (B @ X)
        + eta_AX * (phi @ (B @ Y))
        - eta_AX * rho_Y * xi
        - eta_AY * (phi @ (B @ X))
        + eta_AY * rho_X * xi
    )


# ---------------------------------------------------------------------------
# Shape-operator derivative along the Reeb direction
# ---------------------------------------------------------------------------

def _require_hopf(h: HypersurfaceData) -> None:
    if not h.hopf:
        defect = float(np.linalg.norm(h.S @ h.xi - h.alpha * h.xi))
        raise HopfRequiredError(
            f"operation requires Hopf data; |S xi - alpha xi| = {defect:.3e}"
        )


def reeb_shape_derivative(h: HypersurfaceData) -> np.ndarray:
    """Matrix of ``Y -> (nabla_xi S) Y`` for Hopf data.

    Combination of the Codazzi equation evaluated at ``X = xi`` with the
    Hopf relation ``(nabla_Y S) xi = (Y alpha) xi + alpha phi S Y - S phi S Y``:

        (nabla_xi S) Y = (Y alpha) xi + alpha phi S Y - S phi S Y + phi Y
                         - rho(Y) A xi + g(A xi, xi) (phi B Y - rho(Y) xi)
                         - g(Y, A xi) phi A xi.
    """
    _require_hopf(h)
    phi, S, B, xi = h.phi, h.S, h.split.B, h.xi
    A_xi, A_N, c = h.split.A_xi, h.split.A_N, h.split.g_axixi
    phi_A_xi = phi @ A_xi
    G = (
        np.outer(xi, h.dalpha)
        + h.alpha * (phi @ S)
        - S @ phi @ S
        + phi
        - np.outer(A_xi, A_N)
        + c * (phi @ B)
        - c * np.outer(xi, A_N)
        - np.outer(phi_A_xi, A_xi)
    )
    return G @ h.projector


def nabla_S_at_xi(h: HypersurfaceData, Y: np.ndarray) -> np.ndarray:
    """Value ``(nabla_xi S) Y`` for Hopf data (see :func:`reeb_shape_derivative`)."""
    h.require_tangent(Y)
    return reeb_shape_derivative(h) @ np.asarray(Y, dtype=float)


def nabla_Axi(h: HypersurfaceData, X: np.ndarray, q_X: float) -> np.ndarray:
    """Tangential part of the ambient derivative of ``A xi`` along ``X``.

        nabla_X (A xi) = q(X) phi A xi + B phi S X - g(S X, xi) phi A xi.

    The gauge scalar for the direction ``X`` is supplied by the caller.
    """
    h.require_tangent(X)
    phi_A_xi = h.phi @ h.split.A_xi
    SX = h.S @ np.asarray(X, dtype=float)
    return q_X * phi_A_xi + h.split.B @ (h.phi @ SX) - float(SX @ h.xi) * phi_A_xi


# ---------------------------------------------------------------------------
# Structure Jacobi operator and its Reeb derivative
# ---------------------------------------------------------------------------

def structure_jacobi(h: HypersurfaceData) -> np.ndarray:
    """Structure Jacobi operator ``R_xi = R(., xi) xi`` restricted to the tangent space.

        R_xi Y = Y - eta(Y) xi + g(A xi, xi) B Y - g(A xi, Y) A xi
                 - g(phi A xi, Y) phi A xi + alpha S Y - alpha^2 eta(Y) xi.

    Self-adjoint; annihilates ``xi`` for Hopf data.
    """
    xi = h.xi
    A_xi = h.split.A_xi
    phi_A_xi = h.phi @ A_xi
    c = h.split.g_axixi
    M = (
        h.projector
        - np.outer(xi, xi)
        + c * h.split.B
        - np.outer(A_xi, A_xi)
        - np.outer(phi_A_xi, phi_A_xi)
        + h.alpha * h.S
        - h.alpha**2 * np.outer(xi, xi)
    )
    return h.projector @ M @ h.projector


def _cov_deriv_matrix(
    h: HypersurfaceData,
    X: np.ndarray,
    q_X: float,
    nablaS_X: np.ndarray,
    dalpha_X: float,
) -> np.ndarray:
    """Assemble the ambient-valued expansion of ``Y -> (nabla_X R_xi) Y``.

    Term-by-term transcription of the product-rule expansion of the
    structure Jacobi operator, with the derivative of the conjugation
    expressed through the gauge scalar ``q(X)`` and the derivative of the
    tangential conjugation part expanded in hypersurface data.  The caller
    supplies the directional inputs the pointwise data cannot determine:
    ``q(X)``, ``(nabla_X S)`` and ``X alpha``.
    """
    J, A = h.model.J, h.conj
    phi, S, B, xi, N = h.phi, h.S, h.split.B, h.xi, h.N
    A_xi, A_N, c = h.split.A_xi, h.split.A_N, h.split.g_axixi
    alpha = h.alpha
    phi_A_xi = phi @ A_xi

    X = np.asarray(X, dtype=float)
    SX = S @ X
    phiSX = phi @ SX
    BphiSX = B @ phiSX
    qa = q_X - alpha * h.eta(X)
    w = qa * phi_A_xi + BphiSX

    M = -np.outer(xi, phiSX) - np.outer(phiSX, xi)
    M += (float(BphiSX @ xi) + float(A_xi @ phiSX)) * B
    M += c * (
        q_X * (J @ A)
        + np.outer(A_N, SX)
        - q_X * np.outer(N, A_xi)
        + c * np.outer(N, SX)
        + np.outer(SX, A_N)
    )
    M -= np.outer(A_xi, w)
    M -= np.outer(w, A_xi)
    M -= np.outer(phi_A_xi, c * SX - float(SX @ A_xi) * xi)
    M += qa * np.outer(phi_A_xi, A_xi)
    M -= qa * c * np.outer(phi_A_xi, xi)
    M -= np.outer(phi_A_xi, phi @ BphiSX)
    M -= np.outer(c * SX - float(SX @ A_xi) * xi, phi_A_xi)
    M += np.outer(qa * A_xi - c * qa * xi - phi @ BphiSX, phi_A_xi)
    M += dalpha_X * S + alpha * nablaS_X
    M -= 2.0 * alpha * dalpha_X * np.outer(xi, xi)
    M -= alpha**2 * np.outer(xi, phiSX)
    M -= alpha**2 * np.outer(phiSX, xi)
    return M @ h.projector


def cov_deriv_structure_jacobi(
    h: HypersurfaceData,
    X: np.ndarray,
    q_X: float,
    nablaS_X: np.ndarray,
    dalpha_X: float,
) -> np.ndarray:
    """Covariant derivative ``Y -> (nabla_X R_xi) Y`` as an ambient-valued matrix.

    For Hopf data and ``X = xi`` the normal component of the output cancels
    identically.  The caller supplies the directional data ``q(X)``,
    ``nabla_X S`` (self-adjoint on the tangent space) and ``X alpha``; there
    is no pointwise closed form for these in an arbitrary direction.

    Raises:
        NonTangentError: if ``X`` is not tangent.
        AsymmetryError: if ``nablaS_X`` is not self-adjoint on the tangent space.
    """
    h.require_tangent(X)
    nablaS_X = np.asarray(nablaS_X, dtype=float)
    P = h.projector
    restricted = P @ nablaS_X @ P
    defect = float(np.max(np.abs(restricted - restricted.T)))
    scale = max(1.0, float(np.max(np.abs(restricted))))
    if defect > OPERATOR_ASYM_TOL * scale:
        raise AsymmetryError(defect, "nabla_X S must be self-adjoint on the tangent space")
    return _cov_deriv_matrix(h, X, q_X, nablaS_X, dalpha_X)


def reeb_covariant_derivative(h: HypersurfaceData) -> np.ndarray:
    """Matrix of ``Y -> (nabla_xi R_xi) Y`` for Hopf data.

    Uses the Codazzi-derived value of ``nabla_xi S`` and the stored gauge
    ``q(xi)`` and ``xi alpha``.
    """
    _require_hopf(h)
    G = reeb_shape_derivative(h)
    return _cov_deriv_matrix(h, h.xi, h.q_xi, G, float(h.xi @ h.dalpha))


def reeb_derivative_reduced(h: HypersurfaceData) -> np.ndarray:
    """Closed form of ``(nabla_xi R_xi)`` for Hopf data.

    The full expansion collapses at ``X = xi`` to

        g(A xi, xi) { q(xi) J A Y + alpha eta(Y) A N - q(xi) g(A Y, xi) N }
        + g(A xi, xi) { alpha eta(Y) g(A xi, xi) N + alpha g(A N, Y) xi }
        - (q(xi) - alpha) g(A xi, xi) eta(Y) phi A xi
        - g(phi A xi, Y) g(A xi, xi) (q(xi) - alpha) xi
        + (xi alpha) S Y + alpha (nabla_xi S) Y - 2 alpha (xi alpha) eta(Y) xi.

    Must agree with :func:`reeb_covariant_derivative` for every Hopf input.
    """
    _require_hopf(h)
    J, A = h.model.J, h.conj
    xi, N = h.xi, h.N
    A_xi, A_N, c = h.split.A_xi, h.split.A_N, h.split.g_axixi
    alpha, q = h.alpha, h.q_xi
    xi_alpha = float(xi @ h.dalpha)
    phi_A_xi = h.phi @ A_xi
    G = reeb_shape_derivative(h)
    M = c * (
        q * (J @ A)
        + alpha * np.outer(A_N, xi)
        - q * np.outer(N, A_xi)
        + alpha * c * np.outer(N, xi)
        + alpha * np.outer(xi, A_N)
    )
    M -= (q - alpha) * c * np.outer(phi_A_xi, xi)
    M -= c * (q - alpha) * np.outer(xi, phi_A_xi)
    M += xi_alpha * h.S + alpha * G - 2.0 * alpha * xi_alpha * np.outer(xi, xi)
    return M @ h.projector


# ---------------------------------------------------------------------------
# Residual gauges
# ---------------------------------------------------------------------------

def _frame_max_norm(M: np.ndarray, frame: np.ndarray) -> float:
    """Largest image norm of ``M`` over the columns of an orthonormal frame."""
    return float(np.max(np.linalg.norm(M @ frame, axis=0)))


def reeb_parallel_residual(h: HypersurfaceData) -> float:
    """How far the structure Jacobi operator is from Reeb parallel.

    ``max_i | (nabla_xi R_xi) Y_i |`` over the orthonormal tangent frame.
    Zero characterizes a Reeb-parallel structure Jacobi operator.
    """
    return _frame_max_norm(reeb_covariant_derivative(h), h.frame)


def shape_commutator_scale(h: HypersurfaceData) -> float:
    """``max_i | (phi S - S phi) Y_i |`` over the tangent frame.

    Vanishes exactly when the Reeb flow is isometric.
    """
    comm = h.phi @ h.S - h.S @ h.phi
    return _frame_max_norm(comm, h.frame)


def reeb_shape_residual(h: HypersurfaceData) -> float:
    """``max_i | (nabla_xi S) Y_i |``; zero iff the shape operator is Reeb parallel."""
    return _frame_max_norm(reeb_shape_derivative(h), h.frame)


def normal_component_residual(h: HypersurfaceData) -> float:
    """Largest normal component of ``(nabla_xi R_xi)`` over the tangent frame.

    Cancels identically for Hopf data.
    """
    M = reeb_covariant_derivative(h)
    return float(np.max(np.abs(h.N @ M @ h.frame)))


def hopf_identity_residual(h: HypersurfaceData) -> float:
    """Residual of the quadratic Hopf identity tying ``S phi S`` to the conjugation.

    The identity (a consequence of the Codazzi equation for Hopf data) reads

        2 g(S phi S X, Y) - alpha g((phi S + S phi) X, Y) - 2 g(phi X, Y)
        + g(X, AN) g(Y, A xi) - g(Y, AN) g(X, A xi)
        - g(X, A xi) g(JY, A xi) + g(Y, A xi) g(JX, A xi)
        - 2 g(X, AN) g(A xi, xi) eta(Y) + 2 g(Y, AN) g(A xi, xi) eta(X) = 0.

    Returns the largest absolute value over all tangent frame pairs.
    """
    _require_hopf(h)
    phi, S, xi = h.phi, h.S, h.xi
    A_xi, A_N, c = h.split.A_xi, h.split.A_N, h.split.g_axixi
    J_A_xi = h.model.J @ A_xi
    M = (
        2.0 * (S @ phi @ S)
        - h.alpha * (phi @ S + S @ phi)
        - 2.0 * phi
        + np.outer(A_xi, A_N)
        - np.outer(A_N, A_xi)
        + np.outer(J_A_xi, A_xi)
        - np.outer(A_xi, J_A_xi)
        - 2.0 * c * np.outer(xi, A_N)
        + 2.0 * c * np.outer(A_N, xi)
    )
    restricted = h.frame.T @ M @ h.frame
    return float(np.max(np.abs(restricted)))


def alpha_gradient_residual(h: HypersurfaceData) -> float:
    """Deviation of the declared ``dalpha`` from the closed Hopf form.

        X alpha = (xi alpha) eta(X) + 2 g(A xi, xi) g(X, A N).

    ``xi alpha`` is read off the declared differential, so the residual
    measures the components transverse to the Reeb direction.
    """
    _require_hopf(h)
    xi_alpha = float(h.xi @ h.dalpha)
    v = h.dalpha - xi_alpha * h.xi - 2.0 * h.split.g_axixi * h.split.A_N
    return float(np.max(np.abs(v @ h.frame)))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def to_dict(h: HypersurfaceData) -> dict:
    """JSON-ready payload ``{m, N, S, alpha, q_xi}`` (row-major ``S``)."""
    return {
        "m": h.model.m,
        "N": [float(x) for x in h.N],
        "S": [[float(x) for x in row] for row in h.S],
        "alpha": h.alpha,
        "q_xi": h.q_xi,
    }


def from_dict(payload: dict) -> HypersurfaceData:
    """Rebuild hypersurface data from its JSON payload.

    The Reeb curvature is recomputed from the shape operator and cross
    checked against the stored value.

    Raises:
        ModelValidationError: on malformed payloads (including a non-integer
            ``m`` and numbers beyond the float range), a non-unit normal, or a
            Reeb-curvature mismatch.
        NonFiniteError: if a numeric field has a NaN or infinite entry.
    """
    try:
        m = int(payload["m"])
        N = np.asarray(payload["N"], dtype=float)
        S = np.asarray(payload["S"], dtype=float)
        scalars = {
            key: float(payload[key]) for key in ("alpha", "q_xi") if payload.get(key) is not None
        }
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelValidationError(f"malformed hypersurface payload: {exc}") from exc
    if m != payload["m"]:
        raise ModelValidationError(f"complex dimension must be an integer, got {payload['m']!r}")
    _require_finite(N=N, S=S, **scalars)

    model = build_tangent_model(m)
    if N.shape != (model.dim,):
        raise ModelValidationError(f"normal must have length {model.dim}, got shape {N.shape}")
    if S.shape != (model.dim, model.dim):
        raise ModelValidationError(f"shape operator must be {model.dim}x{model.dim}, got {S.shape}")
    nrm = float(np.linalg.norm(N))
    if abs(nrm - 1.0) > UNIT_TOL:
        raise ModelValidationError(f"normal not unit (|N| = {nrm:.12g})")

    h = induce_from_normal(model, N, S, q_xi=scalars.get("q_xi"))
    if "alpha" in scalars:
        declared = scalars["alpha"]
        if abs(declared - h.alpha) > 1e-8 * max(1.0, abs(h.alpha)):
            raise ModelValidationError(
                f"stored Reeb curvature {declared:.12g} does not match recomputed {h.alpha:.12g}"
            )
    return h
