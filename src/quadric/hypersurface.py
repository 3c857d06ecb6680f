"""Pointwise calculus of a real hypersurface in the quadric.

A unit normal ``N`` induces the almost-contact structure on the tangent
hyperplane: the Reeb direction ``xi = -J N``, its dual 1-form ``eta``, and
the structure tensor ``phi`` (tangential part of ``J``).  Together with a
self-adjoint shape operator ``S`` this fixes every pointwise identity of the
geometry: the induced curvature via the Gauss equation, the Ricci operator,
the structure Jacobi operator ``R_xi = R(., xi) xi`` and its covariant
derivative along the Reeb direction.

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
* the Reeb-curvature differential ``dalpha`` is built as the closed Hopf
  form ``X alpha = (xi alpha) eta(X) + 2 g(A xi, xi) g(X, A N)`` with
  ``xi alpha = 0`` (both singular normal types have constant Reeb
  curvature); :meth:`HypersurfaceData.with_dalpha` declares any other;
* vector arguments follow the one rule of
  :func:`~quadric.tangent._as_columns`: a vector ``(n,)`` or a column
  stack ``(n, k)``, nothing else;
* the tangent frame ``h.frame`` is columns 2..n of a Householder
  reflection, and the residual gauges apply it as one, in O(n^2), instead
  of forming the dense frame; ``_max_column_norm`` gauges every frame
  image, and ``h.frame.T @ M @ h.frame`` is the dense reference;
* ``h.phi_S``, ``h.S_phi``, ``h.S_phi_S``, ``h.frame``, the two Reeb
  derivatives and the reflection behind ``h.frame`` are formed on first
  read and kept read-only; no command reads ``h.frame``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain

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

#: Growth of the construction bounds per unit of ``| |N| - 1 |``.  A normal
#: off unit length by ``d`` (at most ``UNIT_TOL``) moves each construction
#: invariant by up to about ``2 d`` (``phi xi = -2 d N`` to first order).
LENGTH_DEFECT_FACTOR = 4.0


def _derived(build) -> cached_property:
    """Attribute ``build(h)``, formed on first read and kept read-only."""

    def get(h: HypersurfaceData) -> np.ndarray:
        value = build(h)
        value.flags.writeable = False
        return value

    return cached_property(get)


@dataclass(frozen=True, eq=False)
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
        dalpha: metric dual of the Reeb-curvature differential: the closed
            Hopf form with ``xi alpha = 0`` unless declared by :meth:`with_dalpha`.
        conj: conjugation adapted to the normal.
        B: tangential part of ``conj``: ``conj X = B X + rho(X) N`` on tangent ``X``.
        A_xi, A_N: images ``A xi`` and ``A N`` under ``conj``.
        g_axixi: ``g(A xi, xi)``; -1 for a principal and 0 for an isotropic normal.
        projector: orthogonal projection onto the tangent hyperplane.
        hopf_defect: measured ``|S xi - alpha xi|``.
        warnings: construction notes (e.g. auto-projected shape operator).

    Derived attributes, formed on first read and kept read-only:
        phi_S, S_phi, S_phi_S: ``phi S``, ``S phi`` and ``S phi S`` (``S @ phi_S``).
        frame: orthonormal tangent basis, one vector per column.

    The reflection behind ``frame`` and the two Reeb derivatives (read by
    :func:`reeb_shape_derivative` and :func:`reeb_covariant_derivative`)
    are kept the same way, privately.  None is an init field, so copies
    made by :meth:`with_gauge` and :meth:`with_dalpha` compute their own.
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
    B: np.ndarray
    A_xi: np.ndarray
    A_N: np.ndarray
    g_axixi: float
    projector: np.ndarray
    hopf_defect: float
    warnings: tuple[str, ...]

    phi_S = _derived(lambda h: h.phi @ h.S)
    S_phi = _derived(lambda h: h.S @ h.phi)
    S_phi_S = _derived(lambda h: h.S @ h.phi_S)
    frame = _derived(lambda h: _frame(h._reflection[0]))
    _reflection = _derived(lambda h: _reflector(h.N))
    _reeb_shape = _derived(lambda h: _reeb_shape_matrix(h))
    _reeb_covariant = _derived(lambda h: _reeb_covariant_matrix(h))

    @property
    def hopf(self) -> bool:
        """Whether ``S xi = alpha xi`` holds to ``IDENTITY_TOL``."""
        return self.hopf_defect < IDENTITY_TOL

    def eta(self, X: np.ndarray) -> float | np.ndarray:
        """Contact form ``eta(X) = g(X, xi)``, one value per vector."""
        return _pairing(self.xi, X)

    def rho(self, X: np.ndarray) -> float | np.ndarray:
        """Normal pairing ``rho(X) = g(A X, N) = g(X, A N)``, one value per vector."""
        return _pairing(self.A_N, X)

    def require_tangent(self, *vectors: np.ndarray) -> None:
        """Check every vector, and every column of every stack, for tangency.

        Vectors and stacks follow :func:`~quadric.tangent._as_columns`.  A
        vector passes when ``|g(X, N)| <= UNIT_TOL * max(1, |X|)``.

        Raises:
            ValueError: if an input is neither ``(n,)`` nor ``(n, k)``.
            NonFiniteError: if an input has a NaN or infinite entry.
            NonTangentError: if a vector or column has a normal component.
        """
        for X in _as_columns(*vectors)[0]:
            _require_finite(vector=X)
            bound = UNIT_TOL * np.maximum(1.0, np.linalg.norm(X, axis=0))
            normal = self.N @ X
            if not (np.abs(normal) <= bound).all():
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


def _pairing(v: np.ndarray, X: np.ndarray) -> float | np.ndarray:
    """``g(v, X)``: a scalar for a vector, one value per column of a stack."""
    (X,), batched = _as_columns(X)
    return v @ X if batched else (v @ X)[0]


def _reflector(N: np.ndarray) -> np.ndarray:
    """Rows ``u`` and ``beta u`` of the Householder reflection ``I - beta u u^T``
    whose columns 2..n are ``h.frame``: ``u = N + e_1`` if ``N_1 >= 0``, else
    ``N - e_1``, so it maps the first axis onto ``+-N`` for any unit ``N``."""
    u = N.copy()
    u[0] -= -1.0 if N[0] >= 0.0 else 1.0
    return np.array([u, (2.0 / float(u @ u)) * u])


def _frame(u: np.ndarray) -> np.ndarray:
    """Columns 2..n of ``I - 2 u u^T / (u^T u)``, the tangent frame ``h.frame``."""
    return (np.eye(u.size) - np.outer(u, u) * 2.0 / float(u @ u))[:, 1:]


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def _project(M: np.ndarray, N: np.ndarray, left: bool = True) -> np.ndarray:
    """``P M P`` (or ``M P`` with ``left=False``) for ``P = I - N N^T``, in O(n^2).

    The projection is a rank-one update, so it is applied as one:
    ``P M P = M - N (N^T M) - (M N - (N^T M N) N) N^T`` and
    ``M P = M - (M N) N^T``.  ``N`` must be a unit vector.  The result is a
    new array; ``M`` is left as it is.
    """
    MN = M @ N
    if not left:
        return M - np.outer(MN, N)
    NM = N @ M
    return M - _rank_sum((N, NM), (MN - float(N @ MN) * N, N))


def _rank_sum(*pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``sum_j outer(l_j, r_j)`` over ``(l_j, r_j)`` pairs, as one product ``L R^T``.

    ``L`` is copied into C order: the transposed view ``np.array(lefts).T``
    is F-ordered, and BLAS takes an F-ordered ``L`` through another code
    path whose sums round differently (it moved a ``classify`` residual of
    a rotated tube).  In C order the product has the bits of
    ``np.stack(lefts, axis=1) @ np.stack(rights)``.
    """
    lefts, rights = zip(*pairs)
    return np.ascontiguousarray(np.array(lefts).T) @ np.array(rights)


def induce_from_normal(
    model: TangentModel,
    N: np.ndarray,
    S: np.ndarray,
    q_xi: float | None = None,
) -> HypersurfaceData:
    """Induce the full hypersurface data from a unit normal and shape operator.

    The conjugation is rotated into the member adapted to ``N`` before the
    splitting is computed, so ``g(xi, A N) = 0`` holds for every input.
    A shape operator that does not annihilate the normal is projected onto
    the tangent hyperplane and the fact recorded as a warning.

    Raises:
        NonFiniteError: if any input has a NaN or infinite entry.
        ModelValidationError: if ``N`` or ``S`` has the wrong shape, or a
            construction invariant fails; they are checked on a model that
            is not :attr:`~quadric.tangent.TangentModel.exact`.
        NormalizationError: if ``|N|`` is off 1 by more than ``UNIT_TOL``;
            ``N`` is not normalised, and the construction bounds grow with
            its length defect (``LENGTH_DEFECT_FACTOR``).
        AsymmetryError: if ``S`` is not self-adjoint on the tangent hyperplane.
    """
    N = np.asarray(N, dtype=float).copy()
    S = np.asarray(S, dtype=float)
    _require_finite(N=N, S=S, q_xi=q_xi)
    if N.shape != (model.dim,):
        raise ModelValidationError(f"normal must have length {model.dim}, got shape {N.shape}")
    nrm = float(np.linalg.norm(N))
    length_defect = abs(nrm - 1.0)
    if length_defect > UNIT_TOL:
        raise NormalizationError(f"normal not unit (|N| = {nrm:.12g})")
    if S.shape != (model.dim, model.dim):
        raise ModelValidationError(f"shape operator must be {model.dim}x{model.dim}, got {S.shape}")

    P = np.eye(model.dim) - np.outer(N, N)
    warnings: list[str] = []
    normal_leak = max(float(np.abs(S @ N).max()), float(np.abs(N @ S).max()))
    if normal_leak > CONSTRUCTION_TOL:
        S = _project(S, N)
        warnings.append(f"shape operator projected to the tangent space (leak {normal_leak:.3e})")
    else:
        S = S.copy()
    sym_defect = float(np.abs(_project(S - S.T, N)).max())
    if sym_defect > max(CONSTRUCTION_TOL, 1e-12 * max(1.0, float(np.abs(S).max()))):
        raise AsymmetryError(sym_defect, "shape operator not self-adjoint on the tangent space")

    xi = -(model.J @ N)
    phi = _project(model.J, N)
    S_xi = S @ xi
    alpha = float(xi @ S_xi)

    conj = adapted_conjugation(model, N)
    A_xi = conj @ xi
    A_N = conj @ N
    B = _project(conj, N)
    c = float(A_xi @ xi)

    # Construction invariants; all exact up to round-off by design, and up to
    # a small multiple of the length defect of N, which UNIT_TOL admits.
    # phi = P J P maps into the tangent space, so phi^2 + P - xi xi^T is
    # phi^2 + Id - eta (x) xi on it.  On an exact model (TangentModel.exact)
    # each defect is rounding plus O(length_defect), inside the bound, so
    # only other models are checked at every normal.
    if not model.exact:
        checks = {
            "phi xi != 0": float(np.abs(phi @ xi).max()),
            "phi^2 + Id - eta (x) xi != 0 on the tangent space": float(
                np.abs(phi @ phi + P - np.outer(xi, xi)).max()
            ),
            "conjugation split does not reconstruct A": float(
                np.abs(_project(B - conj + np.outer(N, A_N), N, left=False)).max()
            ),
            "g(xi, A N) != 0": abs(float(xi @ A_N)),
        }
        bound = 100 * CONSTRUCTION_TOL + LENGTH_DEFECT_FACTOR * length_defect
        for label, err in checks.items():
            if err > bound:
                raise ModelValidationError(f"{label} (defect {err:.3e})")

    if q_xi is None:
        q_xi = 2.0 * alpha
    dalpha = 2.0 * c * A_N

    _freeze(N, xi, phi, S, conj, A_xi, A_N, B, P, dalpha)
    return HypersurfaceData(
        model=model,
        N=N,
        xi=xi,
        phi=phi,
        S=S,
        alpha=alpha,
        q_xi=float(q_xi),
        dalpha=dalpha,
        conj=conj,
        B=B,
        A_xi=A_xi,
        A_N=A_N,
        g_axixi=c,
        projector=P,
        hopf_defect=float(np.linalg.norm(S_xi - alpha * xi)),
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Curvature of the hypersurface
# ---------------------------------------------------------------------------

def _gauss_terms(h: HypersurfaceData) -> list[tuple[np.ndarray, np.ndarray]]:
    """The operator pairs ``(P, Q)`` of the Gauss equation.

    With them the curvature of the hypersurface reads

        R(X,Y)Z = sum_(P,Q) [g(PY,Z) QX - g(PX,Z) QY] - 2 g(JX,Y) phi Z,

    the ambient curvature rewritten in hypersurface quantities (``phi``, the
    conjugation splitting ``B``/``rho``) plus the shape-operator term.
    """
    J, A = h.model.J, h.conj
    JA = J @ A
    eye = np.eye(h.model.dim)
    return [
        (eye, eye),
        (J, h.phi),
        (A, h.B),
        (JA, h.phi @ h.B),
        (JA, -np.outer(h.xi, h.A_N)),
        (h.S, h.S),
    ]


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

    It is evaluated as the sum over the operator pairs of
    :func:`_gauss_terms`, ``g(PY,Z) QX - g(PX,Z) QY`` for each pair, plus
    ``-2 g(JX,Y) phi Z``.

    Each argument is a tangent vector or a column stack of tangent vectors
    under :func:`~quadric.tangent._as_columns`; stacks evaluate column by
    column and return ``(n, k)``, and all-vector input returns a vector.
    """
    (X, Y, Z), batched = _as_columns(X, Y, Z)
    h.require_tangent(X, Y, Z)
    R = -2.0 * _col_dot(h.model.J @ X, Y) * (h.phi @ Z)
    for P, Q in _gauss_terms(h):
        R += _col_dot(P @ Y, Z) * (Q @ X)
        R -= _col_dot(P @ X, Z) * (Q @ Y)
    return R if batched else R[:, 0]


def ricci(h: HypersurfaceData, X: np.ndarray) -> np.ndarray:
    """Ricci operator of the hypersurface applied to a tangent vector.

        Ric X = (2m-1) X - 3 eta(X) xi + g(A xi, xi) B X - g(A X, N) phi A xi
                + g(A X, xi) A xi + tr(S) S X - S^2 X.

    ``X`` is a tangent vector or column stack under
    :func:`~quadric.tangent._as_columns`, and the result has its shape.
    """
    (X,), batched = _as_columns(X)
    h.require_tangent(X)
    m = h.model.m
    A_xi = h.A_xi
    SX = h.S @ X
    R = (
        (2 * m - 1) * X
        - 3.0 * np.outer(h.xi, h.eta(X))
        + h.g_axixi * (h.B @ X)
        - np.outer(h.phi @ A_xi, h.rho(X))
        + np.outer(A_xi, A_xi @ X)
        + float(np.trace(h.S)) * SX
        - h.S @ SX
    )
    return R if batched else R[:, 0]


def ricci_contraction(h: HypersurfaceData, X: np.ndarray) -> np.ndarray:
    """Ricci by direct contraction ``sum_i R(X, e_i) e_i`` over a tangent frame.

    Independent route kept deliberately separate from :func:`ricci`; the two
    must agree for consistent data.  ``X`` is a tangent vector or column
    stack under :func:`~quadric.tangent._as_columns`, and the result has its
    shape.  The index sum is done on the operator pairs of
    :func:`_gauss_terms`: for any orthonormal tangent frame ``E``,
    ``E E^T`` is the tangent projection ``Pi = h.projector``, so
    ``sum_i g(P e_i, e_i) = tr(E^T P E) = tr(P Pi)`` and
    ``sum_i g(PX, e_i) Q e_i = Q Pi P X``, and

        Ric = sum_(P,Q) [tr(P Pi) Q - Q Pi P] - 2 phi Pi J,

    about 20 ``n x n`` products, applied to ``X`` in one more.
    """
    (X,), batched = _as_columns(X)
    h.require_tangent(X)
    Pi = h.projector
    Ric = -2.0 * (h.phi @ (Pi @ h.model.J))
    for P, Q in _gauss_terms(h):
        Ric += float(np.vdot(Pi, P)) * Q  # tr(P Pi), Pi symmetric
        Ric -= Q @ (Pi @ P)
    R = Ric @ X
    return R if batched else R[:, 0]


# ---------------------------------------------------------------------------
# Shape-operator derivative along the Reeb direction
# ---------------------------------------------------------------------------

def _require_hopf(h: HypersurfaceData) -> None:
    if not h.hopf:
        raise HopfRequiredError(
            f"operation requires Hopf data; |S xi - alpha xi| = {h.hopf_defect:.3e}"
        )


def reeb_shape_derivative(h: HypersurfaceData) -> np.ndarray:
    """Matrix of ``Y -> (nabla_xi S) Y`` for Hopf data.

    Combination of the Codazzi equation evaluated at ``X = xi`` with the
    Hopf relation ``(nabla_Y S) xi = (Y alpha) xi + alpha phi S Y - S phi S Y``:

        (nabla_xi S) Y = (Y alpha) xi + alpha phi S Y - S phi S Y + phi Y
                         - rho(Y) A xi + g(A xi, xi) (phi B Y - rho(Y) xi)
                         - g(Y, A xi) phi A xi.

    Computed once per instance; every call returns the same read-only array.
    """
    _require_hopf(h)
    return h._reeb_shape


def _reeb_shape_matrix(h: HypersurfaceData) -> np.ndarray:
    phi, xi = h.phi, h.xi
    A_xi, A_N, c = h.A_xi, h.A_N, h.g_axixi
    G = h.alpha * h.phi_S - h.S_phi_S + phi
    if c:  # exactly 0 for an isotropic normal, where the term adds only zeros
        G += c * (phi @ h.B)
    G += _rank_sum(
        (xi, h.dalpha),
        (-A_xi, A_N),
        (-c * xi, A_N),
        (-(phi @ A_xi), A_xi),
    )
    return _project(G, h.N, left=False)


# ---------------------------------------------------------------------------
# Structure Jacobi operator and its Reeb derivative
# ---------------------------------------------------------------------------

def structure_jacobi(h: HypersurfaceData) -> np.ndarray:
    """Structure Jacobi operator ``R_xi = R(., xi) xi`` restricted to the tangent space.

        R_xi Y = Y - eta(Y) xi + g(A xi, xi) B Y - g(A xi, Y) A xi
                 - g(phi A xi, Y) phi A xi + alpha S Y - alpha^2 eta(Y) xi.

    Self-adjoint; annihilates ``xi`` for Hopf data.
    """
    xi, A_xi, c = h.xi, h.A_xi, h.g_axixi
    phi_A_xi = h.phi @ A_xi
    M = h.projector
    if c:  # exactly 0 for an isotropic normal, where the term adds only zeros
        M = M + c * h.B
    M = (
        M
        + h.alpha * h.S
        + _rank_sum(
            (-xi, xi),
            (-A_xi, A_xi),
            (-phi_A_xi, phi_A_xi),
            (-h.alpha**2 * xi, xi),
        )
    )
    return _project(M, h.N)


def _reeb_covariant_matrix(h: HypersurfaceData) -> np.ndarray:
    """Assemble the ambient-valued expansion of ``Y -> (nabla_X R_xi) Y`` at ``X = xi``.

    Term-by-term transcription of the product-rule expansion of the
    structure Jacobi operator, with the derivative of the conjugation
    expressed through the gauge scalar ``q(X)`` and the derivative of the
    tangential conjugation part expanded in hypersurface data.  It reads
    the directional inputs that the pointwise data cannot determine in an
    arbitrary direction from ``h``, for ``X = xi``: the stored gauge
    ``q(xi)``, ``nabla_xi S`` from :func:`reeb_shape_derivative` and
    ``xi alpha`` from the declared ``dalpha``.  The expansion is not reduced
    at ``X = xi``, so it stays a route to ``nabla_xi R_xi`` independent of
    :func:`reeb_derivative_reduced`.  Each rank-one term is one
    ``(left, right)`` pair of the sum.
    """
    phi, S, B, xi, N = h.phi, h.S, h.B, h.xi, h.N
    A_xi, A_N, c = h.A_xi, h.A_N, h.g_axixi
    alpha = h.alpha
    phi_A_xi = phi @ A_xi

    X, q_X = xi, h.q_xi
    nablaS_X = reeb_shape_derivative(h)
    dalpha_X = float(xi @ h.dalpha)
    SX = S @ X
    phiSX = phi @ SX
    BphiSX = B @ phiSX
    phiBphiSX = phi @ BphiSX
    qa = q_X - alpha * h.eta(X)
    w = qa * phi_A_xi + BphiSX
    u = c * SX - float(SX @ A_xi) * xi

    M = (float(BphiSX @ xi) + float(A_xi @ phiSX)) * B
    if c:  # exactly 0 for an isotropic normal, where the term adds only zeros
        M += c * q_X * (h.model.J @ h.conj)
    M += dalpha_X * S + alpha * nablaS_X
    M += _rank_sum(
        (-xi, phiSX),
        (-phiSX, xi),
        (c * A_N, SX),
        (-c * q_X * N, A_xi),
        (c * c * N, SX),
        (c * SX, A_N),
        (-A_xi, w),
        (-w, A_xi),
        (-phi_A_xi, u),
        (qa * phi_A_xi, A_xi),
        (-qa * c * phi_A_xi, xi),
        (-phi_A_xi, phiBphiSX),
        (-u, phi_A_xi),
        (qa * A_xi - c * qa * xi - phiBphiSX, phi_A_xi),
        (-2.0 * alpha * dalpha_X * xi, xi),
        (-alpha**2 * xi, phiSX),
        (-alpha**2 * phiSX, xi),
    )
    return _project(M, N, left=False)


def reeb_covariant_derivative(h: HypersurfaceData) -> np.ndarray:
    """Matrix of ``Y -> (nabla_xi R_xi) Y`` for Hopf data.

    Uses the Codazzi-derived value of ``nabla_xi S`` and the stored gauge
    ``q(xi)`` and ``xi alpha``.  Computed once per instance; every call
    returns the same read-only array.
    """
    _require_hopf(h)
    return h._reeb_covariant


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
    xi, N = h.xi, h.N
    A_xi, A_N, c = h.A_xi, h.A_N, h.g_axixi
    alpha, q = h.alpha, h.q_xi
    xi_alpha = float(xi @ h.dalpha)
    phi_A_xi = h.phi @ A_xi
    G = reeb_shape_derivative(h)
    M = xi_alpha * h.S
    if c:  # exactly 0 for an isotropic normal, where the term adds only zeros
        M += c * q * (h.model.J @ h.conj)
    M += alpha * G
    M += _rank_sum(
        (c * alpha * A_N, xi),
        (-c * q * N, A_xi),
        (c * alpha * c * N, xi),
        (c * alpha * xi, A_N),
        (-(q - alpha) * c * phi_A_xi, xi),
        (-c * (q - alpha) * xi, phi_A_xi),
        (-2.0 * alpha * xi_alpha * xi, xi),
    )
    return _project(M, N, left=False)


# ---------------------------------------------------------------------------
# Residual gauges
# ---------------------------------------------------------------------------

def _max_column_norm(K: np.ndarray) -> float:
    """Largest column norm of ``K``: for ``K = M @ frame``, the largest image norm of ``M``."""
    return float(np.linalg.norm(K, axis=0).max())


def _times_frame(h: HypersurfaceData, M: np.ndarray) -> np.ndarray:
    """``M @ h.frame`` in O(n^2), for a matrix or a row vector ``M``.

    The frame is columns 2..n of ``H = I - beta u u^T`` (:func:`_reflector`),
    so ``M H[:, 1:] = M[..., 1:] - (M beta u) u[1:]^T``.
    """
    u, beta_u = h._reflection
    return M[..., 1:] - np.multiply.outer(M @ beta_u, u[1:])


def _in_frame(h: HypersurfaceData, M: np.ndarray) -> np.ndarray:
    """``h.frame.T @ M @ h.frame`` in O(n^2), by :func:`_times_frame`
    and the same rank-one update on the left."""
    u, beta_u = h._reflection
    K = _times_frame(h, M)
    return K[1:] - np.multiply.outer(beta_u[1:], u @ K)


def reeb_parallel_residual(h: HypersurfaceData) -> float:
    """How far the structure Jacobi operator is from Reeb parallel.

    ``max_i | (nabla_xi R_xi) Y_i |`` over the orthonormal tangent frame.
    Zero characterizes a Reeb-parallel structure Jacobi operator.
    """
    return _max_column_norm(_times_frame(h, reeb_covariant_derivative(h)))


def reeb_shape_residual(h: HypersurfaceData) -> float:
    """``max_i | (nabla_xi S) Y_i |``; zero iff the shape operator is Reeb parallel."""
    return _max_column_norm(_times_frame(h, reeb_shape_derivative(h)))


def normal_component_residual(h: HypersurfaceData) -> float:
    """Largest normal component of ``(nabla_xi R_xi)`` over the tangent frame.

    Cancels identically for Hopf data.
    """
    M = reeb_covariant_derivative(h)
    return float(np.abs(_times_frame(h, h.N @ M)).max())


def _hopf_identity_matrix(h: HypersurfaceData) -> np.ndarray:
    """Operator of the quadratic Hopf identity of :func:`hopf_identity_residual`."""
    xi = h.xi
    A_xi, A_N, c = h.A_xi, h.A_N, h.g_axixi
    J_A_xi = h.model.J @ A_xi
    return (
        2.0 * h.S_phi_S
        - h.alpha * (h.phi_S + h.S_phi)
        - 2.0 * h.phi
        + _rank_sum(
            (A_xi, A_N),
            (-A_N, A_xi),
            (J_A_xi, A_xi),
            (-A_xi, J_A_xi),
            (-2.0 * c * xi, A_N),
            (2.0 * c * A_N, xi),
        )
    )


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
    return float(np.abs(_in_frame(h, _hopf_identity_matrix(h))).max())


def alpha_gradient_residual(h: HypersurfaceData) -> float:
    """Deviation of the declared ``dalpha`` from the closed Hopf form.

        X alpha = (xi alpha) eta(X) + 2 g(A xi, xi) g(X, A N).

    ``xi alpha`` is read off the declared differential, so the residual
    measures the components transverse to the Reeb direction.
    """
    _require_hopf(h)
    xi_alpha = float(h.xi @ h.dalpha)
    v = h.dalpha - xi_alpha * h.xi - 2.0 * h.g_axixi * h.A_N
    return float(np.abs(_times_frame(h, v)).max())


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
            ``m``, an entry of ``N``, ``S``, ``alpha`` or ``q_xi`` that is not
            a JSON number, ``null`` among them in ``N`` and ``S`` (a ``null``
            ``alpha`` or ``q_xi`` counts as absent), numbers beyond the float
            range and arrays of the wrong shape), a Reeb-curvature mismatch,
            or a gauge ``q_xi`` that differs from ``2 alpha`` where
            ``g(A xi, xi) != 0`` forces it (a computed ``|g(A xi, xi)|`` of
            at most ``n eps`` is rounding and forces nothing).
        NormalizationError: if the normal is not unit length.
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
    if m != payload["m"] or isinstance(payload["m"], bool):
        raise ModelValidationError(f"complex dimension must be an integer, got {payload['m']!r}")
    # float() also reads strings and booleans, and a JSON null reads as NaN; a payload
    # must hold JSON numbers.  A null is refused at once; the other kinds after the
    # finite checks, so a NaN stored as "nan" is refused as non-finite.
    foreign = []
    for key, value in (("N", N), ("S", S), *scalars.items()):
        leaves = [payload[key]]
        for _ in range(np.ndim(value)):
            leaves = chain.from_iterable(leaves)
        kinds = set(map(type, leaves)) - {int, float}
        if kinds:
            names = ", ".join(sorted(kind.__name__ for kind in kinds))
            foreign.append((type(None) in kinds, f"{key} must hold JSON numbers only, got {names}"))
    for null, message in foreign:
        if null:
            raise ModelValidationError(message)
    h = induce_from_normal(build_tangent_model(m), N, S, q_xi=scalars.get("q_xi"))
    _require_finite(alpha=scalars.get("alpha"))  # induce_from_normal checks N, S and q_xi
    if foreign:
        raise ModelValidationError(foreign[0][1])
    bound = 1e-8 * max(1.0, abs(h.alpha))
    if "alpha" in scalars:
        declared = scalars["alpha"]
        if abs(declared - h.alpha) > bound:
            raise ModelValidationError(
                f"stored Reeb curvature {declared:.12g} does not match recomputed {h.alpha:.12g}"
            )
    # q(xi) g(A xi, xi) = 2 alpha g(A xi, xi), held to the bound of the alpha cross-check.
    # A g(A xi, xi) within its rounding, about n eps for unit A xi and xi, is
    # the zero of an isotropic normal and forces nothing.
    forcing = abs(h.g_axixi) > h.model.dim * np.finfo(float).eps
    if forcing and abs((h.q_xi - 2.0 * h.alpha) * h.g_axixi) > bound:
        raise ModelValidationError(
            f"gauge q_xi = {h.q_xi:.12g} contradicts its forced value 2 alpha = {2.0 * h.alpha:.12g}"
            f" (g(A xi, xi) = {h.g_axixi:.3e})"
        )
    return h
