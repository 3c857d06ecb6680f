"""Derived-equation chains, the nonexistence certificate, and classification.

For a Hopf hypersurface with principal normal and Reeb-parallel structure
Jacobi operator, the pointwise calculus collapses to a chain of operator
equations on the maximal complex subbundle.  The final pair of the chain is
affine in the conjugation block; their difference forces that block to be
the identity, whose trace ``2m - 2`` contradicts the vanishing trace of any
actual conjugation.  That contradiction is the nonexistence certificate.

With isotropic normal the same calculus shows the structure Jacobi operator
is Reeb parallel exactly when the Reeb flow is isometric, which pins the
data to the tube family; the classifier recovers the radius from the Reeb
curvature and matches the shape spectrum against the tube template.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExcludedParameterError
from .hypersurface import (
    HypersurfaceData,
    _frame_max_norm,
    reeb_covariant_derivative,
    reeb_derivative_reduced,
    reeb_parallel_residual,
    reeb_shape_derivative,
)
from .models import PrincipalCandidate, restrict_to_frame, tube_shape_template
from .report import Check, CheckReport
from .spectra import match_spectrum, sym_eigen
from .tangent import _require_dimension, canonical_angle


# ---------------------------------------------------------------------------
# Derived-equation chain for principal candidates
# ---------------------------------------------------------------------------

#: Chain equation names, in derivation order.
CHAIN_EQUATIONS = (
    "reeb_reduction",      # (nabla_xi R_xi) against reeb_derivative_reduced
    "shape_derivative",    # (nabla_xi S) Y = 2 phi A Y
    "first_combination",   # alpha phi S Y - S phi S Y + phi Y = 3 phi A Y
    "hopf_identity",       # 2 S phi S Y = alpha (S phi + phi S) Y + 2 phi Y
    "commutator",          # alpha (phi S - S phi) Y = 6 phi A Y
    "sandwich",            # alpha^2 phi S phi X = -2 alpha S^2 X + alpha^2 S X + 2 alpha X + 12 S X
    "affine_a",            # 3 alpha A X + alpha S^2 X - alpha^2 S X - alpha X - 6 S X = 0
    "affine_b",            # 3 alpha X + alpha S^2 X - alpha^2 S X - alpha A X - 6 S X = 0
)


@dataclass(frozen=True)
class ChainReport:
    """Residuals of the principal derived-equation chain.

    ``conjugation_defect`` is the Frobenius distance of the effective
    conjugation block on the complex subbundle from the identity, and
    ``trace_on_c`` its trace.  The verdict is ``contradiction(...)`` when the
    affine pair is satisfied: their joint solutions force the identity block,
    whose trace cannot vanish.
    """

    residuals: dict[str, float]
    conjugation_defect: float
    trace_on_c: float
    verdict: str


def affine_pair_matrices(
    alpha: float, S: np.ndarray, A: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The two affine-in-conjugation chain equations as matrices.

    ``E_a = 3 alpha A + alpha S^2 - alpha^2 S - alpha I - 6 S`` and
    ``E_b = 3 alpha I + alpha S^2 - alpha^2 S - alpha A - 6 S`` on whatever
    space ``S`` and ``A`` act.
    """
    n = S.shape[0]
    eye = np.eye(n)
    e_a = 3.0 * alpha * A + alpha * (S @ S) - alpha**2 * S - alpha * eye - 6.0 * S
    e_b = 3.0 * alpha * eye + alpha * (S @ S) - alpha**2 * S - alpha * A - 6.0 * S
    return e_a, e_b


def principal_chain_residuals(cand: PrincipalCandidate, tol: float = 1e-10) -> ChainReport:
    """Evaluate the derived-equation chain on a principal candidate.

    Each equation is measured as the largest image norm of its operator
    residual over an orthonormal frame of the maximal complex subbundle,
    with the candidate's effective conjugation in the conjugation slots.

    Raises:
        ExcludedParameterError: if the candidate's Reeb curvature vanishes.
    """
    h = cand.h
    alpha = h.alpha
    if abs(alpha) < 1e-12:
        raise ExcludedParameterError("chain evaluation requires nonzero Reeb curvature")
    phi, S = h.phi, h.S
    A = cand.conj_c
    C = cand.complex_subbundle_frame()

    G = reeb_shape_derivative(h)
    phi_A = phi @ A
    e_a, e_b = affine_pair_matrices(alpha, S, A)

    operators = {
        "reeb_reduction": reeb_covariant_derivative(h) - reeb_derivative_reduced(h),
        "shape_derivative": G - 2.0 * phi_A,
        "first_combination": alpha * (phi @ S) - S @ phi @ S + phi - 3.0 * phi_A,
        "hopf_identity": 2.0 * (S @ phi @ S) - alpha * (S @ phi + phi @ S) - 2.0 * phi,
        "commutator": alpha * (phi @ S - S @ phi) - 6.0 * phi_A,
        "sandwich": (
            alpha**2 * (phi @ S @ phi)
            + 2.0 * alpha * (S @ S)
            - alpha**2 * S
            - 2.0 * alpha * h.projector
            - 12.0 * S
        ),
        "affine_a": e_a,
        "affine_b": e_b,
    }
    residuals = {name: _frame_max_norm(M, C) for name, M in operators.items()}

    A_c = restrict_to_frame(A, C)
    defect = float(np.linalg.norm(A_c - np.eye(A_c.shape[0])))
    trace_c = float(np.trace(A_c))
    if residuals["affine_a"] < tol and residuals["affine_b"] < tol:
        verdict = (
            f"contradiction(affine pair forces the identity conjugation block; "
            f"trace {trace_c:.6g} on the complex subbundle cannot vanish)"
        )
    else:
        verdict = "consistent"
    return ChainReport(
        residuals=residuals,
        conjugation_defect=defect,
        trace_on_c=trace_c,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Nonexistence certificate for the principal case
# ---------------------------------------------------------------------------

def _random_compatible_conjugation(m: int, rng: np.random.Generator) -> np.ndarray:
    """Random conjugation block on the complex subbundle.

    Conjugate the standard block by a complex-linear orthogonal map, keeping
    symmetry, involutivity and anti-commutation with the complex structure.
    Basis order: the complex directions first, then their images under the
    complex structure.
    """
    n = m - 1
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(raw)
    R = np.block([[u.real, -u.imag], [u.imag, u.real]])
    A0 = np.block(
        [[np.eye(n), np.zeros((n, n))], [np.zeros((n, n)), -np.eye(n)]]
    )
    return R @ A0 @ R.T


def _quadratic_roots(alpha: float) -> tuple[float, float]:
    """Roots of ``x^2 - (alpha + 6/alpha) x + 2 = 0`` (always real)."""
    s = alpha + 6.0 / alpha
    d = math.sqrt(s * s - 8.0)
    return 0.5 * (s + d), 0.5 * (s - d)


def principal_nonexistence_certificate(
    m: int,
    alpha_samples: list[float],
    seed: int = 7,
    tol: float = 1e-10,
) -> CheckReport:
    """Certify pointwise nonexistence for the principal case, per Reeb curvature.

    For each sample ``alpha`` the certificate:

    1. checks the sample-independent operator identity
       ``E_a - E_b = 4 alpha (A - I)`` on random symmetric shape blocks and
       random compatible conjugation blocks (so joint satisfaction of the
       affine pair forces the identity conjugation block);
    2. builds the solvable instance: shape blocks with spectrum in the roots
       of ``x^2 - (alpha + 6/alpha) x + 2`` satisfy both equations with the
       identity block, and solving each equation for the conjugation block
       returns the identity;
    3. records the trace conflict in the parameters: the forced block has
       trace ``2m - 2``, nonzero for every admitted ``m``, while any
       conjugation of the ambient model is trace free (``verify ambient``
       measures that as ``conjugation_trace``).

    The certificate passes iff every sample's affine pair is solvable and
    forces the identity block.

    Raises:
        InvalidDimensionError: if ``m`` is below 2 or above the supported cap.
        ExcludedParameterError: if there are no samples, or a sample Reeb
            curvature is zero.
    """
    _require_dimension(m, "nonexistence")
    if len(alpha_samples) == 0:
        raise ExcludedParameterError("nonexistence needs at least one alpha sample")
    rng = np.random.default_rng(seed)
    n_c = 2 * (m - 1)
    eye = np.eye(n_c)
    checks: list[Check] = []

    for alpha in alpha_samples:
        alpha = float(alpha)
        if alpha == 0.0:
            raise ExcludedParameterError("alpha samples must be nonzero")
        tag = f"alpha={alpha:+.6g}"

        raw = rng.standard_normal((n_c, n_c))
        s_rand = 0.5 * (raw + raw.T)
        a_rand = _random_compatible_conjugation(m, rng)
        e_a, e_b = affine_pair_matrices(alpha, s_rand, a_rand)
        diff_defect = float(
            np.max(np.abs(e_a - e_b - 4.0 * alpha * (a_rand - eye)))
        ) / max(1.0, abs(alpha))
        checks.append(Check(name=f"difference_identity[{tag}]", residual=diff_defect, tol=1e-12))

        lam_hi, lam_lo = _quadratic_roots(alpha)
        diag = np.where(rng.uniform(size=n_c) < 0.5, lam_hi, lam_lo)
        s_star = np.diag(diag)
        e_a, e_b = affine_pair_matrices(alpha, s_star, eye)
        solvable = max(
            float(np.max(np.abs(e_a))), float(np.max(np.abs(e_b)))
        ) / max(1.0, abs(alpha))
        checks.append(Check(name=f"affine_pair_solvable[{tag}]", residual=solvable, tol=tol))

        s_sq = s_star @ s_star
        a_from_first = (alpha * eye - alpha * s_sq + alpha**2 * s_star + 6.0 * s_star) / (
            3.0 * alpha
        )
        a_from_second = 3.0 * eye + s_sq - alpha * s_star - (6.0 / alpha) * s_star
        forcing_defect = max(
            float(np.max(np.abs(a_from_first - eye))),
            float(np.max(np.abs(a_from_second - eye))),
        )
        checks.append(Check(name=f"forces_identity[{tag}]", residual=forcing_defect, tol=tol))

    return CheckReport(
        command="nonexistence",
        params={
            "m": m,
            "alpha_samples": [float(a) for a in alpha_samples],
            "forced_trace_on_c": float(n_c),
            "required_trace": 0.0,
        },
        checks=checks,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationResult:
    """Outcome of classifying pointwise hypersurface data.

    ``verdict`` is ``"tube"`` (isotropic data matching the tube family, with
    ``k`` and ``r`` recovered), ``"nonexistent"`` (principal data passing the
    Reeb-parallel test, which no hypersurface realizes), or
    ``"outside-hypotheses"`` with the reason recorded.
    """

    singular_type: str
    hopf: bool
    alpha: float
    reeb_residual: float | None
    verdict: str
    reason: str
    k: int | None = None
    r: float | None = None
    spectrum_deviation: float | None = None

    def describe(self) -> str:
        if self.verdict == "tube":
            return f"tube k={self.k} r={self.r:.6f}"
        if self.verdict == "nonexistent":
            return "nonexistent"
        return f"outside-hypotheses ({self.reason})"


def recover_radius(alpha: float) -> float:
    """Radius with Reeb curvature ``alpha``, unique in ``(0, pi/2)``.

    Inverts ``alpha = 2 cot(2r)`` via ``r = atan2(2, alpha) / 2``, which is
    single valued because the curvature is strictly decreasing in ``r``.
    """
    return 0.5 * math.atan2(2.0, alpha)


def classify(h: HypersurfaceData, tol: float = 1e-8) -> ClassificationResult:
    """Classify hypersurface data against the Reeb-parallel results.

    Hopf data with non-vanishing Reeb curvature and Reeb-parallel structure
    Jacobi operator must have singular normal; the isotropic case is the
    tube family (radius recovered from the Reeb curvature, spectrum matched
    to the tube template), the principal case cannot occur.  Everything else
    is reported outside the hypotheses with the failing condition.
    """
    angle = canonical_angle(h.model, h.N)
    base = dict(singular_type=angle.kind, hopf=h.hopf, alpha=h.alpha)

    if not h.hopf:
        return ClassificationResult(
            **base,
            reeb_residual=None,
            verdict="outside-hypotheses",
            reason=f"not Hopf (|S xi - alpha xi| = {h.hopf_defect:.3e})",
        )
    if abs(h.alpha) < tol:
        return ClassificationResult(
            **base,
            reeb_residual=None,
            verdict="outside-hypotheses",
            reason="vanishing geodesic Reeb flow (alpha = 0)",
        )

    residual = reeb_parallel_residual(h)
    if angle.kind == "generic":
        return ClassificationResult(
            **base,
            reeb_residual=residual,
            verdict="outside-hypotheses",
            reason=f"normal not singular (canonical angle t = {angle.t:.6g})",
        )
    if residual >= tol:
        return ClassificationResult(
            **base,
            reeb_residual=residual,
            verdict="outside-hypotheses",
            reason=f"structure Jacobi operator not Reeb parallel (residual {residual:.3e})",
        )

    if angle.kind == "A-principal":
        return ClassificationResult(
            **base,
            reeb_residual=residual,
            verdict="nonexistent",
            reason="principal normal with Reeb-parallel structure Jacobi operator",
        )

    # Isotropic: recover the tube parameters and match the spectrum.
    m = h.model.m
    if m % 2 != 0 or m < 4:
        return ClassificationResult(
            **base,
            reeb_residual=residual,
            verdict="outside-hypotheses",
            reason=f"no tube family in complex dimension {m}",
        )
    k = m // 2
    r = recover_radius(h.alpha)
    spectrum = sym_eigen(restrict_to_frame(h.S, h.frame), tol=1e-12)
    matched, deviation = match_spectrum(spectrum, tube_shape_template(k, r))
    if not matched:
        return ClassificationResult(
            **base,
            reeb_residual=residual,
            verdict="outside-hypotheses",
            reason=f"shape spectrum does not match the tube of radius {r:.6g}",
            spectrum_deviation=deviation,
        )
    return ClassificationResult(
        **base,
        reeb_residual=residual,
        verdict="tube",
        reason="",
        k=k,
        r=r,
        spectrum_deviation=deviation,
    )
