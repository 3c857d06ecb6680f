"""Verification suites behind the command-line interface.

Each function assembles a :class:`~quadric.report.CheckReport` from the
library primitives: ambient structure checks, the tube identity suite and
its radius scans, the principal nonexistence certificate, classification of
serialized data, and spectra.
"""

from __future__ import annotations

import math

import numpy as np

from .classification import SPECTRUM_TOL, classify, principal_nonexistence_certificate
from .errors import ExcludedParameterError
from .hypersurface import (
    HypersurfaceData,
    _in_frame,
    _max_column_norm,
    alpha_gradient_residual,
    hopf_identity_residual,
    normal_component_residual,
    reeb_parallel_residual,
    reeb_shape_residual,
    ricci,
    ricci_contraction,
    structure_jacobi,
)
from .models import (
    RADIUS_EXCLUSION_HALFWIDTH,
    TubeModel,
    build_tube,
    paired_curvature,
    tube_jacobi_template,
    tube_reeb_curvature,
    tube_shape_template,
)
from .report import Check, CheckReport
from .spectra import cluster_eigenvalues, match_spectrum, sym_eigen, sym_eigvals
from .tangent import (
    _col_dot,
    _require_dimension,
    ambient_curvature,
    ambient_jacobi,
    build_tangent_model,
    isotropic_vector,
    principal_vector,
    rotate_conjugation,
)

#: Largest ``--alpha-samples`` of ``nonexistence`` and ``--steps`` of ``scan
#: tube``.  Each sample or radius costs milliseconds even at the dimension
#: cap, so a run at the cap ends within minutes; a larger count is refused
#: before anything is allocated for it.
MAX_COUNT = 10_000

#: Warning of the ``verify ambient`` and ``nonexistence`` reports below the theorem's range.
_BELOW_RANGE_NOTE = "m < 3 is outside the classification range; structural checks only"


def _spectrum_check(name: str, op: np.ndarray, template: list, tol: float) -> Check:
    """Every template check of a suite; ``sym_eigvals`` solves for no eigenvectors
    and refuses an ``op`` that is not self-adjoint (exit 2)."""
    return Check(name, match_spectrum(cluster_eigenvalues(sym_eigvals(op)), template), tol)


def verify_ambient(m: int, tol: float = 1e-10, seed: int = 7) -> CheckReport:
    """Structural and spectral checks of the ambient model.

    Raises:
        InvalidDimensionError: if ``m`` is below 2 or above the supported cap.
    """
    _require_dimension(m, "verify ambient")
    rng = np.random.default_rng(seed)
    model = build_tangent_model(m)
    J, A = model.J, model.A
    eye = np.eye(model.dim)
    checks: list[Check] = []

    checks.append(Check("complex_structure_squares_to_minus_id", float(np.max(np.abs(J @ J + eye))), 1e-14))
    checks.append(Check("conjugation_is_involution", float(np.max(np.abs(A @ A - eye))), 1e-14))
    checks.append(Check("conjugation_anti_commutes", float(np.max(np.abs(A @ J + J @ A))), 1e-14))
    checks.append(Check("conjugation_trace", abs(float(np.trace(A))), 1e-14))
    for theta in (0.3, math.pi / 3.0, 2.0):
        A_t = rotate_conjugation(model, theta)
        checks.append(
            Check(
                f"rotated_conjugation_involution[theta={theta:.6g}]",
                float(np.max(np.abs(A_t @ A_t - eye))),
                1e-13,
            )
        )

    # Curvature symmetries over 20 random quadruples, one residual per
    # property; the quadruples are the columns of four (n, 20) stacks.  The
    # five argument orders go through one call on 100 columns: each column is
    # computed on its own and J, A are signed permutations, so every column
    # has the bits of its own call.
    X, Y, Z, W = rng.standard_normal((20, 4, model.dim)).transpose(1, 2, 0)
    R = ambient_curvature(
        model, np.hstack((X, X, Z, Y, Z)), np.hstack((Y, Y, W, Z, X)), np.hstack((Z, W, X, X, Y))
    )
    RXYZ, RXYW, RZWX, RYZX, RZXY = np.hsplit(R, 5)
    g_RXYZ_W = _col_dot(RXYZ, W)
    anti = float(np.max(np.abs(g_RXYZ_W + _col_dot(RXYW, Z))))
    pair_sym = float(np.max(np.abs(g_RXYZ_W - _col_dot(RZWX, Y))))
    cyc = RXYZ + RYZX + RZXY
    bianchi = float(np.max(np.abs(cyc)))
    checks.append(Check("curvature_skew_in_last_slots", anti, 1e-11))
    checks.append(Check("curvature_pair_symmetry", pair_sym, 1e-11))
    checks.append(Check("first_bianchi_identity", bianchi, 1e-11))

    # Ambient Jacobi spectra: 0 and 2, each m-fold, for a principal direction;
    # 0, 1, 4 with multiplicities 3, 2m-4, 1 for an isotropic one, whose
    # middle entry is empty at m = 2 (match_spectrum drops it).
    for label, U, template in (
        ("principal", principal_vector(model), [(0.0, m), (2.0, m)]),
        ("isotropic", isotropic_vector(model), [(0.0, 3), (1.0, 2 * m - 4), (4.0, 1)]),
    ):
        R_U = ambient_jacobi(model, U)
        checks.append(Check(f"jacobi_kills_direction[{label}]", float(np.max(np.abs(R_U @ U))), 1e-13))
        checks.append(_spectrum_check(f"jacobi_spectrum[{label}]", R_U, template, tol))
        checks.append(
            Check(f"jacobi_trace[{label}]", abs(float(np.trace(R_U)) - 2.0 * m), 1e-12)
        )

    params: dict = {"m": m, "tol": tol}
    if m < 3:
        params["warnings"] = [_BELOW_RANGE_NOTE]
    return CheckReport(command="verify ambient", params=params, checks=checks, seed=seed)


def _tube_point_checks(tube: TubeModel, tol: float) -> list[Check]:
    k, r, h = tube.k, tube.r, tube.h
    checks = [
        Check("hopf", h.hopf_defect, 1e-12),
        Check("isotropic_normal", abs(h.g_axixi), 1e-12),
        Check("shape_kills_A_xi", float(np.linalg.norm(h.S @ h.A_xi)), 1e-12),
        Check("shape_kills_A_N", float(np.linalg.norm(h.S @ h.A_N)), 1e-12),
        Check("isometric_reeb_flow", float(np.max(np.abs(h.phi_S - h.S_phi))), 1e-12),
    ]
    # These gauges are defined for Hopf data only; other data fails them.
    hopf_only = (
        ("hopf_identity", hopf_identity_residual, tol),
        ("alpha_gradient", alpha_gradient_residual, 1e-12),
        ("reeb_parallel_shape", reeb_shape_residual, tol),
        ("reeb_parallel_structure_jacobi", reeb_parallel_residual, tol),
        ("normal_component_cancellation", normal_component_residual, 1e-12),
    )
    checks += [Check(name, f(h) if h.hopf else math.inf, bound) for name, f, bound in hopf_only]
    for name, op, template in (
        ("shape_spectrum", h.S, tube_shape_template(k, r)),
        ("structure_jacobi_spectrum", structure_jacobi(h), tube_jacobi_template(k, r)),
    ):
        checks.append(_spectrum_check(name, _in_frame(h, op), template, 1e-10))
    # Partner-curvature relation: phi maps each invariant block onto
    # directions whose curvature is the partner of the block's.
    alpha = tube_reeb_curvature(r)
    pairing = max(
        _max_column_norm((h.S_phi - paired_curvature(alpha, lam) * h.phi) @ tube.bases[block])
        for block, lam in (("W1", -math.tan(r)), ("W2", 1.0 / math.tan(r)))
    )
    checks.append(Check("partner_curvature_fixed_points", pairing, 1e-12))
    return checks


def verify_tube(k: int, r: float, tol: float = 1e-11, non_vanishing: bool = True) -> CheckReport:
    """Identity suite on a single tube.

    ``non_vanishing`` is passed to :func:`~quadric.models.build_tube`; clear it
    to admit the radius ``pi/4`` with vanishing Reeb curvature.
    """
    checks = _tube_point_checks(build_tube(k, r, non_vanishing=non_vanishing), tol)
    return CheckReport(command="verify tube", params={"k": k, "r": r, "tol": tol}, checks=checks)


def scan_tube(
    k: int,
    r_min: float,
    r_max: float,
    steps: int,
    tol: float = 1e-11,
) -> CheckReport:
    """Tube suite over a radius grid, aggregating the worst residual per check.

    Grid points inside the exclusion window around ``pi/4`` are skipped and
    reported in the parameters.

    Raises:
        ExcludedParameterError: if ``steps < 1`` or every grid point lies in
            the exclusion window, since a report of no radii certifies
            nothing, or if ``steps > MAX_COUNT``.
    """
    if steps < 1:
        raise ExcludedParameterError(f"scan tube needs steps >= 1, got {steps}")
    if steps > MAX_COUNT:
        raise ExcludedParameterError(f"scan tube takes at most {MAX_COUNT} steps, got {steps}")
    grid = [float(r) for r in np.linspace(r_min, r_max, steps)]
    kept, skipped = [], []
    for r in grid:
        (skipped if abs(r - math.pi / 4.0) < RADIUS_EXCLUSION_HALFWIDTH else kept).append(r)
    if not kept:
        raise ExcludedParameterError(
            f"every radius of the grid lies within {RADIUS_EXCLUSION_HALFWIDTH} of pi/4"
        )
    worst: dict[str, Check] = {}
    for r in kept:
        for c in _tube_point_checks(build_tube(k, r), tol):
            prev = worst.get(c.name)
            if prev is None or c.residual > prev.residual:
                worst[c.name] = c
    checks = list(worst.values())
    params = {
        "k": k,
        "r_min": r_min,
        "r_max": r_max,
        "steps": steps,
        "tol": tol,
        "evaluated": kept,
        "skipped_near_quarter_pi": skipped,
    }
    return CheckReport(command="scan tube", params=params, checks=checks)


def nonexistence(m: int, samples: int = 25, seed: int = 7) -> CheckReport:
    """Nonexistence certificate with sampled Reeb curvatures.

    At ``m = 2`` the report warns with ``_BELOW_RANGE_NOTE``.

    Raises:
        ExcludedParameterError: if ``samples > MAX_COUNT``; the certificate
            refuses the other invalid inputs.
    """
    if samples > MAX_COUNT:
        raise ExcludedParameterError(
            f"nonexistence takes at most {MAX_COUNT} alpha samples, got {samples}"
        )
    rng = np.random.default_rng(seed)
    # Indexing a pair draws the sign as ``rng.choice([-1.0, 1.0])`` does,
    # from the same stream, without choice's per-call array set-up.
    alphas = [
        float(rng.uniform(0.2, 3.0) * (-1.0, 1.0)[rng.integers(0, 2)]) for _ in range(samples)
    ]
    report = principal_nonexistence_certificate(m, alphas, seed=seed)
    if m < 3:
        report.params["warnings"] = [_BELOW_RANGE_NOTE]
    return report


def ricci_consistency(h: HypersurfaceData) -> Check:
    """Closed-form Ricci against the direct curvature contraction, on the tangent space.

    Both routes take the columns of ``h.projector``, which span the tangent
    space, as one stack.  :func:`~quadric.hypersurface.ricci` is the
    hand-contracted closed form; :func:`~quadric.hypersurface.ricci_contraction`
    contracts the Gauss equation's operator pairs as ``n x n`` products.
    """
    worst = float(np.max(np.abs(ricci(h, h.projector) - ricci_contraction(h, h.projector))))
    return Check("ricci_contraction", worst, 1e-9)


def classify_report(h: HypersurfaceData, tol: float = 1e-8) -> tuple[CheckReport, str]:
    """Classification of hypersurface data as a report plus a verdict line."""
    result = classify(h, tol=tol)
    params = {
        "tol": tol,
        "singular_type": result.singular_type,
        "hopf": h.hopf,
        "alpha": h.alpha,
        "verdict": result.verdict,
        "reason": result.reason,
    }
    if result.k is not None:
        params["k"] = result.k
        params["r"] = result.r
    # The only check that fails when classify stops before any residual (m < 3,
    # data that is not Hopf, alpha = 0), so the exit code follows the verdict.
    checks = [
        Check(
            "classification_admissible",
            0.0 if result.verdict in ("tube", "nonexistent") else 1.0,
            0.5,
        )
    ]
    if result.reeb_residual is not None:
        checks.append(Check("reeb_parallel_structure_jacobi", result.reeb_residual, tol))
    if result.spectrum_deviation is not None:
        checks.append(Check("tube_spectrum_match", result.spectrum_deviation, SPECTRUM_TOL))
    return CheckReport(command="classify", params=params, checks=checks), result.describe()


def spectrum_report(h: HypersurfaceData) -> CheckReport:
    """Spectra of the shape operator and the structure Jacobi operator."""
    shape = sym_eigen(_in_frame(h, h.S))
    jac = sym_eigen(_in_frame(h, structure_jacobi(h)))
    params = {
        "m": h.model.m,
        "alpha": h.alpha,
        "shape_spectrum": [[v, k] for v, k in shape.clusters],
        "structure_jacobi_spectrum": [[v, k] for v, k in jac.clusters],
    }
    checks = [
        Check("shape_reconstruction", shape.reconstruction_residual, 1e-10),
        Check("structure_jacobi_reconstruction", jac.reconstruction_residual, 1e-10),
    ]
    return CheckReport(command="spectrum", params=params, checks=checks)

