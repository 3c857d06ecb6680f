"""Derived-equation chains, the nonexistence certificate, and classification.

For a Hopf hypersurface with principal normal and Reeb-parallel structure
Jacobi operator, the pointwise calculus collapses to a chain of operator
equations on the maximal complex subbundle.  The final pair of the chain is
affine in the conjugation block; their difference forces that block to be
the identity, whose trace ``2m - 2`` contradicts the vanishing trace of any
actual conjugation.  That contradiction is the nonexistence certificate;
:func:`principal_chain_residuals` only measures the chain on candidate data.

With isotropic normal the same calculus shows the structure Jacobi operator
is Reeb parallel exactly when the Reeb flow is isometric, which pins the
data to the tube family; the classifier recovers the radius from the Reeb
curvature and matches the shape spectrum against the tube template.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ExcludedParameterError, ModelValidationError, _require_finite
from .hypersurface import (
    HypersurfaceData,
    _hopf_identity_matrix,
    _in_frame,
    _max_column_norm,
    reeb_covariant_derivative,
    reeb_derivative_reduced,
    reeb_parallel_residual,
    reeb_shape_derivative,
)
from .models import _complex_pair_columns, _quadratic_roots, tube_shape_template
from .report import Check, CheckReport
from .spectra import match_spectrum, sym_eigen
from .tangent import _require_dimension, canonical_angle, principal_vector

#: Largest deviation of the shape spectrum from the tube template that
#: ``classify`` admits, and the bound of the ``tube_spectrum_match`` check.
SPECTRUM_TOL = 1e-8
#: Largest stacked temporary, in float entries, that the nonexistence
#: certificate forms; it splits its samples into stacks that fit.  At
#: ``2^13`` a stack of float blocks takes at most 64 KiB and its normal-draw
#: buffer, 1.5 times that, at most 96 KiB: both stay below glibc's default
#: 128 KiB mmap threshold, so the allocator reuses their memory instead of
#: mapping fresh pages for each stack.  From ``m = 47`` up one sample's
#: ``(2m - 2)^2`` entries exceed the budget, and a stack holds one sample.
_STACK_BUDGET = 1 << 13


# ---------------------------------------------------------------------------
# Derived-equation chain for principal candidates
# ---------------------------------------------------------------------------

def affine_pair_matrices(
    alpha: float, S: np.ndarray, A: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The two affine-in-conjugation chain equations as matrices.

    ``E_a = 3 alpha A + alpha S^2 - alpha^2 S - alpha I - 6 S`` and
    ``E_b = 3 alpha I + alpha S^2 - alpha^2 S - alpha A - 6 S`` on whatever
    space ``S`` and ``A`` act.  ``S`` and ``A`` may be stacks of matrices,
    ``(k, n, n)`` or of any leading shape, with ``alpha`` a scalar or an
    array that broadcasts against them, such as ``(k, 1, 1)``.  A stack of
    ``1 x 1`` blocks evaluates a diagonal pair entry by entry: ``S`` of
    shape ``(k, n, 1, 1)`` holding the diagonals, ``A = np.eye(1)`` and
    ``alpha`` of shape ``(k, 1, 1, 1)`` give each diagonal entry of the
    ``(k, n, n)`` evaluation with the same bits, and no off-diagonal zeros.

    The terms shared by the two equations are formed once, and each
    equation is summed in place in the order written above.
    """
    eye = np.eye(S.shape[-1])
    # float_power squares as Python's ``alpha**2`` does (libm pow), so a
    # stacked alpha rounds as a scalar one; numpy's ``**`` on arrays squares
    # by multiplication, which differs in the last bit for about 0.1 % of
    # inputs.
    alpha_sq_S = np.float_power(alpha, 2) * S
    alpha_S_sq = alpha * (S @ S)
    six_S = 6.0 * S
    three_alpha = 3.0 * alpha
    # IEEE addition commutes, so ``alpha S^2 + 3 alpha A`` has the bits of
    # ``3 alpha A + alpha S^2``; that sum has the broadcast shape of all
    # three inputs.
    e_a = np.add(three_alpha * A, alpha_S_sq)
    e_a -= alpha_sq_S
    e_a -= alpha * eye
    e_a -= six_S
    e_b = np.add(three_alpha * eye, alpha_S_sq, out=np.empty_like(e_a))
    e_b -= alpha_sq_S
    e_b -= alpha * A
    e_b -= six_S
    return e_a, e_b


def principal_chain_residuals(h: HypersurfaceData) -> dict[str, float]:
    """Residuals of the derived-equation chain on a principal candidate, in derivation order.

    Each equation is measured as the largest image norm of its operator
    residual over an orthonormal frame of the maximal complex subbundle
    ``span{Z_2..Z_m, J Z_2..J Z_m}``, with the adapted conjugation ``h.conj``
    in the conjugation slots.  That frame spans the subbundle only for the
    candidates' normal ``N = Z_1`` (see
    :func:`~quadric.models.build_principal_candidate`), so other normals are
    refused.  Whether the affine pair can hold at all is what
    :func:`principal_nonexistence_certificate` decides.

    Raises:
        ExcludedParameterError: if the Reeb curvature vanishes.
        ModelValidationError: if the normal is not ``Z_1``.
    """
    alpha = h.alpha
    if abs(alpha) < 1e-12:
        raise ExcludedParameterError("chain evaluation requires nonzero Reeb curvature")
    if not np.array_equal(h.N, principal_vector(h.model)):
        raise ModelValidationError(
            "chain evaluation requires the normal Z_1 (frame span{Z_j, J Z_j}, j >= 2)"
        )
    phi, S, A = h.phi, h.S, h.conj
    C = _complex_pair_columns(h.model, range(2, h.model.m + 1))

    G = reeb_shape_derivative(h)
    phi_A = phi @ A
    e_a, e_b = affine_pair_matrices(alpha, S, A)

    operators = {
        "reeb_reduction": reeb_covariant_derivative(h) - reeb_derivative_reduced(h),
        "shape_derivative": G - 2.0 * phi_A,
        "first_combination": alpha * h.phi_S - h.S_phi_S + phi - 3.0 * phi_A,
        # Its rank-one terms vanish on C: their right factors lie in span{Z_1, J Z_1}.
        "hopf_identity": _hopf_identity_matrix(h),
        "commutator": alpha * (h.phi_S - h.S_phi) - 6.0 * phi_A,
        "sandwich": (
            alpha**2 * (h.phi_S @ phi)
            + 2.0 * alpha * (S @ S)
            - alpha**2 * S
            - 2.0 * alpha * h.projector
            - 12.0 * S
        ),
        "affine_a": e_a,
        "affine_b": e_b,
    }
    return {name: _max_column_norm(M @ C) for name, M in operators.items()}


# ---------------------------------------------------------------------------
# Nonexistence certificate for the principal case
# ---------------------------------------------------------------------------

def _compatible_conjugations(raw: np.ndarray) -> np.ndarray:
    """Random conjugation blocks on the complex subbundle, one per matrix of ``raw``.

    ``raw`` is a ``(k, n, n)`` stack of complex Gaussian matrices.  Each
    block conjugates the standard block ``diag(I, -I)`` by the
    complex-linear orthogonal map ``R`` of its matrix's QR factor, keeping
    symmetry, involutivity and anti-commutation with the complex structure.
    ``R diag(I, -I)`` is ``R`` with its last ``n`` columns negated, exactly,
    so each block is one product ``(R diag(I, -I)) R^T``.  Basis order: the
    complex directions first, then their images under the complex structure.
    """
    n = raw.shape[-1]
    u, _ = np.linalg.qr(raw)
    R = np.empty(u.shape[:-2] + (2 * n, 2 * n))
    R[..., :n, :n] = u.real
    np.negative(u.imag, out=R[..., :n, n:])
    R[..., n:, :n] = u.imag
    R[..., n:, n:] = u.real
    R_signed = R.copy()
    np.negative(R[..., n:], out=R_signed[..., n:])
    return R_signed @ R.swapaxes(-1, -2)


def _draw_stack(
    alphas: list[float], rng: np.random.Generator, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random blocks of one stack of samples, drawn sample by sample.

    Per sample the stream gives, in one normal draw of ``6 (m - 1)^2``
    entries, the symmetric shape block's ``(2m - 2)^2`` raw entries and the
    real and then the imaginary parts of the complex matrix behind the
    conjugation block; then, in one uniform draw, the ``2m - 2`` root
    choices of the solvable instance's diagonal.  The roots are picked for
    the whole stack once every sample is drawn.  Returns the stacks
    ``(k, 2m - 2, 2m - 2)`` of shape blocks, ``(k, m - 1, m - 1)`` of complex
    matrices and ``(k, 2m - 2)`` of diagonals.
    """
    k, n = len(alphas), m - 1
    block = n * n
    normals = np.empty((k, 6 * block))
    picks = np.empty((k, 2 * n))
    for i in range(k):
        rng.standard_normal(out=normals[i])
        rng.random(out=picks[i])
    raw = normals[:, : 4 * block].reshape(k, 2 * n, 2 * n)
    raw_c = np.empty((k, n, n), dtype=complex)
    raw_c.real = normals[:, 4 * block : 5 * block].reshape(k, n, n)
    raw_c.imag = normals[:, 5 * block :].reshape(k, n, n)
    roots = np.array([_quadratic_roots(alpha) for alpha in alphas])
    diag = np.where(picks < 0.5, roots[:, :1], roots[:, 1:])
    sym = raw + raw.swapaxes(-1, -2)
    sym *= 0.5
    return sym, raw_c, diag


def _sample_tags(alphas: list[float]) -> list[str]:
    """One distinct tag per sample for its check names.

    A sample is tagged ``alpha={alpha:+.6g}`` unless an earlier sample
    already holds that tag; then it is tagged with all 17 significant digits
    (``+#.17g``, trailing zeros kept, so the long tag never equals a short
    one).  Distinct floats have distinct 17-digit tags.

    Raises:
        ExcludedParameterError: if a sample repeats an earlier one exactly.
    """
    tags: list[str] = []
    taken: set[str] = set()
    seen: set[float] = set()
    for alpha in alphas:
        if alpha in seen:
            raise ExcludedParameterError(f"alpha samples must be distinct, got {alpha!r} twice")
        seen.add(alpha)
        tag = f"alpha={alpha:+.6g}"
        if tag in taken:
            tag = f"alpha={alpha:+#.17g}"
        taken.add(tag)
        tags.append(tag)
    return tags


def _stack_checks(
    alphas: list[float], tags: list[str], residuals: np.ndarray
) -> list[Check]:
    """The two checks of each sample, named by its tag, from its row of the
    ``(k, 2)`` residuals ``max |E_a - E_b - 4 alpha (A - I)|`` on the random
    blocks and ``max |E_a| = max |E_b|`` of the root-spectrum instance.  The
    first sample with an overflowed (infinite or NaN) residual is refused."""
    checks: list[Check] = []
    for alpha, tag, (diff_defect, solvable) in zip(alphas, tags, residuals.tolist()):
        if not (math.isfinite(diff_defect) and math.isfinite(solvable)):
            raise ExcludedParameterError(f"alpha sample {alpha!r} overflows the float range")
        scale = max(1.0, abs(alpha))
        checks += [
            Check(name=f"difference_identity[{tag}]", residual=diff_defect / scale, tol=1e-12),
            Check(name=f"affine_pair_solvable[{tag}]", residual=solvable / scale, tol=1e-10),
        ]
    return checks


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused by its residuals
def principal_nonexistence_certificate(
    m: int,
    alpha_samples: list[float],
    seed: int = 7,
) -> CheckReport:
    """Certify pointwise nonexistence for the principal case, per Reeb curvature.

    For each sample ``alpha`` the certificate:

    1. checks the sample-independent operator identity
       ``E_a - E_b = 4 alpha (A - I)`` on random symmetric shape blocks and
       random compatible conjugation blocks (so joint satisfaction of the
       affine pair forces the identity conjugation block);
    2. builds the solvable instance: diagonal shape blocks with entries
       among the roots of ``x^2 - (alpha + 6/alpha) x + 2`` satisfy both
       equations with the identity block (where ``E_a`` and ``E_b`` are one
       matrix, so one is measured).  A diagonal block with ``A = I``
       decouples into ``2m - 2`` independent ``1 x 1`` pairs, so the
       instance is evaluated as a stack of ``1 x 1`` blocks, one per
       diagonal entry, and measured as the largest over its pairs;
    3. records the trace conflict in the parameters: the forced block has
       trace ``2m - 2``, nonzero for every admitted ``m``, while any
       conjugation of the ambient model is trace free (``verify ambient``
       measures that as ``conjugation_trace``).

    The certificate passes iff, for every sample, the difference identity
    holds and the affine pair is solvable.

    Samples are evaluated in stacks of matrices, as many per stack as keep
    each ``(k, 2m - 2, 2m - 2)`` temporary within ``_STACK_BUDGET`` entries,
    and at least one: from ``m = 47`` up a single sample exceeds the budget,
    so each stack holds one sample.  Each stack draws its samples' random
    blocks in sample order, so the stream, and every residual, is the same
    as one sample at a time; the difference identity is evaluated in place
    on the stack's arrays, with the bits of its out-of-place form.  Each
    sample's checks are tagged ``alpha={alpha:+.6g}``, with all 17 digits
    when an earlier sample already holds that tag.

    Raises:
        InvalidDimensionError: if ``m`` is below 2 or above the supported cap.
        ExcludedParameterError: if there are no samples, or a sample is not
            a real number (an ``int``, ``float`` or numpy integer or float;
            a ``bool`` is not), or a sample Reeb
            curvature is zero, or two samples are equal, or the residuals of
            a sample overflow (``|alpha|`` above about 5.6e102 or below about
            4.5e-154); the first such sample is named.
        NonFiniteError: if a sample is NaN or infinite.
    """
    _require_dimension(m, "nonexistence")
    if len(alpha_samples) == 0:
        raise ExcludedParameterError("nonexistence needs at least one alpha sample")
    for i, alpha in enumerate(alpha_samples):
        if isinstance(alpha, bool) or not isinstance(alpha, (int, float, np.integer, np.floating)):
            raise ExcludedParameterError(
                f"alpha samples must be real numbers, got {type(alpha).__name__} at index {i}"
            )
    alphas = [float(alpha) for alpha in alpha_samples]
    _require_finite(alpha_samples=alphas)
    if 0.0 in alphas:
        raise ExcludedParameterError("alpha samples must be nonzero")
    tags = _sample_tags(alphas)
    rng = np.random.default_rng(seed)
    n_c = 2 * (m - 1)
    width = max(1, _STACK_BUDGET // (n_c * n_c))
    eye = np.eye(n_c)
    checks: list[Check] = []
    # One scope for every stack: each stack's arrays are freed only when the
    # next stack rebinds their names, so the allocator reuses their memory
    # instead of returning it and faulting fresh pages in for the next stack.
    for start in range(0, len(alphas), width):
        stack = alphas[start : start + width]
        s_rand, raw_c, diag = _draw_stack(stack, rng, m)
        alpha = np.array(stack)[:, None, None]

        a_rand = _compatible_conjugations(raw_c)
        e_a, e_b = affine_pair_matrices(alpha, s_rand, a_rand)
        # ``E_a - E_b - 4 alpha (A - I)`` on the stack's own arrays: each step
        # rounds as its out-of-place form does, so the bits are the same.
        e_a -= e_b
        a_rand -= eye
        a_rand *= 4.0 * alpha
        e_a -= a_rand
        difference = np.abs(e_a, out=e_a).max(axis=(-2, -1))

        # Each 1x1 pair has the bits of its diagonal entry in the dense
        # evaluation, whose off-diagonal entries are exact zeros.  With A = I
        # the two equations evaluate the same terms in the same order, so E_a
        # equals E_b bit for bit.
        e_star, _ = affine_pair_matrices(alpha[..., None], diag[..., None, None], np.eye(1))
        solvable = np.abs(e_star).max(axis=(-3, -2, -1))
        residuals = np.stack([difference, solvable], axis=1)
        checks += _stack_checks(stack, tags[start : start + width], residuals)

    return CheckReport(
        command="nonexistence",
        params={
            "m": m,
            "alpha_samples": alphas,
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
    ``"outside-hypotheses"`` with the reason recorded.  The defaults are the
    outcome refused before the Reeb-parallel residual is measured: no
    residual, outside the hypotheses.  ``k`` and ``r`` are set only for a
    tube, ``spectrum_deviation`` once the shape spectrum has been compared.
    """

    singular_type: str
    reeb_residual: float | None = None
    verdict: str = "outside-hypotheses"
    reason: str = ""
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
    to the tube template), the principal case cannot occur.  Data in complex
    dimension ``m < 3``, below the theorem's range, and everything else is
    reported outside the hypotheses with the failing condition.  The
    residual and the spectrum deviation pass by the rule of ``Check.passed``,
    ``value <= bound``, so a NaN fails as its report check does.
    """
    angle = canonical_angle(h.model, h.N)
    m = h.model.m
    if m < 3:
        return ClassificationResult(
            angle.kind,
            reason=f"complex dimension m = {m} is outside the classification range (m >= 3)",
        )
    if not h.hopf:
        return ClassificationResult(
            angle.kind, reason=f"not Hopf (|S xi - alpha xi| = {h.hopf_defect:.3e})"
        )
    if abs(h.alpha) < tol:
        return ClassificationResult(
            angle.kind, reason=f"vanishing geodesic Reeb flow (|alpha| = {abs(h.alpha):.3e})"
        )

    residual = reeb_parallel_residual(h)
    result = functools.partial(ClassificationResult, angle.kind, residual)
    if angle.kind == "generic":
        return result(reason=f"normal not singular (canonical angle t = {angle.t:.6g})")
    if not residual <= tol:
        return result(
            reason=f"structure Jacobi operator not Reeb parallel (residual {residual:.3e})"
        )

    if angle.kind == "A-principal":
        return result(
            verdict="nonexistent",
            reason="principal normal with Reeb-parallel structure Jacobi operator",
        )

    # Isotropic: recover the tube parameters and match the spectrum.
    if m % 2 != 0:
        return result(reason=f"no tube family in complex dimension {m}")
    k = m // 2
    r = recover_radius(h.alpha)
    deviation = match_spectrum(sym_eigen(_in_frame(h, h.S)).clusters, tube_shape_template(k, r))
    if not deviation <= SPECTRUM_TOL:
        return result(
            reason=f"shape spectrum does not match the tube of radius {r:.6g}",
            spectrum_deviation=deviation,
        )
    return result(verdict="tube", k=k, r=r, spectrum_deviation=deviation)
