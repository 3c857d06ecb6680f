"""Model hypersurfaces: the isotropic tube family and principal-normal candidates.

The tube of radius ``r`` around a totally geodesic complex projective space
inside the even-dimensional quadric is the reference hypersurface with
isotropic normal: Hopf, isometric Reeb flow, and four constant principal
curvatures

    2 cot(2r)  on the Reeb direction          (multiplicity 1)
    0          on span{A xi, A N}             (multiplicity 2)
    -tan(r)    on an invariant complex block  (multiplicity 2k-2)
    cot(r)     on the complementary block     (multiplicity 2k-2).

Its normal is ``isotropic_vector``; a :class:`TubeModel` holds the induced
data ``h`` (Reeb curvature, ``xi``, ``A xi``, ``A N``) and the two block bases.

Candidates with a principal normal (``A N = N``, ``A xi = -xi``) are built
synthetically for the nonexistence analysis, with a prescribed spectrum of
the shape operator on the maximal complex subbundle.  They are plain
:class:`~quadric.hypersurface.HypersurfaceData` with normal ``Z_1``.
The module holds constructors and closed-form templates only; spectra are
read on the built ``h`` (:func:`~quadric.suites.verify_tube` compares them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExcludedParameterError, InvalidDimensionError, ModelValidationError
from .hypersurface import HypersurfaceData, induce_from_normal
from .tangent import (
    MAX_COMPLEX_DIM,
    TangentModel,
    build_tangent_model,
    isotropic_vector,
    principal_vector,
)

#: Half-width of the radius window excluded around pi/4 in grid scans.
RADIUS_EXCLUSION_HALFWIDTH = 0.01


# ---------------------------------------------------------------------------
# Tube over a totally geodesic complex projective space
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TubeModel:
    """Tube of radius ``r`` around a complex projective space in the quadric.

    Attributes:
        k: half the complex dimension (``m = 2k``).
        r: tube radius in ``(0, pi/2)``.
        h: induced hypersurface data; ``h.xi``, ``h.A_xi`` and ``h.A_N``
            span the Reeb and null directions.
        bases: orthonormal bases of the two invariant complex blocks, one
            column of the identity per vector: ``W1`` (curvature ``-tan r``)
            and ``W2`` (curvature ``cot r``).
    """

    k: int
    r: float
    h: HypersurfaceData
    bases: dict[str, np.ndarray]


def tube_reeb_curvature(r: float) -> float:
    """Reeb curvature ``2 cot(2r)`` of the tube of radius ``r``."""
    return 2.0 * math.cos(2.0 * r) / math.sin(2.0 * r)


def tube_shape_template(k: int, r: float) -> list[tuple[float, int]]:
    """Principal curvatures of the tube with multiplicities, as the module
    lists them, not sorted or merged: :func:`~quadric.spectra.match_spectrum`
    does both."""
    return [
        (tube_reeb_curvature(r), 1),
        (0.0, 2),
        (-math.tan(r), 2 * k - 2),
        (1.0 / math.tan(r), 2 * k - 2),
    ]


def tube_jacobi_template(k: int, r: float) -> list[tuple[float, int]]:
    """Spectrum of the structure Jacobi operator on the tube, not sorted or merged.

    Follows from the closed form of the operator on the tube eigenspaces:
    ``1 + alpha lambda`` on each curvature-``lambda`` block and zero on
    ``xi``, ``A xi`` and ``A N``.
    """
    return [
        (0.0, 3),
        (math.tan(r) ** 2, 2 * k - 2),
        (1.0 / math.tan(r) ** 2, 2 * k - 2),
    ]


def _complex_pair_columns(model: TangentModel, z_indices: range) -> np.ndarray:
    """Orthonormal basis of the complex span of the listed ``Z`` directions."""
    cols = [model.zvec(i) for i in z_indices] + [model.jzvec(i) for i in z_indices]
    return np.column_stack(cols)


def build_tube(k: int, r: float, non_vanishing: bool = True) -> TubeModel:
    """Construct the tube of radius ``r`` in the quadric of complex dimension ``2k``.

    Args:
        k: at least 2 (the invariant blocks must be nonempty) and at most
            ``MAX_COMPLEX_DIM // 2`` (the quadric has complex dimension ``2k``).
        r: radius in ``(0, pi/2)``.
        non_vanishing: refuse ``r = pi/4`` (vanishing Reeb curvature).

    Raises:
        InvalidDimensionError: if ``k`` is not an integer with
            ``2 <= k <= MAX_COMPLEX_DIM // 2``.
        ExcludedParameterError: if ``r`` is out of range, or equals ``pi/4``
            while ``non_vanishing`` is set.

    Only the parameters are validated.  The invariants of the family (Hopf,
    isotropic normal, ``S`` killing ``A xi`` and ``A N``, isometric Reeb
    flow) are measured by :func:`~quadric.suites.verify_tube`.
    """
    k_max = MAX_COMPLEX_DIM // 2
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or not 2 <= k <= k_max:
        raise InvalidDimensionError(f"tube requires integer 2 <= k <= {k_max}, got {k!r}")
    if not (0.0 < r < math.pi / 2.0):
        raise ExcludedParameterError(f"radius must lie in (0, pi/2), got r = {r!r}")
    if non_vanishing and abs(r - math.pi / 4.0) < 1e-9:
        raise ExcludedParameterError(
            f"radius r = {r:.12g} is excluded: the Reeb curvature 2*cot(2r) vanishes at pi/4"
        )

    m = 2 * k
    model = build_tangent_model(m)
    N = isotropic_vector(model)
    xi = -(model.J @ N)

    # Coordinates of Z_3..Z_{k+1} and their J images (W1), and of
    # Z_{k+2}..Z_{2k} and theirs (W2).
    w1 = [*range(2, k + 1), *range(m + 2, m + k + 1)]
    w2 = [*range(k + 1, m), *range(m + k + 1, 2 * m)]
    # Adding 0.0 turns the -0.0 entries of the rank-one term into +0.0, as
    # the sum with the two diagonal block terms does.
    S = tube_reeb_curvature(r) * np.outer(xi, xi) + 0.0
    S[w1, w1] = -math.tan(r)
    S[w2, w2] = 1.0 / math.tan(r)
    h = induce_from_normal(model, N, S)
    eye = np.eye(model.dim)
    return TubeModel(k=int(k), r=float(r), h=h, bases={"W1": eye[:, w1], "W2": eye[:, w2]})


def default_radius_grid(points: int = 20) -> list[float]:
    """Admissible tube radii for sweeps in tests and demos.

    Uniform in ``(0.05, pi/2 - 0.05)`` with the window of half-width
    ``RADIUS_EXCLUSION_HALFWIDTH`` around ``pi/4`` removed.
    """
    grid = np.linspace(0.05, math.pi / 2.0 - 0.05, points)
    return [float(r) for r in grid if abs(r - math.pi / 4.0) >= RADIUS_EXCLUSION_HALFWIDTH]


def paired_curvature(alpha: float, lam: float) -> float:
    """Partner principal curvature ``(alpha lam + 2) / (2 lam - alpha)``.

    For a Hopf hypersurface with singular normal, the image under the
    structure tensor of a curvature-``lam`` direction in the invariant
    subbundle is again principal, with this curvature.

    Raises:
        ExcludedParameterError: if ``2 lam = alpha`` (never attained by
            consistent data).
    """
    denom = 2.0 * lam - alpha
    if abs(denom) < 1e-9:
        raise ExcludedParameterError(f"2*lambda = alpha is excluded (lambda = {lam!r})")
    return (alpha * lam + 2.0) / denom


def perturbed_tube(k: int, r: float, rng: np.random.Generator) -> HypersurfaceData:
    """Isotropic Hopf data in the tube frame with re-drawn principal curvatures.

    Each complex pair of the invariant complement gets an independent random
    curvature in ``(-2, 2)``, at least 0.1 from ``alpha / 2``, together with
    its partner under :func:`paired_curvature`, so the pointwise Hopf
    consistency identities continue to hold while the Reeb flow is
    generically no longer isometric.
    """
    tube = build_tube(k, r)
    model = tube.h.model
    alpha = tube_reeb_curvature(r)
    xi = tube.h.xi
    S = alpha * np.outer(xi, xi)
    for i in range(3, 2 * k + 1):
        lam = float(rng.uniform(-2.0, 2.0))
        while abs(2.0 * lam - alpha) < 0.2:
            lam = float(rng.uniform(-2.0, 2.0))
        mu = paired_curvature(alpha, lam)
        x = model.zvec(i)
        jx = model.jzvec(i)
        S += lam * np.outer(x, x) + mu * np.outer(jx, jx)
    return induce_from_normal(model, tube.h.N, S)


def random_hopf_data(
    m: int,
    rng: np.random.Generator,
    kind: str = "generic",
    alpha: float | None = None,
) -> HypersurfaceData:
    """Random Hopf data with a normal of the requested singular type.

    ``kind`` is one of ``"generic"``, ``"principal"``, ``"isotropic"``.  The
    shape operator is a random self-adjoint operator on the complement of
    the Reeb direction plus ``alpha`` on the Reeb direction itself.
    """
    model = build_tangent_model(m)
    dim = model.dim
    if kind == "generic":
        N = rng.standard_normal(dim)
        N /= np.linalg.norm(N)
    elif kind == "principal":
        v = rng.standard_normal(m)
        v /= np.linalg.norm(v)
        v = np.concatenate([v, np.zeros(m)])
        s = float(rng.uniform(0.0, math.pi))
        N = math.cos(s) * v + math.sin(s) * (model.J @ v)
    elif kind == "isotropic":
        v = rng.standard_normal(m)
        v /= np.linalg.norm(v)
        w = rng.standard_normal(m)
        w -= (w @ v) * v
        w /= np.linalg.norm(w)
        v = np.concatenate([v, np.zeros(m)])
        w = np.concatenate([w, np.zeros(m)])
        N = (v + model.J @ w) / math.sqrt(2.0)
    else:
        raise ValueError(f"unknown normal kind {kind!r}")

    xi = -(model.J @ N)
    if alpha is None:
        alpha = float(rng.uniform(0.3, 2.5) * rng.choice([-1.0, 1.0]))
    P = np.eye(dim) - np.outer(N, N)
    Q = P - np.outer(xi, xi)
    raw = rng.standard_normal((dim, dim))
    S = alpha * np.outer(xi, xi) + Q @ (0.5 * (raw + raw.T)) @ Q
    return induce_from_normal(model, N, S)


# ---------------------------------------------------------------------------
# Principal-normal candidates
# ---------------------------------------------------------------------------

def build_principal_candidate(m: int, alpha: float, curvatures: list[float]) -> HypersurfaceData:
    """Build a principal-normal Hopf candidate with prescribed shape spectrum.

    The normal is ``Z_1`` and the Reeb direction ``-J Z_1``, so the adapted
    conjugation is the model conjugation itself.

    Args:
        m: complex dimension (>= 3 for the suites).
        alpha: nonzero Reeb curvature.
        curvatures: the ``2(m-1)`` eigenvalues on the complex subbundle, on
            ``Z_2..Z_m`` and then on ``J Z_2..J Z_m``.

    Raises:
        ExcludedParameterError: if ``alpha`` is zero.
        ModelValidationError: if ``curvatures`` does not have ``2(m-1)`` entries.
    """
    if alpha == 0.0:
        raise ExcludedParameterError("alpha must be nonzero (non-vanishing geodesic Reeb flow)")
    model = build_tangent_model(m)
    N = principal_vector(model)
    xi = -model.jzvec(1)

    if len(curvatures) != 2 * (m - 1):
        raise ModelValidationError(f"expected {2 * (m - 1)} curvatures, got {len(curvatures)}")
    S = alpha * np.outer(xi, xi)
    for j in range(2, m + 1):
        z, jz = model.zvec(j), model.jzvec(j)
        S += curvatures[j - 2] * np.outer(z, z)
        S += curvatures[m - 1 + j - 2] * np.outer(jz, jz)
    return induce_from_normal(model, N, S)


def _quadratic_roots(alpha: float) -> tuple[float, float]:
    """Roots of ``x^2 - (alpha + 6/alpha) x + 2 = 0`` (always real)."""
    s = alpha + 6.0 / alpha
    d = math.sqrt(s * s - 8.0)
    return 0.5 * (s + d), 0.5 * (s - d)


def reeb_parallel_principal_candidate(m: int, alpha: float) -> HypersurfaceData:
    """Principal candidate whose structure Jacobi operator is Reeb parallel.

    On each complex pair the curvatures solve the reduced first-order system
    (``lam`` a root of ``x^2 - (alpha + 6/alpha) x + 2``, partner
    ``lam - 6/alpha``).  The data is Hopf and principal, and satisfies the
    quadratic Hopf identity and the first five equations of the derived
    chain to rounding; the chain first fails at ``sandwich``, the step that
    needs the derivative of the conjugation, which pointwise data does not
    carry.
    """
    if alpha == 0.0:
        raise ExcludedParameterError("alpha must be nonzero (non-vanishing geodesic Reeb flow)")
    lam, _ = _quadratic_roots(alpha)
    mu = lam - 6.0 / alpha
    curvatures = [lam] * (m - 1) + [mu] * (m - 1)
    return build_principal_candidate(m, alpha, curvatures)
