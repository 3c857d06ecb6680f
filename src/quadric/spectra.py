"""Dense symmetric eigensolvers with multiplicity clustering.

Two entry points share one set of guards (square shape, finite entries,
``max |op - op^T| <= DEFAULT_TOL``) and work on the symmetrized operator
``(op + op^T) / 2``:

* :func:`sym_eigen` solves for the eigenpairs (``np.linalg.eigh``, a
  backward-stable solver).  Its report carries a certificate that does not
  depend on which solver produced it: the reconstruction residual
  ``||op - Q diag Q^T||_F`` and the orthogonality residual ``||Q^T Q - I||_F``.
  ``spectrum`` reports the reconstruction residuals; ``classify`` reads the
  clusters of the same certified solve.
* :func:`sym_eigvals` returns the eigenvalues alone: no eigenvectors, no
  certificate products.  A row of the symmetrized operator whose
  off-diagonal entries are all exactly zero has its diagonal entry as an
  exact eigenvalue, read off without a solve (no threshold applies: a
  subnormal entry still couples); only the principal submatrix of the
  remaining rows goes to ``np.linalg.eigvalsh``.  Every template check of
  ``verify ambient``, ``verify tube`` and ``scan tube`` uses it.

Eigenvalues are grouped into multiplicity clusters so that spectra can be
compared against exact closed-form lists; the cluster width scales with the
operator norm, as the eigenvalue error of a backward-stable solver does.
:func:`match_spectrum` returns the deviation of the clusters from such a
list and applies no bound: each caller bounds it in its own check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AsymmetryError, _require_finite

#: Asymmetry bound of every solve, and the unit of its cluster width.
DEFAULT_TOL = 1e-12
#: Eigenvalues within this multiple of ``DEFAULT_TOL * max(1, ||op||_2)`` share a cluster.
CLUSTER_WIDTH_FACTOR = 10.0


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted eigenvalues of a self-adjoint operator with multiplicities.

    Attributes:
        eigenvalues: all eigenvalues, ascending.
        vectors: orthonormal eigenvectors, one per column, same order.
        clusters: ``(value, multiplicity)`` pairs, ascending; each value is
            the mean of its cluster.
        reconstruction_residual: Frobenius norm of ``op - Q diag Q^T``.
        orthogonality_residual: Frobenius norm of ``Q^T Q - I``.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    clusters: tuple[tuple[float, int], ...]
    reconstruction_residual: float
    orthogonality_residual: float


def cluster_eigenvalues(values: np.ndarray) -> tuple[tuple[float, int], ...]:
    """Group eigenvalues into clusters separated by gaps wider than
    ``CLUSTER_WIDTH_FACTOR * DEFAULT_TOL * max(1, max |v|)``."""
    values = np.sort(np.asarray(values, dtype=float))
    if not values.size:
        return ()
    # The largest |v| of sorted values is at an end.  A NaN sorts last; with
    # one, max |v| is NaN and max(1.0, nan) is 1.0, so it never widens a cluster.
    low, high = float(values[0]), float(values[-1])
    scale = 1.0 if math.isnan(high) else max(1.0, -low, high)
    width = CLUSTER_WIDTH_FACTOR * DEFAULT_TOL * scale
    gaps = values[1:] - values[:-1]
    cuts = [0, *((gaps > width).nonzero()[0] + 1).tolist(), values.size]
    # block.sum() / size rounds exactly as np.mean(block) does, without its
    # overhead; np.add.reduceat would keep the sign of a lone -0.0, which sum() drops.
    return tuple((float(values[a:b].sum() / (b - a)), b - a) for a, b in zip(cuts, cuts[1:]))


def _symmetric(op: np.ndarray) -> np.ndarray:
    """``op`` as a float array, after the guards of every solve.

    Raises:
        AsymmetryError: if ``op`` is not square or
            ``max |op - op^T| > DEFAULT_TOL``.
        NonFiniteError: if ``op`` has a NaN or infinite entry.
    """
    op = np.asarray(op, dtype=float)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise AsymmetryError(float("nan"), f"expected a square matrix, got shape {op.shape}")
    _require_finite(operator=op)
    defect = float(np.abs(op - op.T).max()) if op.size else 0.0
    if defect > DEFAULT_TOL:
        raise AsymmetryError(defect)
    return op


def sym_eigen(op: np.ndarray) -> SpectrumReport:
    """Full spectrum of a self-adjoint operator.

    One LAPACK call (``np.linalg.eigh``) on ``(op + op^T) / 2``.  The
    reconstruction and orthogonality residuals of the report certify the
    eigenpairs independently of the solver.  Multiplicities come from
    :func:`cluster_eigenvalues`, whose width reads the spectral norm off the
    computed eigenvalues.

    Raises:
        AsymmetryError: if ``op`` is not square or
            ``max |op - op^T| > DEFAULT_TOL``.
        NonFiniteError: if ``op`` has a NaN or infinite entry.
    """
    op = _symmetric(op)
    values, vectors = np.linalg.eigh(0.5 * (op + op.T))
    recon = float(np.linalg.norm(op - (vectors * values) @ vectors.T))
    orth = float(np.linalg.norm(vectors.T @ vectors - np.eye(len(values))))
    return SpectrumReport(
        eigenvalues=values,
        vectors=vectors,
        clusters=cluster_eigenvalues(values),
        reconstruction_residual=recon,
        orthogonality_residual=orth,
    )


def sym_eigvals(op: np.ndarray) -> np.ndarray:
    """Eigenvalues of a self-adjoint operator, ascending, without eigenvectors.

    The guards of :func:`sym_eigen`, then exact deflation of
    ``sym = (op + op^T) / 2``: a row whose off-diagonal entries are all
    ``0.0`` has ``e_i`` as an exact eigenvector, so its diagonal entry is
    returned as it stands.  The principal submatrix of the other rows goes to
    one LAPACK call (``np.linalg.eigvalsh``); none is made if every row is
    decoupled, and a matrix with no decoupled row is solved whole.  No
    certificate is formed: use it where only the eigenvalues are compared.

    Raises:
        AsymmetryError: if ``op`` is not square or
            ``max |op - op^T| > DEFAULT_TOL``.
        NonFiniteError: if ``op`` has a NaN or infinite entry.
    """
    op = _symmetric(op)
    sym = 0.5 * (op + op.T)
    off = sym != 0.0
    np.fill_diagonal(off, False)
    coupled = off.any(axis=1)
    values = sym.diagonal()[~coupled]
    if coupled.any():
        values = np.concatenate((values, np.linalg.eigvalsh(sym[np.ix_(coupled, coupled)])))
    # A stable sort leaves eigvalsh's ascending output as it is, signed zeros
    # included, so a matrix with no decoupled row keeps its bytes.
    return np.sort(values, kind="stable")


def match_spectrum(
    clusters: tuple[tuple[float, int], ...], template: list[tuple[float, int]]
) -> float:
    """Worst relative deviation of ``(value, multiplicity)`` clusters from a template.

    ``clusters`` is ascending, as :func:`cluster_eigenvalues` returns it and
    :attr:`SpectrumReport.clusters` holds it.  The template is clustered by
    the same rule, so it may be unsorted, repeat a value or hold a
    multiplicity 0.  Values are compared in ascending order, relative to
    ``max(1, |expected|)`` (absolute near zero).  A spectrum whose cluster
    multiplicities differ from the template's, in number or in any entry,
    deviates by ``inf``, and so does a NaN value on either side.  The bound
    is the caller's: a check passes the deviation with its own ``tol``.
    """
    expected = cluster_eigenvalues(np.repeat([v for v, _ in template], [k for _, k in template]))
    if len(clusters) != len(expected):
        return math.inf
    worst = 0.0
    for (got_v, got_k), (exp_v, exp_k) in zip(clusters, expected):
        if got_k != exp_k:
            return math.inf
        deviation = abs(got_v - exp_v) / max(1.0, abs(exp_v))
        if math.isnan(deviation):  # max() would keep the previous worst
            return math.inf
        worst = max(worst, deviation)
    return worst
