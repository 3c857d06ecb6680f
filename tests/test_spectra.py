"""Eigensolver: exact cases, an independent characteristic-polynomial oracle, the
solver-independent certificate, errors."""

import numpy as np
import numpy.testing as npt
import pytest

from quadric import AsymmetryError, NonFiniteError, match_spectrum, sym_eigen
from quadric.spectra import DEFAULT_TOL, cluster_eigenvalues


def charpoly_coefficients(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial by trace recursion (Faddeev-LeVerrier).

    Returns monic coefficients, highest degree first.  Uses only matrix
    products and traces, independent of any eigensolver.
    """
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    M = np.zeros_like(a)
    for k in range(1, n + 1):
        M = a @ M + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ M) / k
    return coeffs


class TestSymEigen:
    def test_identity(self):
        rep = sym_eigen(np.eye(6))
        assert rep.clusters == ((1.0, 6),)

    def test_diagonal_multiplicities(self):
        rep = sym_eigen(np.diag([0.0, 0.0, 4.0]))
        assert rep.clusters == ((0.0, 2), (4.0, 1))

    def test_random_symmetric_against_charpoly_roots(self):
        rng = np.random.default_rng(42)
        raw = rng.standard_normal((8, 8))
        a = 0.5 * (raw + raw.T)
        rep = sym_eigen(a)
        roots = np.sort(np.roots(charpoly_coefficients(a)).real)
        npt.assert_allclose(rep.eigenvalues, roots, atol=1e-9)

    def test_eigenpairs_and_reconstruction(self):
        rng = np.random.default_rng(9)
        raw = rng.standard_normal((12, 12))
        a = 0.5 * (raw + raw.T)
        rep = sym_eigen(a)
        assert rep.reconstruction_residual <= 100 * DEFAULT_TOL
        for lam, v in zip(rep.eigenvalues, rep.vectors.T):
            assert np.linalg.norm(a @ v - lam * v) < 1e-10
        npt.assert_allclose(rep.vectors.T @ rep.vectors, np.eye(12), atol=1e-12)

    def test_asymmetric_input_reports_defect(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(AsymmetryError) as excinfo:
            sym_eigen(a)
        assert excinfo.value.defect == pytest.approx(2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        a = np.eye(4)
        a[1, 2] = a[2, 1] = bad
        with pytest.raises(NonFiniteError):
            sym_eigen(a)

    def test_certificate_on_dense_and_clustered_inputs(self):
        """Reconstruction and orthogonality residuals certify the eigenpairs."""
        rng = np.random.default_rng(128)
        raw = rng.standard_normal((128, 128))
        dense = 0.5 * (raw + raw.T)
        q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        clustered = q @ np.diag([-2.0, 0.5, 0.5, 0.5, 1.0, 3.0, 3.5, 4.0, 7.0, 9.0]) @ q.T
        for a in (dense, 0.5 * (clustered + clustered.T)):
            rep = sym_eigen(a)
            assert rep.reconstruction_residual <= 1e-10
            assert rep.orthogonality_residual <= 1e-10
        assert [k for _, k in rep.clusters] == [1, 3, 1, 1, 1, 1, 1, 1]

    def test_large_scale_matrix(self):
        """Entries of the size the radius grid actually produces."""
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((15, 15)))
        a = q @ np.diag(np.repeat([400.0, 0.0, -20.0], 5)) @ q.T
        rep = sym_eigen(0.5 * (a + a.T))
        assert [k for _, k in rep.clusters] == [5, 5, 5]

    def test_cluster_width_scales_with_norm(self):
        """Eigenvalues of size 1e6 carry rounding errors far above the tolerance."""
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        a = q @ np.diag(np.repeat([1e6, 2e6, -1.0], 3)) @ q.T
        rep = sym_eigen(0.5 * (a + a.T))
        assert [k for _, k in rep.clusters] == [3, 3, 3]
        # backward stable: each eigenvalue is off by a small multiple of eps * ||op||_2
        npt.assert_allclose([v for v, _ in rep.clusters], [-1.0, 1e6, 2e6], rtol=0, atol=1e-14 * 2e6)


class TestClustering:
    def test_cluster_widths(self):
        values = np.array([0.0, 1e-12, 1.0, 1.0 + 5e-12, 2.0])
        # width 10 * DEFAULT_TOL * max(1, max |v|) = 2e-11 here
        clusters = cluster_eigenvalues(values)
        assert [k for _, k in clusters] == [2, 2, 1]
        npt.assert_allclose([v for v, _ in clusters], [0.0, 1.0, 2.0], atol=1e-11)
        # distinct values separated by more than the width stay separate
        assert cluster_eigenvalues(np.array([0.0, 1e-10])) == ((0.0, 1), (1e-10, 1))

    def test_match_spectrum_accepts_and_rejects(self):
        rep = sym_eigen(np.diag([0.0, 0.0, 4.0]))
        ok, dev = match_spectrum(rep, [(0.0, 2), (4.0, 1)])
        assert ok and dev < 1e-15
        ok, dev = match_spectrum(rep, [(0.0, 1), (4.0, 2)])
        assert not ok and dev == float("inf")
        ok, _ = match_spectrum(rep, [(0.0, 2), (4.1, 1)])
        assert not ok
        ok, dev = match_spectrum(rep, [(0.0, 3)])
        assert not ok and dev == float("inf")
