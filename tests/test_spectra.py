"""Eigensolvers: exact cases, an independent characteristic-polynomial oracle, the
solver-independent certificate, the eigenvalues-only route and its exact
deflation, errors."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

import quadric as q
from quadric import AsymmetryError, NonFiniteError, match_spectrum, sym_eigen, sym_eigvals
from quadric.spectra import CLUSTER_WIDTH_FACTOR, DEFAULT_TOL, cluster_eigenvalues

from conftest import rotated


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
        dev = match_spectrum(rep.clusters, [(0.0, 2), (4.0, 1)])
        assert dev < 1e-15
        dev = match_spectrum(rep.clusters, [(0.0, 1), (4.0, 2)])
        assert dev == float("inf")
        dev = match_spectrum(rep.clusters, [(0.0, 2), (4.1, 1)])
        # A value mismatch with the template's multiplicities is measured.
        assert dev == pytest.approx(0.1 / 4.1, rel=1e-12)
        dev = match_spectrum(rep.clusters, [(0.0, 3)])
        assert dev == float("inf")

    @pytest.mark.parametrize(
        "template",
        [[(0.0, 2), (4.0, 1), (5.0, 1)], [(0.0, 2), (4.0, 2)]],
        ids=["more_clusters", "larger_multiplicity"],
    )
    def test_match_spectrum_is_inf_on_a_multiplicity_mismatch(self, template):
        """Clusters that differ from the template in number or in any
        multiplicity have no deviation to measure, however close the values
        (fewer clusters and a moved multiplicity: ``accepts_and_rejects``)."""
        assert match_spectrum(((0.0, 2), (4.0, 1)), template) == float("inf")

    def test_match_spectrum_clusters_its_template(self):
        """The template is clustered by the rule of computed spectra: in any
        order, values that coincide merge and a multiplicity 0 drops out."""
        template = [(1.0, 4), (0.0, 3), (1.0 + 1e-14, 4), (5.0, 0)]
        dev = match_spectrum(((0.0, 3), (1.0, 8)), template)
        assert 0.0 < dev < 1e-14

    @pytest.mark.parametrize(
        "clusters, template",
        [
            (((1.0, 2),), [(float("nan"), 2)]),
            (((float("nan"), 2),), [(1.0, 2)]),
            (((0.5, 1), (float("nan"), 2)), [(0.0, 1), (1.0, 2)]),
        ],
        ids=["nan_template", "nan_cluster", "nan_after_a_deviation"],
    )
    def test_match_spectrum_fails_on_nan(self, clusters, template):
        """A NaN value on either side deviates by inf.  ``max(worst, nan)``
        keeps ``worst``, so a NaN must not reach it as a deviation of 0."""
        assert match_spectrum(clusters, template) == float("inf")

    def test_empty_input_has_no_clusters(self):
        assert cluster_eigenvalues([]) == ()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.floats(-1e300, 1e300)
            | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1030, 1e300, -1e300, 1.0]),
            max_size=40,
        ).map(lambda xs: sorted(xs + xs[: len(xs) // 2]))
    )
    def test_clusters_have_the_bits_of_the_reference_rule(self, values):
        """Sorted finite values, signed zeros, subnormals, +-1e300, repeats
        and the empty list cluster bit for bit as the reference rule does."""
        assert _bits(cluster_eigenvalues(np.array(values))) == _bits(_reference_clusters(values))

    @pytest.mark.parametrize(
        "values, multiplicities",
        [
            ([-5.0, -5.0 + 2e-11, math.nan], [1, 2]),
            ([math.nan, 2.0, -3.0], [1, 2]),
            ([math.nan, math.nan], [2]),
            ([math.inf, math.nan, -math.inf], [1, 2]),
        ],
        ids=["below_minus_one", "unsorted", "all_nan", "infinite"],
    )
    def test_nan_never_widens_the_clusters(self, values, multiplicities):
        """NaN sorts last and ``max(1.0, nan)`` is 1.0, so a spectrum with a NaN
        clusters at width ``CLUSTER_WIDTH_FACTOR * DEFAULT_TOL``, whatever its
        other values; ``max(1.0, -v[0], v[-1])`` would widen it to ``|v[0]|``
        and merge -5 with -5 + 2e-11.  A NaN joins the cluster before it (its
        gap compares False), and the spectrum matches nothing."""
        clusters = cluster_eigenvalues(np.array(values))
        assert [k for _, k in clusters] == multiplicities
        assert _bits(clusters) == _bits(_reference_clusters(values))
        assert match_spectrum(clusters, [(v, 1) for v in values]) == math.inf


def _reference_clusters(values):
    """The clustering rule as numpy reductions: width from ``max |v|``,
    gaps from ``np.diff``, one slice sum per cluster."""
    values = np.sort(np.asarray(values, dtype=float))
    if not values.size:
        return ()
    width = CLUSTER_WIDTH_FACTOR * DEFAULT_TOL * max(1.0, float(np.max(np.abs(values))))
    cuts = [0, *(np.flatnonzero(np.diff(values) > width) + 1).tolist(), values.size]
    return tuple((float(values[a:b].sum() / (b - a)), b - a) for a, b in zip(cuts, cuts[1:]))


def _bits(clusters):
    """Clusters with each value as its IEEE bytes, so signed zeros and NaNs compare."""
    return [(np.float64(v).tobytes(), k) for v, k in clusters]


def _refusal(solver, op):
    with pytest.raises((AsymmetryError, NonFiniteError)) as excinfo:
        solver(op)
    return excinfo.value


def _with_entry(value, i=1, j=2, symmetric=True):
    a = np.eye(4)
    a[i, j] = value
    if symmetric:
        a[j, i] = value
    return a


#: Inputs both solvers refuse, with the error they raise.
REFUSALS = {
    "asymmetric": (np.array([[1.0, 2.0], [0.0, 1.0]]), AsymmetryError),
    "asymmetric-just-above-tol": (_with_entry(2.0 * DEFAULT_TOL, symmetric=False), AsymmetryError),
    "non-square": (np.ones((2, 3)), AsymmetryError),
    "vector": (np.ones(3), AsymmetryError),
    "stack": (np.ones((2, 3, 3)), AsymmetryError),
    "nan": (_with_entry(np.nan), NonFiniteError),
    "inf": (_with_entry(np.inf), NonFiniteError),
    "-inf-asymmetric": (_with_entry(-np.inf, symmetric=False), NonFiniteError),
}


def _tube_operators(k, r):
    """Shape and structure Jacobi operators of a tube in its tangent frame."""
    h = q.build_tube(k, r, non_vanishing=False).h
    return [h.frame.T @ M @ h.frame for M in (h.S, q.structure_jacobi(h))]


def _assert_agree(op):
    values = sym_eigvals(op)
    bound = 1e-13 * max(1.0, float(np.linalg.norm(op, 2)))
    assert values.shape == (op.shape[0],)
    assert np.all(np.diff(values) >= 0.0)
    assert np.max(np.abs(values - sym_eigen(op).eigenvalues)) <= bound


class TestEigenvaluesOnly:
    """``sym_eigvals`` refuses what ``sym_eigen`` refuses and returns its eigenvalues."""

    @pytest.mark.parametrize("case", list(REFUSALS))
    def test_same_refusal_as_sym_eigen(self, case):
        op, error = REFUSALS[case]
        full, values_only = _refusal(sym_eigen, op), _refusal(sym_eigvals, op)
        assert type(full) is type(values_only) is error
        assert str(full) == str(values_only)
        if error is AsymmetryError:
            assert repr(full.defect) == repr(values_only.defect)

    def test_defect_at_the_tolerance_is_accepted(self):
        op = _with_entry(DEFAULT_TOL, symmetric=False)
        npt.assert_array_equal(sym_eigvals(op), sym_eigen(op).eigenvalues)

    @pytest.mark.parametrize("k", [2, 3, 8, 32])
    @pytest.mark.parametrize("r", [1e-3, 0.3, 0.6, math.pi / 4.0, 1.3, math.pi / 2.0 - 1e-3])
    def test_agrees_on_tubes(self, k, r):
        for op in _tube_operators(k, r):
            _assert_agree(op)

    @pytest.mark.parametrize("k, seed", [(3, 1), (8, 2), (16, 3)])
    def test_agrees_on_densely_rotated_tubes(self, k, seed):
        h = rotated(q.build_tube(k, 0.7).h, seed)
        for M in (h.S, q.structure_jacobi(h)):
            _assert_agree(h.frame.T @ M @ h.frame)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 128])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_agrees_on_random_symmetric(self, n, scale):
        raw = np.random.default_rng(n).standard_normal((n, n))
        _assert_agree(scale * (raw + raw.T))

    def test_clusters_match_the_report(self):
        for op in _tube_operators(8, 0.6):
            got, expected = cluster_eigenvalues(sym_eigvals(op)), sym_eigen(op).clusters
            assert [k for _, k in got] == [k for _, k in expected]
            npt.assert_allclose([v for v, _ in got], [v for v, _ in expected], rtol=0, atol=1e-13)


def _lapack_shapes(monkeypatch):
    """Record the shape of every matrix passed to ``np.linalg.eigvalsh``."""
    shapes = []
    solver = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return shapes


class TestDeflation:
    """Rows of ``(op + op^T) / 2`` with no nonzero off-diagonal entry are read
    off the diagonal; only the remaining rows are solved."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e6]),
        data=st.data(),
    )
    def test_zeroed_rows_under_permutation(self, n, seed, scale, data):
        decoupled = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        perm = data.draw(st.permutations(range(n)))
        raw = np.random.default_rng(seed).standard_normal((n, n))
        a = scale * (raw + raw.T)
        diag = a.diagonal().copy()
        a[decoupled, :] = 0.0
        a[:, decoupled] = 0.0
        a[np.diag_indices(n)] = diag
        a = a[np.ix_(perm, perm)]
        _assert_agree(a)
        values = sym_eigvals(a)
        for v in diag[decoupled]:
            assert np.count_nonzero(values == v) >= np.count_nonzero(diag[decoupled] == v)

    def test_decoupled_diagonal_is_returned_bit_for_bit(self, monkeypatch):
        shapes = _lapack_shapes(monkeypatch)
        diag = np.array([0.1, -1.0 / 3.0, 2.0**-60, 7e5, math.pi])
        a = np.diag(diag)
        a[1, 4] = a[4, 1] = 0.25
        values = sym_eigvals(a)
        for i in (0, 2, 3):
            assert np.count_nonzero(values == diag[i]) == 1
        assert shapes == [(2, 2)]
        npt.assert_array_equal(np.diff(values) >= 0.0, True)

    def test_subnormal_entry_keeps_its_rows_coupled(self, monkeypatch):
        shapes = _lapack_shapes(monkeypatch)
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        a[0, 2] = a[2, 0] = 5e-324
        _assert_agree(a)
        assert shapes == [(2, 2)]

    def test_empty_and_single(self, monkeypatch):
        assert sym_eigvals(np.zeros((0, 0))).shape == (0,)
        shapes = _lapack_shapes(monkeypatch)
        npt.assert_array_equal(sym_eigvals(np.array([[-2.5]])), [-2.5])
        assert shapes == []

    def test_all_diagonal_makes_no_lapack_call(self, monkeypatch):
        shapes = _lapack_shapes(monkeypatch)
        diag = np.array([3.0, -1.0, 0.0, 3.0, 1e-300, -7.5])
        npt.assert_array_equal(sym_eigvals(np.diag(diag)), np.sort(diag))
        assert shapes == []

    @pytest.mark.parametrize("n", [2, 7, 64, 128])
    def test_dense_input_is_solved_whole(self, monkeypatch, n):
        raw = np.random.default_rng(n).standard_normal((n, n))
        op = raw + raw.T
        op[0, 1] += 0.5 * DEFAULT_TOL  # asymmetric within the tolerance
        expected = np.linalg.eigvalsh(0.5 * (op + op.T))
        shapes = _lapack_shapes(monkeypatch)
        assert sym_eigvals(op).tobytes() == expected.tobytes()
        assert shapes == [(n, n)]
