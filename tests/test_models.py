"""Model spaces: the tube family and principal-normal candidates."""

import math

import numpy as np
import numpy.testing as npt
import pytest

import quadric as q
from quadric import ExcludedParameterError, InvalidDimensionError, ModelValidationError
from quadric.models import _complex_pair_columns, tube_reeb_curvature

from conftest import paired_candidate


class TestBuildTube:
    def test_reeb_curvature_value(self):
        tube = q.build_tube(2, math.pi / 6.0)
        assert tube.h.alpha == pytest.approx(1.154700538, abs=1e-9)

    def test_shape_spectrum_at_pi_sixth(self):
        tube = q.build_tube(2, math.pi / 6.0)
        rep = q.sym_eigen(tube.h.frame.T @ tube.h.S @ tube.h.frame)
        expected = [
            (-1.0 / math.sqrt(3.0), 2),
            (0.0, 2),
            (2.0 / math.sqrt(3.0), 1),
            (math.sqrt(3.0), 2),
        ]
        dev = q.match_spectrum(rep.clusters, expected)
        assert dev < 1e-14

    def test_tangent_dimension_sums(self):
        tube = q.build_tube(3, 0.9)
        assert tube.h.frame.shape[1] == 11  # 1 + 2 + 4 + 4

    def test_frame_labels_are_eigenvectors(self):
        tube = q.build_tube(2, 0.6)
        S = tube.h.S
        npt.assert_allclose(S @ tube.h.A_xi, 0.0, atol=1e-14)
        npt.assert_allclose(S @ tube.h.A_N, 0.0, atol=1e-14)
        npt.assert_allclose(
            S @ tube.bases["W1"], -math.tan(0.6) * tube.bases["W1"], atol=1e-13
        )
        npt.assert_allclose(
            S @ tube.bases["W2"], (1.0 / math.tan(0.6)) * tube.bases["W2"], atol=1e-13
        )

    @pytest.mark.parametrize("bad_r", [0.0, -0.3, math.pi / 2.0, 2.0])
    def test_radius_range(self, bad_r):
        with pytest.raises(ExcludedParameterError):
            q.build_tube(2, bad_r)

    def test_quarter_pi_excluded_by_default(self):
        with pytest.raises(ExcludedParameterError, match="0.785"):
            q.build_tube(2, math.pi / 4.0)

    def test_quarter_pi_constructible_when_allowed(self):
        tube = q.build_tube(2, math.pi / 4.0, non_vanishing=False)
        assert abs(tube.h.alpha) < 1e-15

    def test_k_below_two(self):
        with pytest.raises(InvalidDimensionError):
            q.build_tube(1, 0.5)


def dense_tube(k, r):
    """The tube as ``S = alpha xi xi^T - tan(r) W1 W1^T + cot(r) W2 W2^T`` on the
    shared model, with ``W1``, ``W2`` stacked from ``Z`` and ``J Z`` columns.
    The shared model has the bits of the block form
    (``test_tangent.py::test_bits_match_block_form``)."""
    model = q.build_tangent_model(2 * k)
    N = q.isotropic_vector(model)
    xi = -(model.J @ N)
    W1 = _complex_pair_columns(model, range(3, k + 2))
    W2 = _complex_pair_columns(model, range(k + 2, 2 * k + 1))
    S = (
        tube_reeb_curvature(r) * np.outer(xi, xi)
        + (-math.tan(r)) * (W1 @ W1.T)
        + (1.0 / math.tan(r)) * (W2 @ W2.T)
    )
    return q.induce_from_normal(model, N, S), W1, W2


class TestTubeBits:
    @pytest.mark.parametrize("k", [2, 3, 8, 32])
    @pytest.mark.parametrize("r", [1e-3, 0.3, 0.6, math.pi / 4.0, 1.3, math.pi / 2.0 - 1e-3])
    def test_matches_dense_construction(self, k, r):
        """Diagonal blocks and identity columns give the bits of the dense sums,
        signed zeros included."""
        tube = q.build_tube(k, r, non_vanishing=False)
        h_ref, W1, W2 = dense_tube(k, r)
        assert tube.bases["W1"].tobytes() == W1.tobytes()
        assert tube.bases["W2"].tobytes() == W2.tobytes()
        for name in ("S", "conj", "phi", "B", "frame"):
            assert getattr(tube.h, name).tobytes() == getattr(h_ref, name).tobytes(), name


class TestTubeGridInvariants:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_full_radius_grid(self, k):
        for r in q.default_radius_grid():
            tube = q.build_tube(k, r)
            h = tube.h
            assert q.hopf_identity_residual(h) < 1e-11
            assert q.alpha_gradient_residual(h) < 1e-12
            assert np.max(np.abs(h.phi @ h.S - h.S @ h.phi)) < 1e-12
            assert q.reeb_parallel_residual(h) < 1e-11
            assert float(np.linalg.norm(h.S @ h.A_xi)) < 1e-12
            assert float(np.linalg.norm(h.S @ h.A_N)) < 1e-12

    def test_partner_curvature_fixed_points_on_grid(self):
        """Both invariant-block curvatures are fixed by the partner map."""
        for r in q.default_radius_grid():
            alpha = 2.0 / math.tan(2.0 * r)
            assert abs(q.paired_curvature(alpha, -math.tan(r)) + math.tan(r)) < 1e-12
            assert abs(q.paired_curvature(alpha, 1.0 / math.tan(r)) - 1.0 / math.tan(r)) < 1e-12

    def test_excluded_curvature_margin_on_grid(self):
        """2 lambda - alpha stays bounded away from zero on the invariant blocks."""
        for r in q.default_radius_grid():
            alpha = 2.0 / math.tan(2.0 * r)
            margin = min(
                abs(2.0 * (-math.tan(r)) - alpha), abs(2.0 / math.tan(r) - alpha)
            )
            assert margin >= 2.0 - 1e-12

    def test_grid_respects_exclusion_window(self):
        grid = q.default_radius_grid()
        assert len(grid) >= 18
        assert all(abs(r - math.pi / 4.0) >= 0.01 for r in grid)


def _jacobi_spectrum(tube):
    """Spectrum of the structure Jacobi operator on the tube's tangent space."""
    return q.sym_eigen(tube.h.frame.T @ q.structure_jacobi(tube.h) @ tube.h.frame)


class TestTubeJacobiSpectrum:
    def test_spectrum_at_point_six(self):
        tube = q.build_tube(2, 0.6)
        rep = _jacobi_spectrum(tube)
        expected = [(0.0, 3), (math.tan(0.6) ** 2, 2), (1.0 / math.tan(0.6) ** 2, 2)]
        dev = q.match_spectrum(rep.clusters, expected)
        assert dev < 1e-12

    def test_degenerate_radius_limit(self):
        """At the vanishing-curvature radius the two nonzero branches merge at 1."""
        tube = q.build_tube(3, math.pi / 4.0, non_vanishing=False)
        rep = _jacobi_spectrum(tube)
        assert [k for _, k in rep.clusters] == [3, 8]
        npt.assert_allclose([v for v, _ in rep.clusters], [0.0, 1.0], atol=1e-12)
        # match_spectrum merges the template's tan^2 = cot^2 = 1 into one cluster,
        # as the solver's clusters merge them.
        assert q.match_spectrum(rep.clusters, q.tube_jacobi_template(3, math.pi / 4.0)) <= 1e-10
        shape = q.sym_eigen(tube.h.frame.T @ tube.h.S @ tube.h.frame)
        assert q.match_spectrum(shape.clusters, q.tube_shape_template(3, math.pi / 4.0)) <= 1e-10

    @pytest.mark.parametrize("k", [2, 3])
    def test_kernel_multiplicity_exactly_three(self, k):
        for r in q.default_radius_grid(10):
            rep = _jacobi_spectrum(q.build_tube(k, r))
            zero_mults = [mult for v, mult in rep.clusters if abs(v) < 1e-9]
            assert zero_mults == [3]


class TestPerturbedTube:
    def test_keeps_consistency_identities(self):
        rng = np.random.default_rng(5)
        h = q.perturbed_tube(2, 0.6, rng)
        assert h.hopf
        assert abs(h.g_axixi) < 1e-14
        assert q.hopf_identity_residual(h) < 1e-12
        assert float(np.linalg.norm(h.S @ h.A_xi)) < 1e-13
        assert float(np.linalg.norm(h.S @ h.A_N)) < 1e-13

    def test_generically_breaks_isometric_flow(self):
        rng = np.random.default_rng(6)
        h = q.perturbed_tube(3, 0.9, rng)
        assert np.max(np.linalg.norm((h.phi_S - h.S_phi) @ h.frame, axis=0)) > 1e-2


class TestPrincipalCandidates:
    def test_paired_construction_satisfies_hopf_identity(self):
        h = paired_candidate(1.0, [0.7, -1.3])
        assert q.hopf_identity_residual(h) < 1e-11

    def test_normal_is_conjugation_fixed(self):
        h = paired_candidate(0.8, [1.0, 2.0, -0.5])
        for i in range(h.frame.shape[1]):
            X = h.frame[:, i]
            assert abs(float((h.conj @ X) @ h.N)) < 1e-14

    def test_conjugation_traces(self):
        h = paired_candidate(1.0, [1.0, 1.0, 1.0])
        A = h.conj
        trace_tm = float(np.trace(h.frame.T @ A @ h.frame))
        assert trace_tm == pytest.approx(-1.0, abs=1e-12)
        C = _complex_pair_columns(h.model, range(2, h.model.m + 1))
        assert float(np.trace(C.T @ A @ C)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_alpha_excluded(self):
        with pytest.raises(ExcludedParameterError):
            paired_candidate(0.0, [1.0, 1.0])
        with pytest.raises(ExcludedParameterError):
            q.reeb_parallel_principal_candidate(3, 0.0)

    def test_curvature_count_checked(self):
        with pytest.raises(ModelValidationError, match="expected 4 curvatures, got 1"):
            q.build_principal_candidate(3, 1.0, [1.0])

    def test_half_alpha_curvature_excluded(self):
        with pytest.raises(ExcludedParameterError):
            paired_candidate(1.0, [0.5, 1.0])

    def test_reeb_parallel_candidate_has_zero_residual(self):
        h = q.reeb_parallel_principal_candidate(3, 1.5)
        assert q.reeb_parallel_residual(h) < 1e-12


class TestRandomHopfData:
    @pytest.mark.parametrize(
        "kind,expected", [("principal", "A-principal"), ("isotropic", "A-isotropic")]
    )
    def test_singular_kinds(self, kind, expected):
        rng = np.random.default_rng(9)
        h = q.random_hopf_data(4, rng, kind=kind)
        assert q.canonical_angle(h.model, h.N).kind == expected
        assert h.hopf

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="unknown normal kind"):
            q.random_hopf_data(3, np.random.default_rng(0), "bogus")

    def test_generic_kind(self):
        rng = np.random.default_rng(10)
        h = q.random_hopf_data(4, rng, kind="generic")
        assert q.canonical_angle(h.model, h.N).kind == "generic"
        assert h.hopf
