"""Hypersurface calculus: induced structure, Gauss/Codazzi/Ricci, the structure
Jacobi operator and its Reeb derivative, residual gauges, serialization."""

import math

import numpy as np
import numpy.testing as npt
import pytest

import quadric as q
from quadric import (
    AsymmetryError,
    HopfRequiredError,
    ModelValidationError,
    NonFiniteError,
    NonTangentError,
    NormalizationError,
)
from quadric.hypersurface import reeb_covariant_derivative, reeb_derivative_reduced


@pytest.fixture(scope="module")
def tube():
    return q.build_tube(2, 0.6)


@pytest.fixture(scope="module")
def principal_paired():
    return q.build_principal_candidate(3, 1.0, [0.7, -1.3])


def random_hopf(m=4, kind="generic", seed=0):
    return q.random_hopf_data(m, np.random.default_rng(seed), kind=kind)


# ---------------------------------------------------------------------------
# Induction from a normal
# ---------------------------------------------------------------------------

class TestInduceFromNormal:
    def test_isotropic_zero_shape(self):
        """N = (Z_1 + JZ_2)/sqrt(2) with S = 0: xi = (Z_2 - JZ_1)/sqrt(2), alpha = 0."""
        model = q.build_tangent_model(3)
        N = q.isotropic_vector(model)
        h = q.induce_from_normal(model, N, np.zeros((6, 6)))
        expected_xi = (model.zvec(2) - model.jzvec(1)) / math.sqrt(2.0)
        npt.assert_allclose(h.xi, expected_xi, atol=1e-15)
        assert h.alpha == 0.0
        assert abs(h.split.g_axixi) < 1e-15

    def test_principal_conjugation_values(self):
        """N = Z_1: the adapted conjugation fixes N and negates xi."""
        model = q.build_tangent_model(3)
        h = q.induce_from_normal(model, model.zvec(1), np.zeros((6, 6)))
        npt.assert_allclose(h.split.A_N, h.N, atol=1e-15)
        npt.assert_allclose(h.split.A_xi, -h.xi, atol=1e-15)
        assert h.split.g_axixi == pytest.approx(-1.0)

    def test_almost_contact_identity(self):
        h = random_hopf(kind="generic", seed=3)
        P = h.projector
        eye = np.eye(h.model.dim)
        defect = P @ (h.phi @ h.phi + eye - np.outer(h.xi, h.xi)) @ P
        assert np.max(np.abs(defect)) < 1e-13

    def test_adapted_conjugation_pairings(self):
        """g(xi, A N) = 0 for every normal, including ones the base member misses."""
        model = q.build_tangent_model(3)
        N = math.cos(0.4) * model.zvec(1) + math.sin(0.4) * model.jzvec(1)
        h = q.induce_from_normal(model, N, np.zeros((6, 6)))
        assert abs(float(h.xi @ h.split.A_N)) < 1e-14
        assert float(h.split.A_N @ h.N) >= 0.0

    def test_non_unit_normal_rejected(self):
        model = q.build_tangent_model(3)
        with pytest.raises(NormalizationError):
            q.induce_from_normal(model, 1.5 * model.zvec(1), np.zeros((6, 6)))

    def test_non_finite_inputs_rejected(self):
        model = q.build_tangent_model(3)
        S = np.zeros((6, 6))
        S[2, 3] = S[3, 2] = np.nan
        with pytest.raises(NonFiniteError):
            q.induce_from_normal(model, model.zvec(1), S)
        with pytest.raises(NonFiniteError):
            q.induce_from_normal(model, model.zvec(1), np.zeros((6, 6)), q_xi=np.inf)

    def test_shape_auto_projection_warns(self):
        model = q.build_tangent_model(3)
        S = np.eye(6)  # does not annihilate the normal
        h = q.induce_from_normal(model, model.zvec(1), S)
        assert h.warnings and "projected" in h.warnings[0]
        assert np.max(np.abs(h.S @ h.N)) < 1e-15

    def test_asymmetric_shape_rejected(self):
        model = q.build_tangent_model(3)
        S = np.zeros((6, 6))
        S[1, 2] = 1.0
        with pytest.raises(AsymmetryError):
            q.induce_from_normal(model, model.zvec(1), S)

    def test_gauge_default_and_consistency(self):
        """q(xi) defaults to 2 alpha; for nonzero conjugation pairing the
        defining relation q(xi) g(A xi, xi) = 2 alpha g(A xi, xi) is exact."""
        h = random_hopf(kind="generic", seed=8)
        assert h.q_xi == 2.0 * h.alpha
        c = h.split.g_axixi
        assert c != 0.0
        assert h.q_xi * c == 2.0 * h.alpha * c


# ---------------------------------------------------------------------------
# Induced curvature, Ricci, Codazzi
# ---------------------------------------------------------------------------

class TestInducedCurvature:
    def test_vanishes_on_equal_arguments(self, tube):
        h = tube.h
        X = h.frame[:, 3]
        Z = h.frame[:, 5]
        npt.assert_allclose(q.induced_curvature(h, X, X, Z), 0.0, atol=1e-14)

    def test_skew_in_last_slots(self):
        h = random_hopf(seed=12)
        rng = np.random.default_rng(13)
        P = h.projector
        worst = 0.0
        for _ in range(30):
            X, Y, Z, W = (P @ rng.standard_normal(h.model.dim) for _ in range(4))
            worst = max(
                worst,
                abs(
                    float(q.induced_curvature(h, X, Y, Z) @ W)
                    + float(q.induced_curvature(h, X, Y, W) @ Z)
                ),
            )
        assert worst < 1e-12

    def test_structure_jacobi_consistency_on_tube(self, tube):
        """g(R(Y, xi) xi, Z) agrees with the structure Jacobi operator."""
        h = tube.h
        R = q.structure_jacobi(h)
        for i in range(h.frame.shape[1]):
            Y = h.frame[:, i]
            npt.assert_allclose(
                q.induced_curvature(h, Y, h.xi, h.xi), R @ Y, atol=1e-12
            )

    def test_rejects_normal_component(self, tube):
        with pytest.raises(NonTangentError):
            q.induced_curvature(tube.h, tube.h.N, tube.h.xi, tube.h.xi)

    def test_single_column_matches_vector(self):
        """A one-column stack runs the vector path: same shape with the axis, same value."""
        h = random_hopf(seed=14)
        X, Y, Z = (h.projector @ v for v in np.random.default_rng(15).standard_normal((3, 8)))
        vec = q.induced_curvature(h, X, Y, Z)
        col = q.induced_curvature(h, X[:, None], Y[:, None], Z[:, None])
        assert vec.shape == (8,) and col.shape == (8, 1)
        npt.assert_allclose(col[:, 0], vec, rtol=0.0, atol=1e-13)

    def test_stack_matches_columns(self):
        """Column j of a stacked call is the vector call on column j; a vector
        argument pairs with every column."""
        h = random_hopf(seed=16)
        rng = np.random.default_rng(17)
        X = h.projector @ rng.standard_normal(8)
        Y, Z = (h.projector @ rng.standard_normal((8, 5)) for _ in range(2))
        stacked = q.induced_curvature(h, Y, X, Z)
        assert stacked.shape == (8, 5)
        for j in range(5):
            npt.assert_allclose(
                stacked[:, j], q.induced_curvature(h, Y[:, j], X, Z[:, j]), rtol=0.0, atol=1e-13
            )

    @pytest.mark.parametrize("column", [0, 3, 6])
    def test_one_normal_column_rejects_the_stack(self, tube, column):
        """The tangency bound holds per column, so a batch cannot dilute it."""
        h = tube.h
        F = h.frame.copy()
        F[:, column] += 1e-6 * h.N
        with pytest.raises(NonTangentError):
            q.induced_curvature(h, h.xi, F, h.frame)
        with pytest.raises(NonTangentError):
            q.ricci(h, F)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_column_rejected(self, tube, bad):
        """Before, a NaN column raised NonTangentError("g(X, N) = nan")."""
        h = tube.h
        F = h.frame.copy()
        F[2, 4] = bad
        with pytest.raises(NonFiniteError):
            q.induced_curvature(h, h.xi, F, h.frame)
        with pytest.raises(NonFiniteError):
            q.ricci(h, F[:, 4])


class TestRicci:
    def test_reeb_value_on_tube(self, tube):
        """Ric xi = ((2m - 4) + tr(S) alpha - alpha^2) xi on the tube."""
        h = tube.h
        m = h.model.m
        expected = (2 * m - 4 + np.trace(h.S) * h.alpha - h.alpha**2) * h.xi
        npt.assert_allclose(q.ricci(h, h.xi), expected, atol=1e-12)

    def test_stack_matches_columns(self):
        """ricci on the whole frame equals the per-vector columns."""
        h = random_hopf(kind="principal", seed=22)
        F = h.frame
        stacked = q.ricci(h, F)
        assert stacked.shape == F.shape
        for i in range(F.shape[1]):
            npt.assert_allclose(stacked[:, i], q.ricci(h, F[:, i]), rtol=0.0, atol=1e-13)

    def test_contraction_takes_one_vector(self):
        h = random_hopf(seed=23)
        with pytest.raises(ValueError):
            q.ricci_contraction(h, h.frame)

    def test_self_adjoint_on_tangent_space(self):
        h = random_hopf(seed=21)
        F = h.frame
        mat = np.column_stack([q.ricci(h, F[:, i]) for i in range(F.shape[1])])
        restricted = F.T @ mat
        assert np.max(np.abs(restricted - restricted.T)) < 1e-11

    @pytest.mark.parametrize("kind", ["generic", "principal", "isotropic"])
    def test_contraction_oracle(self, kind):
        """Closed form equals the frame contraction of the Gauss curvature."""
        h = random_hopf(kind=kind, seed=31)
        for i in range(0, h.frame.shape[1], 2):
            X = h.frame[:, i]
            npt.assert_allclose(q.ricci(h, X), q.ricci_contraction(h, X), atol=1e-10)


class TestCodazzi:
    def test_vanishes_on_equal_arguments(self, tube):
        X = tube.h.frame[:, 2]
        npt.assert_allclose(q.codazzi_rhs(tube.h, X, X), 0.0, atol=1e-14)

    def test_isotropic_reeb_slot(self, tube):
        """X = xi on isotropic data: phi Y + g(A xi, Y) A N - g(A N, Y) A xi."""
        h = tube.h
        for i in range(h.frame.shape[1]):
            Y = h.frame[:, i]
            expected = (
                h.phi @ Y
                + float(h.split.A_xi @ Y) * h.split.A_N
                - float(h.split.A_N @ Y) * h.split.A_xi
            )
            npt.assert_allclose(q.codazzi_rhs(h, h.xi, Y), expected, atol=1e-13)

    def test_principal_reeb_slot(self, principal_paired):
        """X = xi on principal data reduces to phi Y - phi A Y."""
        h = principal_paired.h
        A = h.conj
        for i in range(h.frame.shape[1]):
            Y = h.frame[:, i]
            expected = h.phi @ Y - h.phi @ (A @ Y)
            npt.assert_allclose(q.codazzi_rhs(h, h.xi, Y), expected, atol=1e-13)


# ---------------------------------------------------------------------------
# Shape derivative along the Reeb direction
# ---------------------------------------------------------------------------

class TestNablaSAtXi:
    def test_commutator_form_for_isotropic_constant_alpha(self):
        """Isotropic consistent data: (nabla_xi S) Y = (alpha/2)(phi S - S phi) Y."""
        h = q.perturbed_tube(3, 0.8, np.random.default_rng(5))
        expected = 0.5 * h.alpha * (h.phi @ h.S - h.S @ h.phi) @ h.projector
        assert np.max(np.abs(q.reeb_shape_derivative(h) - expected)) < 1e-12

    def test_vanishes_on_tube(self, tube):
        assert q.reeb_shape_residual(tube.h) < 1e-13

    def test_principal_form(self, principal_paired):
        """Principal data: (nabla_xi S) Y = alpha phi S Y - S phi S Y + phi Y - phi A Y."""
        h = principal_paired.h
        expected = (
            h.alpha * (h.phi @ h.S) - h.S @ h.phi @ h.S + h.phi - h.phi @ h.conj
        ) @ h.projector
        G = q.reeb_shape_derivative(h)
        assert np.max(np.abs(G - expected)) < 1e-12

    def test_requires_hopf(self):
        model = q.build_tangent_model(3)
        rng = np.random.default_rng(17)
        raw = rng.standard_normal((6, 6))
        h = q.induce_from_normal(model, model.zvec(1), 0.5 * (raw + raw.T))
        assert not h.hopf
        with pytest.raises(HopfRequiredError):
            q.nabla_S_at_xi(h, h.frame[:, 0])


class TestNablaAxi:
    def test_reeb_direction_hopf(self):
        """X = xi on Hopf data: (q(xi) - alpha) phi A xi."""
        h = random_hopf(kind="generic", seed=40)
        phi_A_xi = h.phi @ h.split.A_xi
        expected = (h.q_xi - h.alpha) * phi_A_xi
        npt.assert_allclose(q.nabla_Axi(h, h.xi, h.q_xi), expected, atol=1e-13)

    def test_principal_reduces_to_shape_term(self, principal_paired):
        """phi A xi = 0 for principal normals, leaving B phi S X."""
        h = principal_paired.h
        X = h.frame[:, 1]
        expected = h.split.B @ (h.phi @ (h.S @ X))
        npt.assert_allclose(q.nabla_Axi(h, X, 3.3), expected, atol=1e-13)

    def test_zero_shape_keeps_gauge_term(self):
        model = q.build_tangent_model(3)
        N = math.cos(0.2) * model.zvec(1) + math.sin(0.2) * model.jzvec(2)
        h = q.induce_from_normal(model, N, np.zeros((6, 6)))
        X = h.frame[:, 2]
        expected = 4.2 * (h.phi @ h.split.A_xi)
        npt.assert_allclose(q.nabla_Axi(h, X, 4.2), expected, atol=1e-13)


# ---------------------------------------------------------------------------
# Structure Jacobi operator and its covariant derivative
# ---------------------------------------------------------------------------

class TestStructureJacobi:
    def test_annihilates_reeb_direction_for_hopf(self):
        h = random_hopf(kind="generic", seed=50)
        assert np.max(np.abs(q.structure_jacobi(h) @ h.xi)) < 1e-12

    def test_tube_spectrum(self, tube):
        rep = q.tube_structure_jacobi_spectrum(tube)
        ok, dev = q.match_spectrum(rep, q.tube_jacobi_template(2, 0.6), rel_tol=1e-10)
        assert ok and dev < 1e-12

    def test_self_adjoint(self):
        h = random_hopf(kind="isotropic", seed=51)
        R = q.structure_jacobi(h)
        assert np.max(np.abs(R - R.T)) < 1e-12


class TestCovDerivStructureJacobi:
    @pytest.mark.parametrize("kind", ["generic", "principal", "isotropic"])
    def test_reduces_to_closed_form_at_reeb_direction(self, kind):
        """The full expansion at X = xi equals its closed form for Hopf data."""
        h = random_hopf(kind=kind, seed=60)
        M_full = reeb_covariant_derivative(h)
        M_reduced = reeb_derivative_reduced(h)
        assert np.max(np.abs(M_full - M_reduced)) < 1e-12

    def test_vanishes_on_tube(self, tube):
        M = reeb_covariant_derivative(tube.h)
        assert np.max(np.abs(M)) < 1e-11

    def test_all_terms_vanish_without_shape_and_pairing(self):
        """Isotropic, S = 0, alpha = 0: every term carries S, alpha or the pairing."""
        model = q.build_tangent_model(3)
        h = q.induce_from_normal(model, q.isotropic_vector(model), np.zeros((6, 6)))
        M = q.cov_deriv_structure_jacobi(h, h.xi, h.q_xi, np.zeros((6, 6)), 0.0)
        assert np.max(np.abs(M)) < 1e-14

    def test_matches_public_entry_point(self, tube):
        h = tube.h
        G = q.reeb_shape_derivative(h)
        M = q.cov_deriv_structure_jacobi(h, h.xi, h.q_xi, G, 0.0)
        npt.assert_allclose(M, reeb_covariant_derivative(h), atol=1e-15)

    def test_rejects_asymmetric_shape_derivative(self, tube):
        h = tube.h
        bad = np.zeros((h.model.dim, h.model.dim))
        bad[1, 2] = 1.0
        with pytest.raises(AsymmetryError):
            q.cov_deriv_structure_jacobi(h, h.xi, h.q_xi, bad, 0.0)

    @pytest.mark.parametrize("kind", ["generic", "principal", "isotropic"])
    def test_normal_component_cancellation(self, kind):
        h = random_hopf(kind=kind, seed=61)
        assert q.normal_component_residual(h) < 1e-12


class TestReebParallelResidual:
    def test_tube_is_reeb_parallel(self, tube):
        assert q.reeb_parallel_residual(tube.h) < 1e-11

    def test_perturbed_tube_proportional_to_commutator(self):
        """Isotropic consistent data: residual = |alpha| (|alpha|/2) commutator scale."""
        rng = np.random.default_rng(71)
        h = q.perturbed_tube(2, 1.0, rng)
        comm = q.shape_commutator_scale(h)
        assert comm > 1e-3
        lhs = q.reeb_parallel_residual(h)
        a = abs(h.alpha)
        assert abs(lhs - a * (a / 2.0) * comm) < 1e-10

    def test_gauge_independence_for_isotropic(self):
        rng = np.random.default_rng(72)
        h = q.perturbed_tube(2, 0.5, rng)
        base = q.reeb_parallel_residual(h.with_gauge(0.0))
        for gauge in (h.alpha, 2.0 * h.alpha, 10.0):
            assert abs(q.reeb_parallel_residual(h.with_gauge(gauge)) - base) < 1e-12

    def test_gauge_matters_for_principal(self):
        cand = q.reeb_parallel_principal_candidate(3, 1.2)
        h = cand.h
        assert q.reeb_parallel_residual(h) < 1e-12
        assert q.reeb_parallel_residual(h.with_gauge(h.q_xi + 1.0)) > 0.1


class TestHopfIdentityResidual:
    def test_tube(self, tube):
        assert q.hopf_identity_residual(tube.h) < 1e-11

    def test_paired_principal_candidate(self, principal_paired):
        assert q.hopf_identity_residual(principal_paired.h) < 1e-11

    def test_detects_generic_violation(self):
        h = random_hopf(kind="generic", seed=80)
        assert q.hopf_identity_residual(h) > 0.1


class TestAlphaGradientResidual:
    def test_constant_alpha_isotropic(self, tube):
        assert q.alpha_gradient_residual(tube.h) == 0.0

    def test_constant_alpha_principal(self, principal_paired):
        assert q.alpha_gradient_residual(principal_paired.h) < 1e-15

    def test_injected_defect_is_returned(self, tube):
        h = tube.h
        w = h.frame[:, 4]
        assert abs(float(w @ h.xi)) < 1e-12
        h_bad = h.with_dalpha(h.dalpha + 1e-3 * w)
        assert q.alpha_gradient_residual(h_bad) == pytest.approx(1e-3, rel=1e-9)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_round_trip(self, tube):
        payload = q.to_dict(tube.h)
        h2 = q.from_dict(payload)
        npt.assert_allclose(h2.N, tube.h.N, atol=1e-15)
        npt.assert_allclose(h2.S, tube.h.S, atol=1e-15)
        assert h2.alpha == pytest.approx(tube.h.alpha)
        assert h2.q_xi == pytest.approx(tube.h.q_xi)

    def test_non_unit_normal_rejected(self):
        payload = {"m": 3, "N": [2.0, 0, 0, 0, 0, 0], "S": np.zeros((6, 6)).tolist(), "alpha": 0.0}
        with pytest.raises(ModelValidationError, match="normal not unit"):
            q.from_dict(payload)

    def test_alpha_cross_check(self, tube):
        payload = q.to_dict(tube.h)
        payload["alpha"] = payload["alpha"] + 0.1
        with pytest.raises(ModelValidationError, match="Reeb curvature"):
            q.from_dict(payload)

    def test_gauge_override(self, tube):
        payload = q.to_dict(tube.h)
        payload["q_xi"] = 9.5
        assert q.from_dict(payload).q_xi == 9.5

    def test_malformed_payload(self):
        with pytest.raises(ModelValidationError):
            q.from_dict({"m": 3, "N": "oops"})
