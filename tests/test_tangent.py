"""Ambient model: structural identities, canonical angles, curvature, Jacobi spectra."""

import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from quadric import (
    InvalidDimensionError,
    ModelValidationError,
    NonFiniteError,
    NormalizationError,
    TangentModel,
    ambient_curvature,
    ambient_jacobi,
    build_tangent_model,
    canonical_angle,
    induce_from_normal,
    isotropic_vector,
    principal_vector,
    rotate_conjugation,
    sym_eigen,
)
from quadric.tangent import adapted_conjugation

thetas = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def _read_only_view_of_a_copy(model):
    view = model.A.copy()[:]
    view.flags.writeable = False
    return TangentModel(3, model.J, view)


def _rotated(theta, sealed):
    def build(model):
        A = rotate_conjugation(model, theta)
        A.flags.writeable = not sealed
        return TangentModel(3, model.J, A)

    return build


#: Models other than the shared instance at m = 3, each built from it.
OTHER_MODELS = {
    "writeable-copies": lambda model: TangentModel(3, model.J.copy(), model.A.copy()),
    "writeable-A": lambda model: TangentModel(3, model.J, model.A.copy()),
    "read-only-view": _read_only_view_of_a_copy,
    **{
        f"rotated-{theta:.3g}-{'sealed' if sealed else 'writeable'}": _rotated(theta, sealed)
        for theta in (0.3, 1.0, math.pi / 3.0)
        for sealed in (False, True)
    },
    "wrong-shape": lambda model: TangentModel(2, model.J, model.A),
    "sealed-copy": lambda model: TangentModel(3, model.J, model.A),
    "replace": dataclasses.replace,
}


# ---------------------------------------------------------------------------
# Model construction
# ---------------------------------------------------------------------------

class TestBuildTangentModel:
    def test_block_form_m3(self):
        """J maps Z_i to JZ_i and JZ_i to -Z_i; A fixes Z_i and negates JZ_i."""
        model = build_tangent_model(3)
        for i in range(1, 4):
            npt.assert_array_equal(model.J @ model.zvec(i), model.jzvec(i))
            npt.assert_array_equal(model.J @ model.jzvec(i), -model.zvec(i))
            npt.assert_array_equal(model.A @ model.zvec(i), model.zvec(i))
            npt.assert_array_equal(model.A @ model.jzvec(i), -model.jzvec(i))

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 16, 64])
    def test_bits_match_block_form(self, m):
        """Slice assignment gives the bits of the block form, ``-0.0`` included."""
        eye, zero = np.eye(m), np.zeros((m, m))
        model = build_tangent_model(m)
        assert model.J.tobytes() == np.block([[zero, -eye], [eye, zero]]).tobytes()
        assert model.A.tobytes() == np.block([[eye, zero], [zero, -eye]]).tobytes()

    def test_integer_entries(self):
        model = build_tangent_model(5)
        for M in (model.J, model.A):
            assert set(np.unique(M)) <= {-1.0, 0.0, 1.0}

    def test_conjugation_trace_zero(self):
        assert np.trace(build_tangent_model(3).A) == 0.0

    def test_complex_structure_squares_to_minus_id(self):
        model = build_tangent_model(4)
        assert np.linalg.norm(model.J @ model.J + np.eye(8)) == 0.0

    def test_structural_identities(self):
        model = build_tangent_model(4)
        eye = np.eye(model.dim)
        npt.assert_array_equal(model.A @ model.A, eye)
        npt.assert_array_equal(model.A @ model.J + model.J @ model.A, np.zeros_like(eye))
        npt.assert_array_equal(model.A, model.A.T)

    @pytest.mark.parametrize(
        "m, message",
        [
            pytest.param(m, message, id=str(m))
            for m, message in [
                (0, "complex dimension must be >= 1, got 0"),
                (-2, "complex dimension must be >= 1, got -2"),
                (65, "complex dimension must be <= 64, got 65"),
                (2.5, "complex dimension must be an integer, got 2.5"),
                (True, "complex dimension must be an integer, got True"),
                (3.0, "complex dimension must be an integer, got 3.0"),
                ("3", "complex dimension must be an integer, got '3'"),
            ]
        ],
    )
    def test_invalid_dimension(self, m, message):
        """Validation runs before the shared model is looked up, so ``True``
        is refused rather than read as the ``m = 1`` model."""
        with pytest.raises(InvalidDimensionError) as excinfo:
            build_tangent_model(m)
        assert str(excinfo.value) == message

    def test_one_shared_model_per_dimension(self):
        model = build_tangent_model(3)
        assert build_tangent_model(np.int64(3)) is model
        assert build_tangent_model(3) is model
        assert build_tangent_model(4) is not model
        assert type(model.m) is int

    @pytest.mark.parametrize("m", [1, 3, 64])
    def test_shared_arrays_are_read_only(self, m):
        model = build_tangent_model(m)
        for M in (model.J, model.A):
            assert not M.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                M[0, 0] = 2.0

    @pytest.mark.parametrize("m", [1, 2, 3, 16, 64])
    def test_standard_model_is_exact(self, m):
        assert build_tangent_model(m).exact is True

    @pytest.mark.parametrize("build", OTHER_MODELS.values(), ids=list(OTHER_MODELS))
    def test_only_the_shared_instance_is_exact(self, build):
        """Exact means the instance ``build_tangent_model`` returns: a model
        on copies, on a rotated conjugation, of the wrong shape, or on the
        shared read-only arrays themselves is another instance."""
        model = build_tangent_model(3)
        assert not build(model).exact

    @pytest.mark.parametrize("m", [True, 0, 65, 3.0, "3"])
    def test_model_with_an_invalid_dimension_is_not_exact(self, m):
        """``build_tangent_model`` refuses ``m``, so no instance is shared."""
        model = build_tangent_model(1)
        assert not dataclasses.replace(model, m=m).exact

    def test_no_isotropic_direction_at_m_one(self):
        with pytest.raises(InvalidDimensionError):
            isotropic_vector(build_tangent_model(1))


class TestBasisVectors:
    @pytest.mark.parametrize("i", [0, 4, -1, 7, True, False, 1.0])
    @pytest.mark.parametrize("method", ["zvec", "jzvec"])
    def test_index_outside_one_to_m_refused(self, method, i):
        """Before, ``zvec(0)`` returned ``J Z_3``, ``zvec(4)`` ``J Z_1`` and
        ``jzvec(0)`` ``Z_3`` at ``m = 3``, ``zvec(True)`` returned ``Z_1``, and
        ``zvec(1.0)`` failed in numpy's indexing."""
        model = build_tangent_model(3)
        with pytest.raises(IndexError, match=rf"i = {i!r} is outside 1\.\.m for m = 3"):
            getattr(model, method)(i)

    def test_numpy_integer_index_accepted(self):
        model = build_tangent_model(3)
        assert model.zvec(np.int64(2)).tobytes() == model.zvec(2).tobytes()
        assert model.jzvec(np.int64(2)).tobytes() == model.jzvec(2).tobytes()


# ---------------------------------------------------------------------------
# Conjugation circle
# ---------------------------------------------------------------------------

class TestRotateConjugation:
    def test_theta_zero_is_base(self):
        model = build_tangent_model(3)
        npt.assert_array_equal(rotate_conjugation(model, 0.0), model.A)

    def test_theta_pi_is_negated_involution(self):
        model = build_tangent_model(3)
        A_pi = rotate_conjugation(model, math.pi)
        npt.assert_allclose(A_pi, -model.A, atol=1e-15)
        npt.assert_allclose(A_pi @ A_pi, np.eye(model.dim), atol=1e-15)

    def test_involution_at_pi_thirds(self):
        model = build_tangent_model(3)
        A_t = rotate_conjugation(model, math.pi / 3.0)
        assert np.max(np.abs(A_t @ A_t - np.eye(model.dim))) < 1e-14

    @given(theta=thetas)
    def test_rotated_member_properties(self, theta):
        """Every member is a symmetric involution anti-commuting with J."""
        model = build_tangent_model(3)
        A_t = rotate_conjugation(model, theta)
        eye = np.eye(model.dim)
        assert np.max(np.abs(A_t @ A_t - eye)) < 1e-13
        assert np.max(np.abs(A_t - A_t.T)) < 1e-13
        assert np.max(np.abs(A_t @ model.J + model.J @ A_t)) < 1e-13


class TestAdaptedConjugation:
    @pytest.mark.parametrize(
        "build",
        [lambda model: model, OTHER_MODELS["writeable-copies"]],
        ids=["shared", "caller"],
    )
    def test_isotropic_direction_gets_the_models_own_conjugation(self, build):
        """No copy of ``A``, for the shared model and for a caller's model:
        the tangent-level functions store nothing, and ``induce_from_normal``,
        which freezes what it stores, takes only the shared model."""
        model = build(build_tangent_model(3))
        assert adapted_conjugation(model, isotropic_vector(model)) is model.A

    @pytest.mark.parametrize("build", OTHER_MODELS.values(), ids=list(OTHER_MODELS))
    def test_induce_from_normal_refuses_every_other_model(self, build):
        """Any model that is not the shared instance is refused before ``N``
        or ``S`` is read; the message names ``build_tangent_model(m)``."""
        shared = build_tangent_model(3)
        model = build(shared)
        with pytest.raises(ModelValidationError, match=r"build_tangent_model\(m\) only"):
            induce_from_normal(model, isotropic_vector(shared), np.zeros((6, 6)))
        with pytest.raises(ModelValidationError, match=r"build_tangent_model\(m\) only"):
            induce_from_normal(model, np.full(6, np.nan), None)


# ---------------------------------------------------------------------------
# Canonical angle
# ---------------------------------------------------------------------------

class TestCanonicalAngle:
    def test_principal_direction(self):
        model = build_tangent_model(3)
        res = canonical_angle(model, principal_vector(model))
        assert res.t == 0.0
        assert res.kind == "A-principal"

    def test_isotropic_direction(self):
        model = build_tangent_model(3)
        res = canonical_angle(model, isotropic_vector(model))
        assert abs(res.t - math.pi / 4.0) < 1e-12
        assert res.kind == "A-isotropic"

    def test_generic_angle_recovered(self):
        model = build_tangent_model(3)
        U = math.cos(0.3) * model.zvec(1) + math.sin(0.3) * model.jzvec(2)
        res = canonical_angle(model, U)
        assert abs(res.t - 0.3) < 1e-12
        assert res.kind == "generic"

    def test_generic_angle_against_grid_maximization(self):
        """Grid oracle: maximize the conjugation pairing over the circle."""
        model = build_tangent_model(3)
        U = math.cos(0.3) * model.zvec(1) + math.sin(0.3) * model.jzvec(2)
        best = max(
            float(U @ (rotate_conjugation(model, th) @ U))
            for th in np.linspace(0.0, 2.0 * math.pi, 200001)
        )
        t_oracle = 0.5 * math.acos(min(1.0, best))
        assert abs(t_oracle - canonical_angle(model, U).t) < 1e-6

    @given(theta=thetas)
    def test_invariant_under_circle_rotation(self, theta):
        """Replacing the base conjugation by any member leaves the angle fixed."""
        base = build_tangent_model(3)
        rotated = TangentModel(3, base.J, rotate_conjugation(base, theta))
        U = math.cos(0.3) * base.zvec(1) + math.sin(0.3) * base.jzvec(2)
        assert abs(canonical_angle(rotated, U).t - 0.3) < 1e-10

    @pytest.mark.parametrize("m", [3, 16, 64])
    def test_random_directions(self, m):
        """Random principal directions ``e^{is} v`` tag principal and random
        isotropic ones ``e^{is} (v + J w) / sqrt 2`` isotropic, for real
        orthonormal ``v, w``.  A generic angle away from both ends agrees with
        the pairing formula ``acos(hypot(g(AU, U), g(JAU, U))) / 2``."""
        model = build_tangent_model(m)
        rng = np.random.default_rng(m)
        J, A = model.J, model.A
        for _ in range(100):
            v, w = np.vstack([np.linalg.qr(rng.standard_normal((m, 2)))[0], np.zeros((m, 2))]).T
            s = rng.uniform(0.0, math.pi)
            t = rng.uniform(1e-3, math.pi / 4.0 - 1e-3)
            principal, isotropic, generic = (
                math.cos(s) * U + math.sin(s) * (J @ U)
                for U in (v, (v + J @ w) / math.sqrt(2.0), math.cos(t) * v + math.sin(t) * (J @ w))
            )
            assert canonical_angle(model, principal).kind == "A-principal"
            assert canonical_angle(model, isotropic).kind == "A-isotropic"
            res = canonical_angle(model, generic)
            pairing = math.hypot(generic @ A @ generic, generic @ J @ A @ generic)
            assert res.kind == "generic"
            assert abs(res.t - 0.5 * math.acos(pairing)) < 1e-13

    def test_non_unit_rejected(self):
        model = build_tangent_model(3)
        with pytest.raises(NormalizationError):
            canonical_angle(model, 2.0 * model.zvec(1))

    def test_non_finite_rejected(self):
        """An all-NaN vector passes the unit-norm guard, so it is refused first."""
        model = build_tangent_model(3)
        with pytest.raises(NonFiniteError):
            canonical_angle(model, np.full(6, np.nan))


# ---------------------------------------------------------------------------
# Ambient curvature tensor
# ---------------------------------------------------------------------------

class TestAmbientCurvature:
    def test_vanishes_on_equal_arguments(self):
        model = build_tangent_model(3)
        rng = np.random.default_rng(3)
        X = rng.standard_normal(model.dim)
        Z = rng.standard_normal(model.dim)
        npt.assert_allclose(ambient_curvature(model, X, X, Z), 0.0, atol=1e-13)

    def test_term_by_term_example(self):
        """R(Z_1, Z_2) Z_2 = 2 Z_1: the metric and conjugation terms each give Z_1."""
        model = build_tangent_model(3)
        out = ambient_curvature(model, model.zvec(1), model.zvec(2), model.zvec(2))
        npt.assert_allclose(out, 2.0 * model.zvec(1), atol=1e-15)

    def test_skew_symmetry_in_last_two_slots(self):
        model = build_tangent_model(4)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            X, Y, Z, W = (rng.standard_normal(model.dim) for _ in range(4))
            worst = max(
                worst,
                abs(
                    float(ambient_curvature(model, X, Y, Z) @ W)
                    + float(ambient_curvature(model, X, Y, W) @ Z)
                ),
            )
        assert worst < 1e-12

    def test_first_bianchi_identity(self):
        model = build_tangent_model(4)
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            X, Y, Z = (rng.standard_normal(model.dim) for _ in range(3))
            cyc = (
                ambient_curvature(model, X, Y, Z)
                + ambient_curvature(model, Y, Z, X)
                + ambient_curvature(model, Z, X, Y)
            )
            worst = max(worst, float(np.max(np.abs(cyc))))
        assert worst < 1e-12

    def test_single_column_matches_vector(self):
        """A one-column stack runs the vector path: same shape with the axis, same value."""
        model = build_tangent_model(4)
        X, Y, Z = np.random.default_rng(17).standard_normal((3, model.dim))
        vec = ambient_curvature(model, X, Y, Z)
        col = ambient_curvature(model, X[:, None], Y[:, None], Z[:, None])
        assert vec.shape == (model.dim,) and col.shape == (model.dim, 1)
        npt.assert_allclose(col[:, 0], vec, rtol=0.0, atol=1e-13)

    def test_stack_matches_columns(self):
        """Column j of a stacked call is the vector call on column j; a vector
        argument pairs with every column."""
        model = build_tangent_model(5)
        rng = np.random.default_rng(19)
        X = rng.standard_normal(model.dim)
        Y, Z = rng.standard_normal((2, model.dim, 7))
        stacked = ambient_curvature(model, X, Y, Z)
        assert stacked.shape == (model.dim, 7)
        for j in range(7):
            npt.assert_allclose(
                stacked[:, j], ambient_curvature(model, X, Y[:, j], Z[:, j]), rtol=0.0, atol=1e-13
            )


# ---------------------------------------------------------------------------
# Ambient Jacobi operator
# ---------------------------------------------------------------------------

class TestAmbientJacobi:
    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_principal_spectrum(self, m):
        model = build_tangent_model(m)
        rep = sym_eigen(ambient_jacobi(model, principal_vector(model)))
        assert [k for _, k in rep.clusters] == [m, m]
        npt.assert_allclose([v for v, _ in rep.clusters], (0.0, 2.0), atol=1e-12)

    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_isotropic_spectrum(self, m):
        model = build_tangent_model(m)
        rep = sym_eigen(ambient_jacobi(model, isotropic_vector(model)))
        assert [k for _, k in rep.clusters] == [3, 2 * m - 4, 1]
        npt.assert_allclose([v for v, _ in rep.clusters], (0.0, 1.0, 4.0), atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 16, 64])
    def test_matrix_is_the_curvature_tensor(self, m):
        """``ambient_jacobi(model, U) @ Y = ambient_curvature(model, Y, U, U)``:
        the two hand-typed forms of the quadric's curvature agree on a column
        stack, for principal, isotropic and random unit directions."""
        model = build_tangent_model(m)
        rng = np.random.default_rng(m)
        Y = rng.standard_normal((model.dim, 7))
        directions = [principal_vector(model), isotropic_vector(model)]
        for U in rng.standard_normal((5, model.dim)):
            directions.append(U / np.linalg.norm(U))
        for U in directions:
            npt.assert_allclose(
                ambient_jacobi(model, U) @ Y, ambient_curvature(model, Y, U, U), rtol=0.0, atol=1e-13
            )

    def test_annihilates_its_direction(self):
        model = build_tangent_model(5)
        rng = np.random.default_rng(2)
        U = rng.standard_normal(model.dim)
        U /= np.linalg.norm(U)
        npt.assert_allclose(ambient_jacobi(model, U) @ U, 0.0, atol=1e-13)

    def test_self_adjoint(self):
        model = build_tangent_model(4)
        rng = np.random.default_rng(5)
        for _ in range(20):
            U = rng.standard_normal(model.dim)
            U /= np.linalg.norm(U)
            R_U = ambient_jacobi(model, U)
            assert np.max(np.abs(R_U - R_U.T)) < 1e-12

    @pytest.mark.parametrize("m", [3, 5])
    def test_trace_is_twice_m(self, m):
        """0*m + 2*m for principal; 0*3 + 1*(2m-4) + 4*1 for isotropic."""
        model = build_tangent_model(m)
        for U in (principal_vector(model), isotropic_vector(model)):
            assert abs(np.trace(ambient_jacobi(model, U)) - 2.0 * m) < 1e-12

    def test_non_unit_rejected(self):
        model = build_tangent_model(3)
        with pytest.raises(NormalizationError):
            ambient_jacobi(model, 0.5 * principal_vector(model))

    def test_non_finite_rejected(self):
        """A NaN direction passes the unit-norm guard, so it is refused first."""
        model = build_tangent_model(3)
        U = principal_vector(model)
        U[1] = np.nan
        with pytest.raises(NonFiniteError):
            ambient_jacobi(model, U)
