"""Hypersurface calculus: induced structure, Gauss/Ricci, the structure
Jacobi operator and its Reeb derivative, residual gauges, serialization."""

import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

import quadric as q
from quadric import hypersurface, suites
from quadric import (
    AsymmetryError,
    HopfRequiredError,
    ModelValidationError,
    NonFiniteError,
    NonTangentError,
    NormalizationError,
    TangentModel,
)
from quadric.hypersurface import reeb_covariant_derivative, reeb_derivative_reduced
from quadric.tangent import UNIT_TOL

from conftest import paired_candidate


@pytest.fixture(scope="module")
def tube():
    return q.build_tube(2, 0.6)


@pytest.fixture(scope="module")
def principal_paired():
    return paired_candidate(1.0, [0.7, -1.3])


def random_hopf(m=4, kind="generic", seed=0):
    return q.random_hopf_data(m, np.random.default_rng(seed), kind=kind)


#: A model broken in one entry or by a scale.
BROKEN_MODELS = [("J", None, 1.0 + 1e-6), ("A", (0, 1), 1e-6), ("J", (2, 7), 1e-6)]
BROKEN_IDS = ["J-scaled", "A-asymmetric", "J-entry"]

#: The message of ``induce_from_normal`` for a model that is not the shared one.
OTHER_MODEL = r"induced on build_tangent_model\(m\) only; got another TangentModel"


def broken_model(model, field, index, factor, sealed=False):
    """``model`` with ``field`` scaled by ``factor``, or ``factor`` added at ``index``."""
    broken = getattr(model, field).copy()
    if index is None:
        broken *= factor
    else:
        broken[index] += factor
    broken.flags.writeable = not sealed
    return dataclasses.replace(model, **{field: broken})


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
        assert abs(h.g_axixi) < 1e-15

    def test_principal_conjugation_values(self):
        """N = Z_1: the adapted conjugation fixes N and negates xi."""
        model = q.build_tangent_model(3)
        h = q.induce_from_normal(model, model.zvec(1), np.zeros((6, 6)))
        npt.assert_allclose(h.A_N, h.N, atol=1e-15)
        npt.assert_allclose(h.A_xi, -h.xi, atol=1e-15)
        assert h.g_axixi == pytest.approx(-1.0)

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
        assert abs(float(h.xi @ h.A_N)) < 1e-14
        assert float(h.A_N @ h.N) >= 0.0

    def test_non_unit_normal_rejected(self):
        model = q.build_tangent_model(3)
        with pytest.raises(NormalizationError):
            q.induce_from_normal(model, 1.5 * model.zvec(1), np.zeros((6, 6)))

    @pytest.mark.parametrize("m", [3, 16, 64])
    @pytest.mark.parametrize("kind", ["generic", "principal", "isotropic"])
    def test_projector_and_frame_have_the_dense_bits(self, m, kind):
        """Both have the bits of their dense sums, signed zeros included."""
        h = random_hopf(m, kind, seed=m)
        N, n = h.N, h.model.dim
        assert h.projector.tobytes() == (np.eye(n) - np.outer(N, N)).tobytes()
        u = N.copy()
        u[0] += 1.0 if N[0] >= 0.0 else -1.0
        H = np.eye(n) - 2.0 * np.outer(u, u) / float(u @ u)
        assert h.frame.tobytes() == H[:, 1:].tobytes()

    @pytest.mark.parametrize("m", [1, 3])
    def test_projector_and_frame_of_a_normal_with_signed_zeros_hold_no_negative_zero(self, m):
        """``0 - 0.0`` and ``0 - (-0.0)`` are both ``+0.0``, so every zero
        entry of the projector and the frame is ``+0.0``."""
        model = q.build_tangent_model(m)
        N = model.zvec(1).copy()
        N[1::2] = -0.0
        h = q.induce_from_normal(model, N, np.zeros((model.dim, model.dim)))
        for M in (h.projector, h.frame):
            assert (M == 0.0).any()
            assert not (np.signbit(M) & (M == 0.0)).any()

    @pytest.mark.parametrize("scale", [1.0 + 1e-11, 1.0 - 1e-11, 1.0 + 9e-10])
    @pytest.mark.parametrize(
        "data",
        [
            lambda: q.build_tube(32, 0.6).h,
            lambda: q.build_tube(2, 1.3).h,
            lambda: random_hopf(16, "generic", seed=4),
            lambda: random_hopf(8, "principal", seed=5),
            lambda: q.reeb_parallel_principal_candidate(3, 1.2),
        ],
        ids=["tube-32", "tube-2", "generic", "principal", "candidate"],
    )
    def test_normal_within_unit_tol_accepted(self, scale, data):
        """A normal that UNIT_TOL admits is accepted, with the warnings and
        to first order the Reeb curvature of its unit multiple.  Before, a
        tube normal scaled by 1 + 1e-11 failed as ``phi xi != 0``."""
        h = data()
        scaled = q.induce_from_normal(h.model, scale * h.N, h.S)
        assert scaled.warnings == h.warnings
        assert scaled.alpha == pytest.approx(h.alpha, rel=1e-8)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(["generic", "principal", "isotropic"]),
        m=st.sampled_from([2, 3, 16, 64]),
        seed=st.integers(0, 2**32 - 1),
        defect=st.floats(-0.999 * UNIT_TOL, 0.999 * UNIT_TOL),
    )
    def test_construction_invariants_hold_on_the_shared_model(self, kind, m, seed, defect):
        """Why ``induce_from_normal`` checks no normal for them: on the shared
        model the four construction invariants hold for every normal kind
        and every length defect that UNIT_TOL admits.  A normal off unit
        length by ``d`` moves each by up to about ``2 d`` (``phi xi = -2 d N``
        to first order), so each is held to ``100 CONSTRUCTION_TOL + 4 d``."""
        h = random_hopf(m, kind, seed=seed)
        g = q.induce_from_normal(h.model, (1.0 + defect) * h.N, h.S)
        N, xi, phi = g.N, g.xi, g.phi
        P = np.eye(g.model.dim) - np.outer(N, N)
        defects = {
            "phi xi": np.abs(phi @ xi).max(),
            "phi^2 + P - xi xi^T": np.abs(phi @ phi + P - np.outer(xi, xi)).max(),
            "(B - conj + N A_N^T) P": np.abs((g.B - g.conj + np.outer(N, g.A_N)) @ P).max(),
            "g(xi, A N)": abs(float(xi @ g.A_N)),
        }
        bound = 100 * hypersurface.CONSTRUCTION_TOL + 4.0 * abs(float(np.linalg.norm(N)) - 1.0)
        assert {label: err for label, err in defects.items() if not err <= bound} == {}

    @pytest.mark.parametrize("sealed", [False, True], ids=["writeable", "sealed"])
    @pytest.mark.parametrize("field, index, factor", BROKEN_MODELS, ids=BROKEN_IDS)
    def test_broken_model_is_refused(self, field, index, factor, sealed):
        """Read-only arrays do not make a model exact: only the shared
        instance is, so a broken model is refused, sealed or not."""
        h = q.build_tube(3, 0.6).h
        model = broken_model(h.model, field, index, factor, sealed=sealed)
        assert not model.exact
        with pytest.raises(ModelValidationError, match=OTHER_MODEL):
            q.induce_from_normal(model, h.N, h.S)

    @pytest.mark.parametrize(
        "data",
        [lambda: q.build_tube(2, 0.6).h, lambda: random_hopf(4, "generic", seed=3)],
        ids=["tube", "generic"],
    )
    def test_sealed_copy_of_the_shared_model_is_refused(self, data):
        """A caller's model on the shared read-only arrays is another
        instance, so it is refused, before ``N`` or ``S`` is read."""
        h = data()
        copy = TangentModel(h.model.m, h.model.J, h.model.A)
        assert not copy.exact
        with pytest.raises(ModelValidationError, match=OTHER_MODEL):
            q.induce_from_normal(copy, h.N, h.S)
        with pytest.raises(ModelValidationError, match=OTHER_MODEL):
            q.induce_from_normal(copy, np.full(h.model.dim, np.nan), None)

    @pytest.mark.parametrize("scale", [1.0 + 2e-9, 1.0 - 2e-9])
    def test_normal_beyond_unit_tol_still_rejected(self, scale):
        h = q.build_tube(32, 0.6).h
        with pytest.raises(NormalizationError, match="normal not unit"):
            q.induce_from_normal(h.model, scale * h.N, h.S)

    def test_wrong_length_normal_rejected(self):
        model = q.build_tangent_model(3)
        with pytest.raises(ModelValidationError, match="normal must have length 6"):
            q.induce_from_normal(model, model.zvec(1)[:5], np.zeros((6, 6)))

    def test_non_finite_inputs_rejected(self):
        model = q.build_tangent_model(3)
        S = np.zeros((6, 6))
        S[2, 3] = S[3, 2] = np.nan
        with pytest.raises(NonFiniteError, match="S has non-finite"):
            q.induce_from_normal(model, model.zvec(1), S)
        with pytest.raises(NonFiniteError, match="N has non-finite"):
            q.induce_from_normal(model, np.full(6, np.nan), np.zeros((6, 6)))
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
        c = h.g_axixi
        assert c != 0.0
        assert h.q_xi * c == 2.0 * h.alpha * c


# ---------------------------------------------------------------------------
# Induced curvature, Ricci
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

    def test_pairings_follow_the_stack_rule(self):
        """``eta`` and ``rho`` give a scalar for a vector and one value per
        column of an ``(n, k)`` stack."""
        h = random_hopf(m=3, seed=20)
        X = h.frame[:, :4]
        for pairing in (h.eta, h.rho):
            values = pairing(X)
            assert values.shape == (4,)
            expected = [pairing(x) for x in X.T]
            assert all(np.ndim(value) == 0 for value in expected)
            npt.assert_allclose(values, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("column", [0, 2])
    def test_one_normal_column_rejects_either_stack(self, tube, column):
        """Every column of each ``(n, k)`` stack is checked, on either side."""
        h = tube.h
        X = h.frame[:, :3].copy()
        X[:, column] += 1e-6 * h.N
        E = h.frame[:, 3:6]
        with pytest.raises(NonTangentError):
            h.require_tangent(X)
        with pytest.raises(NonTangentError):
            q.induced_curvature(h, X, E, E)
        with pytest.raises(NonTangentError):
            q.induced_curvature(h, h.frame[:, :3], X, E)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejects_either_stack(self, tube, bad):
        h = tube.h
        E = h.frame[:, 3:6].copy()
        E[5, 2] = bad
        with pytest.raises(NonFiniteError):
            q.induced_curvature(h, h.frame[:, :3], h.frame[:, :3], E)
        with pytest.raises(NonFiniteError):
            q.induced_curvature(h, E, h.frame[:, :3], h.frame[:, :3])

    @pytest.mark.parametrize("shape", [(), (8, 8, 2)], ids=["0-d", "rank-3"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda h, V: q.ambient_curvature(h.model, h.xi, V, h.xi),
            lambda h, V: q.induced_curvature(h, h.xi, h.xi, V),
            q.ricci,
            q.ricci_contraction,
            lambda h, V: h.eta(V),
            lambda h, V: h.rho(V),
            lambda h, V: h.require_tangent(h.xi, V),
        ],
        ids=[
            "ambient_curvature",
            "induced_curvature",
            "ricci",
            "ricci_contraction",
            "eta",
            "rho",
            "require_tangent",
        ],
    )
    def test_only_vectors_and_column_stacks_are_accepted(self, tube, call, shape):
        """A 0-d or rank-3 argument is refused by name, never evaluated: a
        bare ``xi @ V`` on ``(n, n, 2)`` would contract the wrong axis."""
        with pytest.raises(ValueError, match=r"a vector \(n,\) or a column stack \(n, k\)"):
            call(tube.h, np.zeros(shape))

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

    @pytest.mark.parametrize("m", [3, 16, 64])
    def test_contraction_stack_matches_columns(self, m):
        """A stack equals the per-column calls."""
        h = random_hopf(m=m, seed=23)
        j = h.frame.shape[1]
        X = h.frame @ np.random.default_rng(24).standard_normal((j, 7))
        stacked = q.ricci_contraction(h, X)
        assert stacked.shape == X.shape
        columns = np.column_stack([q.ricci_contraction(h, X[:, a]) for a in range(7)])
        npt.assert_allclose(stacked, columns, rtol=0.0, atol=1e-13 * np.max(np.abs(columns)))

    def test_contraction_checks_every_column(self, tube):
        """A normal component or a NaN in the last column of a stack still raises."""
        h = tube.h
        bad = h.frame.copy()
        bad[:, -1] += 1e-6 * h.N
        with pytest.raises(NonTangentError):
            q.ricci_contraction(h, bad)
        bad = h.frame.copy()
        bad[0, -1] = np.nan
        with pytest.raises(NonFiniteError):
            q.ricci_contraction(h, bad)

    @pytest.mark.parametrize("kind", ["generic", "principal", "isotropic"])
    @pytest.mark.parametrize("m", [3, 16])
    @pytest.mark.parametrize("width", [None, 5], ids=["vector", "stack"])
    def test_contraction_equals_the_frame_sum(self, kind, m, width):
        """The operator contraction equals ``sum_i R(X, e_i) e_i``, one
        :func:`induced_curvature` call per frame vector, to 1e-12 relative."""
        h = random_hopf(m=m, kind=kind, seed=33)
        rng = np.random.default_rng(34)
        j = h.frame.shape[1]
        X = h.frame @ rng.standard_normal(j if width is None else (j, width))
        expected = sum(q.induced_curvature(h, X, e, e) for e in h.frame.T)
        got = q.ricci_contraction(h, X)
        assert got.shape == X.shape
        npt.assert_allclose(got, expected, rtol=0.0, atol=1e-12 * np.max(np.abs(expected)))

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
        h = principal_paired
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
            q.reeb_shape_derivative(h)


# ---------------------------------------------------------------------------
# Structure Jacobi operator and its covariant derivative
# ---------------------------------------------------------------------------

class TestStructureJacobi:
    def test_annihilates_reeb_direction_for_hopf(self):
        h = random_hopf(kind="generic", seed=50)
        assert np.max(np.abs(q.structure_jacobi(h) @ h.xi)) < 1e-12

    def test_tube_spectrum(self, tube):
        rep = q.sym_eigen(tube.h.frame.T @ q.structure_jacobi(tube.h) @ tube.h.frame)
        dev = q.match_spectrum(rep.clusters, q.tube_jacobi_template(2, 0.6))
        assert dev < 1e-12

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
        """Isotropic, S = 0, alpha = 0: every term carries S, alpha or the pairing
        (``nabla_xi S`` enters only as ``alpha nabla_xi S``)."""
        model = q.build_tangent_model(3)
        h = q.induce_from_normal(model, q.isotropic_vector(model), np.zeros((6, 6)))
        assert h.hopf and h.alpha == h.q_xi == float(h.xi @ h.dalpha) == 0.0
        M = reeb_covariant_derivative(h)
        assert np.max(np.abs(M)) < 1e-14

    @pytest.mark.parametrize("kind", ["generic", "principal", "isotropic"])
    def test_normal_component_cancellation(self, kind):
        h = random_hopf(kind=kind, seed=61)
        assert q.normal_component_residual(h) < 1e-12


class TestProjectionAndRankSum:
    @pytest.mark.parametrize("m", [3, 16, 64])
    def test_project_matches_dense_projector(self, m):
        rng = np.random.default_rng(m)
        n = 2 * m
        M = rng.standard_normal((n, n))
        N = rng.standard_normal(n)
        N /= np.linalg.norm(N)
        P = np.eye(n) - np.outer(N, N)
        bound = 1e-13 * max(1.0, float(np.max(np.abs(M))))
        assert np.max(np.abs(hypersurface._project(M, N) - P @ M @ P)) <= bound
        assert np.max(np.abs(hypersurface._project(M, N, left=False) - M @ P)) <= bound

    @pytest.mark.parametrize("left", [True, False], ids=["PMP", "MP"])
    def test_project_returns_a_new_array_and_leaves_its_input(self, left):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((10, 10))
        N = rng.standard_normal(10)
        N /= np.linalg.norm(N)
        before = M.copy()
        projected = hypersurface._project(M, N, left=left)
        assert not np.shares_memory(projected, M)
        assert M.tobytes() == before.tobytes()

    def test_rank_sum_matches_outer_products(self):
        rng = np.random.default_rng(5)
        pairs = [(rng.standard_normal(8), rng.standard_normal(8)) for _ in range(4)]
        expected = sum(np.outer(left, right) for left, right in pairs)
        npt.assert_allclose(hypersurface._rank_sum(*pairs), expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [4, 24, 128])
    @pytest.mark.parametrize("count", [1, 2, 4, 17])
    def test_rank_sum_has_the_bits_of_the_stacked_product(self, n, count):
        """Bit for bit the product of the two stacks.  An F-ordered ``L``
        (``np.array(lefts).T`` without the copy) differs at ``n = 4`` with
        17 pairs, and it moved a ``classify`` residual of a rotated tube."""
        rng = np.random.default_rng(100 * n + count)
        pairs = [(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(count)]
        lefts, rights = zip(*pairs)
        expected = np.stack(lefts, axis=1) @ np.stack(rights)
        assert hypersurface._rank_sum(*pairs).tobytes() == expected.tobytes()


class TestFrameReflector:
    """The reflector helpers against the dense frame they stand in for."""

    @pytest.mark.parametrize("m", [2, 3, 16, 64])
    @pytest.mark.parametrize("kind", ["generic", "principal", "isotropic"])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["N", "-N"])
    def test_matches_dense_frame(self, m, kind, sign):
        rng = np.random.default_rng(m)
        base = q.random_hopf_data(m, rng, kind)
        # -N takes the other branch of the reflector's sign choice.
        h = q.induce_from_normal(base.model, sign * base.N, base.S)
        n = h.model.dim
        operators = [
            rng.standard_normal((n, n)),
            h.S,
            q.structure_jacobi(h),
            reeb_covariant_derivative(h),
        ]
        for M in operators:
            bound = 1e-13 * max(1.0, float(np.max(np.abs(M))))
            dense = h.frame.T @ M @ h.frame
            assert np.max(np.abs(hypersurface._in_frame(h, M) - dense)) <= bound
            assert np.max(np.abs(hypersurface._times_frame(h, M) - M @ h.frame)) <= bound
            v = M[0]
            assert np.max(np.abs(hypersurface._times_frame(h, v) - v @ h.frame)) <= bound


class TestReebDerivativeMemo:
    @pytest.mark.parametrize("derivative", [q.reeb_shape_derivative, reeb_covariant_derivative])
    def test_repeat_calls_return_one_read_only_array(self, derivative):
        h = random_hopf(kind="generic", seed=80)
        first, second = derivative(h), derivative(h)
        assert first is second
        assert not first.flags.writeable

    @pytest.mark.parametrize(
        "copy",
        [
            lambda h: h.with_gauge(h.q_xi + 1.0),
            lambda h: h.with_dalpha(h.dalpha + h.frame[:, 0]),
        ],
        ids=["with_gauge", "with_dalpha"],
    )
    def test_copies_recompute(self, copy):
        """A copy made after the parent's derivative is stored gets its own."""
        h = random_hopf(kind="generic", seed=81)
        parent = reeb_covariant_derivative(h)
        child = reeb_covariant_derivative(copy(h))
        assert np.max(np.abs(child - parent)) > 1e-3
        assert reeb_covariant_derivative(h) is parent

    @pytest.mark.parametrize(
        "copy, error, message",
        [
            (lambda h: h.with_gauge(np.nan), NonFiniteError, "q_xi has non-finite"),
            (lambda h: h.with_gauge(np.inf), NonFiniteError, "q_xi has non-finite"),
            (
                lambda h: h.with_dalpha(np.zeros(3)),
                ModelValidationError,
                r"length 6, got shape \(3,\)",
            ),
            (
                lambda h: h.with_dalpha(np.zeros((6, 1))),
                ModelValidationError,
                r"length 6, got shape \(6, 1\)",
            ),
            (lambda h: h.with_dalpha(np.full(6, np.nan)), NonFiniteError, "dalpha has non-finite"),
        ],
        ids=["gauge-nan", "gauge-inf", "dalpha-short", "dalpha-column", "dalpha-nan"],
    )
    def test_copies_refuse_what_the_constructor_refuses(self, copy, error, message):
        """Before, ``with_gauge(nan)`` gave a NaN residual, and a short or a
        column ``dalpha`` failed later in numpy with a raw ValueError or
        TypeError."""
        h = q.reeb_parallel_principal_candidate(3, 1.2)
        with pytest.raises(error, match=message):
            copy(h)

    @pytest.mark.parametrize("derivative", [q.reeb_shape_derivative, reeb_covariant_derivative])
    def test_non_hopf_raises_on_every_call(self, derivative):
        model = q.build_tangent_model(3)
        raw = np.random.default_rng(17).standard_normal((6, 6))
        h = q.induce_from_normal(model, model.zvec(1), 0.5 * (raw + raw.T))
        for _ in range(2):
            with pytest.raises(HopfRequiredError):
                derivative(h)

    def test_tube_suite_evaluates_shape_derivative_once(self, monkeypatch):
        body = hypersurface._reeb_shape_matrix
        calls = []

        def counted(h):
            calls.append(h)
            return body(h)

        monkeypatch.setattr(hypersurface, "_reeb_shape_matrix", counted)
        assert suites.verify_tube(32, 0.6).all_passed
        assert len(calls) == 1


class TestReebParallelResidual:
    def test_tube_is_reeb_parallel(self, tube):
        assert q.reeb_parallel_residual(tube.h) < 1e-11

    def test_perturbed_tube_proportional_to_commutator(self):
        """Isotropic consistent data: residual = |alpha| (|alpha|/2) max_i |(phi S - S phi) f_i|."""
        rng = np.random.default_rng(71)
        h = q.perturbed_tube(2, 1.0, rng)
        comm = float(np.max(np.linalg.norm((h.phi_S - h.S_phi) @ h.frame, axis=0)))
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
        h = q.reeb_parallel_principal_candidate(3, 1.2)
        assert q.reeb_parallel_residual(h) < 1e-12
        assert q.reeb_parallel_residual(h.with_gauge(h.q_xi + 1.0)) > 0.1


class TestHopfIdentityResidual:
    def test_tube(self, tube):
        assert q.hopf_identity_residual(tube.h) < 1e-11

    def test_paired_principal_candidate(self, principal_paired):
        assert q.hopf_identity_residual(principal_paired) < 1e-11

    def test_detects_generic_violation(self):
        h = random_hopf(kind="generic", seed=80)
        assert q.hopf_identity_residual(h) > 0.1


class TestAlphaGradientResidual:
    def test_constant_alpha_isotropic(self, tube):
        assert q.alpha_gradient_residual(tube.h) == 0.0

    def test_constant_alpha_principal(self, principal_paired):
        assert q.alpha_gradient_residual(principal_paired) < 1e-15

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
        with pytest.raises(NormalizationError, match="normal not unit"):
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

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_isotropic_gauge_is_free(self, k):
        """``g(A xi, xi)`` of a tube computes to rounding (-2.2e-17 at k = 2),
        which forces no gauge.  Before, this payload was refused as contradicting
        its forced value."""
        payload = q.to_dict(q.build_tube(k, 0.6).h)
        payload["q_xi"] = 2.0 * payload["alpha"] + 1e9
        h = q.from_dict(payload)
        assert abs(h.g_axixi) <= h.model.dim * np.finfo(float).eps
        assert h.q_xi == payload["q_xi"]

    def test_malformed_payload(self):
        with pytest.raises(ModelValidationError):
            q.from_dict({"m": 3, "N": "oops"})
