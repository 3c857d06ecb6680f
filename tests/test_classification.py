"""Derived-equation chains, the nonexistence certificate, and classification."""

import math

import numpy as np
import numpy.testing as npt
import pytest

import quadric as q
from quadric import ExcludedParameterError, ModelValidationError, classification
from quadric.classification import affine_pair_matrices, _quadratic_roots
from quadric.models import _complex_pair_columns
from quadric.report import Check
from quadric.tangent import _STACK_BUDGET

from conftest import paired_candidate, rotated


def _reference_affine_pair(alpha, S, A):
    """``affine_pair_matrices`` for one pair of matrices, as it was written
    before it took stacks."""
    n = S.shape[0]
    eye = np.eye(n)
    e_a = 3.0 * alpha * A + alpha * (S @ S) - alpha**2 * S - alpha * eye - 6.0 * S
    e_b = 3.0 * alpha * eye + alpha * (S @ S) - alpha**2 * S - alpha * A - 6.0 * S
    return e_a, e_b


def _reference_conjugation(m, rng):
    """One random compatible conjugation block, drawn and built per sample."""
    n = m - 1
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(raw)
    R = np.block([[u.real, -u.imag], [u.imag, u.real]])
    A0 = np.block([[np.eye(n), np.zeros((n, n))], [np.zeros((n, n)), -np.eye(n)]])
    return R @ A0 @ R.T


def reference_certificate_checks(m, alpha_samples, seed):
    """The certificate's checks computed one sample at a time: the reference
    for the stacked evaluation, which must reproduce it exactly."""
    rng = np.random.default_rng(seed)
    n_c = 2 * (m - 1)
    eye = np.eye(n_c)
    checks = []
    for alpha in alpha_samples:
        alpha = float(alpha)
        tag = f"alpha={alpha:+.6g}"

        raw = rng.standard_normal((n_c, n_c))
        s_rand = 0.5 * (raw + raw.T)
        a_rand = _reference_conjugation(m, rng)
        e_a, e_b = _reference_affine_pair(alpha, s_rand, a_rand)
        diff_defect = float(
            np.max(np.abs(e_a - e_b - 4.0 * alpha * (a_rand - eye)))
        ) / max(1.0, abs(alpha))
        checks.append(Check(name=f"difference_identity[{tag}]", residual=diff_defect, tol=1e-12))

        lam_hi, lam_lo = _quadratic_roots(alpha)
        diag = np.where(rng.uniform(size=n_c) < 0.5, lam_hi, lam_lo)
        s_star = np.diag(diag)
        # The reference measures both equations; the certificate measures
        # one matrix, which at A = I is both.
        e_a, e_b = _reference_affine_pair(alpha, s_star, eye)
        solvable = max(
            float(np.max(np.abs(e_a))), float(np.max(np.abs(e_b)))
        ) / max(1.0, abs(alpha))
        checks.append(Check(name=f"affine_pair_solvable[{tag}]", residual=solvable, tol=1e-10))
    return checks


class TestChainResiduals:
    def test_generic_paired_candidate_fails_commutator_equation(self):
        """No consistent shape operator satisfies the full chain: for a generic
        paired spectrum the commutator equation has an order-one residual."""
        res = q.principal_chain_residuals(paired_candidate(1.0, [0.7, -1.3]))
        assert res["hopf_identity"] < 1e-11
        assert res["commutator"] > 0.1

    def test_reduction_is_exact_for_any_principal_candidate(self):
        res = q.principal_chain_residuals(paired_candidate(-0.8, [0.3, 1.9, -2.0, 0.9]))
        assert res["reeb_reduction"] < 1e-12

    def test_reeb_parallel_candidate_satisfies_first_order_chain(self):
        """The first-order equations admit pointwise solutions; the affine pair
        (which encodes the conjugation-derivative constraint) still fails."""
        res = q.principal_chain_residuals(q.reeb_parallel_principal_candidate(4, 1.5))
        assert res["shape_derivative"] < 1e-11
        assert res["first_combination"] < 1e-11
        assert res["commutator"] < 1e-11
        assert res["hopf_identity"] < 1e-11
        assert min(res["affine_a"], res["affine_b"]) > 0.1

    def test_zero_alpha_rejected(self):
        with pytest.raises(ExcludedParameterError):
            q.principal_chain_residuals(q.build_tube(2, math.pi / 4.0, non_vanishing=False).h)

    def test_normal_other_than_z1_rejected(self):
        """The chain's frame is the complex subbundle only for ``N = Z_1``; on
        this principal normal it has a component of 0.85 along ``N``."""
        h = q.random_hopf_data(3, np.random.default_rng(1), "principal")
        with pytest.raises(ModelValidationError, match="requires the normal Z_1"):
            q.principal_chain_residuals(h)


class TestAffinePairAlgebra:
    def test_difference_identity_for_any_inputs(self):
        """E_a - E_b = 4 alpha (A - I) regardless of the shape block."""
        rng = np.random.default_rng(3)
        n = 8
        for alpha in (0.5, -1.7, 2.2):
            raw = rng.standard_normal((n, n))
            S = 0.5 * (raw + raw.T)
            A = np.diag(rng.choice([-1.0, 1.0], size=n))
            e_a, e_b = affine_pair_matrices(alpha, S, A)
            npt.assert_allclose(e_a - e_b, 4.0 * alpha * (A - np.eye(n)), atol=1e-12)

    def test_conjugation_transport_with_fixed_range_shape(self):
        """With the shape operator mapping into the conjugation-fixed block,
        conjugating the first affine equation reproduces the second."""
        h = q.build_principal_candidate(4, 1.1, [0.6, -0.4, 1.3] + [0.0] * 3)
        C = _complex_pair_columns(h.model, range(2, 5))
        A_c = q.restrict_to_frame(h.conj, C)
        S_c = q.restrict_to_frame(h.S, C)
        e_a, e_b = affine_pair_matrices(h.alpha, S_c, A_c)
        npt.assert_allclose(A_c @ e_a, e_b, atol=1e-12)
        # the substitution that powers the transport: A S = S on the subbundle
        npt.assert_allclose(A_c @ S_c, S_c, atol=1e-14)

    def test_stack_equals_per_matrix_calls(self):
        """A stack with ``(k, 1, 1)`` alphas equals one call per matrix, bit for
        bit.  The first alpha's square rounds differently as ``alpha * alpha``
        than as Python's ``alpha**2``, which a scalar call evaluates."""
        alphas = [-1.3275170599102342, 0.7, 2.5]
        assert alphas[0] ** 2 != alphas[0] * alphas[0]
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((3, 6, 6))
        S = raw + raw.swapaxes(-1, -2)
        A = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        e_a, e_b = affine_pair_matrices(np.array(alphas)[:, None, None], S, A)
        for i, alpha in enumerate(alphas):
            ref_a, ref_b = _reference_affine_pair(alpha, S[i], A)
            assert np.array_equal(e_a[i], ref_a) and np.array_equal(e_b[i], ref_b)

    @pytest.mark.parametrize("m", [2, 3, 16, 64])
    def test_identity_block_gives_one_matrix(self, m):
        """With ``A = I`` the two equations are the same matrix, bit for bit,
        for stacked and scalar alphas, on random and root-spectrum blocks:
        the certificate measures one of them for both."""
        n = 2 * (m - 1)
        eye = np.eye(n)
        rng = np.random.default_rng(m)
        alphas = [-1.3275170599102342, 0.7, 2.5, float(rng.uniform(0.2, 3.0))]
        raw = rng.standard_normal((len(alphas), n, n))
        roots = np.array([_quadratic_roots(alpha) for alpha in alphas])
        diag = np.take_along_axis(roots, rng.integers(0, 2, (len(alphas), n)), axis=1)
        for S in (raw + raw.swapaxes(-1, -2), diag[:, :, None] * eye):
            e_a, e_b = affine_pair_matrices(np.array(alphas)[:, None, None], S, eye)
            assert np.array_equal(e_a, e_b)
            for i, alpha in enumerate(alphas):
                e_a, e_b = affine_pair_matrices(alpha, S[i], eye)
                assert np.array_equal(e_a, e_b)


class TestNonexistenceCertificate:
    def test_canned_curvatures_m3(self):
        rep = q.principal_nonexistence_certificate(3, [0.5, -0.5, 1.0, -1.0, 2.0])
        assert rep.all_passed
        assert rep.params["forced_trace_on_c"] == 4.0
        # The conjuncts of the trace contradiction, per sample.
        for prefix in ("difference_identity", "affine_pair_solvable"):
            conjuncts = [c for c in rep.checks if c.name.startswith(prefix)]
            assert len(conjuncts) == 5
            assert all(c.passed for c in conjuncts)

    def test_random_curvatures_m5(self):
        rng = np.random.default_rng(77)
        alphas = [float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])) for _ in range(25)]
        rep = q.principal_nonexistence_certificate(5, alphas)
        assert rep.all_passed
        assert rep.params["forced_trace_on_c"] == 8.0

    def test_zero_alpha_sample_rejected(self):
        with pytest.raises(ExcludedParameterError):
            q.principal_nonexistence_certificate(3, [1.0, 0.0])

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("m", [2, 3, 16, 64])
    def test_stacked_checks_equal_the_per_sample_loop(self, m, seed, monkeypatch):
        """Every check, residual included, equals the per-sample reference for
        1, 25 and one more sample than a stack holds (a partial last stack).
        The reference runs once on the longest list: the checks of a prefix
        of the samples are the prefix of its checks."""
        block = (2 * (m - 1)) ** 2
        if _STACK_BUDGET // block > 100:
            # A stack of the 2x2 and 4x4 blocks of m = 2, 3 holds thousands of
            # samples, seconds of the per-sample reference; a smaller budget
            # brings the stack boundary within its reach.
            monkeypatch.setattr(classification, "_STACK_BUDGET", 30 * block)
        counts = (1, 25, classification._STACK_BUDGET // block + 1)
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1.0, 1.0], max(counts))
        alphas = (rng.uniform(0.2, 3.0, max(counts)) * signs).tolist()
        reference = reference_certificate_checks(m, alphas, seed)
        for count in counts:
            report = q.principal_nonexistence_certificate(m, alphas[:count], seed=seed)
            assert report.checks == reference[: 2 * count]


class TestClassify:
    @pytest.mark.parametrize("k", [2, 3])
    def test_round_trip_on_grid(self, k):
        for r in q.default_radius_grid(10):
            res = q.classify(q.build_tube(k, r).h)
            assert res.verdict == "tube"
            assert res.k == k
            assert abs(res.r - r) < 1e-9

    def test_recover_radius_branches(self):
        """The curvature-to-radius inversion lands on the correct side of pi/4."""
        assert q.recover_radius(2.0 / math.tan(1.2)) == pytest.approx(0.6, abs=1e-12)
        assert q.recover_radius(2.0 / math.tan(0.4)) == pytest.approx(0.2, abs=1e-12)
        assert q.recover_radius(1.0) < math.pi / 4.0 < q.recover_radius(-1.0)

    def test_vanishing_reeb_curvature_outside(self):
        h = q.build_tube(2, math.pi / 4.0, non_vanishing=False).h
        res = q.classify(h)
        assert res.verdict == "outside-hypotheses"
        assert "vanishing geodesic Reeb flow" in res.reason

    def test_non_hopf_outside(self):
        model = q.build_tangent_model(3)
        rng = np.random.default_rng(31)
        raw = rng.standard_normal((6, 6))
        h = q.induce_from_normal(model, model.zvec(1), 0.5 * (raw + raw.T))
        res = q.classify(h)
        assert res.verdict == "outside-hypotheses"
        assert "not Hopf" in res.reason

    def test_principal_reeb_parallel_is_nonexistent(self):
        res = q.classify(q.reeb_parallel_principal_candidate(4, 1.2))
        assert res.verdict == "nonexistent"
        assert res.singular_type == "A-principal"

    def test_rotated_principal_candidate_is_nonexistent(self):
        """A rotated candidate is still principal: with the angle read off the
        adapted conjugation no seed is mistaken for a generic normal (seeds 2,
        3, 5, 12, 13 and 17 gave ``normal not singular`` with the pairing
        formula ``acos(hypot(a, b)) / 2``)."""
        h = q.reeb_parallel_principal_candidate(5, 0.7)
        verdicts = {seed: q.classify(rotated(h, seed)).verdict for seed in range(20)}
        assert verdicts == {seed: "nonexistent" for seed in range(20)}

    def test_broken_isometric_flow_outside(self):
        h = q.perturbed_tube(2, 0.6, np.random.default_rng(41))
        res = q.classify(h)
        assert res.verdict == "outside-hypotheses"
        assert "not Reeb parallel" in res.reason

    def test_generic_normal_outside(self):
        h = q.random_hopf_data(4, np.random.default_rng(51), kind="generic")
        res = q.classify(h)
        assert res.verdict == "outside-hypotheses"
        assert "not singular" in res.reason

    def test_odd_dimension_has_no_tube(self):
        """Consistent isotropic data in odd complex dimension is flagged."""
        model = q.build_tangent_model(3)
        N = q.isotropic_vector(model)
        xi = -(model.J @ N)
        alpha = 0.9
        lam = 0.5 * (alpha + math.sqrt(alpha**2 + 4.0))  # isometric-flow value
        z3 = model.zvec(3)
        jz3 = model.jzvec(3)
        S = alpha * np.outer(xi, xi) + lam * (np.outer(z3, z3) + np.outer(jz3, jz3))
        h = q.induce_from_normal(model, N, S)
        assert q.reeb_parallel_residual(h) < 1e-10
        res = q.classify(h)
        assert res.verdict == "outside-hypotheses"
        assert "complex dimension 3" in res.reason

    def test_spectrum_mismatch_outside(self):
        """Isotropic and Reeb parallel, but both invariant blocks share one
        curvature branch, so the tube multiplicities cannot match."""
        model = q.build_tangent_model(4)
        N = q.isotropic_vector(model)
        xi = -(model.J @ N)
        alpha = 0.9
        lam = 0.5 * (alpha + math.sqrt(alpha**2 + 4.0))  # isometric-flow value
        S = alpha * np.outer(xi, xi)
        for i in (3, 4):
            S += lam * (
                np.outer(model.zvec(i), model.zvec(i))
                + np.outer(model.jzvec(i), model.jzvec(i))
            )
        h = q.induce_from_normal(model, N, S)
        assert q.reeb_parallel_residual(h) < 1e-10
        res = q.classify(h)
        assert res.verdict == "outside-hypotheses"
        assert "spectrum" in res.reason
