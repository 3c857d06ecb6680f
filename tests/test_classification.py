"""Derived-equation chains, the nonexistence certificate, and classification."""

import math
import re

import numpy as np
import numpy.testing as npt
import pytest

import quadric as q
from quadric import (
    ExcludedParameterError,
    ModelValidationError,
    NonFiniteError,
    classification,
    suites,
)
from quadric.classification import _STACK_BUDGET, affine_pair_matrices, _quadratic_roots
from quadric.models import _complex_pair_columns
from quadric.report import Check

from conftest import paired_candidate, rotated
from corpus import non_hopf


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


def _isometric_flow_data(m, pairs):
    """Isotropic data with ``alpha = 0.9`` on the Reeb direction and the
    isometric-flow curvature on ``span{Z_i, J Z_i}`` for each ``i`` in
    ``pairs``: Reeb parallel, with no second curvature branch."""
    model = q.build_tangent_model(m)
    N = q.isotropic_vector(model)
    xi = -(model.J @ N)
    alpha = 0.9
    lam = 0.5 * (alpha + math.sqrt(alpha**2 + 4.0))  # isometric-flow value
    S = alpha * np.outer(xi, xi)
    for i in pairs:
        S += lam * (
            np.outer(model.zvec(i), model.zvec(i))
            + np.outer(model.jzvec(i), model.jzvec(i))
        )
    return q.induce_from_normal(model, N, S)


# One case per branch of ``classify``, in its decision order: the data, then
# the expected verdict, singular type, reason prefix, and which of
# ``reeb_residual``, ``k``, ``r`` and ``spectrum_deviation`` are set.
OUTCOMES = {
    "below-range": (
        lambda: q.reeb_parallel_principal_candidate(2, 1.2),
        "outside-hypotheses", "A-principal",
        "complex dimension m = 2 is outside the classification range (m >= 3)", set(),
    ),
    "not-hopf": (
        lambda: non_hopf(3, 31),
        "outside-hypotheses", "A-principal", "not Hopf (", set(),
    ),
    "vanishing-alpha": (
        lambda: q.build_tube(2, math.pi / 4.0, non_vanishing=False).h,
        "outside-hypotheses", "A-isotropic", "vanishing geodesic Reeb flow", set(),
    ),
    "generic": (
        lambda: q.random_hopf_data(4, np.random.default_rng(51), kind="generic"),
        "outside-hypotheses", "generic", "normal not singular (", {"reeb_residual"},
    ),
    "not-reeb-parallel": (
        lambda: q.perturbed_tube(2, 0.6, np.random.default_rng(41)),
        "outside-hypotheses", "A-isotropic", "structure Jacobi operator not Reeb parallel",
        {"reeb_residual"},
    ),
    "principal": (
        lambda: q.reeb_parallel_principal_candidate(4, 1.2),
        "nonexistent", "A-principal", "principal normal with Reeb-parallel", {"reeb_residual"},
    ),
    "odd-m": (
        lambda: _isometric_flow_data(3, (3,)),
        "outside-hypotheses", "A-isotropic", "no tube family in complex dimension 3",
        {"reeb_residual"},
    ),
    "spectrum-mismatch": (
        lambda: _isometric_flow_data(4, (3, 4)),
        "outside-hypotheses", "A-isotropic", "shape spectrum does not match",
        {"reeb_residual", "spectrum_deviation"},
    ),
    "tube": (
        lambda: q.build_tube(3, 0.85).h,
        "tube", "A-isotropic", "", {"reeb_residual", "k", "r", "spectrum_deviation"},
    ),
}


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
        A_c = C.T @ h.conj @ C
        S_c = C.T @ h.S @ C
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

    @pytest.mark.parametrize("m", [16, 64])
    def test_each_stack_makes_one_dense_and_one_diagonal_call(self, m, monkeypatch):
        """Per stack, ``affine_pair_matrices`` runs once on the dense random
        blocks and once on the solvable instance as ``1 x 1`` pairs; no
        ``(k, 2m - 2, 2m - 2)`` diagonal stack is formed."""
        shapes = []
        original = classification.affine_pair_matrices

        def recorded(alpha, S, A):
            shapes.append(S.shape)
            return original(alpha, S, A)

        monkeypatch.setattr(classification, "affine_pair_matrices", recorded)
        n = 2 * (m - 1)
        width = _STACK_BUDGET // (n * n)
        report = suites.nonexistence(m, 2 * width + 1, seed=3)
        assert report.all_passed
        assert shapes == [
            shape
            for k in (width, width, 1)
            for shape in ((k, n, n), (k, n, 1, 1))
        ]

    def test_sign_draw_matches_choice(self):
        """The alpha samples are the stream of ``uniform(0.2, 3.0)`` times
        ``choice([-1.0, 1.0])``, sample by sample, for every seed tried."""
        for seed in range(60):
            rng = np.random.default_rng(seed)
            reference = [
                float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])) for _ in range(40)
            ]
            assert suites.nonexistence(2, 40, seed=seed).params["alpha_samples"] == reference

    def test_check_names_are_distinct_for_many_samples(self):
        """One of 2000 drawn samples shares its 6-digit tag with an earlier
        one; its two checks are tagged with all 17 digits, so the 4000 names
        are distinct."""
        report = suites.nonexistence(3, 2000, seed=7)
        names = [c.name for c in report.checks]
        assert len(set(names)) == len(names) == 4000
        long_tags = {f"alpha={alpha:+#.17g}" for alpha in report.params["alpha_samples"]}
        assert sum(name[name.index("[") + 1 : -1] in long_tags for name in names) == 2

    def test_colliding_tag_keeps_all_digits(self):
        """The long tag keeps trailing zeros, so a short alpha that collides
        does not print as the 6-digit tag it collided with."""
        report = q.principal_nonexistence_certificate(3, [1.5000001, 1.5, -0.25])
        assert [c.name for c in report.checks] == [
            "difference_identity[alpha=+1.5]",
            "affine_pair_solvable[alpha=+1.5]",
            "difference_identity[alpha=+1.5000000000000000]",
            "affine_pair_solvable[alpha=+1.5000000000000000]",
            "difference_identity[alpha=-0.25]",
            "affine_pair_solvable[alpha=-0.25]",
        ]
        assert report.all_passed

    def test_repeated_sample_rejected(self):
        with pytest.raises(ExcludedParameterError, match="distinct, got 1.0 twice"):
            q.principal_nonexistence_certificate(3, [1.0, 2.0, 1.0])

    @pytest.mark.parametrize(
        "samples",
        [
            [math.nan],
            [math.inf],
            [-math.inf],
            [0.5, math.nan],
            [math.nan, math.nan],
            [1.0, -math.inf],
        ],
        ids=["nan", "inf", "-inf", "then-nan", "nan-twice", "then--inf"],
    )
    def test_non_finite_sample_rejected(self, samples):
        """A NaN or infinite sample is refused, not reported as a failed
        certificate with NaN residuals (two NaN samples once gave two checks
        of one name)."""
        with pytest.raises(NonFiniteError, match="alpha_samples has non-finite"):
            q.principal_nonexistence_certificate(3, samples)

    @pytest.mark.parametrize(
        "samples",
        [[1e300], [1e200], [1e155], [1e120], [1e103], [1e-160], [1e-300], [0.5, 1e300]],
    )
    def test_overflowing_sample_rejected(self, samples):
        """A finite sample whose residuals overflow is refused by name, not
        reported as a failed certificate with NaN residuals."""
        message = f"alpha sample {samples[-1]!r} overflows the float range"
        with pytest.raises(ExcludedParameterError, match=re.escape(message)):
            q.principal_nonexistence_certificate(3, samples)

    def test_samples_near_the_overflow_edges_keep_finite_residuals(self):
        report = q.principal_nonexistence_certificate(3, [5e102, -5e102, 5e-154, -5e-154])
        assert all(math.isfinite(check.residual) for check in report.checks)


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

    def test_vanishing_reason_reports_the_measured_alpha(self):
        """Under a loose ``tol`` a nonzero alpha takes the vanishing branch;
        the reason gives ``|alpha|``, not ``alpha = 0``."""
        res = q.classify(q.build_tube(2, 0.7).h, tol=0.5)
        assert res.reason == "vanishing geodesic Reeb flow (|alpha| = 3.450e-01)"

    def test_non_hopf_outside(self):
        res = q.classify(non_hopf(3, 31))
        assert res.verdict == "outside-hypotheses"
        assert "not Hopf" in res.reason

    def test_nan_residual_is_not_reeb_parallel(self):
        """A shape operator scaled to overflow gives a NaN residual, which
        fails as its report check does; before, ``nan >= tol`` was false and
        the data was certified ``nonexistent``."""
        c = q.reeb_parallel_principal_candidate(3, 1.2)
        with np.errstate(over="ignore", invalid="ignore"):
            h = q.induce_from_normal(c.model, c.N, 1e150 * c.S)
            res = q.classify(h)
            report, _ = suites.classify_report(h)
        assert res.verdict == "outside-hypotheses"
        assert res.reason.endswith("(residual nan)")
        assert [check.passed for check in report.checks] == [False, False]

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
        h = _isometric_flow_data(3, (3,))
        assert q.reeb_parallel_residual(h) < 1e-10
        res = q.classify(h)
        assert res.verdict == "outside-hypotheses"
        assert "complex dimension 3" in res.reason

    def test_spectrum_mismatch_outside(self):
        """Isotropic and Reeb parallel, but both invariant blocks share one
        curvature branch, so the tube multiplicities cannot match."""
        h = _isometric_flow_data(4, (3, 4))
        assert q.reeb_parallel_residual(h) < 1e-10
        res = q.classify(h)
        assert res.verdict == "outside-hypotheses"
        assert "spectrum" in res.reason
        assert res.spectrum_deviation == math.inf

    @pytest.mark.parametrize("shift, verdict", [(1e-8, "tube"), (3e-8, "outside-hypotheses")])
    def test_one_spectrum_bound(self, shift, verdict):
        """``classify`` and the ``tube_spectrum_match`` check of its report
        apply the one ``SPECTRUM_TOL``, whatever the Reeb-parallel ``tol``.
        The tube's ``-tan r`` block, scaled by ``1 + shift``, deviates by
        ``shift tan r``: 6.8e-9 and 2.1e-8 at ``r = 0.6``, one on each side
        of the bound, with a Reeb-parallel residual under ``tol = 1e-5``."""
        tube = q.build_tube(2, 0.6)
        W1 = tube.bases["W1"]
        S = tube.h.S - shift * math.tan(0.6) * (W1 @ W1.T)
        h = q.induce_from_normal(tube.h.model, tube.h.N, S)
        res = q.classify(h, tol=1e-5)
        assert res.verdict == verdict
        assert res.spectrum_deviation == pytest.approx(shift * math.tan(0.6), rel=1e-6)
        report, _ = suites.classify_report(h, tol=1e-5)
        (check,) = [c for c in report.checks if c.name == "tube_spectrum_match"]
        assert check.tol == classification.SPECTRUM_TOL
        assert check.residual == res.spectrum_deviation
        assert check.passed == (verdict == "tube")

    def test_classify_reads_the_spectrum_bound(self, monkeypatch):
        """The verdict follows ``SPECTRUM_TOL``, not a literal of its own."""
        h = q.build_tube(2, 0.6).h
        deviation = q.classify(h).spectrum_deviation
        assert 0.0 < deviation <= classification.SPECTRUM_TOL
        monkeypatch.setattr(classification, "SPECTRUM_TOL", deviation / 2.0)
        res = q.classify(h)
        assert res.verdict == "outside-hypotheses"
        assert res.reason.startswith("shape spectrum does not match")

    @pytest.mark.parametrize("tol", [1e-8, 1e-3])
    @pytest.mark.parametrize("case", OUTCOMES)
    def test_outcome_table(self, case, tol):
        """Each branch sets its verdict, singular type and reason, and leaves
        unset exactly the fields it does not decide."""
        build, verdict, kind, prefix, decided = OUTCOMES[case]
        res = q.classify(build(), tol)
        assert (res.verdict, res.singular_type) == (verdict, kind)
        assert res.reason.startswith(prefix)
        assert bool(res.reason) == (verdict != "tube")
        optional = ("reeb_residual", "k", "r", "spectrum_deviation")
        assert {name for name in optional if getattr(res, name) is not None} == decided
