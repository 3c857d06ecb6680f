"""Mutation matrix: every check of every command is failed by one named defect.

A check that no plausible defect can fail certifies nothing.  Each entry
below names one broken input (or, where no input can do it, one broken line
of code), feeds it through the command, and asserts that the named check
fails and the command exits 1.  ``verify tube`` gets its broken tube through
a monkeypatched ``suites.build_tube``; ``verify ambient`` and
``nonexistence`` through monkeypatched names in ``suites`` and
``classification``; ``classify`` and ``spectrum`` through the payload they
read, or the eigensolver they call.  A check with no entry is listed in
``EXEMPT`` with the reason it is kept, and the completeness test holds the
check lists of all six commands to the entries plus the exemptions.  The
check lists themselves are pinned together with ``report.VERSION``.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import quadric as q
from quadric import classification, hypersurface, report, suites
from quadric.cli import main
from quadric.report import render_json

K, R, EPS = 3, 0.6, 1e-6

#: The checks of ``verify tube``, in report order.
TUBE_CHECKS = [
    "hopf",
    "isotropic_normal",
    "shape_kills_A_xi",
    "shape_kills_A_N",
    "isometric_reeb_flow",
    "hopf_identity",
    "alpha_gradient",
    "reeb_parallel_shape",
    "reeb_parallel_structure_jacobi",
    "normal_component_cancellation",
    "shape_spectrum",
    "structure_jacobi_spectrum",
    "partner_curvature_fixed_points",
]


def _with_shape(tube, S):
    return q.induce_from_normal(tube.h.model, tube.h.N, S)


def _w1(tube):
    """First column of the curvature ``-tan r`` block."""
    return tube.bases["W1"][:, 0]


def hopf_kick(tube, rng):
    """Symmetric kick between ``xi`` and a ``W1`` direction: ``S xi`` leaves ``xi``."""
    xi, w = tube.h.xi, _w1(tube)
    return _with_shape(tube, tube.h.S + EPS * (np.outer(xi, w) + np.outer(w, xi)))


def generic_normal(tube, rng):
    """Random Hopf data whose normal is neither principal nor isotropic."""
    return q.random_hopf_data(2 * K, rng, "generic")


def kick_on(label):
    """``eps v (x) v`` added to ``S``, for ``v`` the tube's direction ``h.<label>``."""

    def kick(tube, rng):
        v = getattr(tube.h, label)
        return _with_shape(tube, tube.h.S + EPS * np.outer(v, v))

    return kick


def perturbed(tube, rng):
    """:func:`~quadric.perturbed_tube`: Hopf and paired, Reeb flow not isometric."""
    return q.perturbed_tube(K, R, rng)


def w1_kick(tube, rng):
    """``eps w (x) w`` on one ``W1`` column: breaks the partner pairing."""
    w = _w1(tube)
    return _with_shape(tube, tube.h.S + EPS * np.outer(w, w))


def declared_dalpha(tube, rng):
    """A declared ``dalpha`` with a component off the closed Hopf form."""
    return tube.h.with_dalpha(tube.h.dalpha + EPS * _w1(tube))


def scaled_w2(tube, rng):
    """The ``W2`` curvature ``cot r`` scaled by 3/2."""
    W2 = tube.bases["W2"]
    return _with_shape(tube, tube.h.S + (0.5 / math.tan(R)) * (W2 @ W2.T))


def normal_row_mutant(tube, rng, monkeypatch):
    """No input fails ``normal_component_cancellation``: the normal component
    of ``nabla_xi R_xi`` cancels identically for Hopf data, and it stays below
    1e-14 on random generic, principal and isotropic data at m up to 16, with
    any gauge.  The defect it guards against is in the code, so the entry is
    a mutant of ``_reeb_covariant_matrix(h)`` that adds a term in the normal row."""
    original = hypersurface._reeb_covariant_matrix

    def mutant(h):
        return original(h) + EPS * np.outer(h.N, h.xi)

    monkeypatch.setattr(hypersurface, "_reeb_covariant_matrix", mutant)
    return tube.h


#: check name -> defect that fails it.
MUTATIONS = {
    "hopf": hopf_kick,
    "isotropic_normal": generic_normal,
    "shape_kills_A_xi": kick_on("A_xi"),
    "shape_kills_A_N": kick_on("A_N"),
    "isometric_reeb_flow": perturbed,
    "hopf_identity": w1_kick,
    "alpha_gradient": declared_dalpha,
    "reeb_parallel_shape": perturbed,
    "reeb_parallel_structure_jacobi": perturbed,
    "normal_component_cancellation": normal_row_mutant,
    "shape_spectrum": scaled_w2,
    "structure_jacobi_spectrum": scaled_w2,
    "partner_curvature_fixed_points": w1_kick,
}


def run_tube(capsys):
    code = main(["verify", "tube", "--k", str(K), "--r", repr(R)])
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_tube_check_names_in_order(capsys):
    code, report = run_tube(capsys)
    assert code == 0
    assert [c["name"] for c in report["checks"]] == TUBE_CHECKS


def test_every_tube_check_has_a_mutation():
    assert list(MUTATIONS) == TUBE_CHECKS


@pytest.mark.parametrize("check", TUBE_CHECKS)
def test_mutation_fails_its_check(capsys, monkeypatch, check):
    tube = q.build_tube(K, R)
    mutation = MUTATIONS[check]
    rng = np.random.default_rng(5)
    if mutation is normal_row_mutant:
        h = mutation(tube, rng, monkeypatch)
    else:
        h = mutation(tube, rng)
    broken = dataclasses.replace(tube, h=h)
    monkeypatch.setattr(suites, "build_tube", lambda *args, **kwargs: broken)
    code, report = run_tube(capsys)
    assert code == 1
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert check in failed


def test_non_hopf_tube_reports_hopf_only_checks_as_failed(capsys, monkeypatch):
    """Data that is not Hopf fails the five Hopf-only gauges with residual inf."""
    tube = q.build_tube(K, R)
    broken = dataclasses.replace(tube, h=hopf_kick(tube, None))
    monkeypatch.setattr(suites, "build_tube", lambda *args, **kwargs: broken)
    code, report = run_tube(capsys)
    assert code == 1
    residuals = {c["name"]: c["residual"] for c in report["checks"]}
    for name in TUBE_CHECKS[5:10]:
        assert residuals[name] == "inf"


# ---------------------------------------------------------------------------
# verify ambient, nonexistence, classify, spectrum
# ---------------------------------------------------------------------------

M = 4


def base_name(name):
    """Check name without its ``[...]`` instance tag."""
    return name.split("[", 1)[0]


def _model_with(**arrays):
    """``suites.build_tangent_model`` returning the model with arrays replaced."""

    def build(m):
        model = q.build_tangent_model(m)
        return dataclasses.replace(model, **{k: f(model) for k, f in arrays.items()})

    return build


def scaled_J(monkeypatch):
    """``J`` scaled by ``1 + eps``: ``J^2 != -Id``."""
    monkeypatch.setattr(suites, "build_tangent_model", _model_with(J=lambda mo: (1 + EPS) * mo.J))


def scaled_A(monkeypatch):
    """``A`` scaled by ``1 + eps``: still anti-commuting and trace free, ``A^2 != Id``."""
    monkeypatch.setattr(suites, "build_tangent_model", _model_with(A=lambda mo: (1 + EPS) * mo.A))


def real_rotated_A(monkeypatch):
    """``A`` conjugated by a real rotation of the ``(Z_1, J Z_2)`` plane.

    A symmetric, trace-free involution that no longer anti-commutes with ``J``.
    """

    def rotate(model):
        R = np.eye(model.dim)
        i, j, c, s = 0, model.m + 1, math.cos(0.3), math.sin(0.3)
        R[[i, i, j, j], [i, j, i, j]] = c, -s, s, c
        return R @ model.A @ R.T

    monkeypatch.setattr(suites, "build_tangent_model", _model_with(A=rotate))


def shifted_A(monkeypatch):
    """``A + eps Id``: trace ``2m eps``.

    ``tr A = -tr(J A J^-1)`` holds exactly only when ``A`` anti-commutes with
    ``J``, but a small shift breaks the anti-commutation by ``2 eps`` per
    entry, under that check's bound, while the trace grows with ``m``: a
    shift of ``2e-15`` fails ``conjugation_trace`` alone
    (``test_small_shift_fails_the_trace_alone``).  The check is kept as the
    measured form of ``nonexistence``'s ``required_trace``.
    """
    monkeypatch.setattr(
        suites, "build_tangent_model", _model_with(A=lambda mo: mo.A + EPS * np.eye(mo.dim))
    )


def scaled_rotation(monkeypatch):
    """``rotate_conjugation`` returning ``(1 + eps) A_theta``."""
    original = suites.rotate_conjugation
    monkeypatch.setattr(suites, "rotate_conjugation", lambda mo, t: (1 + EPS) * original(mo, t))


def curvature_with(term):
    """``ambient_curvature`` with ``eps * term(X, Y, Z)`` added."""

    def patch(monkeypatch):
        original = suites.ambient_curvature

        def mutant(model, X, Y, Z):
            return original(model, X, Y, Z) + EPS * term(model, X, Y, Z)

        monkeypatch.setattr(suites, "ambient_curvature", mutant)

    return patch


def _plane_rotation_generator(model):
    """The skew map of the ``(Z_1, Z_2)`` plane: ``Z_2 -> Z_1``, ``Z_1 -> -Z_2``."""
    z1, z2 = model.zvec(1), model.zvec(2)
    return np.outer(z1, z2) - np.outer(z2, z1)


#: ``g(Y, Z) X`` without its partner ``- g(X, Z) Y``: not skew in the last slots.
dropped_partner = curvature_with(lambda mo, X, Y, Z: suites._col_dot(Y, Z) * X)
#: ``g(J X, Y) B Z`` for the skew ``B`` of the ``(Z_1, Z_2)`` plane: a product of
#: two different 2-forms, skew in each pair, not pair symmetric.
two_form_product = curvature_with(
    lambda mo, X, Y, Z: suites._col_dot(mo.J @ X, Y) * (_plane_rotation_generator(mo) @ Z)
)
#: The coefficient of ``g(J X, Y) J Z`` off by ``eps``: every symmetry but Bianchi holds.
j_coefficient_slip = curvature_with(lambda mo, X, Y, Z: suites._col_dot(mo.J @ X, Y) * (mo.J @ Z))


def jacobi_with(term):
    """``ambient_jacobi`` with ``eps * term(model, U)`` added, for both directions."""

    def patch(monkeypatch):
        original = suites.ambient_jacobi
        monkeypatch.setattr(
            suites, "ambient_jacobi", lambda mo, U: original(mo, U) + EPS * term(mo, U)
        )

    return patch


def _zm_outer(model, rotated=False):
    """``v (x) v`` for ``v = Z_m``, or ``J Z_m`` if ``rotated``; both are
    orthogonal to the principal and the isotropic direction for ``m >= 3``."""
    v = model.jzvec(model.m) if rotated else model.zvec(model.m)
    return np.outer(v, v)


#: ``eps U (x) U``: the direction is no longer in the kernel.
jacobi_direction_leak = jacobi_with(lambda mo, U: np.outer(U, U))
#: ``eps (Z_m (x) Z_m - J Z_m (x) J Z_m)``: trace free, moves two eigenvalues.
jacobi_trace_free_kick = jacobi_with(lambda mo, U: _zm_outer(mo) - _zm_outer(mo, rotated=True))
#: ``eps Z_m (x) Z_m``: trace ``2m + eps``.
jacobi_trace_shift = jacobi_with(lambda mo, U: _zm_outer(mo))


def coefficient_slip(monkeypatch):
    """``E_a`` with its conjugation coefficient ``3 alpha`` off by ``eps alpha``."""
    original = classification.affine_pair_matrices

    def mutant(alpha, S, A):
        e_a, e_b = original(alpha, S, A)
        return e_a + EPS * alpha * A, e_b

    monkeypatch.setattr(classification, "affine_pair_matrices", mutant)


def common_term(monkeypatch):
    """``+ eps Id`` on both ``E_a`` and ``E_b``: the difference is unchanged."""
    original = classification.affine_pair_matrices

    def mutant(alpha, S, A):
        e_a, e_b = original(alpha, S, A)
        eye = np.eye(S.shape[-1])
        return e_a + EPS * eye, e_b + EPS * eye

    monkeypatch.setattr(classification, "affine_pair_matrices", mutant)


def perturbed_payload(monkeypatch):
    """:func:`~quadric.perturbed_tube`: Hopf and paired, Reeb flow not isometric."""
    return q.perturbed_tube(K, R, np.random.default_rng(5))


def collapsed_blocks(monkeypatch):
    """All ``4k - 4`` invariant directions at ``-tan r``: the Reeb flow stays
    isometric (``W1`` and ``W2`` are each ``phi``-invariant), the spectrum
    loses the ``cot r`` cluster."""
    tube = q.build_tube(K, R)
    W2 = tube.bases["W2"]
    S = tube.h.S - (1.0 / math.tan(R) + math.tan(R)) * (W2 @ W2.T)
    return q.induce_from_normal(tube.h.model, tube.h.N, S)


def moved_pair(monkeypatch):
    """One complex pair of ``W2`` moved to ``-tan r``: still Reeb parallel
    (every pair at ``-tan r`` or ``cot r`` is), with the tube's cluster count
    and values but multiplicities ``2k - 2 + 2`` and ``2k - 2 - 2``."""
    tube = q.build_tube(K, R)
    pair = tube.bases["W2"][:, [0, K - 1]]
    S = tube.h.S - (1.0 / math.tan(R) + math.tan(R)) * (pair @ pair.T)
    return q.induce_from_normal(tube.h.model, tube.h.N, S)


def single_precision_solver(monkeypatch):
    """``np.linalg.eigh`` rounding its eigenpairs to single precision.

    The reconstruction residuals certify the solver, not the operator, so
    their defect sits in the solver that ``sym_eigen`` calls.
    """
    eigh = np.linalg.eigh

    def mutant(a):
        values, vectors = eigh(a)
        return values.astype(np.float32).astype(float), vectors.astype(np.float32).astype(float)

    monkeypatch.setattr(np.linalg, "eigh", mutant)


#: command -> check name (without instance tag) -> defect that fails it.
#: A defect patches names for the run; for ``classify`` it may return the
#: data to classify instead of the default tube payload.
SUITE_MUTATIONS = {
    "verify ambient": {
        "complex_structure_squares_to_minus_id": scaled_J,
        "conjugation_is_involution": scaled_A,
        "conjugation_anti_commutes": real_rotated_A,
        "conjugation_trace": shifted_A,
        "rotated_conjugation_involution": scaled_rotation,
        "curvature_skew_in_last_slots": dropped_partner,
        "curvature_pair_symmetry": two_form_product,
        "first_bianchi_identity": j_coefficient_slip,
        "jacobi_kills_direction": jacobi_direction_leak,
        "jacobi_spectrum": jacobi_trace_free_kick,
        "jacobi_trace": jacobi_trace_shift,
    },
    "nonexistence": {
        "difference_identity": coefficient_slip,
        "affine_pair_solvable": common_term,
    },
    "classify": {
        "reeb_parallel_structure_jacobi": perturbed_payload,
        "tube_spectrum_match": collapsed_blocks,
    },
    "spectrum": {
        "shape_reconstruction": single_precision_solver,
        "structure_jacobi_reconstruction": single_precision_solver,
    },
}

#: command -> check name -> why it has no entry in the matrix.
EXEMPT = {
    "classify": {
        "classification_admissible": (
            "the verdict written as a 0/1 residual: the only check that fails "
            "when classify stops before any residual, on data that is not Hopf "
            "or has alpha = 0 (test_early_stop_fails_admissible_alone), so the "
            "exit code follows the verdict"
        ),
    },
}


def _commands(tmp_path, h=None):
    """The six commands at fixed arguments; classify and spectrum read ``h``."""
    payload = tmp_path / "data.json"
    data = h if h is not None else q.build_tube(K, R).h
    payload.write_text(render_json(q.to_dict(data)) + "\n", encoding="utf-8")
    return {
        "verify ambient": ["verify", "ambient", "--m", str(M)],
        "verify tube": ["verify", "tube", "--k", str(K), "--r", repr(R)],
        "scan tube": ["scan", "tube", "--k", str(K), "--r-min", "0.3", "--r-max", "1.2",
                      "--steps", "4"],
        "nonexistence": ["nonexistence", "--m", "3", "--alpha-samples", "2"],
        "classify": ["classify", str(payload)],
        "spectrum": ["spectrum", str(payload)],
    }


def run_command(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    if argv[0] == "classify":
        out = out.partition("\n")[2]  # after the verdict line
    return code, json.loads(out) if out else None


#: The report schema of version 0.3.0: top-level keys, check keys, and the
#: ordered check names of each command at the arguments of ``_commands``.
SCHEMA_VERSION = "0.3.0"
REPORT_KEYS = ["command", "version", "seed", "params", "checks", "summary"]
CHECK_KEYS = ["name", "residual", "tol", "pass"]
CHECK_NAMES = {
    "verify ambient": [
        "complex_structure_squares_to_minus_id",
        "conjugation_is_involution",
        "conjugation_anti_commutes",
        "conjugation_trace",
        "rotated_conjugation_involution[theta=0.3]",
        "rotated_conjugation_involution[theta=1.0472]",
        "rotated_conjugation_involution[theta=2]",
        "curvature_skew_in_last_slots",
        "curvature_pair_symmetry",
        "first_bianchi_identity",
        "jacobi_kills_direction[principal]",
        "jacobi_spectrum[principal]",
        "jacobi_trace[principal]",
        "jacobi_kills_direction[isotropic]",
        "jacobi_spectrum[isotropic]",
        "jacobi_trace[isotropic]",
    ],
    "verify tube": TUBE_CHECKS,
    "scan tube": TUBE_CHECKS,
    "nonexistence": [
        "difference_identity[alpha=+1.95027]",
        "affine_pair_solvable[alpha=+1.95027]",
        "difference_identity[alpha=+2.37192]",
        "affine_pair_solvable[alpha=+2.37192]",
    ],
    "classify": [
        "classification_admissible",
        "reeb_parallel_structure_jacobi",
        "tube_spectrum_match",
    ],
    "spectrum": ["shape_reconstruction", "structure_jacobi_reconstruction"],
}


def test_report_schema_pinned_to_version(capsys, tmp_path):
    """A change to any check list, or to the report layout, must come with a
    deliberate bump of ``report.VERSION`` and of this pin."""
    assert report.VERSION == SCHEMA_VERSION
    for command, argv in _commands(tmp_path).items():
        code, payload = run_command(capsys, argv)
        assert code == 0, command
        assert list(payload) == REPORT_KEYS
        assert payload["version"] == SCHEMA_VERSION
        assert all(list(c) == CHECK_KEYS for c in payload["checks"])
        assert [c["name"] for c in payload["checks"]] == CHECK_NAMES[command], command


def test_every_check_has_a_mutation_or_an_exemption(capsys, tmp_path):
    """The check names each command emits are its matrix rows plus its
    exemptions; ``scan tube`` reports the ``verify tube`` checks."""
    rows = {**SUITE_MUTATIONS, "verify tube": MUTATIONS, "scan tube": MUTATIONS}
    for command, argv in _commands(tmp_path).items():
        _, payload = run_command(capsys, argv)
        emitted = {base_name(c["name"]) for c in payload["checks"]}
        exempt = EXEMPT.get(command, {})
        assert not set(rows[command]) & set(exempt), command
        assert emitted == set(rows[command]) | set(exempt), command


@pytest.mark.parametrize(
    "command, check",
    [(command, check) for command, rows in SUITE_MUTATIONS.items() for check in rows],
)
def test_suite_mutation_fails_its_check(capsys, monkeypatch, tmp_path, command, check):
    h = SUITE_MUTATIONS[command][check](monkeypatch)
    code, payload = run_command(capsys, _commands(tmp_path, h)[command])
    assert code == 1
    instances = [c for c in payload["checks"] if base_name(c["name"]) == check]
    assert instances and not any(c["pass"] for c in instances)


def test_common_term_fails_solvability_alone(capsys, monkeypatch, tmp_path):
    """A defect shared by ``E_a`` and ``E_b`` cancels in their difference."""
    common_term(monkeypatch)
    code, payload = run_command(capsys, _commands(tmp_path)["nonexistence"])
    assert code == 1
    failed = {base_name(c["name"]) for c in payload["checks"] if not c["pass"]}
    assert failed == {"affine_pair_solvable"}


@pytest.mark.parametrize("m", [4, 16, 64])
def test_small_shift_fails_the_trace_alone(capsys, monkeypatch, m):
    """``A + 2e-15 Id`` moves each entry of ``A J + J A`` by ``4e-15``, under
    the ``1e-14`` bound of ``conjugation_anti_commutes``, while the trace
    ``2m * 2e-15`` exceeds it: only ``conjugation_trace`` sees the defect."""
    monkeypatch.setattr(
        suites, "build_tangent_model", _model_with(A=lambda mo: mo.A + 2e-15 * np.eye(mo.dim))
    )
    code, payload = run_command(capsys, ["verify", "ambient", "--m", str(m)])
    assert code == 1
    assert [c["name"] for c in payload["checks"] if not c["pass"]] == ["conjugation_trace"]


def _spectrum_match_fails_alone(capsys, tmp_path, h):
    code, payload = run_command(capsys, _commands(tmp_path, h)["classify"])
    assert code == 1
    checks = {c["name"]: c for c in payload["checks"]}
    assert checks["reeb_parallel_structure_jacobi"]["pass"]
    assert checks["tube_spectrum_match"]["residual"] == "inf"


def test_collapsed_blocks_stay_reeb_parallel(capsys, tmp_path):
    """Only the spectrum match tells the collapsed tube from a tube."""
    _spectrum_match_fails_alone(capsys, tmp_path, collapsed_blocks(None))


def test_moved_pair_fails_the_spectrum_match(capsys, tmp_path):
    """A moved pair keeps the tube's cluster count and values, so only its
    multiplicities tell it from a tube.  Before, a multiplicity mismatch
    was reported with the finite value deviation, and the check passed."""
    _spectrum_match_fails_alone(capsys, tmp_path, moved_pair(None))


def test_asymmetric_jacobi_exits_two(capsys, monkeypatch):
    """``verify ambient`` has no self-adjointness check: the ``sym_eigen``
    guard is the one measurement of it, and an asymmetric Jacobi operator
    exits 2 without a report."""
    original = suites.ambient_jacobi

    def mutant(model, U):
        skew = np.outer(model.zvec(1), model.zvec(2))
        return original(model, U) + 1e-6 * (skew - skew.T)

    monkeypatch.setattr(suites, "ambient_jacobi", mutant)
    code = main(["verify", "ambient", "--m", str(M)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "not self-adjoint" in captured.err


@pytest.mark.parametrize(
    "data",
    [
        lambda: hopf_kick(q.build_tube(K, R), None),
        lambda: q.random_hopf_data(2 * K, np.random.default_rng(3), "isotropic", alpha=0.0),
    ],
    ids=["not-hopf", "alpha-zero"],
)
def test_early_stop_fails_admissible_alone(capsys, tmp_path, data):
    """Why ``classification_admissible`` is kept: when classify stops before
    any residual, it is the only check in the report."""
    code, payload = run_command(capsys, _commands(tmp_path, data())["classify"])
    assert code == 1
    assert [(c["name"], c["pass"]) for c in payload["checks"]] == [
        ("classification_admissible", False)
    ]


# ---------------------------------------------------------------------------
# The Ricci oracle pair: a library check, outside the command matrix
# ---------------------------------------------------------------------------

#: The operator pairs of ``hypersurface._gauss_terms``, in order.
GAUSS_PAIRS = ["I I", "J phi", "A B", "JA phiB", "JA -xi rho", "S S"]


@pytest.fixture(scope="module")
def generic_hopf():
    return q.random_hopf_data(4, np.random.default_rng(31), "generic")


@pytest.mark.parametrize("dropped", range(len(GAUSS_PAIRS)), ids=GAUSS_PAIRS)
def test_dropped_gauss_pair_fails_ricci_consistency(monkeypatch, generic_hopf, dropped):
    """Each pair of the Gauss table is seen by ``ricci_consistency``: the
    contraction without it disagrees with the closed form."""
    assert suites.ricci_consistency(generic_hopf).passed
    terms = hypersurface._gauss_terms

    def mutant(h):
        pairs = terms(h)
        assert len(pairs) == len(GAUSS_PAIRS)
        return pairs[:dropped] + pairs[dropped + 1 :]

    monkeypatch.setattr(hypersurface, "_gauss_terms", mutant)
    assert not suites.ricci_consistency(generic_hopf).passed


def test_dropped_trace_term_fails_ricci_consistency(monkeypatch, generic_hopf):
    """The closed form's side of the pair: ``ricci`` without ``tr(S) S``."""
    ricci = hypersurface.ricci
    monkeypatch.setattr(
        suites, "ricci", lambda h, X: ricci(h, X) - float(np.trace(h.S)) * (h.S @ X)
    )
    assert not suites.ricci_consistency(generic_hopf).passed
