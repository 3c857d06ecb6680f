"""Acceptance suite: one test per acceptance criterion, stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
the captured output of a failing run) before asserting.
"""

import math
import time

import numpy as np

import quadric as q
from quadric.cli import main as cli_main
from quadric.report import render_json
from quadric.suites import ricci_consistency


def _report(num: int, ok: bool, description: str, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {description} ({detail}) [{elapsed:.2f}s]")


def test_criterion_1_ambient_jacobi_spectra():
    """Principal directions: {0 (m), 2 (m)}; isotropic: {0 (3), 1 (2m-4), 4 (1)}."""
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for m in range(3, 9):
        model = q.build_tangent_model(m)
        for U, template in (
            (q.principal_vector(model), [(0.0, m), (2.0, m)]),
            (q.isotropic_vector(model), [(0.0, 3), (1.0, 2 * m - 4), (4.0, 1)]),
        ):
            rep = q.sym_eigen(q.ambient_jacobi(model, U))
            dev = q.match_spectrum(rep.clusters, template)
            ok = ok and dev <= 1e-10
            worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    ok = ok and worst < 1e-10 and elapsed < 1.0
    _report(1, ok, "ambient Jacobi spectra, m in 3..8", f"worst dev {worst:.2e}", elapsed)
    assert ok


def test_criterion_2_tube_identity_suite():
    """Tube family over k in {2,3,4} and the 20-point radius grid."""
    start = time.perf_counter()
    worst: dict[str, float] = {}

    def track(name, value):
        worst[name] = max(worst.get(name, 0.0), value)

    ok = True
    for k in (2, 3, 4):
        for r in q.default_radius_grid(20):
            tube = q.build_tube(k, r)
            h = tube.h
            spec = q.sym_eigen(h.frame.T @ h.S @ h.frame)
            dev = q.match_spectrum(spec.clusters, q.tube_shape_template(k, r))
            ok = ok and dev <= 1e-10
            track("shape_spectrum", dev)
            track("hopf_identity", q.hopf_identity_residual(h))
            track("shape_kills_A_xi", float(np.linalg.norm(h.S @ h.A_xi)))
            track("shape_kills_A_N", float(np.linalg.norm(h.S @ h.A_N)))
            track("isometric_flow", float(np.max(np.abs(h.phi @ h.S - h.S @ h.phi))))
            track("reeb_parallel_shape", q.reeb_shape_residual(h))
            track("reeb_parallel", q.reeb_parallel_residual(h))
    elapsed = time.perf_counter() - start
    bounds = {
        "shape_spectrum": 1e-10,
        "hopf_identity": 1e-11,
        "shape_kills_A_xi": 1e-12,
        "shape_kills_A_N": 1e-12,
        "isometric_flow": 1e-12,
        "reeb_parallel_shape": 1e-11,
        "reeb_parallel": 1e-11,
    }
    ok = ok and all(worst[name] < bound for name, bound in bounds.items())
    ok = ok and elapsed < 10.0
    detail = ", ".join(f"{name} {worst[name]:.1e}" for name in bounds)
    _report(2, ok, "tube identity suite", detail, elapsed)
    assert ok


def test_criterion_3_tube_structure_jacobi_spectrum():
    """R restricted to the Reeb direction has spectrum {0 (3), tan^2 r, cot^2 r}."""
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for k in (2, 3, 4):
        for r in q.default_radius_grid(20):
            h = q.build_tube(k, r).h
            rep = q.sym_eigen(h.frame.T @ q.structure_jacobi(h) @ h.frame)
            dev = q.match_spectrum(rep.clusters, q.tube_jacobi_template(k, r))
            ok = ok and dev <= 1e-10
            worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    ok = ok and worst < 1e-10
    _report(3, ok, "tube structure Jacobi spectrum", f"worst dev {worst:.2e}", elapsed)
    assert ok


def test_criterion_4_reeb_parallel_commutator_equivalence():
    """Isotropic Hopf perturbations: the Reeb-parallel residual equals
    |alpha| * (|alpha|/2) * max_i |(phi S - S phi) Y_i| exactly (the stated
    comparator (|alpha|/2) * max_i |...| is its |alpha| = 1 specialization,
    exercised at the unit-curvature radius), and is gauge independent."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_eq = 0.0
    worst_gauge = 0.0
    unit_alpha_r = q.recover_radius(1.0)
    samples = [(2, unit_alpha_r)]
    while len(samples) < 50:
        k = int(rng.choice([2, 3, 4]))
        r = float(rng.uniform(0.15, math.pi / 2.0 - 0.15))
        if abs(r - math.pi / 4.0) < 0.01:
            continue
        samples.append((k, r))
    literal_checked = False
    for k, r in samples:
        h = q.perturbed_tube(k, r, rng)
        a = abs(h.alpha)
        comparator = (a / 2.0) * float(np.max(np.linalg.norm((h.phi_S - h.S_phi) @ h.frame, axis=0)))
        residual = q.reeb_parallel_residual(h)
        worst_eq = max(worst_eq, abs(residual - a * comparator))
        if abs(a - 1.0) < 1e-9:
            worst_eq = max(worst_eq, abs(residual - comparator))
            literal_checked = True
        base = q.reeb_parallel_residual(h.with_gauge(0.0))
        for gauge in (h.alpha, 2.0 * h.alpha, 10.0):
            worst_gauge = max(
                worst_gauge, abs(q.reeb_parallel_residual(h.with_gauge(gauge)) - base)
            )
    elapsed = time.perf_counter() - start
    ok = literal_checked and worst_eq < 1e-9 and worst_gauge < 1e-12
    _report(
        4,
        ok,
        "Reeb-parallel residual vs commutator scale (50 perturbations)",
        f"equivalence {worst_eq:.2e}, gauge {worst_gauge:.2e}",
        elapsed,
    )
    assert ok


def test_criterion_5_nonexistence_certificate():
    """Principal case: the affine pair forces the identity block (difference
    identity), is solvable with it, and the forced trace conflicts, for 25
    random nonzero Reeb curvatures per dimension."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    ok = True
    details = []
    for m in (3, 4, 5):
        alphas = [float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])) for _ in range(25)]
        rep = q.principal_nonexistence_certificate(m, alphas, seed=7)
        difference = [c for c in rep.checks if c.name.startswith("difference_identity")]
        solvable = [c for c in rep.checks if c.name.startswith("affine_pair_solvable")]
        ok = ok and rep.all_passed
        # The conjuncts of the trace contradiction hold for every sample.
        ok = ok and len(difference) == 25 and all(c.passed for c in difference)
        ok = ok and len(solvable) == 25 and all(c.passed for c in solvable)
        ok = ok and max(c.residual for c in solvable) < 1e-10
        ok = ok and rep.params["forced_trace_on_c"] == 2 * m - 2
        details.append(f"m={m} trace {2 * m - 2}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(5, ok, "nonexistence certificate", "; ".join(details), elapsed)
    assert ok


def test_criterion_6_ricci_oracle():
    """Closed-form Ricci equals the frame contraction of the Gauss curvature."""
    start = time.perf_counter()
    worst = 0.0
    for k, r in ((2, 0.6), (3, 1.0)):
        worst = max(worst, ricci_consistency(q.build_tube(k, r).h).residual)
    rng = np.random.default_rng(7)
    kinds = ("generic", "principal", "isotropic")
    for i in range(20):
        h = q.random_hopf_data(3 + i % 3, rng, kind=kinds[i % 3])
        worst = max(worst, ricci_consistency(h).residual)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9
    _report(6, ok, "Ricci contraction oracle", f"worst {worst:.2e}", elapsed)
    assert ok


def test_criterion_7_classification_round_trip(tmp_path):
    """classify(build_tube(k, r)) recovers (k, r); inadmissible inputs are
    rejected with the documented exit codes."""
    start = time.perf_counter()
    ok = True
    worst_dr = 0.0
    for k in (2, 3, 4):
        for r in q.default_radius_grid(20):
            res = q.classify(q.build_tube(k, r).h)
            ok = ok and res.verdict == "tube" and res.k == k
            worst_dr = max(worst_dr, abs(res.r - r))
    ok = ok and worst_dr < 1e-9

    # vanishing Reeb curvature: classify exits 1, the guarded builder exits 2
    sink = str(tmp_path / "report.json")
    flat = q.build_tube(2, math.pi / 4.0, non_vanishing=False)
    path = tmp_path / "flat.json"
    path.write_text(render_json(q.to_dict(flat.h)) + "\n", encoding="utf-8")
    ok = ok and cli_main(["classify", str(path), "--json", sink]) == 1
    ok = ok and cli_main(["verify", "tube", "--k", "2", "--r", str(math.pi / 4.0)]) == 2

    # non-Hopf data: classify exits 1
    model = q.build_tangent_model(3)
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((6, 6))
    h = q.induce_from_normal(model, model.zvec(1), 0.5 * (raw + raw.T))
    path = tmp_path / "nonhopf.json"
    path.write_text(render_json(q.to_dict(h)) + "\n", encoding="utf-8")
    ok = ok and cli_main(["classify", str(path), "--json", sink]) == 1

    elapsed = time.perf_counter() - start
    _report(7, ok, "classification round trip", f"worst |dr| {worst_dr:.2e}", elapsed)
    assert ok


def test_criterion_8_structural_invariants():
    """Structure identities, first Bianchi, and the normal-component
    cancellation of the Reeb derivative, over random instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_bianchi = 0.0
    worst_cancel = 0.0
    structural_ok = True
    kinds = ("generic", "principal", "isotropic")
    for m in (3, 4, 5, 6):
        model = q.build_tangent_model(m)
        eye = np.eye(model.dim)
        structural_ok = structural_ok and np.array_equal(model.J @ model.J, -eye)
        structural_ok = structural_ok and np.array_equal(model.A @ model.A, eye)
        structural_ok = structural_ok and np.array_equal(
            model.A @ model.J, -(model.J @ model.A)
        )
        structural_ok = structural_ok and np.trace(model.A) == 0.0
        for i in range(100):
            X, Y, Z = (rng.standard_normal(model.dim) for _ in range(3))
            cyc = (
                q.ambient_curvature(model, X, Y, Z)
                + q.ambient_curvature(model, Y, Z, X)
                + q.ambient_curvature(model, Z, X, Y)
            )
            worst_bianchi = max(worst_bianchi, float(np.max(np.abs(cyc))))
            h = q.random_hopf_data(m, rng, kind=kinds[i % 3])
            worst_cancel = max(worst_cancel, q.normal_component_residual(h))
    elapsed = time.perf_counter() - start
    ok = structural_ok and worst_bianchi < 1e-12 and worst_cancel < 1e-12
    _report(
        8,
        ok,
        "structural invariants (100 instances per m in 3..6)",
        f"bianchi {worst_bianchi:.2e}, normal cancellation {worst_cancel:.2e}",
        elapsed,
    )
    assert ok
