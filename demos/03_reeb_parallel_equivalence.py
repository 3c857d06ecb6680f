"""Reeb-parallel structure Jacobi operator vs isometric Reeb flow.

For isotropic Hopf data with constant Reeb curvature the Reeb derivative of
the structure Jacobi operator collapses to a multiple of the commutator of
the structure tensor with the shape operator:

    (nabla_xi R_xi) = alpha (nabla_xi S) = (alpha^2 / 2) (phi S - S phi).

So the operator is Reeb parallel exactly when the Reeb flow is isometric.
The script perturbs tube data (keeping the pointwise consistency pairing),
measures both sides, and shows the gauge scalar is irrelevant here.
"""

import numpy as np

import quadric as q

rng = np.random.default_rng(42)

print("perturbed tubes: residual vs |alpha| (|alpha|/2) commutator scale")
print(f"{'k':>3} {'r':>6} {'alpha':>8} {'residual':>12} {'predicted':>12} {'difference':>11}")
for _ in range(8):
    k = int(rng.choice([2, 3]))
    r = float(rng.uniform(0.2, 1.3))
    if abs(r - np.pi / 4.0) < 0.02:
        continue
    h = q.perturbed_tube(k, r, rng)
    a = abs(h.alpha)
    residual = q.reeb_parallel_residual(h)
    commutator = np.max(np.linalg.norm((h.phi_S - h.S_phi) @ h.frame, axis=0))
    predicted = a * (a / 2.0) * commutator
    print(f"{k:>3} {r:>6.3f} {h.alpha:>8.3f} {residual:>12.6e} {predicted:>12.6e} "
          f"{abs(residual - predicted):>11.2e}")

# The shape-derivative form behind the collapse.
h = q.perturbed_tube(2, 0.8, rng)
G = q.reeb_shape_derivative(h)
commutator_half = 0.5 * h.alpha * (h.phi @ h.S - h.S @ h.phi) @ h.projector
print("\n(nabla_xi S) equals (alpha/2)(phi S - S phi):",
      f"{np.max(np.abs(G - commutator_half)):.2e}")

# Gauge independence: every gauge term carries the conjugation pairing,
# which vanishes for isotropic normals.
base = q.reeb_parallel_residual(h.with_gauge(0.0))
print("\ngauge scan (isotropic data):")
for gauge in (0.0, h.alpha, 2.0 * h.alpha, 10.0):
    val = q.reeb_parallel_residual(h.with_gauge(gauge))
    print(f"  q(xi) = {gauge:>7.3f}: residual {val:.12e}  (drift {abs(val - base):.1e})")

# For a principal normal the pairing is -1 and the gauge does matter.
hp = q.reeb_parallel_principal_candidate(3, 1.2)
print("\nprincipal candidate (pairing = -1):")
for gauge in (hp.q_xi, hp.q_xi + 1.0):
    print(f"  q(xi) = {gauge:>7.3f}: residual {q.reeb_parallel_residual(hp.with_gauge(gauge)):.3e}")
