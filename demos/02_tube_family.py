"""The tube family: spectra and the pointwise identity suite over a radius grid.

The tube of radius r around a totally geodesic complex projective space is
Hopf with isotropic normal, has isometric Reeb flow, four constant principal
curvatures, and a Reeb-parallel structure Jacobi operator.  This script
prints its spectra at one radius and then sweeps the admissible grid.
"""

import math

import numpy as np

import quadric as q

k, r = 2, 0.6
tube = q.build_tube(k, r)
h = tube.h
print(f"tube k={k}, r={r}: ambient complex dimension {h.model.m}, alpha = {h.alpha:.6f}")

shape = q.sym_eigen(h.frame.T @ h.S @ h.frame)
print("shape spectrum:      ", ", ".join(f"{v:+.6f} (x{mult})" for v, mult in shape.clusters))
print("expected:            ", ", ".join(f"{v:+.6f} (x{mult})" for v, mult in sorted(q.tube_shape_template(k, r))))

jac = q.sym_eigen(h.frame.T @ q.structure_jacobi(h) @ h.frame)
print("structure Jacobi:    ", ", ".join(f"{v:+.6f} (x{mult})" for v, mult in jac.clusters))
print("expected:            ", ", ".join(f"{v:+.6f} (x{mult})" for v, mult in sorted(q.tube_jacobi_template(k, r))))

print("\npointwise identities at this radius:")
print(f"  Hopf defect                 {np.linalg.norm(h.S @ h.xi - h.alpha * h.xi):.2e}")
print(f"  isotropy g(A xi, xi)        {abs(h.g_axixi):.2e}")
print(f"  S (A xi), S (A N)           {np.linalg.norm(h.S @ h.A_xi):.2e}, "
      f"{np.linalg.norm(h.S @ h.A_N):.2e}")
print(f"  commutator |phi S - S phi|  {np.max(np.abs(h.phi @ h.S - h.S @ h.phi)):.2e}")
print(f"  quadratic Hopf identity     {q.hopf_identity_residual(h):.2e}")
print(f"  Reeb-curvature gradient     {q.alpha_gradient_residual(h):.2e}")
print(f"  Reeb-parallel shape         {q.reeb_shape_residual(h):.2e}")
print(f"  Reeb-parallel Jacobi        {q.reeb_parallel_residual(h):.2e}")

print("\nsweep over the admissible radius grid (worst residuals):")
for kk in (2, 3, 4):
    worst_identity = 0.0
    worst_reeb = 0.0
    for rr in q.default_radius_grid():
        th = q.build_tube(kk, rr).h
        worst_identity = max(worst_identity, q.hopf_identity_residual(th))
        worst_reeb = max(worst_reeb, q.reeb_parallel_residual(th))
    print(f"  k={kk}: hopf identity {worst_identity:.2e}, reeb parallel {worst_reeb:.2e}")

# The degenerate radius pi/4 (vanishing Reeb curvature) is outside the
# classification but still constructible for inspection.
flat = q.build_tube(2, math.pi / 4.0, non_vanishing=False)
print(f"\nat r = pi/4 the Reeb curvature vanishes: alpha = {flat.h.alpha:.2e}")
flat_jac = q.sym_eigen(flat.h.frame.T @ q.structure_jacobi(flat.h) @ flat.h.frame)
print("structure Jacobi spectrum degenerates to",
      ", ".join(f"{v:.3f} (x{mult})" for v, mult in flat_jac.clusters))
