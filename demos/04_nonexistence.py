"""Nonexistence for principal normals: the derived chain and its contradiction.

A Hopf hypersurface with principal normal and Reeb-parallel structure Jacobi
operator would have to satisfy a chain of pointwise operator equations on
the maximal complex subbundle.  The final affine pair forces the conjugation
to restrict to the identity there, whose trace 2m - 2 contradicts the
trace-free conjugation of the ambient model.  No shape operator escapes.
"""

import numpy as np

import quadric as q
from quadric.classification import _quadratic_roots, affine_pair_matrices

# A candidate that satisfies the Reeb-parallel condition pointwise.
m, alpha = 4, 1.5
h = q.reeb_parallel_principal_candidate(m, alpha)
print(f"candidate: m = {m}, alpha = {alpha}")
print(f"Reeb-parallel residual: {q.reeb_parallel_residual(h):.2e}")

print("\nderived-equation chain residuals:")
for name, value in q.principal_chain_residuals(h).items():
    print(f"  {name:18s} {value:.3e}")
print("(the first-order equations hold, the affine pair cannot: the candidate")
print(" is not realizable geometry, only pointwise data)")

# The affine pair is solvable with the identity conjugation block on the
# complex subbundle and a shape block with spectrum in the roots -- and that
# identity block is exactly the contradiction.
hi, lo = _quadratic_roots(alpha)
identity = np.eye(2 * (m - 1))
e_a, e_b = affine_pair_matrices(alpha, np.diag([hi, lo, hi] * 2), identity)
print("\nidentity conjugation block with root spectrum:")
print(f"  affine pair residuals: {np.max(np.abs(e_a)):.2e}, {np.max(np.abs(e_b)):.2e}")
print(f"  trace of the forced block = {np.trace(identity):.0f} (must be 0)")

# The certificate automates this over sampled Reeb curvatures.
rng = np.random.default_rng(7)
alphas = [float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])) for _ in range(10)]
report = q.principal_nonexistence_certificate(3, alphas)
print(f"\ncertificate over {len(alphas)} sampled curvatures (m = 3):")
for prefix in ("difference_identity", "affine_pair_solvable"):
    checks = [c for c in report.checks if c.name.startswith(prefix)]
    print(f"  {prefix}: {sum(c.passed for c in checks)}/{len(checks)}")
print(f"  forced trace: {report.params['forced_trace_on_c']:.0f}, required: 0")
print("  all checks passed:", report.all_passed)
