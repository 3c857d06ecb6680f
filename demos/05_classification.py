"""Classification round trip: serialize, reload, recover the tube parameters.

Isotropic Hopf data with non-vanishing Reeb curvature and Reeb-parallel
structure Jacobi operator must be a tube; the radius is recovered from
alpha = 2 cot(2r) and the shape spectrum pins the family.  Inadmissible
data is reported outside the hypotheses with the failing condition.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np

import quadric as q
from quadric.report import render_json

# Round trip through the JSON schema.
tube = q.build_tube(3, 0.85)
payload = q.to_dict(tube.h)
payload.update({"family": "T_A", "k": tube.k, "r": tube.r})
with tempfile.TemporaryDirectory(prefix="quadric-demo-") as workdir:
    path = Path(workdir) / "tube.json"
    path.write_text(render_json(payload) + "\n", encoding="utf-8")
    print(f"serialized tube(k=3, r=0.85) to {path}")
    h = q.from_dict(json.loads(path.read_text()))
res = q.classify(h)
print(f"classified: {res.describe()}  (radius error {abs(res.r - 0.85):.2e})")

# The inversion alpha -> r is single valued across both branches.
print("\nradius recovery across the two branches:")
for r in (0.3, 0.6, 1.0, 1.4):
    alpha = 2.0 / math.tan(2.0 * r)
    print(f"  r = {r:.2f}: alpha = {alpha:+.4f} -> recovered {q.recover_radius(alpha):.10f}")

# Data outside the hypotheses is labelled with the reason.
print("\ninadmissible inputs:")
flat = q.build_tube(2, math.pi / 4.0, non_vanishing=False).h
print(" ", q.classify(flat).describe())

broken = q.perturbed_tube(2, 0.6, np.random.default_rng(3))
print(" ", q.classify(broken).describe())

model = q.build_tangent_model(3)
rng = np.random.default_rng(5)
raw = rng.standard_normal((6, 6))
non_hopf = q.induce_from_normal(model, model.zvec(1), 0.5 * (raw + raw.T))
print(" ", q.classify(non_hopf).describe())

generic = q.random_hopf_data(4, rng, kind="generic")
print(" ", q.classify(generic).describe())

# Principal data passing the Reeb-parallel test is flagged as nonexistent.
cand = q.reeb_parallel_principal_candidate(3, 1.1)
print(" ", q.classify(cand).describe(), "(principal, Reeb parallel)")
