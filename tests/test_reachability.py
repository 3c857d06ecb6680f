"""Every function of the package runs in a command, or is listed with the reason it does not.

A fresh interpreter installs a profiler before it imports ``quadric`` (the
class body of ``HypersurfaceData`` calls ``hypersurface._derived`` at import
time) and then runs a pinned sweep of in-process ``cli.main`` calls that
covers all six commands, their error exits and ``--json PATH``.  Each
recorded call is matched to its ``def`` by file and first line; for a
decorated function that is the line of its first decorator, as in
``co_firstlineno``.

The ``def``s the sweep does not reach must be exactly :data:`UNREACHED`.  A
newly unreached function fails the test, and so does a listed one that a
command now reaches, so the list can only shrink.
"""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import quadric as q
from quadric.report import render_json

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quadric"

#: ``module.qualname`` of each ``def`` no command reaches, with the reason it stays.
UNREACHED = {
    "hypersurface.induced_curvature": "paper formula (Gauss equation); no command reads it yet (ROADMAP item 4)",
    "hypersurface._gauss_terms": "the rank-one terms of induced_curvature and ricci_contraction",
    "hypersurface.ricci": "paper formula (Ricci operator), checked only by ricci_consistency (ROADMAP item 4)",
    "hypersurface.ricci_contraction": "the independent oracle for ricci, read by ricci_consistency",
    "hypersurface.reeb_derivative_reduced": "paper formula for nabla_xi R_xi in reduced form; waits for ROADMAP item 4",
    "hypersurface.HypersurfaceData.require_tangent": "tangency guard of induced_curvature and ricci",
    "hypersurface.HypersurfaceData.rho": "the pairing g(X, A N) that ricci reads; induced_curvature reads _gauss_terms",
    "suites.ricci_consistency": "the benchmark's oracle-sweep workload runs it; no command does",
    "classification.principal_chain_residuals": "the derivation chain of the nonexistence proof; waits for ROADMAP item 6",
    "models._complex_pair_columns": "the frame of principal_chain_residuals",
    "models.random_hopf_data": "library constructor of test and benchmark data",
    "models.perturbed_tube": "library constructor: tube data with a broken Reeb flow",
    "models.build_principal_candidate": "library constructor of principal-normal candidates",
    "models.reeb_parallel_principal_candidate": "library constructor of a Reeb-parallel principal candidate",
    "models.default_radius_grid": "library radius grid for sweeps in demos and tests",
    "hypersurface.to_dict": "library serializer that writes the payloads classify and spectrum read",
    "hypersurface.HypersurfaceData.with_gauge": "library copy with another gauge q(xi)",
    "hypersurface.HypersurfaceData.with_dalpha": "library copy with a declared Reeb-curvature differential",
    "hypersurface._frame": "behind h.frame, the dense reference the reflection gauges are tested against",
}

_CHILD = """
import contextlib, io, json, sys
codes = set()

def record(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)

sys.setprofile(record)
from quadric import cli

exits = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        exits.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps({
    "package": cli.__file__,
    "exits": exits,
    "calls": sorted({(c.co_filename, c.co_firstlineno) for c in codes}),
}))
"""


def _defs() -> dict:
    """``(file, first line) -> module.qualname`` for every ``def`` in the package."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[(path, first)] = name
                visit(child, path, name)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), path.stem)
    return found


def _sweep(tmp_path: Path) -> list:
    """``(argv, exit code)`` pairs; the payloads are built here, outside the profiled run."""
    rng = np.random.default_rng(2024)
    tube = q.build_tube(2, 0.6).h
    asymmetric = q.to_dict(tube)
    asymmetric["S"] = (tube.S + 0.1 * np.outer(tube.frame[:, 0], tube.frame[:, 1])).tolist()
    payloads = {
        "tube": (q.to_dict(tube), 0),
        **{kind: (q.to_dict(q.random_hopf_data(3, rng, kind=kind)), 1) for kind in ("generic", "principal", "isotropic")},
        "candidate": (q.to_dict(q.reeb_parallel_principal_candidate(3, 1.2)), 0),
        "perturbed": (q.to_dict(q.perturbed_tube(2, 0.6, rng)), 1),
        "asymmetric": (asymmetric, 2),
    }
    sweep = [
        (["verify", "ambient", "--m", "2"], 0),
        (["verify", "ambient", "--m", "3"], 0),
        (["verify", "ambient", "--m", "1"], 2),
        (["verify", "tube", "--k", "2", "--r", "0.6"], 0),
        (["verify", "tube", "--k", "2", "--r", "1e-6"], 1),
        (["verify", "tube", "--k", "2", "--r", repr(math.pi / 4.0), "--no-non-vanishing"], 0),
        (["scan", "tube", "--k", "2", "--r-min", "0.3", "--r-max", "1.2", "--steps", "3"], 0),
        (["nonexistence", "--m", "3", "--alpha-samples", "3"], 0),
        (["nonexistence", "--m", "3", "--alpha-samples", "0"], 2),
    ]
    for name, (payload, classify_exit) in payloads.items():
        path = tmp_path / f"{name}.json"
        path.write_text(render_json(payload) + "\n", encoding="utf-8")
        sweep.append((["classify", str(path)], classify_exit))
        sweep.append((["spectrum", str(path)], 2 if name == "asymmetric" else 0))
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"m": 2, "N": [', encoding="utf-8")
    sweep += [
        (["classify", str(malformed)], 2),
        (["verify", "tube", "--k", "2", "--r", "0.6", "--tol", "inf"], 2),
        (["verify", "ambient", "--m", "2", "--seed", "-1"], 2),
        (["verify", "ambient", "--m", "2", "--json", str(tmp_path / "report.json")], 0),
    ]
    return sweep


def test_every_unreached_def_is_listed(tmp_path):
    sweep = _sweep(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps([argv for argv, _ in sweep])],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    run = json.loads(result.stdout)
    assert Path(run["package"]).resolve() == PACKAGE / "cli.py"
    assert run["exits"] == [code for _, code in sweep]

    calls = {(str(Path(path).resolve()), line) for path, line in run["calls"]}
    unreached = {name for key, name in _defs().items() if key not in calls}
    newly_unreached = sorted(unreached - UNREACHED.keys())
    now_reached = sorted(UNREACHED.keys() - unreached)
    assert not newly_unreached and not now_reached, (
        f"unreached but not listed (wire it into a command, or list it with its reason): {newly_unreached}; "
        f"listed but reached or gone (delete the entry): {now_reached}"
    )
