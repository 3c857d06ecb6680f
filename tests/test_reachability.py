"""Every function of the package runs in a command, or is listed with the reason it does not.

The ``corpus_run`` fixture runs the whole corpus of ``tools/corpus.py`` (all
six commands, their error exits, the loader's refusals and ``--json PATH``)
through in-process ``cli.main`` calls in a fresh interpreter, with a
profiler installed before it imports ``quadric`` (the class body of
``HypersurfaceData`` calls ``hypersurface._derived`` at import time).  Each
recorded call is matched to its ``def`` by file and first line; for a
decorated function that is the line of its first decorator, as in
``co_firstlineno``.

The ``def``s the corpus does not reach must be exactly :data:`UNREACHED`.  A
newly unreached function fails the test, and so does a listed one that a
command now reaches, so the list can only shrink.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quadric"

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


def test_every_unreached_def_is_listed(corpus_run):
    _, called, _ = corpus_run
    calls = {(str(Path(path).resolve()), line) for path, line in called}
    unreached = {name for key, name in _defs().items() if key not in calls}
    newly_unreached = sorted(unreached - UNREACHED.keys())
    now_reached = sorted(UNREACHED.keys() - unreached)
    assert not newly_unreached and not now_reached, (
        f"unreached but not listed (wire it into a command, or list it with its reason): {newly_unreached}; "
        f"listed but reached or gone (delete the entry): {now_reached}"
    )
