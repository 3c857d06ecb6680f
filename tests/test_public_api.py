"""Public API: ``quadric.__all__`` names exactly what the package exports."""

import dataclasses
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import quadric as q
from quadric import spectra, suites


def test_every_exported_name_resolves():
    missing = [name for name in q.__all__ if not hasattr(q, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(q.__all__) == len(set(q.__all__))


def test_star_import_succeeds():
    namespace = {}
    exec("from quadric import *", namespace)
    assert set(q.__all__) <= set(namespace)


@pytest.mark.parametrize("name", ["codazzi_rhs", "nabla_Axi", "cov_deriv_structure_jacobi"])
def test_formula_layer_is_gone(name):
    """``reeb_covariant_derivative`` is the one route to ``nabla_xi R_xi``."""
    assert name not in q.__all__
    assert not hasattr(q, name)
    assert not hasattr(q.hypersurface, name)


def test_tangent_frame_is_gone():
    """``h.frame`` is the tangent frame, formed on first read."""
    assert "tangent_frame" not in q.__all__
    assert not hasattr(q.hypersurface, "tangent_frame")


def test_tube_structure_jacobi_spectrum_is_gone():
    """The tube's Jacobi spectrum is read on ``tube.h``, as its shape spectrum is."""
    assert "tube_structure_jacobi_spectrum" not in q.__all__
    assert not hasattr(q, "tube_structure_jacobi_spectrum")
    assert not hasattr(q.models, "tube_structure_jacobi_spectrum")


@pytest.mark.parametrize("name", ["shape_commutator_scale", "restrict_to_frame"])
def test_restated_routes_are_gone(name):
    """``isometric_reeb_flow`` is the one gauge of ``phi S - S phi``, and a
    restriction to a frame is written ``F.T @ M @ F``."""
    assert name not in q.__all__
    assert not hasattr(q, name)
    assert not hasattr(q.hypersurface, name)


def test_every_exported_function_has_a_reader():
    """Each function of ``__all__`` is named outside its own module: in another
    module of the package, a test or a demo.  ``__init__.py`` and this file,
    which name exports without reading them, do not count."""
    package = Path(q.__file__).resolve().parent
    root = package.parent.parent
    paths = [*package.glob("*.py"), *(root / "tests").rglob("*.py"), *(root / "demos").glob("*.py")]
    texts = {path: path.read_text(encoding="utf-8") for path in paths}
    del texts[package / "__init__.py"], texts[Path(__file__).resolve()]
    orphans = []
    for name in q.__all__:
        obj = getattr(q, name)
        if not inspect.isfunction(obj):
            continue
        own = package / f"{obj.__module__.rpartition('.')[2]}.py"
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(text) for path, text in texts.items() if path != own):
            orphans.append(name)
    assert orphans == []


def test_conjugation_split_is_gone():
    """The splitting quantities are plain fields of ``HypersurfaceData``."""
    assert "ConjugationSplit" not in q.__all__
    assert not hasattr(q, "ConjugationSplit")
    assert not hasattr(q.hypersurface, "ConjugationSplit")


def test_hypersurface_data_exposes_the_splitting():
    h = q.build_tube(2, 0.6).h
    assert h.B.shape == (8, 8)
    assert h.A_xi.shape == h.A_N.shape == (8,)
    assert isinstance(h.g_axixi, float)
    assert h.rho(h.frame).shape == (7,)
    assert not hasattr(h, "split")


def test_adapted_conjugation_returns_one_array():
    model = q.build_tangent_model(3)
    for U in (q.principal_vector(model), q.isotropic_vector(model), np.full(6, 6**-0.5)):
        conj = q.tangent.adapted_conjugation(model, U)
        assert isinstance(conj, np.ndarray)
        assert conj.shape == (6, 6)


@pytest.mark.parametrize("name", ["PrincipalCandidate", "ChainReport"])
def test_candidate_wrappers_are_gone(name):
    """Candidates are plain ``HypersurfaceData`` and the chain returns a dict."""
    assert name not in q.__all__
    assert not hasattr(q, name)


def test_principal_candidates_are_hypersurface_data():
    assert isinstance(q.reeb_parallel_principal_candidate(3, 1.2), q.HypersurfaceData)
    built = q.build_principal_candidate(3, 1.2, [0.5, -0.4, 1.3, 0.7])
    assert isinstance(built, q.HypersurfaceData)


def test_chain_residuals_in_derivation_order():
    residuals = q.principal_chain_residuals(q.reeb_parallel_principal_candidate(3, 1.2))
    assert list(residuals) == [
        "reeb_reduction",
        "shape_derivative",
        "first_combination",
        "hopf_identity",
        "commutator",
        "sandwich",
        "affine_a",
        "affine_b",
    ]
    assert all(isinstance(value, float) for value in residuals.values())


def test_tube_model_holds_h_and_the_two_blocks():
    """``alpha`` and the ``xi``/``A_xi``/``A_N`` bases restated ``h``."""
    assert [f.name for f in dataclasses.fields(q.TubeModel)] == ["k", "r", "h", "bases"]
    assert list(q.build_tube(3, 0.6).bases) == ["W1", "W2"]


def test_hypersurface_data_init_fields_are_the_defining_data():
    """Derived arrays are cached attributes, not fields, so copies start without them."""
    assert [f.name for f in dataclasses.fields(q.HypersurfaceData)] == [
        "model", "N", "xi", "phi", "S", "alpha", "q_xi", "dalpha", "conj",
        "B", "A_xi", "A_N", "g_axixi", "projector", "hopf_defect", "warnings",
    ]


ARRAY_HOLDERS = {
    "TangentModel": lambda: q.build_tangent_model(3),
    "HypersurfaceData": lambda: q.build_tube(2, 0.6).h,
    "TubeModel": lambda: q.build_tube(2, 0.6),
    "SpectrumReport": lambda: q.sym_eigen(np.diag([1.0, 2.0])),
}


@pytest.mark.parametrize("build", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS)
def test_array_holders_compare_and_hash_by_identity(build):
    """The shared model of each ``m`` makes identity the meaningful equality."""
    obj = build()
    copy = dataclasses.replace(obj)
    assert obj == obj and hash(obj) == hash(obj) and (build() == obj) is (build() is obj)
    assert copy != obj and len({obj, copy}) == 2
    assert all(getattr(copy, f.name) is getattr(obj, f.name) for f in dataclasses.fields(obj) if f.init)


def test_classification_result_does_not_copy_h():
    names = {f.name for f in dataclasses.fields(q.ClassificationResult)}
    assert "hopf" not in names and "alpha" not in names


def test_cluster_eigenvalues_sets_its_own_width():
    assert list(inspect.signature(spectra.cluster_eigenvalues).parameters) == ["values"]


@pytest.mark.parametrize("name", ["verify_tube", "scan_tube", "classify_report", "spectrum_report"])
def test_suites_that_draw_nothing_take_no_seed(name):
    """The CLI records ``--seed`` on the report; only sampling suites take one."""
    assert "seed" not in inspect.signature(getattr(suites, name)).parameters
