"""Public API: ``quadric.__all__`` names exactly what the package exports."""

import numpy as np
import pytest

import quadric as q


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
