"""Public API: ``quadric.__all__`` names exactly what the package exports."""

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
