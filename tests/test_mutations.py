"""Mutation matrix: every check of ``verify tube`` is failed by one named defect.

A check that no plausible defect can fail certifies nothing.  Each entry
below names one broken input (or, where no input can do it, one broken line
of code), feeds it through ``verify tube`` with ``suites.build_tube``
monkeypatched to return the broken tube, and asserts that the named check
fails and the command exits 1.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import quadric as q
from quadric import hypersurface, suites
from quadric.cli import main

K, R, EPS = 3, 0.6, 1e-6

#: The checks of ``verify tube``, in report order.
TUBE_CHECKS = [
    "hopf",
    "isotropic_normal",
    "shape_kills_A_xi",
    "shape_kills_A_N",
    "isometric_reeb_flow",
    "hopf_identity",
    "alpha_gradient",
    "reeb_parallel_shape",
    "reeb_parallel_structure_jacobi",
    "normal_component_cancellation",
    "shape_spectrum",
    "structure_jacobi_spectrum",
    "partner_curvature_fixed_points",
]


def _with_shape(tube, S):
    return q.induce_from_normal(tube.h.model, tube.h.N, S)


def _w1(tube):
    """First column of the curvature ``-tan r`` block."""
    return tube.bases["W1"][:, 0]


def hopf_kick(tube, rng):
    """Symmetric kick between ``xi`` and a ``W1`` direction: ``S xi`` leaves ``xi``."""
    xi, w = tube.h.xi, _w1(tube)
    return _with_shape(tube, tube.h.S + EPS * (np.outer(xi, w) + np.outer(w, xi)))


def generic_normal(tube, rng):
    """Random Hopf data whose normal is neither principal nor isotropic."""
    return q.random_hopf_data(2 * K, rng, "generic")


def kick_on(label):
    """``eps v (x) v`` added to ``S``, for ``v`` the tube's ``label`` direction."""

    def kick(tube, rng):
        v = tube.bases[label][:, 0]
        return _with_shape(tube, tube.h.S + EPS * np.outer(v, v))

    return kick


def perturbed(tube, rng):
    """:func:`~quadric.perturbed_tube`: Hopf and paired, Reeb flow not isometric."""
    return q.perturbed_tube(K, R, rng)


def w1_kick(tube, rng):
    """``eps w (x) w`` on one ``W1`` column: breaks the partner pairing."""
    w = _w1(tube)
    return _with_shape(tube, tube.h.S + EPS * np.outer(w, w))


def declared_dalpha(tube, rng):
    """A declared ``dalpha`` with a component off the closed Hopf form."""
    return tube.h.with_dalpha(tube.h.dalpha + EPS * _w1(tube))


def scaled_w2(tube, rng):
    """The ``W2`` curvature ``cot r`` scaled by 3/2."""
    W2 = tube.bases["W2"]
    return _with_shape(tube, tube.h.S + (0.5 / math.tan(R)) * (W2 @ W2.T))


def normal_row_mutant(tube, rng, monkeypatch):
    """No input fails ``normal_component_cancellation``: the normal component
    of ``nabla_xi R_xi`` cancels identically for Hopf data, and it stays below
    1e-14 on random generic, principal and isotropic data at m up to 16, with
    any gauge.  The defect it guards against is in the code, so the entry is
    a mutant of ``_cov_deriv_matrix`` that adds a term in the normal row."""
    original = hypersurface._cov_deriv_matrix

    def mutant(h, *args):
        return original(h, *args) + EPS * np.outer(h.N, h.xi)

    monkeypatch.setattr(hypersurface, "_cov_deriv_matrix", mutant)
    return tube.h


#: check name -> defect that fails it.
MUTATIONS = {
    "hopf": hopf_kick,
    "isotropic_normal": generic_normal,
    "shape_kills_A_xi": kick_on("A_xi"),
    "shape_kills_A_N": kick_on("A_N"),
    "isometric_reeb_flow": perturbed,
    "hopf_identity": w1_kick,
    "alpha_gradient": declared_dalpha,
    "reeb_parallel_shape": perturbed,
    "reeb_parallel_structure_jacobi": perturbed,
    "normal_component_cancellation": normal_row_mutant,
    "shape_spectrum": scaled_w2,
    "structure_jacobi_spectrum": scaled_w2,
    "partner_curvature_fixed_points": w1_kick,
}


def run_tube(capsys):
    code = main(["verify", "tube", "--k", str(K), "--r", repr(R)])
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_tube_check_names_in_order(capsys):
    code, report = run_tube(capsys)
    assert code == 0
    assert [c["name"] for c in report["checks"]] == TUBE_CHECKS


def test_every_tube_check_has_a_mutation():
    assert list(MUTATIONS) == TUBE_CHECKS


@pytest.mark.parametrize("check", TUBE_CHECKS)
def test_mutation_fails_its_check(capsys, monkeypatch, check):
    tube = q.build_tube(K, R)
    mutation = MUTATIONS[check]
    rng = np.random.default_rng(5)
    if mutation is normal_row_mutant:
        h = mutation(tube, rng, monkeypatch)
    else:
        h = mutation(tube, rng)
    broken = dataclasses.replace(tube, h=h)
    monkeypatch.setattr(suites, "build_tube", lambda *args, **kwargs: broken)
    code, report = run_tube(capsys)
    assert code == 1
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert check in failed


def test_non_hopf_tube_reports_hopf_only_checks_as_failed(capsys, monkeypatch):
    """Data that is not Hopf fails the five Hopf-only gauges with residual inf."""
    tube = q.build_tube(K, R)
    broken = dataclasses.replace(tube, h=hopf_kick(tube, None))
    monkeypatch.setattr(suites, "build_tube", lambda *args, **kwargs: broken)
    code, report = run_tube(capsys)
    assert code == 1
    residuals = {c["name"]: c["residual"] for c in report["checks"]}
    for name in TUBE_CHECKS[5:10]:
        assert residuals[name] == "inf"
