"""Working set of the stacked evaluations, the Ricci contraction and the tube suite.

The nonexistence certificate evaluates stacks of matrices, split so that no
stacked temporary exceeds ``_STACK_BUDGET`` float entries; the memory it
holds beyond its result is therefore set by the budget, not by the sample
count.  The Ricci contraction forms no stack at all: it contracts the Gauss
equation with the tangent projection as ``n x n`` products, so at the
dimension cap it holds a bounded number of dense matrices, as the tube
suite does.  The tube suite's shared products are formed once per instance,
and every suite's spectrum checks solve for eigenvalues only.  No suite
forms the dense tangent frame ``h.frame``: the gauges apply it as a
reflection.
"""

import tracemalloc

import numpy as np
import pytest

import quadric as q
from quadric import hypersurface, suites
from quadric.classification import _STACK_BUDGET

#: Budget-sized temporaries a stacked evaluation may hold at once, beyond
#: what it returns.  Measured: about 11 for the certificate at m = 16 or 64
#: with 2000 samples, which keeps one stack's arrays until the next stack
#: replaces them (its solvable instance, evaluated as ``1 x 1`` pairs, adds
#: no budget-sized array).  Drawing all 2000 samples at m = 16 as one stack
#: holds about 230.
TEMPORARIES = 16


def transient_peak(call, warm_up) -> int:
    """Peak traced bytes of ``call`` beyond what it returns, after ``warm_up``
    has run the same code."""
    warm_up()
    tracemalloc.start()
    try:
        result = call()  # noqa: F841 - kept alive, so it counts as retained
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - retained


@pytest.fixture(scope="module")
def hopf_64():
    return q.random_hopf_data(64, np.random.default_rng(7), "generic")


#: Dense ``n x n`` float matrices (``n = 128``) that ``ricci_consistency``
#: at ``m = 64`` may hold at once beyond its check: the closed form's
#: result, the Gauss table's own matrices, ``Pi``, the operator being summed
#: and the products in flight.  Measured: 9 to 10.
RICCI_MATRICES = 12


def test_ricci_consistency_at_the_dimension_cap(hopf_64):
    def check():
        return suites.ricci_consistency(hopf_64)

    peak = transient_peak(check, warm_up=check)
    assert peak <= RICCI_MATRICES * 128 * 128 * np.dtype(float).itemsize


def test_nonexistence_with_many_samples():
    peak = transient_peak(
        lambda: suites.nonexistence(16, samples=2000, seed=7),
        warm_up=lambda: suites.nonexistence(16, samples=2, seed=7),
    )
    assert peak <= TEMPORARIES * _STACK_BUDGET * np.dtype(float).itemsize


#: Dense ``n x n`` float matrices (``n = 128``) that ``verify tube`` at
#: ``k = 32`` may hold at once beyond its report.  Measured: about 20.
TUBE_MATRICES = 22


def test_tube_suite_at_the_dimension_cap():
    def check():
        return suites.verify_tube(32, 0.6)

    peak = transient_peak(check, warm_up=check)
    assert peak <= TUBE_MATRICES * 128 * 128 * np.dtype(float).itemsize


#: Cached attributes of ``HypersurfaceData``: the shared products, the
#: reflection behind ``frame`` and the two Reeb derivatives.
DERIVED = ("phi_S", "S_phi", "S_phi_S", "_reflection", "_reeb_shape", "_reeb_covariant")


def test_shared_arrays_formed_once_and_read_only(monkeypatch):
    tube = q.build_tube(32, 0.6)
    calls = {name: 0 for name in DERIVED}

    def counted(name, build):
        def wrapper(h):
            calls[name] += 1
            return build(h)

        return wrapper

    for name in DERIVED:
        attribute = vars(q.HypersurfaceData)[name]
        monkeypatch.setattr(attribute, "func", counted(name, attribute.func))
    monkeypatch.setattr(suites, "build_tube", lambda *args, **kwargs: tube)
    assert suites.verify_tube(32, 0.6).all_passed
    assert calls == {name: 1 for name in DERIVED}
    for name in DERIVED:
        value = getattr(tube.h, name)
        assert value is getattr(tube.h, name) is vars(tube.h)[name]
        assert not value.flags.writeable
    assert q.reeb_shape_derivative(tube.h) is tube.h._reeb_shape
    assert hypersurface.reeb_covariant_derivative(tube.h) is tube.h._reeb_covariant


@pytest.mark.parametrize(
    "copy",
    [lambda h: h.with_gauge(h.q_xi + 1.0), lambda h: h.with_dalpha(h.dalpha + h.xi)],
    ids=["with_gauge", "with_dalpha"],
)
def test_copies_start_empty(copy):
    h = q.build_tube(3, 0.6).h
    q.hopf_identity_residual(h)
    q.reeb_parallel_residual(h)
    assert set(DERIVED) <= set(vars(h))
    assert not set(DERIVED) & set(vars(copy(h)))


def test_no_suite_forms_the_dense_frame(monkeypatch):
    """``h.frame`` is formed only where it is read, and no suite reads it."""
    tube = q.build_tube(32, 0.6)
    monkeypatch.setattr(suites, "build_tube", lambda *args, **kwargs: tube)
    h = tube.h
    assert suites.verify_tube(32, 0.6).all_passed
    suites.classify_report(h)
    suites.spectrum_report(h)
    assert suites.ricci_consistency(h).passed
    assert "frame" not in vars(h)


def test_frame_formed_once_on_first_read(monkeypatch):
    h = q.build_tube(3, 0.6).h
    calls = []
    attribute = vars(q.HypersurfaceData)["frame"]
    build = attribute.func
    monkeypatch.setattr(attribute, "func", lambda data: calls.append(1) or build(data))
    frame = h.frame
    assert h.frame is frame is vars(h)["frame"]
    assert calls == [1]
    assert not frame.flags.writeable
    for copy in (h.with_gauge(h.q_xi + 1.0), h.with_dalpha(h.dalpha + h.xi)):
        assert "frame" not in vars(copy)


@pytest.mark.parametrize(
    "suite, solves",
    [
        (lambda: suites.verify_tube(32, 0.6), 2),
        (lambda: suites.scan_tube(32, 0.3, 1.2, 3), 6),
        *((lambda m=m: suites.verify_ambient(m), 1) for m in (2, 16, 64)),
    ],
    ids=["verify_tube", "scan_tube", "verify_ambient-2", "verify_ambient-16", "verify_ambient-64"],
)
def test_suites_solve_for_eigenvalues_only(monkeypatch, suite, solves):
    """Every template check compares eigenvalue clusters, so no eigenvectors
    are solved for: no ``eigh`` call, and one ``eigvalsh`` call per spectrum
    that has coupled rows.  Each call sees only the coupled block, since
    ``sym_eigvals`` reads the eigenvalues of decoupled rows off the
    diagonal."""
    calls = {"eigh": [], "eigvalsh": []}

    def recorded(name, solver):
        def wrapper(a, *args, **kwargs):
            calls[name].append(np.shape(a))
            return solver(a, *args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, recorded(name, getattr(np.linalg, name)))
    assert suite().all_passed
    # In the frame of build_tube, S and the structure Jacobi operator couple
    # frame rows 0 and 63 only; the other 125 of 127 rows are diagonal, so a
    # tube solves two 2 x 2 blocks per radius.  The geometric tube of ROADMAP
    # item 5 couples rows in pairs, so building the tube that way must
    # re-measure and update these shapes.  Of the ambient Jacobi operators,
    # the principal one is diagonal and the isotropic one couples only the
    # rows of Z_1 and J Z_2, at every m.
    assert calls == {"eigh": [], "eigvalsh": [(2, 2)] * solves}
