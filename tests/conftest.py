"""Helpers and fixtures shared by the test modules."""

import pytest

import corpus
import quadric as q
from corpus import rotated  # noqa: F401  (re-exported to the test modules)


def paired_candidate(alpha, curvatures):
    """Principal candidate with one curvature per ``Z_j`` (``j = 2..m``) and its
    partner under :func:`quadric.paired_curvature` on ``J Z_j``."""
    partners = [q.paired_curvature(alpha, lam) for lam in curvatures]
    return q.build_principal_candidate(len(curvatures) + 1, alpha, list(curvatures) + partners)


@pytest.fixture(scope="session")
def payloads(tmp_path_factory):
    """The directory of the payloads of ``tools/corpus.py``."""
    path = tmp_path_factory.mktemp("corpus") / "payloads"
    corpus.write_payloads(path)
    return path


@pytest.fixture(scope="session")
def corpus_run(payloads):
    """The whole corpus, run once in a fresh profiled interpreter of ``src/``:
    its outcome table, the ``(file, first line)`` of every code object called
    and the output of every run."""
    return corpus.run_once(payloads)
