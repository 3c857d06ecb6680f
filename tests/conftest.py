"""Helpers shared by the test modules."""

import numpy as np

import quadric as q


def paired_candidate(alpha, curvatures):
    """Principal candidate with one curvature per ``Z_j`` (``j = 2..m``) and its
    partner under :func:`quadric.paired_curvature` on ``J Z_j``."""
    partners = [q.paired_curvature(alpha, lam) for lam in curvatures]
    return q.build_principal_candidate(len(curvatures) + 1, alpha, list(curvatures) + partners)


def rotated(h, seed):
    """``h`` moved by ``diag(Q, Q)`` for a seeded ``Q`` in ``O(m)``.

    The rotation commutes with ``J`` and the base conjugation, so the singular
    type, the Hopf property and every curvature are kept, while ``N`` and
    ``S`` become dense.
    """
    m = h.model.m
    Q, upper = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))
    Q *= np.sign(np.diag(upper))
    R = np.block([[Q, np.zeros((m, m))], [np.zeros((m, m)), Q]])
    S = R @ h.S @ R.T
    return q.induce_from_normal(h.model, R @ h.N, 0.5 * (S + S.T))
