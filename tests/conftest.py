"""Helpers shared by the test modules."""

import quadric as q


def paired_candidate(alpha, curvatures):
    """Principal candidate with one curvature per ``Z_j`` (``j = 2..m``) and its
    partner under :func:`quadric.paired_curvature` on ``J Z_j``."""
    partners = [q.paired_curvature(alpha, lam) for lam in curvatures]
    return q.build_principal_candidate(len(curvatures) + 1, alpha, list(curvatures) + partners)
