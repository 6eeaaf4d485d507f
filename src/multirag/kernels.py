"""Reference cosine scorer.

Retrieval scores against the index's unit-norm chunk matrix; this plain
cosine over raw vectors is what the tests compare it with.
"""

from __future__ import annotations

import numpy as np


def cosine_scores(query: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Cosine of ``query`` with every row of ``matrix``, clamped to [-1, 1]."""
    # one reduction for both norms, so cos(a, b) == cos(b, a) bit for bit
    qn = np.sqrt(np.sum(query * query))
    norms = np.sqrt(np.sum(matrix * matrix, axis=1))
    scores = (matrix @ query) / (norms * qn)
    return np.clip(scores, -1.0, 1.0)
