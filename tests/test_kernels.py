"""The numpy reference cosine scorer."""

import numpy as np

from multirag import kernels


class TestNumpyPath:
    def test_clamp(self):
        q = np.array([1.0, 0.0])
        mat = np.array([[1.0, 0.0], [-1.0, 0.0]])
        out = kernels.cosine_scores(q, mat)
        assert out[0] == 1.0 and out[1] == -1.0
