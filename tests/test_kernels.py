"""The sparse matrix-vector kernel: SparseMatrix.matvec, a numpy bincount
over the canonical COO triples, checked against a dense product."""

import numpy as np

from conftest import random_sparse
from mrfrank.sparse import SparseMatrix


class TestNumpyPath:
    def test_matches_dense(self, rng):
        for _ in range(30):
            r, c = rng.integers(1, 40, 2)
            m = random_sparse(rng, r, c, density=0.3)
            x = rng.random(c)
            assert np.allclose(m.matvec(x), m.to_dense() @ x)

    def test_empty(self):
        for shape in ((4, 3), (3, 4)):
            m = SparseMatrix(shape, [], [], [])
            out = m.matvec(np.ones(shape[1]))
            assert out.dtype == np.float64
            assert np.array_equal(out, np.zeros(shape[0]))
