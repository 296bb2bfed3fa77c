"""The sparse matrix-vector kernels: SparseMatrix.matvec and rmatvec, numpy
bincounts over the canonical COO triples, checked against a dense product
and against the transpose's matvec."""

import numpy as np
import pytest

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


class TestRmatvec:
    def test_equals_transpose_matvec_bit_for_bit(self, rng):
        """Repeated (row, col) entries, rows and columns left empty, and
        values over twelve orders of magnitude, so that a column summed in
        any other order than ascending row would differ in its last bits."""
        for _ in range(40):
            r, c = (int(v) for v in rng.integers(1, 25, 2))
            nnz = int(rng.integers(0, 3 * r * c + 1))
            # only even rows and every third column hold entries
            rows = 2 * rng.integers(0, (r + 1) // 2, nnz)
            cols = 3 * rng.integers(0, (c + 2) // 3, nnz)
            data = rng.standard_normal(nnz) * 10.0 ** rng.integers(-6, 7, nnz)
            m = SparseMatrix((r, c), rows, cols, data)
            x = rng.standard_normal(r) * 10.0 ** rng.integers(-6, 7, r)
            out = m.rmatvec(x)
            assert out.shape == (c,)
            assert np.array_equal(out, m.transpose().matvec(x))

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0)])
    def test_empty_shapes(self, shape):
        m = SparseMatrix(shape, [], [], [])
        x = np.ones(shape[0])
        out = m.rmatvec(x)
        assert out.dtype == np.float64
        assert out.shape == (shape[1],)
        assert np.array_equal(out, m.transpose().matvec(x))
