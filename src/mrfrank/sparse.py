"""Sparse matrices in canonical COO order, and the integer-id and
integer-array helpers the corpus, graphs and feature factors are built
with."""

from __future__ import annotations

from collections import defaultdict

import numpy as np


class SparseMatrix:
    """COO triples in canonical (row, col) order; the constructor omits
    zero weights."""

    def __init__(self, shape: tuple[int, int], rows, cols, data):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        keep = data != 0.0
        rows, cols, data = rows[keep], cols[keep], data[keep]
        # one stable sort of a key that orders exactly as (row, col)
        order = np.argsort(rows * shape[1] + cols, kind="stable")
        self.shape = shape
        self.rows = rows[order]
        self.cols = cols[order]
        self.data = data[order]

    @classmethod
    def canonical(cls, shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray,
                  data: np.ndarray) -> "SparseMatrix":
        """Wrap arrays that are already in canonical order; zeros in
        ``data`` stay stored."""
        out = cls.__new__(cls)
        out.shape, out.rows, out.cols, out.data = shape, rows, cols, data
        return out

    @classmethod
    def symmetric(cls, n: int, rows: np.ndarray, cols: np.ndarray,
                  data: np.ndarray) -> "SparseMatrix":
        """The n x n matrix holding each entry of an upper triangle (rows <
        cols, in canonical order) at (row, col) and at (col, row), placed
        straight into canonical order: row r holds the mirrors (r, a) of the
        entries (a, r), then its own entries."""
        lower, upper = np.bincount(cols, minlength=n), np.bincount(rows, minlength=n)
        starts = np.cumsum(lower + upper) - upper - lower
        out_cols, out_data = np.empty(2 * data.size, dtype=np.int64), np.empty(2 * data.size)
        # entries sharing a column are in ascending row order, so a stable
        # sort by column puts the mirrors in canonical order
        order = np.argsort(cols, kind="stable")
        at = concat_ranges(starts, lower)
        out_cols[at], out_data[at] = rows[order], data[order]
        at = concat_ranges(starts + lower, upper)
        out_cols[at], out_data[at] = cols, data
        return cls.canonical((n, n), np.repeat(np.arange(n), lower + upper),
                             out_cols, out_data)

    @property
    def nnz(self) -> int:
        return self.data.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x; each row adds its products in ascending column order."""
        return np.bincount(self.rows, weights=self.data * x[self.cols],
                           minlength=self.shape[0]).astype(np.float64, copy=False)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """A^T @ x, bit for bit ``transpose().matvec(x)``: each column adds
        its products in storage order, which is ascending row, the order of
        the transpose's own rows."""
        return np.bincount(self.cols, weights=self.data * x[self.rows],
                           minlength=self.shape[1]).astype(np.float64, copy=False)

    def transpose(self) -> "SparseMatrix":
        # entries sharing a column are in ascending row order, so a stable
        # sort by column alone gives the transpose's canonical order
        order = np.argsort(self.cols, kind="stable")
        return SparseMatrix.canonical((self.shape[1], self.shape[0]), self.cols[order],
                                      self.rows[order], self.data[order])

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.data
        return out


class Transposed:
    """``m`` applied transposed, over its own arrays: no re-sorted copy."""

    def __init__(self, m: SparseMatrix):
        self.m = m
        self.shape = m.shape[1], m.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.m.rmatvec(x)


def scale(m: SparseMatrix, row_weights: np.ndarray | None = None,
          col_weights: np.ndarray | None = None) -> SparseMatrix:
    """``diag(row_weights) @ m @ diag(col_weights)`` with its own ``data``,
    the column weight multiplied in first, sharing ``m``'s ``rows`` and
    ``cols``; a zero weight leaves a stored zero."""
    data = m.data
    if col_weights is not None:
        data = data * col_weights[m.cols]
    if row_weights is not None:
        data = data * row_weights[m.rows]
    return SparseMatrix.canonical(m.shape, m.rows, m.cols, data)


def reciprocal(values: np.ndarray) -> np.ndarray:
    """``1 / values``, with 0 where a value is 0."""
    return np.divide(1.0, values, out=np.zeros(values.shape), where=values != 0.0)


def divide_columns(m: SparseMatrix, sums: np.ndarray) -> SparseMatrix:
    """Divide every stored entry by the value ``sums`` gives its column."""
    if m.nnz == 0:
        return m
    return SparseMatrix.canonical(m.shape, m.rows, m.cols, m.data / sums[m.cols])


def divide_rows(m: SparseMatrix, sums: np.ndarray) -> SparseMatrix:
    """Divide every stored entry by the value ``sums`` gives its row: the
    transpose of ``divide_columns(m.transpose(), sums)``, in m's order."""
    return SparseMatrix.canonical(m.shape, m.rows, m.cols, m.data / sums[m.rows])


def column_normalize(m: SparseMatrix) -> SparseMatrix:
    """Scale every nonzero column to sum 1; zero columns stay zero."""
    return divide_columns(m, np.bincount(m.cols, weights=m.data,
                                         minlength=m.shape[1]))


def interner() -> defaultdict:
    """A dict that gives each new key the next int id.  Setting its
    ``default_factory`` to None when done frees it without the cycle
    collector."""
    interned: defaultdict = defaultdict()
    interned.default_factory = interned.__len__
    return interned


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(s, s + n)`` for every pair of ``starts`` and ``lengths``,
    concatenated."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


def pairs_within_groups(groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)``, ``i < j``, of every two entries of ``groups``
    (sorted ascending) that share a value: each entry pairs with the later
    entries of its group, in order."""
    n = groups.size
    later = np.searchsorted(groups, groups, side="right") - np.arange(n) - 1
    return np.repeat(np.arange(n), later), concat_ranges(np.arange(n) + 1, later)


def distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, ascending.

    A sort and a neighbour test: for int64 keys, numpy 2.4's hash-based
    ``np.unique`` (taken when no index or count is asked for) was 20-40
    times slower on a 2-core VM, 0.14 s against 0.006 s for 300k keys.
    """
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def group_sum(keys: np.ndarray, weights: np.ndarray):
    """The distinct keys in ascending order and the sum of the weights of
    each.  A key's weights are added in the order they come in ``keys``."""
    distinct, group = np.unique(keys, return_inverse=True)
    return distinct, np.bincount(group, weights=weights, minlength=distinct.size)


def per_distinct(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` (a Python float function) of every entry of ``values``,
    called once per distinct value."""
    distinct, where = np.unique(values, return_inverse=True)
    return np.array([fn(v) for v in distinct.tolist()], dtype=np.float64)[where]
