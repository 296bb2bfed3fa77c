"""Sparse COO matrices, applied with one kernel, and the integer-id and
integer-array helpers the corpus, graphs and feature table are built with.
A transpose is the same three arrays with ``rows`` and ``cols`` swapped,
and a weighted copy of a matrix is a ``SparseMatrix`` over its ``rows``
and ``cols`` with new ``data``; no function here writes into a matrix's
arrays."""

from __future__ import annotations

from collections import defaultdict

import numpy as np


class SparseMatrix:
    """COO triples, held as given: int64 ``rows`` and ``cols`` and float64
    ``data``.  The storage order is the order in which ``matvec`` adds each
    row's products, so it fixes the bits of the result.  Zeros stay
    stored."""

    def __init__(self, shape: tuple[int, int], rows, cols, data):
        self.shape, self.rows, self.cols, self.data = shape, rows, cols, data

    # a (row, col) sort of both triangles gives the same bytes at a 16-20 MB higher rank peak
    @classmethod
    def symmetric(cls, n: int, rows: np.ndarray, cols: np.ndarray,
                  data: np.ndarray) -> "SparseMatrix":
        """The n x n matrix holding each entry of an upper triangle (rows <
        cols, in (row, col) order) at (row, col) and at (col, row), placed
        straight into (row, col) order: row r holds the mirrors (r, a) of
        the entries (a, r), then its own entries."""
        lower, upper = np.bincount(cols, minlength=n), np.bincount(rows, minlength=n)
        starts = np.cumsum(lower + upper) - upper - lower
        out_cols, out_data = np.empty(2 * data.size, dtype=np.int64), np.empty(2 * data.size)
        # entries sharing a column are in ascending row order, so a stable
        # sort by column puts the mirrors in (row, col) order
        order = np.argsort(cols, kind="stable")
        at = concat_ranges(starts, lower)
        out_cols[at], out_data[at] = rows[order], data[order]
        at = concat_ranges(starts + lower, upper)
        out_cols[at], out_data[at] = cols, data
        return cls((n, n), np.repeat(np.arange(n), lower + upper), out_cols, out_data)

    @property
    def nnz(self) -> int:
        return self.data.size

    @property
    def T(self) -> "SparseMatrix":
        """The transpose, over the same arrays: its ``matvec`` adds each of
        this matrix's columns in storage order."""
        return SparseMatrix((self.shape[1], self.shape[0]), self.cols, self.rows, self.data)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x; each row adds its products in storage order.  The products
        are made in the gathered copy of ``x``, so one nnz-sized array is
        allocated, not two."""
        products = x[self.cols]
        products *= self.data
        return np.bincount(self.rows, weights=products,
                           minlength=self.shape[0]).astype(np.float64, copy=False)


def reciprocal(values: np.ndarray) -> np.ndarray:
    """``1 / values``, with 0 where a value is 0."""
    return np.divide(1.0, values, out=np.zeros(values.shape), where=values != 0.0)


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
