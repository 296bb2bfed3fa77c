"""Dense oracles for the combined operator: a ``SparseMatrix`` as a dense
array and as a re-sorted transpose, all eight column-normalized blocks
materialized, the (N+M+K)^2 combined matrix built densely from them, the
fixed point reached by plain power iteration, and the recommendation
intensity of a list of ids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mrfrank.evaluate import ri_item
from mrfrank.graphs import GraphSet, graph_blocks
from mrfrank.ranking import (HyperParams, RankState, combined_operator, init_state,
                             iterate_once, normalize_innovativeness)
from mrfrank.sparse import SparseMatrix, column_normalize


def to_dense(m: SparseMatrix) -> np.ndarray:
    out = np.zeros(m.shape)
    out[m.rows, m.cols] = m.data
    return out


def transpose(m: SparseMatrix) -> SparseMatrix:
    # entries sharing a column are in ascending row order, so a stable
    # sort by column alone gives the transpose's canonical order
    order = np.argsort(m.cols, kind="stable")
    return SparseMatrix.canonical((m.shape[1], m.shape[0]), m.cols[order],
                                  m.rows[order], m.data[order])


def _from_dense(dense: np.ndarray) -> SparseMatrix:
    rows, cols = np.nonzero(dense)
    return SparseMatrix(dense.shape, rows, cols, dense[rows, cols])


@dataclass
class OperatorBlocks:
    """Column-normalized blocks, each in the orientation used by the
    update equations (authority flows citing -> cited, so the citation
    block is transposed before normalization)."""

    pp: SparseMatrix  # N x N
    pa: SparseMatrix  # N x M
    pt: SparseMatrix  # N x K
    aa: SparseMatrix  # M x M
    ap: SparseMatrix  # M x N
    at: SparseMatrix  # M x K
    tp: SparseMatrix  # K x N
    ta: SparseMatrix  # K x M


def operator_blocks(graphs: GraphSet) -> OperatorBlocks:
    """All eight blocks materialized: the paper and author tf-idf matrices
    are built densely from C, L and the idf vectors, then column-normalized
    like the graph blocks."""
    counts = to_dense(graphs.feature_counts)
    paper = _from_dense(counts * graphs.idf_paper)
    author = _from_dense((to_dense(graphs.listings) @ counts) * graphs.idf_author)
    blocks = graph_blocks(graphs)
    return OperatorBlocks(
        pt=column_normalize(paper), tp=column_normalize(transpose(paper)),
        at=column_normalize(author), ta=column_normalize(transpose(author)),
        pp=transpose(blocks["pp"]), pa=transpose(blocks["pa"]),
        aa=blocks["aa"], ap=blocks["ap"])


def assemble_combined(graphs: GraphSet, e: np.ndarray, hp: HyperParams,
                      size_limit: int = 2000) -> np.ndarray:
    """Dense (N+M+K)^2 combined matrix for small instances."""
    n, m, k = graphs.sizes
    if n + m + k > size_limit:
        raise ValueError(f"combined size {n + m + k} exceeds oracle limit {size_limit}")
    hp = hp.effective()
    b = operator_blocks(graphs)
    e_norm = normalize_innovativeness(e)

    out = np.zeros((n + m + k, n + m + k))
    out[:n, :n] = hp.alpha_p * to_dense(b.pp)
    out[:n, n:n + m] = hp.beta_p * (1 - hp.alpha_p) * to_dense(b.pa)
    out[:n, n + m:] = (1 - hp.beta_p) * (1 - hp.alpha_p) * to_dense(b.pt)
    out[n:n + m, :n] = hp.beta_a * (1 - hp.alpha_a) * to_dense(b.ap)
    out[n:n + m, n:n + m] = hp.alpha_a * to_dense(b.aa)
    out[n:n + m, n + m:] = (1 - hp.beta_a) * (1 - hp.alpha_a) * to_dense(b.at)
    out[n + m:, :n] = (1 - hp.alpha_f) * e_norm[:, None] * to_dense(b.tp)
    out[n + m:, n:n + m] = hp.alpha_f * e_norm[:, None] * to_dense(b.ta)
    return out


def fixed_point(graphs: GraphSet, e: np.ndarray, hp: HyperParams) -> RankState:
    """Plain power iteration, ``iterate_once`` with no mixing, until the L1
    delta falls below 1e-14."""
    operator = combined_operator(graphs, e, hp)
    state = init_state(*graphs.sizes)
    for _ in range(100_000):
        state = iterate_once(state, operator)
        if state.last_delta < 1e-14:
            return state
    raise RuntimeError(f"no fixed point (last delta {state.last_delta:.3g})")


def ri_list(returned: list[str], gt_topk) -> float:
    """Total recommendation intensity of a returned top-k list."""
    k = len(returned)
    gt_topk = set(gt_topk)
    return sum(ri_item(o_r, k, pid in gt_topk)
               for o_r, pid in enumerate(returned, start=1))
