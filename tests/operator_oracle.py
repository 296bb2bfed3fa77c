"""Dense oracles for the combined operator: a ``SparseMatrix`` as a dense
array and as a re-sorted transpose, all eight column-normalized blocks
materialized densely from the graph facts, the (N+M+K)^2 combined matrix
built from them, plain power iteration and the fixed point it reaches,
one block read from the production operator, and the recommendation
intensity of a list of ids."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from mrfrank.config import HyperParams
from mrfrank.evaluate import ri_item
from mrfrank.graphs import GraphSet
from mrfrank.ranking import (combined_operator, init_state, iterate_once,
                             normalize_innovativeness, per_type)
from mrfrank.sparse import SparseMatrix, Transposed


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


def colnorm(dense: np.ndarray, sums: np.ndarray | None = None) -> np.ndarray:
    """Every column of ``dense`` divided by its entry of ``sums``, by
    default the column's own sum, added row after row; a zero sum leaves
    a zero column."""
    if sums is None:
        sums = np.zeros(dense.shape[1])
        for row in dense:
            sums += row
    return np.divide(dense, sums, out=np.zeros_like(dense), where=sums != 0)


def operator_blocks(graphs: GraphSet) -> OperatorBlocks:
    """All eight blocks materialized densely from the graph facts.  pp is
    the transposed citation graph over each citing paper's reference count,
    aa the coauthor graph over each author's coauthor links (the other
    authors of its papers), pa and ap the authorship pattern (L's nonzeros)
    column-normalized, and the feature blocks the column-normalized paper
    and author tf-idf matrices, built from C, L and the idf vectors."""
    cit = to_dense(graphs.citation)
    listings = to_dense(graphs.listings)
    authorship = (listings != 0.0).astype(np.float64)
    links = authorship @ (authorship.sum(axis=0) - 1.0)
    counts = to_dense(graphs.feature_counts)
    paper = counts * graphs.idf_paper
    author = (listings @ counts) * graphs.idf_author
    dense = dict(
        pp=colnorm(cit.T, (cit != 0.0).sum(axis=1)), pa=colnorm(authorship.T),
        aa=colnorm(to_dense(graphs.coauthor), links), ap=colnorm(authorship),
        pt=colnorm(paper), tp=colnorm(paper.T), at=colnorm(author), ta=colnorm(author.T))
    return OperatorBlocks(**{name: _from_dense(block) for name, block in dense.items()})


# hyperparameters that put coefficient 1 on pp, pa, aa and ap
UNIT_COEFFICIENT = {"pp": dict(alpha_p=1.0), "pa": dict(alpha_p=0.0, beta_p=1.0),
                    "aa": dict(alpha_a=1.0), "ap": dict(alpha_a=0.0, beta_a=1.0)}


def term_factor(graphs: GraphSet, name: str) -> SparseMatrix:
    """The one factor of block ``name`` (pp, pa, aa or ap) as
    ``combined_operator`` builds it, read from its term under
    ``UNIT_COEFFICIENT``: multiplying by 1.0 leaves every value exact.  pp
    and pa are applied transposed, so theirs is the block's transpose, over
    the ``rows`` and ``cols`` of the citation graph and L."""
    n = graphs.sizes[0]
    offsets = {"pp": (0, 0), "pa": (0, n), "aa": (n, n), "ap": (n, 0)}[name]
    operator = combined_operator(graphs, np.ones(graphs.sizes[2]),
                                 HyperParams(**UNIT_COEFFICIENT[name]))
    (factor,), = [chain for row, col, chain in operator if (row, col) == offsets]
    return factor.m if isinstance(factor, Transposed) else factor


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


def plain_iteration(graphs: GraphSet, e: np.ndarray, hp: HyperParams):
    """Plain power iteration, ``iterate_once`` with no mixing, from
    ``init_state``.  Yields, per step, the image, its per-type vector (the
    three ``per_type`` sections concatenated) and the L1 delta from the
    previous per-type vector, computed as ``run`` computes it."""
    operator = combined_operator(graphs, e, hp)
    sizes = graphs.sizes
    x = init_state(*sizes)
    before = np.concatenate(per_type(x, sizes))
    while True:
        x = iterate_once(x, operator, sizes)
        after = np.concatenate(per_type(x, sizes))
        yield x, after, float(np.abs(after - before).sum())
        before = after


def fixed_point(graphs: GraphSet, e: np.ndarray, hp: HyperParams) -> np.ndarray:
    """The per-type vector of plain power iteration once its L1 delta
    falls below 1e-14."""
    for _, vector, delta in itertools.islice(plain_iteration(graphs, e, hp), 100_000):
        if delta < 1e-14:
            return vector
    raise RuntimeError(f"no fixed point (last delta {delta:.3g})")


def ri_list(returned: list[str], gt_topk) -> float:
    """Total recommendation intensity of a returned top-k list."""
    k = len(returned)
    gt_topk = set(gt_topk)
    return sum(ri_item(o_r, k, pid in gt_topk)
               for o_r, pid in enumerate(returned, start=1))
