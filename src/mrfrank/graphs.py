"""The five sparse literature graphs with time-aware edge weights, the
column-normalized paper and author blocks consumed by the ranking
iteration, and the dense-built eight-block oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .sparse import (SparseMatrix, column_normalize, distinct, divide_columns,
                     divide_rows, group_sum, pairs_within_groups, per_distinct)
from .textfeat import FeatureTable, idf_author, idf_paper


@dataclass(frozen=True)
class EntityIndex:
    paper_ids: tuple[str, ...]
    author_ids: tuple[str, ...]
    feature_ids: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.paper_ids)

    @property
    def m(self) -> int:
        return len(self.author_ids)

    @property
    def k(self) -> int:
        return len(self.feature_ids)


def build_index(corpus: Corpus, features) -> EntityIndex:
    """Papers, authors and ``features`` (the feature table's keys) in
    position order; the corpus and the table hold them sorted."""
    return EntityIndex(tuple(corpus.papers), corpus.authors, tuple(features))


def decay_weights(years: np.ndarray, t_current: int, rho: float) -> np.ndarray:
    """exp(-rho * (t_current - year)) per entry of ``years``, with math.exp
    called once per distinct year; all ones at rho = 0."""
    if rho == 0.0:
        return np.ones(len(years))
    return per_distinct(lambda year: math.exp(-rho * (t_current - year)), years)


def build_citation(corpus: Corpus, index: EntityIndex, t_current: int,
                   rho: float) -> SparseMatrix:
    """N x N matrix, entry (i, j) when paper i cites paper j, weighted by
    the age of the citation (citing paper's publication year)."""
    citing, cited = corpus.citation_edges.T
    return SparseMatrix((index.n, index.n), citing, cited,
                        decay_weights(corpus.years[citing], t_current, rho))


def _authorship(corpus: Corpus, index: EntityIndex) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (paper, author) position pairs, sorted by paper, then author."""
    return np.divmod(distinct(corpus.listing_papers * index.m + corpus.listing_authors),
                     index.m)


def build_coauthor(corpus: Corpus, index: EntityIndex, t_current: int,
                   rho: float) -> SparseMatrix:
    """Symmetric M x M matrix summing decayed weights over coauthored
    papers; each author pair's weights are added once, in paper order, and
    the sum is stored on both sides of the diagonal."""
    paper, author = _authorship(corpus, index)
    # every listing pairs with the later listings of its paper, whose
    # author is greater: the upper triangle, a < b
    first, second = pairs_within_groups(paper)
    keys, sums = group_sum(author[first] * index.m + author[second],
                           decay_weights(corpus.years, t_current, rho)[paper[first]])
    # a sum that underflowed to 0 is not stored, as in the citation graph
    keep = sums != 0.0
    return SparseMatrix.symmetric(index.m, *np.divmod(keys[keep], index.m), sums[keep])


def build_listings(corpus: Corpus, index: EntityIndex) -> SparseMatrix:
    """M x N listing counts: entry (a, i) is how many times paper i lists
    author a, so an author listed twice counts twice."""
    keys, counts = np.unique(corpus.listing_authors * index.n + corpus.listing_papers,
                             return_counts=True)
    rows, cols = np.divmod(keys, index.n)
    return SparseMatrix.canonical((index.m, index.n), rows, cols,
                                  counts.astype(np.float64))


@dataclass
class GraphSet:
    index: EntityIndex
    citation: SparseMatrix        # N x N, (i, j): i cites j
    coauthor: SparseMatrix        # M x M, symmetric
    author_paper: SparseMatrix    # M x N, binary
    listings: SparseMatrix        # M x N, listing counts (L)
    feature_counts: SparseMatrix  # N x K, in-paper feature counts (C)
    idf_paper: np.ndarray         # K, ln(N / papers using the feature)
    idf_author: np.ndarray        # K, ln(M / authors using the feature)
    # the undecayed column sums of the time-aware blocks: references made
    # by each paper (N), and coauthor links summed over each author's
    # papers (M)
    reference_counts: np.ndarray
    coauthor_counts: np.ndarray


def build_graphs(corpus: Corpus, index: EntityIndex, table: FeatureTable,
                 t_current: int, rho_edge: float) -> GraphSet:
    """The five graphs; the feature graphs are held as their factors: the
    counts C and L and the two idf vectors."""
    citation = build_citation(corpus, index, t_current, rho_edge)
    listings = build_listings(corpus, index)
    author_paper = SparseMatrix.canonical(listings.shape, listings.rows, listings.cols,
                                          np.ones(listings.nnz))
    paper_size = np.bincount(author_paper.cols, minlength=index.n)
    return GraphSet(
        index=index,
        citation=citation,
        coauthor=build_coauthor(corpus, index, t_current, rho_edge),
        author_paper=author_paper,
        listings=listings,
        feature_counts=SparseMatrix.canonical((index.n, index.k), table.rows,
                                              table.cols, table.counts),
        idf_paper=idf_paper(corpus, table),
        idf_author=idf_author(corpus, table),
        reference_counts=np.bincount(citation.rows, minlength=index.n).astype(np.float64),
        coauthor_counts=np.bincount(author_paper.rows,
                                    weights=paper_size[author_paper.cols] - 1.0,
                                    minlength=index.m),
    )


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


def graph_blocks(graphs: GraphSet) -> dict[str, SparseMatrix]:
    """The four blocks between papers and authors, each with fresh ``data``.
    pp and pa are returned as their transposes, over the ``rows`` and
    ``cols`` of ``citation`` and ``author_paper``, to be applied transposed.

    The time-aware blocks pp and aa are divided by their undecayed column
    sums instead of their own: every reference of one citing paper carries
    that paper's timestamp, so normalizing by the decayed sums would cancel
    the decay exactly.  Dividing by the reference count keeps each citer's
    vote split across its references while recent votes keep more absolute
    weight; at rho = 0 this is plain column normalization.
    """
    ap = graphs.author_paper
    return dict(
        pp=divide_rows(graphs.citation, graphs.reference_counts),
        pa=divide_rows(ap, np.bincount(ap.rows, weights=ap.data, minlength=ap.shape[0])),
        aa=divide_columns(graphs.coauthor, graphs.coauthor_counts),
        ap=column_normalize(ap),
    )


def _from_dense(dense: np.ndarray) -> SparseMatrix:
    rows, cols = np.nonzero(dense)
    return SparseMatrix(dense.shape, rows, cols, dense[rows, cols])


def operator_blocks(graphs: GraphSet) -> OperatorBlocks:
    """All eight blocks materialized, an oracle for small instances: the
    paper and author tf-idf matrices are built densely from C, L and the
    idf vectors, then column-normalized like the graph blocks."""
    counts = graphs.feature_counts.to_dense()
    paper = _from_dense(counts * graphs.idf_paper)
    author = _from_dense((graphs.listings.to_dense() @ counts) * graphs.idf_author)
    blocks = graph_blocks(graphs)
    return OperatorBlocks(
        pt=column_normalize(paper), tp=column_normalize(paper.transpose()),
        at=column_normalize(author), ta=column_normalize(author.transpose()),
        pp=blocks["pp"].transpose(), pa=blocks["pa"].transpose(),
        aa=blocks["aa"], ap=blocks["ap"])
