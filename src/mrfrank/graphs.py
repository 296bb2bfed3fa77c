"""The five sparse literature graphs with time-aware edge weights, held as
the six facts the paper names; ``ranking.combined_operator`` derives every
block of the ranking iteration from them.  The citation graph is stored in
the corpus's edge order, the others in (row, col) order."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .sparse import SparseMatrix, distinct, group_sum, pairs_within_groups, per_distinct
from .textfeat import FeatureTable, idf_author, idf_paper


def decay_weights(years: np.ndarray, t_current: int, rho: float) -> np.ndarray:
    """exp(-rho * (t_current - year)) per entry of ``years``, with math.exp
    called once per distinct year; all ones at rho = 0."""
    if rho == 0.0:
        return np.ones(len(years))
    return per_distinct(lambda year: math.exp(-rho * (t_current - year)), years)


def build_citation(corpus: Corpus, t_current: int, rho: float) -> SparseMatrix:
    """N x N matrix, entry (i, j) when paper i cites paper j, weighted by
    the age of the citation (citing paper's publication year).  It is
    stored in edge order, grouped by citing paper in ascending position, so
    applied transposed it adds each cited paper's column in ascending
    citing order.  A weight that underflows to 0 is not stored."""
    citing, cited = corpus.citation_edges.T
    n = len(corpus)
    weights = decay_weights(corpus.years[citing], t_current, rho)
    keep = weights != 0.0
    return SparseMatrix((n, n), citing[keep], cited[keep], weights[keep])


def build_coauthor(corpus: Corpus, t_current: int, rho: float) -> SparseMatrix:
    """Symmetric M x M matrix summing decayed weights over coauthored
    papers; each author pair's weights are added once, in paper order, and
    the sum is stored on both sides of the diagonal."""
    m = len(corpus.authors)
    # the distinct (paper, author) pairs, sorted by paper, then author
    paper, author = np.divmod(distinct(corpus.listing_papers * m + corpus.listing_authors), m)
    # every listing pairs with the later listings of its paper, whose
    # author is greater: the upper triangle, a < b
    first, second = pairs_within_groups(paper)
    keys, sums = group_sum(author[first] * m + author[second],
                           decay_weights(corpus.years, t_current, rho)[paper[first]])
    # a sum that underflowed to 0 is not stored, as in the citation graph
    keep = sums != 0.0
    return SparseMatrix.symmetric(m, *np.divmod(keys[keep], m), sums[keep])


def build_listings(corpus: Corpus) -> SparseMatrix:
    """M x N listing counts: entry (a, i) is how many times paper i lists
    author a, so an author listed twice counts twice."""
    n, m = len(corpus), len(corpus.authors)
    keys, counts = np.unique(corpus.listing_authors * n + corpus.listing_papers,
                             return_counts=True)
    rows, cols = np.divmod(keys, n)
    return SparseMatrix((m, n), rows, cols, counts.astype(np.float64))


@dataclass
class GraphSet:
    citation: SparseMatrix        # N x N, (i, j): i cites j
    coauthor: SparseMatrix        # M x M, symmetric
    listings: SparseMatrix        # M x N, listing counts (L)
    feature_counts: SparseMatrix  # N x K, in-paper feature counts (C)
    idf_paper: np.ndarray         # K, ln(N / papers using the feature)
    idf_author: np.ndarray        # K, ln(M / authors using the feature)

    @property
    def sizes(self) -> tuple[int, int, int]:
        """N, M and K."""
        m, n = self.listings.shape
        return n, m, self.feature_counts.shape[1]


def build_graphs(corpus: Corpus, table: FeatureTable, t_current: int,
                 rho_edge: float) -> GraphSet:
    """The five graphs; the feature graphs are held as their factors: the
    counts C and L and the two idf vectors."""
    return GraphSet(
        citation=build_citation(corpus, t_current, rho_edge),
        coauthor=build_coauthor(corpus, t_current, rho_edge),
        listings=build_listings(corpus),
        feature_counts=SparseMatrix((len(corpus), len(table.features)),
                                    table.rows, table.cols, table.counts),
        idf_paper=idf_paper(corpus, table),
        idf_author=idf_author(corpus, table),
    )
