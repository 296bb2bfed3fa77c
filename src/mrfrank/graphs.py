"""The five sparse literature graphs with time-aware edge weights, held as
the six facts the paper names; ``ranking.combined_operator`` derives every
block of the ranking iteration from them.  The citation graph is stored in
the corpus's edge order, the others in (row, col) order."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .sparse import SparseMatrix, distinct, group_sum, pairs_within_groups
from .textfeat import FeatureTable, decay, idf_author, idf_paper


def build_citation(corpus: Corpus, weight: np.ndarray) -> SparseMatrix:
    """N x N matrix, entry (i, j) when paper i cites paper j, weighted by
    the citing paper's ``weight`` (its decayed age).  It is stored in edge
    order, grouped by citing paper in ascending position, so applied
    transposed it adds each cited paper's column in ascending citing
    order.  A weight that underflowed to 0 is not stored."""
    citing, cited = corpus.citation_edges.T
    n = len(corpus)
    weights = weight[citing]
    keep = weights != 0.0
    return SparseMatrix((n, n), citing[keep], cited[keep], weights[keep])


def build_coauthor(corpus: Corpus, weight: np.ndarray) -> SparseMatrix:
    """Symmetric M x M matrix summing the ``weight`` of each coauthored
    paper; each author pair's weights are added once, in paper order, and
    the sum is stored on both sides of the diagonal."""
    m = len(corpus.authors)
    # the distinct (paper, author) pairs, sorted by paper, then author
    paper, author = np.divmod(distinct(corpus.listing_papers * m + corpus.listing_authors), m)
    # every listing pairs with the later listings of its paper, whose
    # author is greater: the upper triangle, a < b
    first, second = pairs_within_groups(paper)
    keys, sums = group_sum(author[first] * m + author[second], weight[paper[first]])
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
    counts C and L and the two idf vectors.  A citation or coauthor link
    weighs exp(-rho_edge * age) of the paper that made it."""
    weight = decay(t_current - corpus.years, rho_edge)
    citation = build_citation(corpus, weight)
    coauthor = build_coauthor(corpus, weight)
    listings = build_listings(corpus)
    return GraphSet(
        citation=citation, coauthor=coauthor, listings=listings,
        feature_counts=SparseMatrix((len(corpus), len(table.features)),
                                    table.rows, table.cols, table.counts),
        idf_paper=idf_paper(corpus, table),
        idf_author=idf_author(listings, table),
    )
