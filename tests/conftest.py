import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mrfrank.graphs import GraphSet, SparseMatrix


def random_sparse(rng, r, c, density=0.5, nodiag=False):
    a = rng.random((r, c)) * (rng.random((r, c)) < density)
    if nodiag:
        np.fill_diagonal(a, 0)
    rows, cols = np.nonzero(a)
    return SparseMatrix((r, c), rows, cols, a[rows, cols])


def random_counts(rng, r, c, density=0.5, high=3):
    """Integer counts in [1, high) at about ``density`` of the entries."""
    a = rng.integers(1, high, (r, c)) * (rng.random((r, c)) < density)
    rows, cols = np.nonzero(a)
    return SparseMatrix((r, c), rows, cols, a[rows, cols].astype(np.float64))


def random_idf(rng, k, zero_share=0.2):
    """Positive idf weights, about ``zero_share`` of them 0."""
    return np.where(rng.random(k) < zero_share, 0.0, rng.random(k) + 0.1)


def random_instance(rng, max_dim=12):
    """Random small GraphSet + innovativeness vector for oracle tests.

    The feature terms come from random counts C and L (entries 1 or 2, so
    some authors are listed twice) and idf vectors with some zeros; a
    paper or author may be left with no feature.  The coauthor weights are
    random, symmetric, and stored on exactly the author pairs that share a
    paper in L, as ``build_coauthor`` stores them."""
    n, m, k = rng.integers(3, max_dim, 3)
    listings = random_counts(rng, m, n)
    listed = np.zeros((m, n))
    listed[listings.rows, listings.cols] = 1.0
    share = np.triu(listed @ listed.T > 0, 1)
    upper = np.where(share, rng.random((m, m)) + 0.05, 0.0)
    coauthor = upper + upper.T
    rows, cols = np.nonzero(coauthor)
    gs = GraphSet(
        citation=random_sparse(rng, n, n, nodiag=True),
        coauthor=SparseMatrix((m, m), rows, cols, coauthor[rows, cols]),
        listings=listings,
        feature_counts=random_counts(rng, n, k),
        idf_paper=random_idf(rng, k),
        idf_author=random_idf(rng, k),
    )
    e = rng.random(k) + 0.05
    return gs, e


def random_hyperparams(rng, **overrides):
    from mrfrank.config import HyperParams
    kwargs = dict(
        alpha_p=rng.uniform(0.1, 0.9), beta_p=rng.uniform(0.1, 0.9),
        alpha_a=rng.uniform(0.1, 0.9), beta_a=rng.uniform(0.1, 0.9),
        alpha_f=rng.uniform(0.1, 0.9),
    )
    kwargs.update(overrides)
    return HyperParams(**kwargs)


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)
