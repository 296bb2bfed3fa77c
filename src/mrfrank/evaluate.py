"""Cohort construction and recommendation-intensity scoring.

Papers and authors are positions in the ranked sub-corpus; a cohort is an
ascending position array.  Every order here (a ranking, the ground truth,
the citation-count baseline) is ``rank_entities``' order: descending
count, ties by ascending position, which is ascending id.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .ranking import rank_entities

log = logging.getLogger(__name__)


@dataclass
class ProtocolConfig:
    """The ``protocol`` settings: rank the papers up to ``cutoff_year``,
    count the citations from papers up to ``horizon_year`` as the ground
    truth, and score the cohorts of ``cohort_years`` at every k of ``ks``."""

    cutoff_year: int = 2005
    horizon_year: int = 2011
    cohort_years: tuple[int, ...] = ()
    ks: tuple[int, ...] = (10, 20, 50)

    def __post_init__(self):
        for k in self.ks:
            if k < 1:
                raise ValueError(f"protocol.ks must be at least 1, got {k}")
        for name in ("ks", "cohort_years"):
            values = getattr(self, name)
            for i, v in enumerate(values):
                if v in values[:i]:
                    raise ValueError(f"protocol.{name} lists {v} more than once")
        if self.cutoff_year >= self.horizon_year:
            raise ValueError(f"protocol.cutoff_year {self.cutoff_year} must be before "
                             f"protocol.horizon_year {self.horizon_year}")


def papers_of_year(corpus: Corpus, year: int) -> np.ndarray:
    return np.flatnonzero(corpus.years == year)


def authors_starting_year(corpus: Corpus, year: int) -> np.ndarray:
    return np.flatnonzero(corpus.first_year == year)


def ri_item(o_r: int, k: int, in_ground_truth_topk: bool) -> float:
    """Recommendation intensity of one returned item at rank o_r."""
    if not 1 <= o_r <= k:
        raise ValueError(f"rank {o_r} outside 1..{k}")
    if not in_ground_truth_topk:
        return 0.0
    return 1.0 + (k - o_r) / k


def citation_counts(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """In-corpus citations at the cutoff: per paper, and per author summed
    over the author's listings (a paper that lists an author twice counts
    twice)."""
    paper = np.bincount(corpus.citation_edges[:, 1], minlength=len(corpus))
    return paper, corpus.sum_over_authors(paper).astype(np.int64)


def evaluate_run(ranked: np.ndarray, future: np.ndarray, cohort: np.ndarray,
                 ks) -> list[tuple[int, float]]:
    """(k, RI@k) per cutoff k no larger than the cohort.

    ``ranked`` holds positions in ranking order; its cohort members, in
    that order, are the returned list.  The ground-truth list L is the
    top-k of the cohort by ``future`` citations.  An item's RI uses the
    requested k even when fewer than k members were ranked, and the items
    are summed in rank order.
    """
    returned = ranked[np.isin(ranked, cohort)]
    truth = cohort[rank_entities(future[cohort])]
    results = []
    for k in ks:
        if k > cohort.size:
            log.warning("k=%d exceeds cohort size %d, skipped", k, cohort.size)
            continue
        hits = np.flatnonzero(np.isin(returned[:k], truth[:k])) + 1
        results.append((k, sum((ri_item(o_r, k, True) for o_r in hits.tolist()), 0.0)))
    return results


def max_ri(k: int) -> float:
    """RI of a returned list identical to the ground-truth top-k in order."""
    return k + (k - 1) / 2
