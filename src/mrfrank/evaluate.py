"""Cohort construction, recommendation-intensity scoring and the
citation-count baseline."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, GroundTruth

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Cohort:
    kind: str           # "papers_of_year" | "authors_starting_year"
    year: int
    member_ids: frozenset[str]


def papers_of_year(corpus: Corpus, year: int) -> Cohort:
    members = frozenset(pid for pid, p in corpus.papers.items() if p.year == year)
    return Cohort("papers_of_year", year, members)


def authors_starting_year(corpus: Corpus, year: int) -> Cohort:
    members = frozenset(a for a, rec in corpus.authors.items()
                        if rec.first_pub_year == year)
    return Cohort("authors_starting_year", year, members)


def _sorted_by_count(counts: dict[str, int], members) -> list[str]:
    return sorted(members, key=lambda x: (-counts.get(x, 0), x))


def ground_truth_ranking(gt: GroundTruth, cohort: Cohort) -> list[str]:
    """Cohort ids by descending future citations, ties by ascending id."""
    counts = (gt.paper_future_citations if cohort.kind == "papers_of_year"
              else gt.author_future_citations)
    return _sorted_by_count(counts, cohort.member_ids)


def ri_item(o_r: int, k: int, in_ground_truth_topk: bool) -> float:
    """Recommendation intensity of one returned item at rank o_r."""
    if not 1 <= o_r <= k:
        raise ValueError(f"rank {o_r} outside 1..{k}")
    if not in_ground_truth_topk:
        return 0.0
    return 1.0 + (k - o_r) / k


def ri_list(returned: list[str], gt_topk) -> float:
    """Total recommendation intensity of a returned top-k list."""
    k = len(returned)
    gt_topk = set(gt_topk)
    return sum(ri_item(o_r, k, pid in gt_topk)
               for o_r, pid in enumerate(returned, start=1))


@dataclass(frozen=True)
class CitationCounts:
    """In-corpus citations at the cutoff: per paper, and per author summed
    over the author's listings (a paper that lists an author twice counts
    twice)."""

    papers: dict[str, int]
    authors: dict[str, int]


def citation_counts(corpus: Corpus) -> CitationCounts:
    paper = np.bincount(corpus.citation_edges[:, 1], minlength=len(corpus))
    author = corpus.sum_over_authors(paper).astype(np.int64)
    return CitationCounts(papers=dict(zip(corpus.papers, paper.tolist())),
                          authors=dict(zip(corpus.authors, author.tolist())))


def citation_count_baseline(counts: CitationCounts, cohort: Cohort) -> list[str]:
    """Rank cohort members by citation count at the cutoff, ties by id."""
    if cohort.kind == "papers_of_year":
        return _sorted_by_count(counts.papers, cohort.member_ids)
    return _sorted_by_count(counts.authors, cohort.member_ids)


@dataclass
class RIResult:
    k: int
    returned_topk: list[str]
    ground_truth_topk: list[str]
    per_item_ri: dict[str, float] = field(default_factory=dict)
    total_ri: float = 0.0


def evaluate_run(ranked_ids: list[str], gt: GroundTruth, cohort: Cohort,
                 ks: list[int]) -> list[RIResult]:
    """RI results per cutoff k; the ground-truth membership list L is the
    top-k of the cohort's ground-truth ranking for that same k."""
    cohort_ranked = [eid for eid in ranked_ids if eid in cohort.member_ids]
    gt_ranking = ground_truth_ranking(gt, cohort)
    results = []
    for k in ks:
        if k > len(cohort.member_ids):
            log.warning("k=%d exceeds cohort size %d, skipped",
                        k, len(cohort.member_ids))
            continue
        returned = cohort_ranked[:k]
        gt_topk = gt_ranking[:k]
        gt_set = set(gt_topk)
        per_item = {pid: ri_item(o_r, k, pid in gt_set)
                    for o_r, pid in enumerate(returned, start=1)}
        results.append(RIResult(k=k, returned_topk=returned,
                                ground_truth_topk=gt_topk,
                                per_item_ri=per_item,
                                total_ri=sum(per_item.values())))
    return results


def max_ri(k: int) -> float:
    """RI of a returned list identical to the ground-truth top-k in order."""
    return k + (k - 1) / 2
