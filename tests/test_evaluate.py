import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrfrank.corpus import parse_corpus, split_ground_truth
from mrfrank.evaluate import (authors_starting_year, citation_counts, evaluate_run,
                              max_ri, papers_of_year, ri_item)
from mrfrank.ranking import rank_entities
from operator_oracle import ri_list


def make_corpus():
    recs = [
        {"id": "A", "title": "t", "abstract": "a", "authors": ["u"],
         "year": 2003, "refs": []},
        {"id": "B", "title": "t", "abstract": "a", "authors": ["u", "v"],
         "year": 2003, "refs": ["A"]},
        {"id": "C", "title": "t", "abstract": "a", "authors": ["v"],
         "year": 2003, "refs": ["A", "B"]},
        {"id": "D", "title": "t", "abstract": "a", "authors": ["w"],
         "year": 2004, "refs": ["A"]},
        {"id": "E1", "title": "t", "abstract": "a", "authors": ["x"],
         "year": 2006, "refs": ["B", "C"]},
        {"id": "E2", "title": "t", "abstract": "a", "authors": ["x"],
         "year": 2007, "refs": ["C"]},
    ]
    corpus, _ = parse_corpus(recs)
    return corpus


def ids_at(ids, positions) -> list[str]:
    return [list(ids)[i] for i in positions.tolist()]


def by_count(cohort, counts):
    """The cohort ordered by descending count, ties by ascending position."""
    return cohort[rank_entities(counts[cohort])]


class TestCohorts:
    def test_papers_of_year(self):
        corpus = make_corpus()
        assert ids_at(corpus.papers, papers_of_year(corpus, 2003)) == ["A", "B", "C"]

    def test_authors_starting_year(self):
        corpus = make_corpus()
        assert ids_at(corpus.authors, authors_starting_year(corpus, 2003)) == ["u", "v"]
        assert ids_at(corpus.authors, authors_starting_year(corpus, 2004)) == ["w"]


class TestGroundTruthRanking:
    def test_desc_count_ties_by_id(self):
        corpus = make_corpus()
        sub, gt = split_ground_truth(corpus, 2004, 2011)
        # future (post-2004): E1 cites B, C; E2 cites C -> C:2, B:1, A:0
        cohort = papers_of_year(sub, 2003)
        assert ids_at(sub.papers, by_count(cohort, gt.papers)) == ["C", "B", "A"]

    def test_author_counts(self):
        corpus = make_corpus()
        sub, gt = split_ground_truth(corpus, 2004, 2011)
        # u: papers A, B -> 0 + 1; v: papers B, C -> 1 + 2
        cohort = authors_starting_year(sub, 2003)
        assert ids_at(sub.authors, by_count(cohort, gt.authors)) == ["v", "u"]


class TestRIItem:
    def test_exact_values(self):
        assert ri_item(1, 10, True) == pytest.approx(1.9)
        assert ri_item(10, 10, True) == pytest.approx(1.0)
        assert ri_item(3, 10, True) == pytest.approx(1.7)
        assert ri_item(5, 10, False) == 0.0

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            ri_item(0, 10, True)
        with pytest.raises(ValueError):
            ri_item(11, 10, True)

    def test_perfect_list_value(self):
        returned = [f"p{i}" for i in range(10)]
        assert ri_list(returned, returned) == pytest.approx(14.5)
        assert max_ri(10) == pytest.approx(14.5)

    def test_disjoint_list_scores_zero(self):
        assert ri_list(["a", "b"], ["c", "d"]) == 0.0

    @given(st.integers(1, 30))
    @settings(max_examples=30, deadline=None)
    def test_max_ri_consistent(self, k):
        returned = [f"p{i}" for i in range(k)]
        assert ri_list(returned, returned) == pytest.approx(max_ri(k))

    def test_exhaustive_small_permutations(self):
        """Brute-force check on k=3: RI of every returned permutation against
        a fixed ground-truth list, recomputed from the definition."""
        gt3 = ["a", "b", "c"]
        pool = ["a", "b", "c", "x", "y"]
        for perm in itertools.permutations(pool, 3):
            expected = sum(
                (1 + (3 - o_r) / 3) if pid in gt3 else 0.0
                for o_r, pid in enumerate(perm, start=1))
            assert ri_list(list(perm), gt3) == pytest.approx(expected)

    def test_overlap_monotonicity(self):
        """Replacing a non-member by a member at the same position never
        lowers the score."""
        gt = {"a", "b", "c", "d"}
        base = ["a", "x", "c", "y"]
        better = ["a", "b", "c", "y"]
        assert ri_list(better, gt) > ri_list(base, gt)


class TestBaseline:
    def test_paper_citation_counts(self):
        corpus = make_corpus()
        sub, _ = split_ground_truth(corpus, 2004, 2011)
        cohort = papers_of_year(sub, 2003)
        # counts at cutoff (<= 2004): A: B,C,D -> 3; B: C -> 1; C: 0
        papers, _ = citation_counts(sub)
        assert ids_at(sub.papers, by_count(cohort, papers)) == ["A", "B", "C"]

    def test_author_sums(self):
        corpus = make_corpus()
        sub, _ = split_ground_truth(corpus, 2004, 2011)
        cohort = authors_starting_year(sub, 2003)
        # u: A(3) + B(1) = 4; v: B(1) + C(0) = 1
        _, authors = citation_counts(sub)
        assert ids_at(sub.authors, by_count(cohort, authors)) == ["u", "v"]


def positions_of(ids, wanted) -> np.ndarray:
    return np.array([list(ids).index(w) for w in wanted], dtype=np.int64)


class TestEvaluateRun:
    def test_end_to_end(self):
        corpus = make_corpus()
        sub, gt = split_ground_truth(corpus, 2004, 2011)
        cohort = papers_of_year(sub, 2003)
        ranked = positions_of(sub.papers, ["C", "A", "B", "D"])  # D outside cohort
        by_k = dict(evaluate_run(ranked, gt.papers, cohort, ks=[2, 3]))
        # returned top-2 C, A; ground-truth top-2 C, B: C at rank 1 of 2 in
        # gt -> 1.5; A not in gt top-2 -> 0
        assert by_k[2] == pytest.approx(1.5)
        # k=3: whole cohort; all three in gt top-3
        assert by_k[3] == pytest.approx(max_ri(3))

    def test_oversized_k_skipped(self):
        corpus = make_corpus()
        sub, gt = split_ground_truth(corpus, 2004, 2011)
        cohort = papers_of_year(sub, 2003)
        results = evaluate_run(cohort, gt.papers, cohort, ks=[2, 99])
        assert [k for k, _ in results] == [2]

    def test_short_ranking_keeps_requested_k(self):
        """A ranking that holds fewer than k cohort members scores its items
        with the requested k, not with the length of the returned list."""
        corpus = make_corpus()
        sub, gt = split_ground_truth(corpus, 2004, 2011)
        cohort = papers_of_year(sub, 2003)
        ranked = positions_of(sub.papers, ["B", "D"])
        # B at rank 1 of k=3, in the gt top-3: 1 + (3 - 1) / 3
        assert evaluate_run(ranked, gt.papers, cohort, ks=[3]) == [(3, 1 + 2 / 3)]

    def test_sums_in_rank_order(self):
        """RI@k is the per-item values summed one by one in rank order; for
        these hits numpy's pairwise sum gives a different last bit."""
        k = 12
        future = np.array([k - i for i in range(k)] + [0] * k)   # top-k: 0..11
        cohort = np.arange(2 * k)
        hit_ranks = [1, 2, 3, 4, 5, 6, 8, 9, 10, 12]
        hits, misses = iter(range(k)), iter(range(k, 2 * k))
        ranked = np.array([next(hits) if o_r in hit_ranks else next(misses)
                           for o_r in range(1, k + 1)])
        values = [1 + (k - o_r) / k for o_r in hit_ranks]
        expected = 0.0
        for v in values:
            expected += v
        assert expected != float(np.sum(values))
        assert evaluate_run(ranked, future, cohort, ks=[k]) == [(k, expected)]

    def test_gt_list_matches_perfect_score(self):
        """Feeding the ground-truth ranking back as the prediction attains
        the maximum for every k."""
        corpus = make_corpus()
        sub, gt = split_ground_truth(corpus, 2004, 2011)
        cohort = papers_of_year(sub, 2003)
        ranked = by_count(cohort, gt.papers)
        for k, ri in evaluate_run(ranked, gt.papers, cohort, ks=[1, 2, 3]):
            assert ri == pytest.approx(max_ri(k))
