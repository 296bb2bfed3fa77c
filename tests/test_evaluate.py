import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrfrank.corpus import parse_corpus, split_ground_truth
from mrfrank.evaluate import (authors_starting_year, citation_count_baseline,
                              citation_counts, evaluate_run, ground_truth_ranking,
                              max_ri, papers_of_year, ri_item, ri_list)


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


class TestCohorts:
    def test_papers_of_year(self):
        cohort = papers_of_year(make_corpus(), 2003)
        assert cohort.member_ids == {"A", "B", "C"}

    def test_authors_starting_year(self):
        cohort = authors_starting_year(make_corpus(), 2003)
        assert cohort.member_ids == {"u", "v"}
        assert authors_starting_year(make_corpus(), 2004).member_ids == {"w"}


class TestGroundTruthRanking:
    def test_desc_count_ties_by_id(self):
        corpus = make_corpus()
        sub, gt = split_ground_truth(corpus, 2004, 2011)
        # future (post-2004): E1 cites B, C; E2 cites C -> C:2, B:1, A:0
        cohort = papers_of_year(sub, 2003)
        assert ground_truth_ranking(gt, cohort) == ["C", "B", "A"]

    def test_author_counts(self):
        corpus = make_corpus()
        sub, gt = split_ground_truth(corpus, 2004, 2011)
        # u: papers A, B -> 0 + 1; v: papers B, C -> 1 + 2
        cohort = authors_starting_year(sub, 2003)
        assert ground_truth_ranking(gt, cohort) == ["v", "u"]


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
        assert citation_count_baseline(citation_counts(sub), cohort) == ["A", "B", "C"]

    def test_author_sums(self):
        corpus = make_corpus()
        sub, _ = split_ground_truth(corpus, 2004, 2011)
        cohort = authors_starting_year(sub, 2003)
        # u: A(3) + B(1) = 4; v: B(1) + C(0) = 1
        assert citation_count_baseline(citation_counts(sub), cohort) == ["u", "v"]


class TestEvaluateRun:
    def test_end_to_end(self):
        corpus = make_corpus()
        sub, gt = split_ground_truth(corpus, 2004, 2011)
        cohort = papers_of_year(sub, 2003)
        ranked = ["C", "A", "B", "D"]  # D outside cohort, filtered
        results = evaluate_run(ranked, gt, cohort, ks=[2, 3])
        by_k = {r.k: r for r in results}
        assert by_k[2].returned_topk == ["C", "A"]
        assert by_k[2].ground_truth_topk == ["C", "B"]
        # C at rank 1 of 2 in gt -> 1.5; A not in gt top-2 -> 0
        assert by_k[2].total_ri == pytest.approx(1.5)
        # k=3: whole cohort; all three in gt top-3
        assert by_k[3].total_ri == pytest.approx(max_ri(3))

    def test_oversized_k_skipped(self):
        corpus = make_corpus()
        sub, gt = split_ground_truth(corpus, 2004, 2011)
        cohort = papers_of_year(sub, 2003)
        results = evaluate_run(["A", "B", "C"], gt, cohort, ks=[2, 99])
        assert [r.k for r in results] == [2]

    def test_gt_list_matches_perfect_score(self):
        """Feeding the ground-truth ranking back as the prediction attains
        the maximum for every k."""
        corpus = make_corpus()
        sub, gt = split_ground_truth(corpus, 2004, 2011)
        cohort = papers_of_year(sub, 2003)
        ranked = ground_truth_ranking(gt, cohort)
        for r in evaluate_run(ranked, gt, cohort, ks=[1, 2, 3]):
            assert r.total_ri == pytest.approx(max_ri(r.k))
