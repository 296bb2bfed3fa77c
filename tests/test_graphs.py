import math
from collections import Counter

import numpy as np
import pytest

from conftest import random_sparse
from corpus_oracle import records
from feature_oracle import extract_features, feature_key
from mrfrank.corpus import parse_corpus
from mrfrank.graphs import (SparseMatrix, build_coauthor, build_graphs,
                            build_index, column_normalize, decay_weights,
                            operator_blocks)
from mrfrank.sparse import scale
from mrfrank.textfeat import build_feature_table


def small_corpus():
    recs = [
        {"id": "A", "title": "alpha beta", "abstract": "alpha gamma.",
         "authors": ["u", "v"], "year": 2000, "refs": []},
        {"id": "B", "title": "alpha beta", "abstract": "beta gamma.",
         "authors": ["u"], "year": 2003, "refs": ["A"]},
        {"id": "C", "title": "alpha gamma", "abstract": "beta.",
         "authors": ["v", "w"], "year": 2004, "refs": ["A", "B"]},
    ]
    corpus, _ = parse_corpus(recs)
    return corpus


def small_setup(rho=0.5, t_current=2004):
    corpus = small_corpus()
    table = build_feature_table(corpus, min_df=2)
    index = build_index(corpus, table.features)
    gs = build_graphs(corpus, index, table, t_current=t_current, rho_edge=rho)
    return corpus, index, gs


class TestSparseMatrix:
    def test_matvec_matches_dense(self, rng):
        for _ in range(20):
            r, c = rng.integers(1, 15, 2)
            m = random_sparse(rng, r, c)
            x = rng.random(c)
            assert np.allclose(m.matvec(x), m.to_dense() @ x)

    def test_zero_entries_dropped(self):
        m = SparseMatrix((2, 2), [0, 1], [1, 0], [0.0, 3.0])
        assert m.nnz == 1
        assert m.to_dense()[1, 0] == 3.0

    def test_transpose(self, rng):
        m = random_sparse(rng, 6, 4)
        assert np.array_equal(m.transpose().to_dense(), m.to_dense().T)

    def test_transpose_equals_lexsorted(self, rng):
        """The stable sort by column gives exactly the arrays the
        constructor's (row, col) lexsort gives, repeated entries included."""
        for _ in range(30):
            r, c = rng.integers(1, 12, 2)
            size = int(rng.integers(0, 40))
            m = SparseMatrix((r, c), rng.integers(0, r, size), rng.integers(0, c, size),
                             rng.random(size))
            fast = m.transpose()
            lexsorted = SparseMatrix((c, r), m.cols, m.rows, m.data)
            assert fast.shape == lexsorted.shape
            for name in ("rows", "cols", "data"):
                assert np.array_equal(getattr(fast, name), getattr(lexsorted, name))
                assert getattr(fast, name).dtype == getattr(lexsorted, name).dtype

    def test_scale_multiplies_column_weight_first(self, rng):
        """The column weight goes in first: on a C factor applied transposed
        that is the feature weight, which tp multiplies in before the paper
        weight."""
        m = random_sparse(rng, 30, 20, density=0.8)
        row_w, col_w = rng.random(30) * 3.0, rng.random(20) * 3.0
        scaled = scale(m, row_weights=row_w, col_weights=col_w)
        assert np.array_equal(scaled.data, m.data * col_w[m.cols] * row_w[m.rows])

    def test_canonical_order(self):
        m = SparseMatrix((3, 3), [2, 0, 2], [0, 1, 2], [1.0, 2.0, 3.0])
        assert list(m.rows) == [0, 2, 2]
        assert list(m.cols) == [1, 0, 2]

    def test_empty_matvec(self):
        m = SparseMatrix((3, 4), [], [], [])
        assert np.array_equal(m.matvec(np.ones(4)), np.zeros(3))


class TestColumnNormalize:
    def test_columns_sum_to_one(self, rng):
        m = column_normalize(random_sparse(rng, 8, 6))
        sums = np.bincount(m.cols, weights=m.data, minlength=6)
        nonzero = np.unique(m.cols)
        assert np.allclose(sums[nonzero], 1.0)

    def test_zero_column_stays_zero(self):
        m = SparseMatrix((2, 3), [0, 1], [0, 0], [1.0, 3.0])
        out = column_normalize(m)
        dense = out.to_dense()
        assert np.allclose(dense[:, 0], [0.25, 0.75])
        assert np.all(dense[:, 1:] == 0.0)


class TestBuildGraphs:
    def test_citation_decay_weight(self):
        corpus, index, gs = small_setup(rho=0.5, t_current=2004)
        dense = gs.citation.to_dense()
        b, a, c = (index.paper_ids.index(x) for x in "BAC")
        # B (2003) cites A: age 1 year at rho 0.5
        assert dense[b, a] == pytest.approx(math.exp(-0.5))
        # C (2004) cites A and B: age 0
        assert dense[c, a] == pytest.approx(1.0)
        assert dense[c, b] == pytest.approx(1.0)

    def test_coauthor_sums_decayed_papers(self):
        recs = [
            {"id": "A", "title": "t", "abstract": "a", "authors": ["u", "v"],
             "year": 2003, "refs": []},
            {"id": "B", "title": "t", "abstract": "a", "authors": ["u", "v"],
             "year": 2004, "refs": ["A"]},
            {"id": "C", "title": "t", "abstract": "a", "authors": ["w", "v"],
             "year": 2003, "refs": []},
        ]
        corpus, _ = parse_corpus(recs)
        table = build_feature_table(corpus, min_df=1)
        index = build_index(corpus, table.features)
        m = build_coauthor(corpus, index, t_current=2004, rho=1.0)
        dense = m.to_dense()
        u, v = (index.author_ids.index(x) for x in "uv")
        assert dense[u, v] == pytest.approx(1.0 + math.exp(-1.0))
        assert dense[v, u] == dense[u, v]
        assert dense[u, u] == 0.0
        # at rho 1000 the 2003 papers weigh exp(-1000), which underflows to
        # 0: v-w is not stored, like a citation whose weight underflows
        m = build_coauthor(corpus, index, t_current=2004, rho=1000.0)
        assert m.nnz == 2 and m.to_dense()[u, v] == m.to_dense()[v, u] == 1.0

    def test_coauthor_symmetric(self, rng):
        corpus, index, gs = small_setup()
        d = gs.coauthor.to_dense()
        assert np.array_equal(d, d.T)

    def test_author_paper_binary(self):
        corpus, index, gs = small_setup()
        d = gs.author_paper.to_dense()
        assert set(np.unique(d)) <= {0.0, 1.0}
        a = index.paper_ids.index("A")
        assert d[index.author_ids.index("u"), a] == 1.0
        assert d[index.author_ids.index("w"), a] == 0.0
        assert d.sum() == 5  # A:2 + B:1 + C:2 authors

    def test_rho_zero_equals_time_unaware(self):
        """At rho_edge = 0 no edge decays: every citation weighs 1 and the
        graphs' sums are their undecayed counterparts."""
        corpus, index, gs = small_setup(rho=0.0)
        assert np.array_equal(decay_weights(corpus.years, 2004, 0.0),
                              np.ones(index.n))
        assert np.array_equal(gs.citation.data, np.ones(gs.citation.nnz))
        assert np.array_equal(np.bincount(gs.citation.rows, weights=gs.citation.data,
                                          minlength=index.n), gs.reference_counts)
        assert np.array_equal(np.bincount(gs.coauthor.cols, weights=gs.coauthor.data,
                                          minlength=index.m), gs.coauthor_counts)

    def test_undecayed_counterparts_present(self):
        # A cites nothing, B cites A, C cites A and B; coauthor links:
        # u-v on A, v-w on C
        _, index, gs = small_setup(rho=0.5)
        refs = dict(zip(index.paper_ids, gs.reference_counts))
        assert refs == {"A": 0.0, "B": 1.0, "C": 2.0}
        links = dict(zip(index.author_ids, gs.coauthor_counts))
        assert links == {"u": 1.0, "v": 2.0, "w": 1.0}

    def test_feature_matrices_carry_tfidf(self):
        """The feature graphs are held as their tf-idf factors: the counts
        C and L and the two idf vectors."""
        corpus, index, gs = small_setup()
        assert gs.feature_counts.shape == (index.n, index.k)
        assert gs.listings.shape == (index.m, index.n)
        assert gs.idf_paper.shape == gs.idf_author.shape == (index.k,)
        assert np.array_equal(gs.listings.to_dense(), gs.author_paper.to_dense())
        # the pair alpha-beta is in the titles of A and B only, whose
        # authors are u and v
        a, pair = index.paper_ids.index("A"), index.feature_ids.index("p|alpha|beta")
        assert gs.feature_counts.to_dense()[a, pair] == 1.0
        assert gs.idf_paper[pair] == math.log(3 / 2)
        assert gs.idf_author[pair] == math.log(3 / 2)
        # alpha is in every paper and used by every author
        alpha = index.feature_ids.index("w|alpha")
        assert gs.idf_paper[alpha] == 0.0 and gs.idf_author[alpha] == 0.0


class TestOperatorBlocks:
    def test_shapes(self):
        _, index, gs = small_setup()
        blocks = operator_blocks(gs)
        n, m, k = index.n, index.m, index.k
        assert blocks.pp.shape == (n, n)
        assert blocks.pa.shape == (n, m)
        assert blocks.pt.shape == (n, k)
        assert blocks.aa.shape == (m, m)
        assert blocks.ap.shape == (m, n)
        assert blocks.at.shape == (m, k)
        assert blocks.tp.shape == (k, n)
        assert blocks.ta.shape == (k, m)

    def test_pp_normalized_by_citation_counts(self):
        # C cites A and B at age 0: each reference gets 1/2 of C's vote;
        # B cites only A: full e^{-0.5} (decay survives, count normalizes)
        corpus, index, gs = small_setup(rho=0.5, t_current=2004)
        pp = operator_blocks(gs).pp.to_dense()
        a, b, c = (index.paper_ids.index(x) for x in "ABC")
        assert pp[a, c] == pytest.approx(0.5)
        assert pp[b, c] == pytest.approx(0.5)
        assert pp[a, b] == pytest.approx(math.exp(-0.5))

    def test_aa_normalized_by_coauthor_counts(self):
        # v coauthors A (2000) with u and C (2004) with w: two links, so
        # each of v's coauthors gets its decayed weight over 2
        corpus, index, gs = small_setup(rho=0.5, t_current=2004)
        aa = operator_blocks(gs).aa.to_dense()
        u, v, w = (index.author_ids.index(x) for x in "uvw")
        assert aa[u, v] == pytest.approx(math.exp(-0.5 * 4) / 2)
        assert aa[w, v] == pytest.approx(1.0 / 2)
        assert aa[v, u] == pytest.approx(math.exp(-0.5 * 4))
        assert aa[v, w] == pytest.approx(1.0)

    def test_rho_zero_time_aware_blocks_are_column_normalized(self):
        _, _, gs = small_setup(rho=0.0)
        blocks = operator_blocks(gs)
        assert np.array_equal(blocks.pp.data,
                              column_normalize(gs.citation.transpose()).data)
        assert np.array_equal(blocks.aa.data, column_normalize(gs.coauthor).data)

    def test_untimed_blocks_column_stochastic(self):
        _, index, gs = small_setup(rho=0.0)
        blocks = operator_blocks(gs)
        for name in ("pp", "pa", "pt", "aa", "ap", "at", "tp", "ta"):
            m = getattr(blocks, name)
            if m.nnz == 0:
                continue
            sums = np.bincount(m.cols, weights=m.data, minlength=m.shape[1])
            assert np.allclose(sums[np.unique(m.cols)], 1.0)

    def test_brute_force_dense_oracle(self, rng):
        """Recount every graph, tf-idf matrix and block densely from the
        corpus and ``extract_features`` for random small corpora (1 to 6
        authors from a pool of 8, authors listed twice, rho 0 and > 0, one-
        and two-year windows, and one corpus of single-author papers, whose
        coauthor graph is empty) and compare against the array pipeline.
        The recount adds in the pipeline's order, so every value must match
        exactly."""
        t_cur = 2005
        for trial in range(13):
            rho = 0.0 if trial % 3 == 0 else 0.3
            window_years = 1 + trial % 2
            max_authors = 1 if trial == 12 else 6
            n = int(rng.integers(4, 12))
            recs = []
            for i in range(n):
                year = 1995 + int(rng.integers(10))
                refs = [f"P{j}" for j in range(i) if rng.random() < 0.3]
                authors = [f"a{int(rng.integers(8))}"
                           for _ in range(1 + int(rng.integers(max_authors)))]
                if rng.random() < 0.3:
                    authors.append(authors[0])
                recs.append({
                    "id": f"P{i}", "title": f"t{int(rng.integers(4))} shared",
                    "abstract": f"w{int(rng.integers(4))} shared common.",
                    "authors": authors, "year": year, "refs": refs})
            corpus, _ = parse_corpus(recs)
            table = build_feature_table(corpus, window_years=window_years, min_df=2)
            index = build_index(corpus, table.features)
            gs = build_graphs(corpus, index, table, t_cur, rho)
            blocks = operator_blocks(gs)
            papers = list(records(corpus).values())
            apos = {a: i for i, a in enumerate(index.author_ids)}

            # feature table: retained features, window counts, lambdas
            feats = [extract_features(p) for p in papers]
            df = Counter(f for counts in feats for f in counts)
            kept = sorted((f for f in df if df[f] >= 2), key=feature_key)
            assert tuple(map(feature_key, kept)) == index.feature_ids == table.features
            origin = min(p.year for p in papers)
            n_windows = (max(p.year for p in papers) - origin) // window_years + 1
            assert table.n_windows == n_windows
            for c, f in enumerate(kept):
                windows = Counter((p.year - origin) // window_years
                                  for p, counts in zip(papers, feats) if f in counts)
                assert (table.window_counts[c].tolist()
                        == [windows[w] for w in range(n_windows)])
                assert table.doc_freq[c] == df[f]
                assert table.first_seen[c] == min(windows)
                assert table.lam[c] == df[f] / (n_windows - min(windows))

            # tf-idf factors: an author listed twice on a paper counts it
            # twice in L
            col = {f: j for j, f in enumerate(kept)}
            tf_p = np.zeros((index.n, index.k))
            for i, counts in enumerate(feats):
                for f, c in counts.items():
                    if f in col:
                        tf_p[i, col[f]] = c
            listings = np.zeros((index.m, index.n))
            tf_a = np.zeros((index.m, index.k))
            for i, p in enumerate(papers):
                for a in p.author_ids:
                    listings[apos[a], i] += 1.0
                    tf_a[apos[a]] += tf_p[i]
            idf_p = np.array([math.log(index.n / df[f]) for f in kept])
            idf_a = np.array([math.log(index.m / u) for u in (tf_a > 0).sum(axis=0)])
            assert np.array_equal(gs.feature_counts.to_dense(), tf_p)
            assert np.array_equal(gs.listings.to_dense(), listings)
            assert np.array_equal(gs.idf_paper, idf_p)
            assert np.array_equal(gs.idf_author, idf_a)
            P, A = tf_p * idf_p, tf_a * idf_a

            def decay(year):
                return math.exp(-rho * (t_cur - year))

            cit = np.zeros((index.n, index.n))
            for citing, cited in corpus.citation_edges.tolist():
                cit[citing, cited] = decay(papers[citing].year)
            assert np.array_equal(gs.citation.to_dense(), cit)

            # coauthor weights added in paper order, as the pipeline does
            co = np.zeros((index.m, index.m))
            links = np.zeros((index.m, index.m))
            ap = np.zeros((index.m, index.n))
            for i, p in enumerate(papers):
                aset = sorted(set(p.author_ids))
                for x in aset:
                    ap[apos[x], i] = 1.0
                    for y in aset:
                        if x != y:
                            co[apos[x], apos[y]] += decay(p.year)
                            links[apos[x], apos[y]] += 1.0
            assert np.array_equal(gs.coauthor.to_dense(), co)
            # canonical order, no repeated entry, each pair's one sum on both
            # sides of the diagonal
            co_m = gs.coauthor
            assert np.all(np.diff(co_m.rows * index.m + co_m.cols) > 0)
            dense_co = co_m.to_dense()
            assert np.array_equal(dense_co.view(np.int64), dense_co.T.view(np.int64))
            if trial == 12:
                assert co_m.nnz == 0
            assert np.array_equal(gs.author_paper.to_dense(), ap)

            def colnorm(dense, sums=None):
                if sums is None:
                    sums = np.zeros(dense.shape[1])
                    for row in dense:
                        sums += row
                return np.divide(dense, sums, out=np.zeros_like(dense),
                                 where=sums != 0)

            # time-aware blocks: decayed entries over undecayed counts
            refs = (cit != 0).sum(axis=1)
            expect = {
                "pp": colnorm(cit.T, refs.astype(float)),
                "aa": colnorm(co, links.sum(axis=0)),
                "pa": colnorm(ap.T), "ap": colnorm(ap),
                "pt": colnorm(P), "tp": colnorm(P.T),
                "at": colnorm(A), "ta": colnorm(A.T),
            }
            for name, dense in expect.items():
                assert np.array_equal(getattr(blocks, name).to_dense(), dense), name
