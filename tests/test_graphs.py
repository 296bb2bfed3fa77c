import math
from collections import Counter

import numpy as np
import pytest

from conftest import random_sparse
from corpus_oracle import records
from feature_oracle import extract_features, feature_key
from operator_oracle import colnorm, operator_blocks, term_factor, to_dense, transpose
from mrfrank.corpus import parse_corpus
from mrfrank.graphs import SparseMatrix, build_coauthor, build_graphs
from mrfrank.textfeat import build_feature_table, decay


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
    gs = build_graphs(corpus, table, t_current=t_current, rho_edge=rho)
    return corpus, table, gs


def positions(ids, names):
    """The positions of ``names`` in the id sequence ``ids``."""
    ids = list(ids)
    return [ids.index(x) for x in names]


class TestSparseMatrix:
    def test_matvec_matches_dense(self, rng):
        for _ in range(20):
            r, c = rng.integers(1, 15, 2)
            m = random_sparse(rng, r, c)
            x = rng.random(c)
            assert np.allclose(m.matvec(x), to_dense(m) @ x)

    def test_transpose(self, rng):
        m = random_sparse(rng, 6, 4)
        assert np.array_equal(to_dense(transpose(m)), to_dense(m).T)

    def test_transpose_equals_lexsorted(self, rng):
        """For a matrix in (row, col) order, the stable sort by column gives
        exactly the arrays a (col, row) lexsort gives, repeated entries
        included."""
        for _ in range(30):
            r, c = rng.integers(1, 12, 2)
            size = int(rng.integers(0, 40))
            rows, cols = rng.integers(0, r, size), rng.integers(0, c, size)
            data = rng.random(size)
            order = np.lexsort((cols, rows))
            m = SparseMatrix((r, c), rows[order], cols[order], data[order])
            fast = transpose(m)
            order = np.lexsort((rows, cols))
            lexsorted = SparseMatrix((c, r), cols[order], rows[order], data[order])
            assert fast.shape == lexsorted.shape
            for name in ("rows", "cols", "data"):
                assert np.array_equal(getattr(fast, name), getattr(lexsorted, name))
                assert getattr(fast, name).dtype == getattr(lexsorted, name).dtype

    def test_empty_matvec(self):
        none = np.zeros(0, dtype=np.int64)
        m = SparseMatrix((3, 4), none, none, np.zeros(0))
        assert np.array_equal(m.matvec(np.ones(4)), np.zeros(3))


class TestBuildGraphs:
    def test_citation_decay_weight(self):
        corpus, _, gs = small_setup(rho=0.5, t_current=2004)
        dense = to_dense(gs.citation)
        b, a, c = positions(corpus.papers, "BAC")
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
        m = build_coauthor(corpus, decay(2004 - corpus.years, 1.0))
        dense = to_dense(m)
        u, v = positions(corpus.authors, "uv")
        assert dense[u, v] == pytest.approx(1.0 + math.exp(-1.0))
        assert dense[v, u] == dense[u, v]
        assert dense[u, u] == 0.0
        # at rho 1000 the 2003 papers weigh exp(-1000), which underflows to
        # 0: v-w is not stored, like a citation whose weight underflows
        m = build_coauthor(corpus, decay(2004 - corpus.years, 1000.0))
        assert m.nnz == 2 and to_dense(m)[u, v] == to_dense(m)[v, u] == 1.0

    def test_underflowed_citation_not_stored(self):
        """At rho 1000 the references of B (2003) weigh exp(-1000), which
        underflows to 0: they are not stored, B's pp column is zero and
        ``refs`` counts only C's two stored references."""
        corpus, _, gs = small_setup(rho=1000.0, t_current=2004)
        a, b, c = positions(corpus.papers, "ABC")
        cit = gs.citation
        assert cit.nnz == 2 and b not in cit.rows.tolist()
        assert np.array_equal(cit.data, np.ones(2))
        pp = to_dense(term_factor(gs, "pp")).T
        assert np.array_equal(pp[:, b], np.zeros(3))
        assert pp[a, c] == pp[b, c] == 0.5
        assert np.array_equal(pp, to_dense(operator_blocks(gs).pp))

    def test_coauthor_symmetric(self, rng):
        _, _, gs = small_setup()
        d = to_dense(gs.coauthor)
        assert np.array_equal(d, d.T)

    def test_author_paper_binary(self):
        """pa and ap link each author to each of its papers once: pa splits
        an author's vote evenly over its papers, ap a paper's over its
        authors, and an author listed twice counts once."""
        corpus, _, gs = small_setup()
        pa, ap = to_dense(term_factor(gs, "pa")), to_dense(term_factor(gs, "ap"))
        linked = ap != 0.0
        assert np.array_equal(pa != 0.0, linked)
        a = positions(corpus.papers, "A")[0]
        u, w = positions(corpus.authors, "uw")
        assert linked[u, a] and not linked[w, a]
        assert linked.sum() == 5  # A:2 + B:1 + C:2 authors
        assert np.array_equal(pa * linked.sum(axis=1, keepdims=True), linked)
        assert np.array_equal(ap * linked.sum(axis=0), linked)
        # B lists u twice: u and v each get half of B's vote, and u splits
        # its vote evenly over A and B
        recs = [{"id": "A", "title": "t", "abstract": "a", "authors": ["u"],
                 "year": 2000, "refs": []},
                {"id": "B", "title": "t", "abstract": "a", "authors": ["u", "v", "u"],
                 "year": 2000, "refs": []}]
        corpus, _ = parse_corpus(recs)
        gs = build_graphs(corpus, build_feature_table(corpus, min_df=1), 2000, 0.0)
        assert to_dense(gs.listings).tolist() == [[1.0, 2.0], [0.0, 1.0]]
        assert to_dense(term_factor(gs, "ap")).tolist() == [[1.0, 0.5], [0.0, 0.5]]
        assert to_dense(term_factor(gs, "pa")).tolist() == [[0.5, 0.5], [0.0, 1.0]]

    def test_rho_zero_equals_time_unaware(self):
        """At rho_edge = 0 no edge decays: every citation weighs 1 and pp
        and aa are divided by the graphs' own sums."""
        corpus, _, gs = small_setup(rho=0.0)
        assert np.array_equal(decay(2004 - corpus.years, 0.0),
                              np.ones(len(corpus)))
        cit, co = gs.citation, gs.coauthor
        assert np.array_equal(cit.data, np.ones(cit.nnz))
        refs = np.bincount(cit.rows, weights=cit.data, minlength=len(corpus))
        assert np.array_equal(term_factor(gs, "pp").data, cit.data / refs[cit.rows])
        links = np.bincount(co.cols, weights=co.data, minlength=len(corpus.authors))
        assert np.array_equal(term_factor(gs, "aa").data, co.data / links[co.cols])

    def test_undecayed_counterparts_present(self):
        """pp and aa divide the decayed weights by undecayed counts: a
        stored weight over its block entry is the reference count of its
        citing paper, or the coauthor links of its column's author."""
        # A cites nothing, B cites A, C cites A and B; coauthor links:
        # u-v on A, v-w on C
        corpus, _, gs = small_setup(rho=0.5)
        cit, co = gs.citation, gs.coauthor
        refs = set(zip(corpus.papers[cit.rows], cit.data / term_factor(gs, "pp").data))
        assert refs == {("B", 1.0), ("C", 2.0)}
        links = set(zip((corpus.authors[a] for a in co.cols),
                        co.data / term_factor(gs, "aa").data))
        assert links == {("u", 1.0), ("v", 2.0), ("w", 1.0)}

    def test_feature_matrices_carry_tfidf(self):
        """The feature graphs are held as their tf-idf factors: the counts
        C and L and the two idf vectors."""
        corpus, table, gs = small_setup()
        n, m, k = len(corpus), len(corpus.authors), len(table.features)
        assert gs.sizes == (n, m, k)
        assert gs.feature_counts.shape == (n, k)
        assert gs.listings.shape == (m, n)
        assert gs.idf_paper.shape == gs.idf_author.shape == (k,)
        # no author is listed twice: L is the authorship pattern of pa and ap
        assert np.array_equal(gs.listings.data, np.ones(gs.listings.nnz))
        assert np.array_equal(to_dense(gs.listings) != 0.0,
                              to_dense(term_factor(gs, "ap")) != 0.0)
        # the pair alpha-beta is in the titles of A and B only, whose
        # authors are u and v
        a, pair = positions(corpus.papers, "A")[0], table.features.index("p|alpha|beta")
        assert to_dense(gs.feature_counts)[a, pair] == 1.0
        assert gs.idf_paper[pair] == math.log(3 / 2)
        assert gs.idf_author[pair] == math.log(3 / 2)
        # alpha is in every paper and used by every author
        alpha = table.features.index("w|alpha")
        assert gs.idf_paper[alpha] == 0.0 and gs.idf_author[alpha] == 0.0


class TestOperatorBlocks:
    def test_shapes(self):
        corpus, table, gs = small_setup()
        blocks = operator_blocks(gs)
        n, m, k = len(corpus), len(corpus.authors), len(table.features)
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
        corpus, _, gs = small_setup(rho=0.5, t_current=2004)
        pp = to_dense(operator_blocks(gs).pp)
        a, b, c = positions(corpus.papers, "ABC")
        assert pp[a, c] == pytest.approx(0.5)
        assert pp[b, c] == pytest.approx(0.5)
        assert pp[a, b] == pytest.approx(math.exp(-0.5))

    def test_aa_normalized_by_coauthor_counts(self):
        # v coauthors A (2000) with u and C (2004) with w: two links, so
        # each of v's coauthors gets its decayed weight over 2
        corpus, _, gs = small_setup(rho=0.5, t_current=2004)
        aa = to_dense(operator_blocks(gs).aa)
        u, v, w = positions(corpus.authors, "uvw")
        assert aa[u, v] == pytest.approx(math.exp(-0.5 * 4) / 2)
        assert aa[w, v] == pytest.approx(1.0 / 2)
        assert aa[v, u] == pytest.approx(math.exp(-0.5 * 4))
        assert aa[v, w] == pytest.approx(1.0)

    def test_rho_zero_time_aware_blocks_are_column_normalized(self):
        """At rho 0 the undecayed counts pp and aa divide by are the graphs'
        own column sums: the production blocks are the plain column
        normalization of the transposed citation graph and of the coauthor
        graph."""
        _, _, gs = small_setup(rho=0.0)
        cit, co = to_dense(gs.citation), to_dense(gs.coauthor)
        assert np.array_equal(to_dense(term_factor(gs, "pp")).T, colnorm(cit.T))
        assert np.array_equal(to_dense(term_factor(gs, "aa")), colnorm(co))

    def test_untimed_blocks_column_stochastic(self):
        _, _, gs = small_setup(rho=0.0)
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
            gs = build_graphs(corpus, table, t_cur, rho)
            blocks = operator_blocks(gs)
            papers = list(records(corpus).values())
            n, m, k = len(corpus), len(corpus.authors), len(table.features)
            apos = {a: i for i, a in enumerate(corpus.authors)}

            # feature table: retained features, window counts, lambdas
            feats = [extract_features(p) for p in papers]
            df = Counter(f for counts in feats for f in counts)
            kept = sorted((f for f in df if df[f] >= 2), key=feature_key)
            assert tuple(map(feature_key, kept)) == table.features
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
            tf_p = np.zeros((n, k))
            for i, counts in enumerate(feats):
                for f, c in counts.items():
                    if f in col:
                        tf_p[i, col[f]] = c
            listings = np.zeros((m, n))
            tf_a = np.zeros((m, k))
            for i, p in enumerate(papers):
                for a in p.author_ids:
                    listings[apos[a], i] += 1.0
                    tf_a[apos[a]] += tf_p[i]
            idf_p = np.array([math.log(n / df[f]) for f in kept])
            idf_a = np.array([math.log(m / u) for u in (tf_a > 0).sum(axis=0)])
            assert np.array_equal(to_dense(gs.feature_counts), tf_p)
            assert np.array_equal(to_dense(gs.listings), listings)
            assert np.array_equal(gs.idf_paper, idf_p)
            assert np.array_equal(gs.idf_author, idf_a)
            P, A = tf_p * idf_p, tf_a * idf_a

            def decay(year):
                return math.exp(-rho * (t_cur - year))

            cit = np.zeros((n, n))
            for citing, cited in corpus.citation_edges.tolist():
                cit[citing, cited] = decay(papers[citing].year)
            assert np.array_equal(to_dense(gs.citation), cit)

            # coauthor weights added in paper order, as the pipeline does
            co = np.zeros((m, m))
            links = np.zeros((m, m))
            ap = np.zeros((m, n))
            for i, p in enumerate(papers):
                aset = sorted(set(p.author_ids))
                for x in aset:
                    ap[apos[x], i] = 1.0
                    for y in aset:
                        if x != y:
                            co[apos[x], apos[y]] += decay(p.year)
                            links[apos[x], apos[y]] += 1.0
            assert np.array_equal(to_dense(gs.coauthor), co)
            # (row, col) order, no repeated entry, each pair's one sum on both
            # sides of the diagonal
            co_m = gs.coauthor
            assert np.all(np.diff(co_m.rows * m + co_m.cols) > 0)
            dense_co = to_dense(co_m)
            assert np.array_equal(dense_co.view(np.int64), dense_co.T.view(np.int64))
            if trial == 12:
                assert co_m.nnz == 0
            # pa and ap link an author to a paper once, however often it is
            # listed there: L's pattern; their values are checked below
            assert np.array_equal(to_dense(term_factor(gs, "ap")) != 0.0, ap != 0.0)
            assert np.array_equal(to_dense(gs.listings) != 0.0, ap != 0.0)

            # time-aware blocks: decayed entries over undecayed counts
            refs = (cit != 0).sum(axis=1)
            expect = {
                "pp": colnorm(cit.T, refs.astype(float)),
                "aa": colnorm(co, links.sum(axis=0)),
                "pa": colnorm(ap.T), "ap": colnorm(ap),
                "pt": colnorm(P), "tp": colnorm(P.T),
                "at": colnorm(A), "ta": colnorm(A.T),
            }
            # every block of the dense oracle, and the paper and author
            # blocks as the production operator builds them (pp and pa are
            # applied transposed); it builds the feature blocks as chains
            for name, dense in expect.items():
                assert np.array_equal(to_dense(getattr(blocks, name)), dense), name
            for name in ("pp", "pa", "aa", "ap"):
                built = to_dense(term_factor(gs, name))
                built = built.T if name in ("pp", "pa") else built
                assert np.array_equal(built, expect[name]), name
