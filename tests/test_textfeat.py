import math
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import feature_oracle as oracle
from corpus_oracle import PaperRecord, records
from feature_oracle import extract_features, feature_key, tokenize
from operator_oracle import to_dense
from synthgen import long_sentence_records, scale_corpus
from mrfrank.config import FeatureConfig
from mrfrank.corpus import parse_corpus
from mrfrank import textfeat
from mrfrank.graphs import build_graphs, build_listings
from mrfrank.records import read_native
from mrfrank.textfeat import (FeatureTable, build_feature_table, decay, idf_author,
                              idf_paper, innovativeness_at_window, load_stopwords,
                              write_feature_table)

FIXTURES = Path(__file__).parent / "fixtures"


def paper(pid="P", title="", abstract="", year=2000, authors=("x",)):
    return PaperRecord(paper_id=pid, title=title, abstract=abstract,
                       author_ids=tuple(authors), year=year, venue="v",
                       references=())


class TestTokenize:
    def test_sentences_and_normalization(self):
        out = tokenize("Deep Learning rocks! Truly DEEP learning. the of")
        assert out == [["deep", "learning", "rocks"], ["truly", "deep", "learning"]]

    def test_short_tokens_dropped(self):
        assert tokenize("a I x yz") == [["yz"]]

    def test_punctuation_stripped(self):
        assert tokenize("graph-based (methods). end.") == [
            ["graph", "based", "methods"], ["end"]]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("the of and") == []


class TestExtractFeatures:
    def test_words_and_pairs(self):
        c = extract_features(paper(title="alpha beta", abstract="beta gamma."))
        assert c[("w", "alpha")] == 1
        assert c[("w", "beta")] == 2
        assert c[("p", "alpha", "beta")] == 1
        assert c[("p", "beta", "gamma")] == 1
        assert ("p", "alpha", "gamma") not in c  # different sentences

    def test_pair_counts_once_per_sentence(self):
        c = extract_features(paper(abstract="spam spam eggs spam."))
        assert c[("w", "spam")] == 3
        assert c[("p", "eggs", "spam")] == 1

    def test_pair_canonical_order(self):
        c = extract_features(paper(abstract="zebra apple."))
        assert ("p", "apple", "zebra") in c
        assert ("p", "zebra", "apple") not in c

    def test_title_is_own_sentence(self):
        c = extract_features(paper(title="alpha", abstract="beta."))
        assert ("p", "alpha", "beta") not in c


class TestFeatureTable:
    def make_corpus(self):
        # "alpha" in 3 papers (passes min_df=3), "rare" in 1
        recs = [
            {"id": "A", "title": "alpha study", "abstract": "alpha rare.",
             "authors": ["u"], "year": 2000, "refs": []},
            {"id": "B", "title": "alpha work", "abstract": "beta gamma.",
             "authors": ["u", "v"], "year": 2001, "refs": []},
            {"id": "C", "title": "alpha beta", "abstract": "beta gamma.",
             "authors": ["v"], "year": 2002, "refs": []},
        ]
        corpus, _ = parse_corpus(recs)
        return corpus

    def test_min_df_filter(self):
        table = build_feature_table(self.make_corpus(), min_df=3)
        assert "w|alpha" in table.features
        assert "w|rare" not in table.features
        assert "w|beta" not in table.features  # df == 2

    def test_window_freqs_count_papers(self):
        table = build_feature_table(self.make_corpus(), min_df=1)
        alpha = table.features.index("w|alpha")
        assert table.window_counts[alpha].tolist() == [1, 1, 1]
        assert table.doc_freq[alpha] == 3
        beta = table.features.index("w|beta")
        assert table.window_counts[beta].tolist() == [0, 1, 1]
        assert table.first_seen[beta] == 1

    def test_lambda_lifetime_vs_full(self):
        """A feature's mean runs over its lifetime, not over every window."""
        table = build_feature_table(self.make_corpus(), min_df=1)
        # beta: first seen window 1 of 3 windows -> span 2, sum 2
        assert table.lam[table.features.index("w|beta")] == pytest.approx(1.0)

    def test_global_lambda_is_mean_of_means(self):
        table = build_feature_table(self.make_corpus(), min_df=1)
        assert table.global_lambda == pytest.approx(table.lam.mean())

    def test_paper_features_filtered_to_retained(self):
        table = build_feature_table(self.make_corpus(), min_df=3)
        assert table.features == ("w|alpha",)
        # alpha is column 0; A holds it twice, B and C once
        assert table.rows.tolist() == [0, 1, 2]
        assert table.cols.tolist() == [0, 0, 0]
        assert table.counts.tolist() == [2.0, 1.0, 1.0]

    def test_columns_in_feature_key_order(self):
        corpus = self.make_corpus()
        table = build_feature_table(corpus, min_df=1)
        assert table.features == tuple(sorted(table.features))
        papers = records(corpus)
        for row, col, count in zip(table.rows, table.cols, table.counts):
            pid = corpus.papers[row]
            feat = tuple(table.features[col].split("|"))
            assert extract_features(papers[pid])[feat] == count
        assert table.rows.size == sum(len(extract_features(p))
                                      for p in papers.values())

    @pytest.mark.parametrize("setting", ["window_years", "min_df"])
    def test_setting_below_one_rejected(self, setting):
        with pytest.raises(ValueError, match=f"{setting} must be at least 1"):
            FeatureConfig(**{setting: 0})

    def test_window_years(self):
        table = build_feature_table(self.make_corpus(), window_years=2, min_df=1)
        assert table.n_windows == 2
        # 2000 and 2001 share window 0, 2002 is window 1
        assert table.window_counts[table.features.index("w|alpha")].tolist() == [2, 1]

    def test_empty_corpus(self):
        corpus, _ = parse_corpus([])
        table = build_feature_table(corpus)
        assert table.features == ()
        assert table.global_lambda == 0.0
        assert table.rows.size == table.cols.size == table.counts.size == 0


def make_table(window_freqs, lam_i, lam_global, first_seen=0, n_windows=None):
    """A table of the one feature ``w|f``, with the papers per window given
    as {window: count}."""
    if n_windows is None:
        n_windows = max(window_freqs) + 1
    counts = np.zeros((1, n_windows), dtype=np.int64)
    for w, c in window_freqs.items():
        counts[0, w] = c
    return FeatureTable(features=("w|f",), global_lambda=lam_global, window_years=1,
                        origin_year=2000, n_windows=n_windows,
                        doc_freq=counts.sum(axis=1), first_seen=np.array([first_seen]),
                        lam=np.array([lam_i]), window_counts=counts)


def innovativeness(table, j, rho, u=3):
    """The one feature's score at window j."""
    [score] = innovativeness_at_window(table, j, rho, u).tolist()
    return score


class TestInnovativeness:
    def test_worked_value(self):
        # frequencies [0, 0, 2, 8], lambda_i = 2.5, global lambda = 2,
        # u = 3, no decay; independently recomputed with exact fractions
        # by fixtures/burst_oracle.py: 209/15
        table = make_table({2: 2, 3: 8}, 2.5, 2.0)
        score = innovativeness(table, 3, rho=0.0, u=3)
        assert score == pytest.approx(209 / 15, abs=1e-12)

    def test_oracle_fixture_agrees(self):
        out = subprocess.run(
            [sys.executable, str(FIXTURES / "burst_oracle.py")],
            capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["209/15", "13.933333333333334"]

    def test_decay_scales_exponentially(self):
        table = make_table({2: 2, 3: 8}, 2.5, 2.0)
        base = innovativeness(table, 3, rho=0.0)
        decayed = innovativeness(table, 3, rho=0.5)
        assert decayed == pytest.approx(base * math.exp(-0.5 * 3), rel=1e-12)

    def test_decay_once_per_age(self):
        """One exp(-rho * age) per entry; exactly 1.0 at rho 0 whatever the
        age's sign, with no branch for rho 0."""
        ages = np.array([3, 0, -2, 3, 7])
        assert decay(ages, 0.0).tolist() == [1.0] * 5
        assert decay(ages, 0.5).tolist() == [math.exp(-0.5 * a) for a in ages.tolist()]

    def test_constant_series_scores_zero(self):
        table = make_table({0: 4, 1: 4, 2: 4, 3: 4}, 4.0, 3.0)
        assert innovativeness(table, 3, rho=0.0) == 0.0

    def test_declining_series_clamped_to_zero(self):
        table = make_table({0: 9, 1: 6, 2: 3, 3: 1}, 4.75, 3.0)
        assert innovativeness(table, 3, rho=0.2) == 0.0
        # latest count at its mean (zero deviation) after a decline: the
        # product is -0.0, and the clamp must return +0.0
        table = make_table({0: 8, 1: 6, 2: 4, 3: 4}, 4.0, 3.0)
        score = innovativeness(table, 3, rho=0.2)
        assert score == 0.0 and math.copysign(1.0, score) == 1.0

    def test_pre_first_seen_windows_read_zero(self):
        # first seen at window 2: lookback to windows 0, 1 uses frequency 0
        table = make_table({2: 2, 3: 8}, 5.0, 2.0, first_seen=2)
        score = innovativeness(table, 3, rho=0.0, u=3)
        # s=1: (8-2)/5, s=2: 8/5 * 1/2, s=3: 8/5 * 1/3
        expected = (abs(8 - 5.0) / 2.0) * (6 / 5 + 8 / 5 / 2 + 8 / 5 / 3)
        assert score == pytest.approx(expected, rel=1e-12)

    def test_degenerate_lambdas_give_zero(self):
        table = make_table({3: 8}, 0.0, 2.0)
        assert innovativeness(table, 3, rho=0.0) == 0.0
        table2 = make_table({3: 8}, 2.0, 0.0)
        assert innovativeness(table2, 3, rho=0.0) == 0.0

    def test_window_before_first_occurrence_zero(self):
        table = make_table({2: 2, 3: 8}, 2.5, 2.0, first_seen=2)
        assert innovativeness(table, 1, rho=0.0) == 0.0

    def test_at_window_covers_all_features(self):
        corpus, _ = parse_corpus([
            {"id": f"P{i}", "title": "alpha beta", "abstract": "gamma.",
             "authors": ["u"], "year": 2000 + i, "refs": []} for i in range(4)])
        table = build_feature_table(corpus, min_df=3)
        e = innovativeness_at_window(table, 3, rho=0.2)
        assert e.shape == (len(table.features),) and len(table.features) > 0
        assert np.all(e >= 0.0)

    @given(st.lists(st.integers(0, 20), min_size=4, max_size=8),
           st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_and_finite(self, freqs, rho):
        window_freqs = {i: f for i, f in enumerate(freqs) if f}
        if not window_freqs:
            return
        first = min(window_freqs)
        lam_i = sum(freqs) / (len(freqs) - first)
        table = make_table(window_freqs, lam_i, 2.0, first_seen=first,
                           n_windows=len(freqs))
        score = innovativeness(table, len(freqs) - 1, rho=rho)
        assert score >= 0.0 and math.isfinite(score)


class TestTfidf:
    def make(self):
        recs = [
            {"id": "A", "title": "alpha alpha", "abstract": "alpha beta.",
             "authors": ["u"], "year": 2000, "refs": []},
            {"id": "B", "title": "alpha", "abstract": "beta.",
             "authors": ["u", "v"], "year": 2001, "refs": []},
            {"id": "C", "title": "beta", "abstract": "gamma delta.",
             "authors": ["w"], "year": 2002, "refs": []},
            {"id": "D", "title": "gamma", "abstract": "delta.",
             "authors": ["w"], "year": 2002, "refs": []},
        ]
        corpus, _ = parse_corpus(recs)
        return corpus, build_feature_table(corpus, min_df=2)

    def tfidf(self, corpus, table):
        """The dense paper and author tf-idf matrices, rebuilt from the
        factors the graphs hold: C idf_p and (L C) idf_a."""
        gs = build_graphs(corpus, table, t_current=2004, rho_edge=0.0)
        counts = to_dense(gs.feature_counts)
        return counts * gs.idf_paper, (to_dense(gs.listings) @ counts) * gs.idf_author

    def weight(self, corpus, table, matrix, entity, key):
        """Entry of a tf-idf matrix: a paper row for an upper-case id, an
        author row for a lower-case one."""
        ids = list(corpus.papers) if entity.isupper() else corpus.authors
        return matrix[ids.index(entity), table.features.index(key)]

    def test_paper_weights(self):
        corpus, table = self.make()
        w, _ = self.tfidf(corpus, table)
        # alpha: tf 3 in A, df 2 of 4 papers
        assert self.weight(corpus, table, w, "A", "w|alpha") == pytest.approx(
            3 * math.log(4 / 2))
        assert self.weight(corpus, table, w, "B", "w|beta") == pytest.approx(
            1 * math.log(4 / 3))

    def test_uniform_feature_has_zero_weight(self):
        recs = [
            {"id": f"P{i}", "title": "alpha", "abstract": "",
             "authors": ["u"], "year": 2000, "refs": []} for i in range(3)]
        corpus, _ = parse_corpus(recs)
        table = build_feature_table(corpus, min_df=1)
        assert np.array_equal(idf_paper(corpus, table), [0.0])  # ln(3/3)
        w, _ = self.tfidf(corpus, table)
        assert w.shape == (3, 1)
        assert np.all(w == 0.0)

    def test_author_weights_sum_over_papers(self):
        corpus, table = self.make()
        _, w = self.tfidf(corpus, table)
        # u has alpha tf 3 + 1 = 4; alpha used by 2 of 3 authors
        assert self.weight(corpus, table, w, "u", "w|alpha") == pytest.approx(
            4 * math.log(3 / 2))
        # w (the author) has beta tf 1; beta used by all 3 authors -> weight 0
        assert self.weight(corpus, table, w, "w", "w|beta") == 0.0

    def test_author_listed_twice_counts_twice(self):
        recs = [
            {"id": "A", "title": "alpha", "abstract": "", "authors": ["u", "u"],
             "year": 2000, "refs": []},
            {"id": "B", "title": "alpha", "abstract": "", "authors": ["v"],
             "year": 2000, "refs": []},
            {"id": "C", "title": "beta", "abstract": "", "authors": ["w"],
             "year": 2000, "refs": []},
        ]
        corpus, _ = parse_corpus(recs)
        table = build_feature_table(corpus, min_df=1)
        listings = to_dense(build_listings(corpus))
        papers = list(corpus.papers)
        assert listings[corpus.authors.index("u"), papers.index("A")] == 2.0
        assert listings[corpus.authors.index("v"), papers.index("B")] == 1.0
        _, w = self.tfidf(corpus, table)
        assert self.weight(corpus, table, w, "u", "w|alpha") == 2 * math.log(3 / 2)
        assert self.weight(corpus, table, w, "v", "w|alpha") == math.log(3 / 2)

    def test_author_idf_independent_of_slice_size(self, rng, monkeypatch):
        """Counting distinct (author, feature) keys in slices of whole
        authors gives the whole count, whatever the slice size."""
        for _ in range(10):
            recs = [{"id": f"P{i}", "authors": [f"a{int(x)}" for x in
                                                rng.integers(0, 6, 1 + int(rng.integers(3)))],
                     "title": " ".join(f"t{int(x)}" for x in rng.integers(0, 8, 4)),
                     "abstract": "", "year": 2000, "refs": []} for i in range(12)]
            corpus, _ = parse_corpus(recs)
            table = build_feature_table(corpus, min_df=1)
            papers = list(records(corpus).values())
            m = len(corpus.authors)
            used = np.zeros((m, len(table.features)), dtype=bool)
            for row, col in zip(table.rows.tolist(), table.cols.tolist()):
                for a in papers[row].author_ids:
                    used[corpus.authors.index(a), col] = True
            expect = np.array([math.log(m / u) for u in used.sum(axis=0)])
            for size in (1, 2, 3, 7, 1 << 20):
                monkeypatch.setattr(textfeat, "AUTHOR_SLICE_KEYS", size)
                assert np.array_equal(idf_author(build_listings(corpus), table), expect)


class TestFeatureKey:
    def test_distinct_kinds(self):
        assert feature_key(("w", "alpha")) == "w|alpha"
        assert feature_key(("p", "alpha", "beta")) == "p|alpha|beta"
        assert feature_key(("w", "a|b")) != feature_key(("p", "a", "b")) or True
        # word and pair keys can never collide: kinds differ
        assert not feature_key(("w", "x")).startswith("p|")


def test_brute_force_window_recount(rng):
    """Recount window frequencies for a random corpus directly from the
    extracted feature sets, independent of build_feature_table's single pass."""
    vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    recs = []
    for i in range(30):
        toks = [vocab[rng.integers(len(vocab))] for _ in range(6)]
        recs.append({"id": f"P{i:02d}", "title": " ".join(toks[:2]),
                     "abstract": f"{' '.join(toks[2:4])}. {' '.join(toks[4:])}.",
                     "authors": ["u"], "year": 2000 + int(rng.integers(5)),
                     "refs": []})
    corpus, _ = parse_corpus(recs)
    table = build_feature_table(corpus, min_df=3)

    expected: dict = {}
    doc_freq: Counter = Counter()
    for p in records(corpus).values():
        feats = set(extract_features(p))
        j = p.year - 2000
        for f in feats:
            expected.setdefault(f, Counter())[j] += 1
            doc_freq[f] += 1
    for c, key in enumerate(table.features):
        feat = tuple(key.split("|"))
        assert doc_freq[feat] >= 3
        assert ({w: n for w, n in enumerate(table.window_counts[c].tolist()) if n}
                == dict(expected[feat]))
        span = table.n_windows - table.first_seen[c]
        assert table.lam[c] == pytest.approx(sum(expected[feat].values()) / span)
    for feat, df in doc_freq.items():
        assert (feature_key(feat) in table.features) == (df >= 3)


# "ab" is a prefix of "abc" and "abd", so their pair keys sort differently
# from their pair tuples; "K" is the Kelvin sign, which lowers to "k";
# "Z" is the byte that ends a paper in the tokenizer, and "é" a letter of
# two bytes between ASCII letters
_WORDS = ["ab", "abc", "abd", "Ab", "ABC", "zeta", "x", "7", "42", "a1", "b2b",
          "naïve", "straße", "İstanbul", "K", "Z", "aZb", "abécd", "the", "of", "and"]
_STOPWORDS = ["the", "of", "and", "a", "to", "we"]
# control bytes, and a lone surrogate, which JSON's "\ud800" escape gives
_GAPS = [" ", "  ", ", ", "-", " (", ") ", "; ", "\n", "\x00", "\t", "\x7f", "\ud800"]
_ENDS = [".", "?", "!", "?!.", "...", ". "]


@st.composite
def _text(draw, words):
    parts = []
    for _ in range(draw(st.integers(0, 12))):
        parts.append(draw(st.sampled_from(words)))
        parts.append(draw(st.sampled_from(_GAPS + _ENDS)))
    return "".join(parts)


@st.composite
def feature_case(draw):
    """Random small corpora and table settings for the oracle comparison."""
    only_stopwords = draw(st.booleans()) and draw(st.booleans())
    words = _STOPWORDS if only_stopwords else _WORDS
    records = [{"id": f"P{i}", "title": draw(_text(words)),
                "abstract": draw(_text(words)), "authors": ["u"],
                "year": draw(st.integers(2000, 2006)), "refs": []}
               for i in range(draw(st.integers(0, 8)))]
    stopwords = load_stopwords() if draw(st.booleans()) else frozenset(_STOPWORDS)
    return records, dict(window_years=draw(st.integers(1, 3)),
                         min_df=draw(st.integers(1, 3)), stopwords=stopwords)


def oracle_stats(table, expected):
    """The oracle's statistics of each of ``table``'s columns."""
    return [expected.features[tuple(key.split("|"))] for key in table.features]


def assert_same_table(table, expected):
    """The array table holds the oracle's statistics, column by column, and
    its entries in (row, col) order."""
    assert list(table.features) == sorted(map(feature_key, expected.features))
    for c, s in enumerate(oracle_stats(table, expected)):
        assert (table.window_counts[c].tolist()
                == [s.window_freqs.get(w, 0) for w in range(table.n_windows)])
        assert ((table.doc_freq[c], table.first_seen[c], table.lam[c])
                == (s.doc_freq, s.first_seen, s.lambda_i))
    assert table.global_lambda == expected.global_lambda
    assert ((table.window_years, table.origin_year, table.n_windows)
            == (expected.window_years, expected.origin_year, expected.n_windows))
    assert ((table.rows.dtype, table.cols.dtype, table.counts.dtype)
            == (np.int64, np.int64, np.float64))
    assert np.all(np.diff(table.rows) >= 0)
    assert (list(zip(table.rows.tolist(), table.cols.tolist(), table.counts.tolist()))
            == sorted(zip(expected.rows.tolist(), expected.cols.tolist(),
                          expected.counts.tolist())))


@given(feature_case())
@settings(max_examples=200, deadline=None)
def test_table_matches_oracle(case):
    """The token-id feature table equals the tuple-keyed oracle's, field by
    field."""
    records, kwargs = case
    corpus, _ = parse_corpus(records)
    assert_same_table(build_feature_table(corpus, **kwargs),
                      oracle.build_feature_table(corpus, **kwargs))


def test_table_independent_of_slice_size(rng, monkeypatch):
    """Counting the (paper, feature) entries in slices of whole papers
    gives the oracle's table, whatever the slice size, at min_df 1, 2 and
    3.  A planted word used by exactly min_df papers is kept and one used
    by exactly min_df - 1 is dropped; each has one paper among the first
    two and the rest among the last, so small slices split it."""
    vocab = ["alpha", "beta", "gamma", "delta", "the", "x"]
    for min_df in (1, 2, 3):
        for _ in range(10):
            recs = [{"id": f"P{i}", "authors": ["u"], "year": 2000 + int(rng.integers(4)),
                     "title": " ".join(rng.choice(vocab, 4)),
                     "abstract": ". ".join(" ".join(rng.choice(vocab, 3))
                                           for _ in range(int(rng.integers(3)))),
                     "refs": []} for i in range(12)]
            kept, dropped = ([{"id": f"{word}{i}", "authors": ["u"], "year": 2000,
                               "title": f"{word} {word}", "abstract": "", "refs": []}
                              for i in range(users)]
                             for word, users in (("kept", min_df), ("dropped", min_df - 1)))
            corpus, _ = parse_corpus(kept[:1] + dropped[:1] + recs + kept[1:] + dropped[1:])
            expected = oracle.build_feature_table(corpus, min_df=min_df)
            assert ("w", "kept") in expected.features
            assert ("w", "dropped") not in expected.features
            for size in (1, 2, 7, 1 << 20):
                monkeypatch.setattr(textfeat, "FEATURE_SLICE_PIECES", size)
                assert_same_table(build_feature_table(corpus, min_df=min_df), expected)


@given(feature_case())
@settings(max_examples=60, deadline=None)
def test_table_independent_of_tokenizer_runs(case):
    """Splitting the papers' texts in runs of whole papers gives the same
    pieces and the oracle's table, whatever the run size: a paper's own
    text never ends it, whichever bytes it holds."""
    records, kwargs = case
    corpus, _ = parse_corpus(records)
    expected = oracle.build_feature_table(corpus, **kwargs)
    tokenized = []
    with pytest.MonkeyPatch.context() as patch:
        for size in (1, 2, 7, 1 << 20):
            patch.setattr(textfeat, "FEATURE_SLICE_PIECES", size)
            assert_same_table(build_feature_table(corpus, **kwargs), expected)
            tokenized.append(textfeat._tokenize(corpus.titles, corpus.abstracts,
                                                kwargs["stopwords"]))
    words, *arrays = tokenized[-1]
    for other_words, *other_arrays in tokenized[:-1]:
        assert other_words == words
        assert all(map(np.array_equal, other_arrays, arrays))


def test_no_lowered_text_holds_the_paper_end():
    """The tokenizer ends each paper with an ASCII capital, which no
    lowered character, surrogates included, gives back."""
    assert textfeat._END.isascii() and textfeat._END.isupper()
    assert textfeat._END not in "".join(map(chr, range(0x110000))).lower()


def test_table_transient_memory(tmp_path, monkeypatch):
    """Built in slices of 4096 pieces, the table allocates at its peak under
    a small multiple of the bytes of the arrays it returns.

    - A 5k-paper scale corpus: 1.85 measured, bound 2.2.  Entries held at
      64 bits with a column map over every distinct id read 2.57, and
      corpus-wide occurrence arrays 3.58.
    - 400 papers of two 30-word sentences, whose pairs are mostly rare, at
      ``min_df`` 2: 2.69 measured, bound 3.5; 4.52 with the 64-bit entries.
    """
    path = tmp_path / "corpus.jsonl"
    scale_corpus(path, n_papers=5000, n_citations=15_000, n_authors=1000,
                 vocab_size=2000)
    cases = [(parse_corpus(read_native(path))[0], {}, 2.2),
             (parse_corpus(long_sentence_records())[0], {"min_df": 2}, 3.5)]
    monkeypatch.setattr(textfeat, "FEATURE_SLICE_PIECES", 1 << 12)
    for corpus, kwargs, bound in cases:
        tracemalloc.start()
        try:
            table = build_feature_table(corpus, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(v.nbytes for v in vars(table).values() if isinstance(v, np.ndarray))
        assert peak < bound * held


def bits(values) -> list[int]:
    """The float64 bit patterns of ``values``, so that -0.0 != 0.0."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@given(feature_case(), st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_innovativeness_matches_oracle(case, rho):
    """The vectorised burst scores equal the oracle's per-feature scalar
    scores bit for bit, at every window and for u from 1 to 4."""
    records, kwargs = case
    corpus, _ = parse_corpus(records)
    table = build_feature_table(corpus, **kwargs)
    expected = oracle.build_feature_table(corpus, **kwargs)
    stats = oracle_stats(table, expected)
    for j in range(table.n_windows):
        for u in range(1, 5):
            assert (bits(innovativeness_at_window(table, j, rho, u))
                    == bits([oracle.innovativeness(s, expected, j, rho, u)
                             for s in stats]))


def snapshot_bytes(write, table, rho, u) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "features.tsv")
        write(table, path, rho, u)
        return path.read_bytes()


@given(feature_case(), st.floats(0.0, 1.0), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_snapshot_matches_oracle(case, rho, u):
    """The ``features`` snapshot has the oracle writer's bytes: its rows in
    tuple order, which differs from the table's key order where one word
    is a prefix of another ("ab", "abc", "abd")."""
    records, kwargs = case
    corpus, _ = parse_corpus(records)
    assert (snapshot_bytes(write_feature_table, build_feature_table(corpus, **kwargs),
                           rho, u)
            == snapshot_bytes(oracle.write_feature_table,
                              oracle.build_feature_table(corpus, **kwargs), rho, u))


def test_snapshot_rows_in_tuple_order():
    corpus, _ = parse_corpus([
        {"id": f"P{i}", "title": "ab abc abd", "abstract": "",
         "authors": ["u"], "year": 2000 + i, "refs": []} for i in range(3)])
    table = build_feature_table(corpus, min_df=1)
    # key order puts "p|abc|abd" first, tuple order "p|ab|abc"
    assert table.features[0] == "p|abc|abd"
    expected = oracle.build_feature_table(corpus, min_df=1)
    snapshot = snapshot_bytes(write_feature_table, table, 0.2, 3)
    assert snapshot == snapshot_bytes(oracle.write_feature_table, expected, 0.2, 3)
    assert snapshot.decode().splitlines()[2].startswith("p\tab abc\t")


def test_stopwords_byte_order_mark(tmp_path):
    """A byte-order mark that starts a stopword list is not part of its
    first entry."""
    path = tmp_path / "stopwords.txt"
    path.write_bytes("\ufeffthe\nof\n".encode())
    assert load_stopwords(path) == {"the", "of"}


def test_all_stopwords_corpus_has_no_features():
    corpus, _ = parse_corpus([
        {"id": f"P{i}", "title": "the of", "abstract": "and. a of!",
         "authors": ["u"], "year": 2000 + i, "refs": []} for i in range(3)])
    table = build_feature_table(corpus, min_df=1)
    assert_same_table(table, oracle.build_feature_table(corpus, min_df=1))
    assert table.features == () and table.n_windows == 3
