"""Tuple-keyed reference implementation of the feature table.

``mrfrank.textfeat`` tokenizes each paper once into integer token ids and
builds the word and pair features with numpy; this module keeps the
straightforward version: sentences split with one regex, tokens found with
another, and every word and same-sentence pair interned as a
``("w", tok)`` / ``("p", a, b)`` tuple.  Tests check that the array path
builds exactly the same ``FeatureTable``.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from itertools import combinations, repeat

import numpy as np

from mrfrank.corpus import Corpus, PaperRecord
from mrfrank.textfeat import (Feature, FeatureStats, FeatureTable, feature_key,
                              load_stopwords)

_SENTENCE_SPLIT = re.compile(r"[.!?]+")
_TOKEN = re.compile(r"[a-z0-9]+")
_DEFAULT_STOPWORDS = load_stopwords()


def tokenize(text: str, stopwords: frozenset[str] = _DEFAULT_STOPWORDS) -> list[list[str]]:
    """Split into sentences of normalized tokens.

    Sentences split on terminal punctuation; tokens lowercased, punctuation
    stripped; stopwords and tokens shorter than 2 characters dropped.
    """
    sentences = []
    for chunk in _SENTENCE_SPLIT.split(text.lower()):
        tokens = [t for t in _TOKEN.findall(chunk)
                  if len(t) >= 2 and t not in stopwords]
        if tokens:
            sentences.append(tokens)
    return sentences


def _feature_occurrences(paper: PaperRecord,
                         stopwords: frozenset[str] = _DEFAULT_STOPWORDS) -> list[Feature]:
    """Every word occurrence and every same-sentence pair (once per
    sentence) of a paper, in text order."""
    feats: list[Feature] = []
    for sentence in tokenize(paper.title + ". " + paper.abstract, stopwords):
        feats += zip(repeat("w"), sentence)
        feats += [("p", a, b) for a, b in combinations(sorted(set(sentence)), 2)]
    return feats


def extract_features(paper: PaperRecord,
                     stopwords: frozenset[str] = _DEFAULT_STOPWORDS) -> Counter:
    """Per-paper feature counts: word counts plus same-sentence pair
    co-occurrences (a pair counts once per sentence)."""
    return Counter(_feature_occurrences(paper, stopwords))


def build_feature_table(corpus: Corpus, window_years: int = 1, min_df: int = 3,
                        stopwords: frozenset[str] = _DEFAULT_STOPWORDS,
                        lambda_lifetime: bool = True) -> FeatureTable:
    """The feature table, with every feature occurrence interned as a tuple."""
    papers = [corpus.papers[pid] for pid in sorted(corpus.papers)]
    if not papers:
        return FeatureTable({}, 0.0, window_years, 0, 0)

    years = corpus.years
    origin = int(years.min())
    n_windows = (int(years.max()) - origin) // window_years + 1

    interned: defaultdict = defaultdict()
    interned.default_factory = interned.__len__   # a new feature gets the next id
    ids, lengths = [], []
    for p in papers:
        found = _feature_occurrences(p, stopwords)
        ids.extend(map(interned.__getitem__, found))
        lengths.append(len(found))
    # one entry per (paper, feature) pair, counting its occurrences
    n_ids = len(interned)
    occurrences = (np.repeat(np.arange(len(papers)), lengths) * n_ids
                   + np.array(ids, dtype=np.int64))
    pairs, counts = np.unique(occurrences, return_counts=True)
    rows, ids = np.divmod(pairs, n_ids)
    doc_freq = np.bincount(ids, minlength=n_ids)

    # retained features become columns in feature_key order
    feats = list(interned)
    kept = np.flatnonzero(doc_freq >= min_df)
    keys = [feature_key(feats[i]) for i in kept.tolist()]
    kept_by_key = kept[sorted(range(kept.size), key=keys.__getitem__)]
    col_of = np.full(len(feats), -1, dtype=np.int64)
    col_of[kept_by_key] = np.arange(kept.size)
    cols = col_of[ids]
    keep = cols >= 0
    rows = rows[keep]
    cols = cols[keep]
    counts = counts[keep]

    # papers per (column, window), grouped by column, windows ascending
    window = (years - origin) // window_years
    col_windows, in_window = np.unique(cols * n_windows + window[rows],
                                       return_counts=True)
    bounds = np.searchsorted(col_windows, np.arange(kept.size + 1) * n_windows).tolist()
    windows = (col_windows % n_windows).tolist()
    in_window = in_window.tolist()
    col_list = col_of.tolist()
    df_list = doc_freq.tolist()

    features: dict[Feature, FeatureStats] = {}
    for i in sorted(kept.tolist(), key=feats.__getitem__):
        lo, hi = bounds[col_list[i]], bounds[col_list[i] + 1]
        first = windows[lo]
        span = n_windows - first if lambda_lifetime else n_windows
        features[feats[i]] = FeatureStats(
            feature=feats[i], window_freqs=dict(zip(windows[lo:hi], in_window[lo:hi])),
            first_seen=first, doc_freq=df_list[i], lambda_i=df_list[i] / span)

    if features:
        global_lambda = sum(s.lambda_i for s in features.values()) / len(features)
    else:
        global_lambda = 0.0
    return FeatureTable(features=features, global_lambda=global_lambda,
                        window_years=window_years, origin_year=origin,
                        n_windows=n_windows, rows=rows, cols=cols, counts=counts)
