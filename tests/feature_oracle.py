"""Tuple-keyed reference implementation of the feature table.

``mrfrank.textfeat`` tokenizes each paper once into integer token ids and
builds the word and pair features with numpy; this module keeps the
straightforward version: sentences split with one regex, tokens found with
another, and every word and same-sentence pair interned as a
``("w", tok)`` / ``("p", a, b)`` tuple, with the statistics of each
feature in a ``FeatureStats`` keyed by that tuple.  The burst score and the
``features`` snapshot are computed from those, one feature at a time.
Tests check that the array path gives exactly the same table, scores and
snapshot bytes.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import combinations, repeat

import numpy as np

from corpus_oracle import PaperRecord, records
from mrfrank.corpus import Corpus
from mrfrank.textfeat import load_stopwords

# ("w", token) for a word, ("p", tok_a, tok_b) for a pair with tok_a < tok_b
Feature = tuple

_SENTENCE_SPLIT = re.compile(r"[.!?]+")
_TOKEN = re.compile(r"[a-z0-9]+")
_DEFAULT_STOPWORDS = load_stopwords()


@dataclass
class FeatureStats:
    feature: Feature
    window_freqs: dict[int, int]      # window index -> papers containing feature
    first_seen: int                   # window index of first occurrence
    doc_freq: int                     # papers containing the feature overall
    lambda_i: float = 0.0


def _no_entries() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


@dataclass
class FeatureTable:
    """Per-feature statistics keyed by feature tuple, plus the paper x
    feature counts as COO arrays, ``rows`` ascending; a column is the
    feature's position in ``feature_key`` order."""

    features: dict[Feature, FeatureStats]
    global_lambda: float
    window_years: int
    origin_year: int
    n_windows: int
    rows: np.ndarray = field(default_factory=_no_entries)
    cols: np.ndarray = field(default_factory=_no_entries)
    counts: np.ndarray = field(default_factory=_no_entries)


def feature_key(feature: Feature) -> str:
    """The key ``mrfrank.textfeat`` gives a feature."""
    return "|".join(feature)


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
                        stopwords: frozenset[str] = _DEFAULT_STOPWORDS) -> FeatureTable:
    """The feature table, with every feature occurrence interned as a tuple;
    a feature's mean runs from its first window to the latest window."""
    papers = list(records(corpus).values())
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
        span = n_windows - first
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


def innovativeness(stats: FeatureStats, table: FeatureTable, j: int,
                   rho: float, u: int = 3) -> float:
    """Burst score of a feature at window j: deviation from the Poisson mean,
    times discounted recent increments, times an age decay; clamped at 0.

    Windows before the feature's first occurrence contribute frequency 0.
    """
    lam_i = stats.lambda_i
    lam = table.global_lambda
    if lam_i <= 0.0 or lam <= 0.0:
        return 0.0
    x_j = stats.window_freqs.get(j, 0)
    first = abs(x_j - lam_i) / lam
    lookback = 0.0
    for s in range(1, u + 1):
        x_prev = stats.window_freqs.get(j - s, 0) if j - s >= stats.first_seen else 0
        lookback += ((x_j - x_prev) / lam_i) * (1.0 / s)
    age_years = (j - stats.first_seen) * table.window_years
    score = first * lookback * math.exp(-rho * age_years)
    # not max(score, 0.0): that keeps -0.0 when first is 0 and lookback < 0
    return score if score > 0.0 else 0.0


def write_feature_table(table: FeatureTable, path, rho: float, u: int = 3) -> None:
    """The ``features`` snapshot, one row per feature in tuple order."""
    j = table.n_windows - 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# origin_year\t{table.origin_year}\twindow_years\t{table.window_years}"
                 f"\tn_windows\t{table.n_windows}\tglobal_lambda\t{table.global_lambda:.10g}\n")
        fh.write("kind\tterms\tdf\tfirst_seen\tlambda\tinnov\twindow_counts\n")
        for feat in sorted(table.features):
            s = table.features[feat]
            counts = ",".join(f"{w}:{c}" for w, c in sorted(s.window_freqs.items()))
            e = innovativeness(s, table, j, rho, u)
            fh.write(f"{feat[0]}\t{' '.join(feat[1:])}\t{s.doc_freq}\t{s.first_seen}"
                     f"\t{s.lambda_i:.10g}\t{e:.10g}\t{counts}\n")
