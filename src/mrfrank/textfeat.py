"""Word and same-sentence word-pair features, windowed frequency histories,
burst-based innovativeness scores and idf weights."""

from __future__ import annotations

import math
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .corpus import Corpus, PaperRecord
from .sparse import concat_ranges, distinct, pairs_within_groups, per_distinct

# Feature keys: ("w", token) for a word, ("p", tok_a, tok_b) for a pair
# with tok_a < tok_b lexicographically.
Feature = tuple

# A piece is a run of letters and digits (a token) or a run of sentence
# terminators; a sentence is the tokens between two terminator runs.
_PIECE = re.compile(r"[a-z0-9]+|[.!?]+")
_TERMINATORS = ".!?"


def load_stopwords(path=None) -> frozenset[str]:
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            return frozenset(w.strip() for w in fh if w.strip())
    text = resources.files("mrfrank.data").joinpath("stopwords.txt").read_text()
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


_DEFAULT_STOPWORDS = load_stopwords()


def _occurrences(papers: list[PaperRecord], stopwords: frozenset[str]):
    """The kept words in lexicographic order, then one (paper, feature id)
    entry per word occurrence and per same-sentence pair of distinct words
    (a pair once per sentence).

    A word's id is its position in the word list, so ids order like the
    words; the pair of words a < b has id ``V + a * V + b`` for V words.
    Each paper's lowered ``title + ". " + abstract`` is split into pieces
    once, and each piece is looked up in one dict, so the word tests (not a
    terminator, 2 characters or more, not a stopword) run once per distinct
    piece.
    """
    interned: defaultdict = defaultdict()
    interned.default_factory = interned.__len__   # a new piece gets the next id
    ids, lengths = array("q"), []
    for p in papers:
        pieces = _PIECE.findall((p.title + ". " + p.abstract).lower())
        ids.extend(map(interned.__getitem__, pieces))
        lengths.append(len(pieces))
    interned.default_factory = None   # frees the dict without the cycle collector
    strings = list(interned)
    words = sorted(s for s in strings if s[0] not in _TERMINATORS
                   and len(s) >= 2 and s not in stopwords)
    word_id = dict(zip(words, range(len(words))))
    # per distinct piece: its word id, -1 for a terminator run, -2 otherwise
    code = np.array([word_id.get(s, -1 if s[0] in _TERMINATORS else -2)
                     for s in strings], dtype=np.int64)
    piece = code[np.frombuffer(ids, dtype=np.int64)]
    paper = np.repeat(np.arange(len(papers)), lengths)
    # a sentence ends at a terminator run and at the end of a paper
    sentence = np.cumsum(piece == -1) + paper
    paper_of = np.zeros(sentence[-1] + 1, dtype=np.int64)
    paper_of[sentence] = paper
    is_word = piece >= 0
    word, word_paper, word_sentence = piece[is_word], paper[is_word], sentence[is_word]

    # the distinct words of each sentence, ascending; each pairs with the
    # later ones of its sentence
    n = len(words)
    sentence, word_u = np.divmod(distinct(word_sentence * n + word), n)
    first, second = pairs_within_groups(sentence)
    pair_paper = paper_of[sentence[first]]
    pair = n + word_u[first] * n + word_u[second]
    return words, np.concatenate([word_paper, pair_paper]), np.concatenate([word, pair])


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
    """Per-feature window statistics, plus the paper x feature counts as
    COO arrays: one entry per (paper, retained feature) pair, ``rows`` in
    ascending order.  A row is the paper's position in sorted paper-id
    order, a column the feature's position in ``feature_key`` order; both
    are the positions ``graphs.build_index`` gives them."""

    features: dict[Feature, FeatureStats]
    global_lambda: float
    window_years: int
    origin_year: int                  # window 0 starts at this year
    n_windows: int                    # windows 0..n_windows-1 cover the corpus
    rows: np.ndarray = field(default_factory=_no_entries)
    cols: np.ndarray = field(default_factory=_no_entries)
    counts: np.ndarray = field(default_factory=_no_entries)

    def window_of(self, year: int) -> int:
        return (year - self.origin_year) // self.window_years

    def freq(self, feature: Feature, j: int) -> int:
        stats = self.features.get(feature)
        if stats is None:
            return 0
        return stats.window_freqs.get(j, 0)


def build_feature_table(corpus: Corpus, window_years: int = 1, min_df: int = 3,
                        stopwords: frozenset[str] = _DEFAULT_STOPWORDS,
                        lambda_lifetime: bool = True) -> FeatureTable:
    """Windowed document frequencies and Poisson mean estimates per feature,
    and the paper x feature counts of the features seen in ``min_df`` papers
    or more.

    Each paper is tokenized once, and every word and pair is an int id
    from then on (``_occurrences``); feature tuples and keys are built only
    for the retained features.
    ``lambda_lifetime`` averages each feature's frequencies from its first
    occurrence window to the latest window; when off, the average runs over
    all corpus windows.
    """
    if window_years < 1:
        raise ValueError(f"window_years must be at least 1, got {window_years}")
    if min_df < 1:
        raise ValueError(f"min_df must be at least 1, got {min_df}")
    papers = [corpus.papers[pid] for pid in sorted(corpus.papers)]
    if not papers:
        return FeatureTable({}, 0.0, window_years, 0, 0)

    years = corpus.years
    origin = int(years.min())
    n_windows = (int(years.max()) - origin) // window_years + 1

    words, paper, feature = _occurrences(papers, stopwords)
    # compact ids keep the (paper, feature) keys below N * F; then one
    # entry per (paper, feature) pair, counting its occurrences
    raw, feature = np.unique(feature, return_inverse=True)
    n_ids = raw.size
    pairs, counts = np.unique(paper * n_ids + feature, return_counts=True)
    rows, ids = np.divmod(pairs, n_ids)
    doc_freq = np.bincount(ids, minlength=n_ids)

    # retained features in tuple order: pairs (ids from V on) before words;
    # they become columns in feature_key order
    n = len(words)
    kept = np.flatnonzero(doc_freq >= min_df)
    kept = np.roll(kept, -int(np.searchsorted(raw[kept], n)))
    feats = [("w", words[i]) if i < n else ("p", words[i // n - 1], words[i % n])
             for i in raw[kept].tolist()]
    keys = [feature_key(f) for f in feats]
    col_of = np.full(n_ids, -1, dtype=np.int64)
    col_of[kept[sorted(range(kept.size), key=keys.__getitem__)]] = np.arange(kept.size)
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
    for feat, i in zip(feats, kept.tolist()):
        lo, hi = bounds[col_list[i]], bounds[col_list[i] + 1]
        first = windows[lo]
        span = n_windows - first if lambda_lifetime else n_windows
        features[feat] = FeatureStats(
            feature=feat, window_freqs=dict(zip(windows[lo:hi], in_window[lo:hi])),
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


def innovativeness_at_window(table: FeatureTable, j: int, rho: float,
                             u: int = 3) -> dict[Feature, float]:
    return {feat: innovativeness(stats, table, j, rho, u)
            for feat, stats in table.features.items()}


def _idf(total: int, users: np.ndarray) -> np.ndarray:
    """ln(total / users) per feature, math.log once per distinct count."""
    return per_distinct(lambda u: math.log(total / u) if u else 0.0, users)


def idf_paper(corpus: Corpus, table: FeatureTable) -> np.ndarray:
    """ln(N / papers using the feature), per column."""
    return _idf(len(corpus.papers), np.bincount(table.cols, minlength=len(table.features)))


# (author, feature) keys per slice in ``idf_author``: at 1 << 20 the slice's
# arrays set the peak RSS of a 25k-paper ``rank`` (+20 MB); at 1 << 18 they
# fit in memory freed earlier, at no measurable cost in time
AUTHOR_SLICE_KEYS = 1 << 18


def idf_author(corpus: Corpus, table: FeatureTable) -> np.ndarray:
    """ln(M / authors using the feature), per column; an author uses every
    feature of every paper that lists it.

    The distinct (author, feature) keys are counted in slices of whole
    authors, each about ``AUTHOR_SLICE_KEYS`` keys before deduplication, so
    the author x feature expansion never exists whole.
    """
    n, m, k = len(corpus.papers), len(corpus.authors), len(table.features)
    order = np.argsort(corpus.listing_authors, kind="stable")
    author, paper = corpus.listing_authors[order], corpus.listing_papers[order]
    row_start = np.searchsorted(table.rows, np.arange(n + 1))
    starts = row_start[paper]
    lengths = row_start[paper + 1] - starts
    ends = np.cumsum(lengths)
    users = np.zeros(k, dtype=np.int64)
    lo = 0
    while lo < author.size:
        base = int(ends[lo - 1]) if lo else 0
        hi = min(int(np.searchsorted(ends, base + AUTHOR_SLICE_KEYS)) + 1, author.size)
        hi = int(np.searchsorted(author, author[hi - 1], side="right"))
        entries = concat_ranges(starts[lo:hi], lengths[lo:hi])
        keys = distinct(np.repeat(author[lo:hi], lengths[lo:hi]) * k + table.cols[entries])
        users += np.bincount(keys % k, minlength=k)
        lo = hi
    return _idf(m, users)


def feature_key(feature: Feature) -> str:
    """Stable text key for a feature, used for indexing and serialization."""
    return "|".join(feature)


def write_feature_table(table: FeatureTable, path, rho: float, u: int = 3) -> None:
    """Snapshot the table as TSV: kind, terms, df, lambda, per-window counts
    and innovativeness at the latest window."""
    if u < 1:
        raise ValueError(f"u must be at least 1, got {u}")
    if not 0.0 <= rho < math.inf:
        raise ValueError(f"rho must be finite and >= 0, got {rho}")
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
