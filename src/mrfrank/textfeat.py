"""Word and same-sentence word-pair features, windowed frequency histories,
burst-based innovativeness scores, idf weights and the one time decay."""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .config import FeatureConfig, HyperParams
from .corpus import Corpus
from .records import text_lines
from .sparse import (SparseMatrix, concat_ranges, distinct, interner,
                     pairs_within_groups, per_distinct)

# A piece is a run of letters and digits (a token) or a run of sentence
# terminators; a sentence is the tokens between two terminator runs.
_PIECE = re.compile(r"[a-z0-9]+|[.!?]+")
_TERMINATORS = ".!?"


def load_stopwords(path=None) -> frozenset[str]:
    """The words of the list file at ``path``, one a line, or of the
    built-in list when no path is given."""
    if path:
        return frozenset(w.strip() for w in text_lines(path) if w.strip())
    text = resources.files("mrfrank.data").joinpath("stopwords.txt").read_text()
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


_DEFAULT_STOPWORDS = load_stopwords()


def _occurrences(titles, abstracts, stopwords: frozenset[str]):
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
    interned = interner()   # a new piece gets the next id
    ids, lengths = array("q"), []
    for title, abstract in zip(titles, abstracts):
        pieces = _PIECE.findall((title + ". " + abstract).lower())
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
    paper = np.repeat(np.arange(len(lengths)), lengths)
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


def _ints() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


def _floats() -> np.ndarray:
    return np.zeros(0)


@dataclass
class FeatureTable:
    """Per-feature window statistics, one entry per column, plus the paper x
    feature counts as COO arrays in (row, col) order.  A row is the
    paper's position in ``Corpus.papers``, a column the feature's
    position in ``features``; the graphs' C has the same rows and columns.

    A feature key is ``w|word`` for a word and ``p|a|b`` for the pair of
    words a < b in one sentence; ``features`` holds the keys in ascending
    order.  The defaults are those of a table without features."""

    features: tuple[str, ...]
    global_lambda: float              # mean of ``lam`` (0 without features)
    window_years: int
    origin_year: int                  # window 0 starts at this year
    n_windows: int                    # windows 0..n_windows-1 cover the corpus
    doc_freq: np.ndarray = field(default_factory=_ints)      # papers using it
    first_seen: np.ndarray = field(default_factory=_ints)    # its first window
    # Poisson mean: papers per window from the first window on
    lam: np.ndarray = field(default_factory=_floats)
    # K x n_windows, papers using the feature in each window
    window_counts: np.ndarray = field(default_factory=_ints)
    rows: np.ndarray = field(default_factory=_ints)
    cols: np.ndarray = field(default_factory=_ints)
    counts: np.ndarray = field(default_factory=_floats)


def build_feature_table(corpus: Corpus, window_years: int = FeatureConfig.window_years,
                        min_df: int = FeatureConfig.min_df,
                        stopwords: frozenset[str] = _DEFAULT_STOPWORDS) -> FeatureTable:
    """Windowed document frequencies and Poisson mean estimates per feature,
    and the paper x feature counts of the features seen in ``min_df`` papers
    or more.

    Each paper is tokenized once, and every word and pair is an int id
    from then on (``_occurrences``); key strings are built only for the
    retained features.  A feature's mean averages its frequencies from its
    first window to the latest window.
    """
    if window_years < 1:
        raise ValueError(f"window_years must be at least 1, got {window_years}")
    if window_years >= 2**63:   # a year's window is an int64 division
        raise ValueError(f"window_years must be below 2**63, got {window_years}")
    if min_df < 1:
        raise ValueError(f"min_df must be at least 1, got {min_df}")
    if not len(corpus):
        return FeatureTable((), 0.0, window_years, 0, 0)

    years = corpus.years
    origin = int(years.min())
    n_windows = (int(years.max()) - origin) // window_years + 1

    words, paper, feature = _occurrences(corpus.titles, corpus.abstracts, stopwords)
    # compact ids keep the (paper, feature) keys below N * F; then one
    # entry per (paper, feature) pair, counting its occurrences
    raw, feature = np.unique(feature, return_inverse=True)
    n_ids = raw.size
    pairs, counts = np.unique(paper * n_ids + feature, return_counts=True)
    rows, ids = np.divmod(pairs, n_ids)
    # the occurrence arrays are the largest here: free them before the
    # sort below, which sets the peak RSS of a small ``rank``
    del paper, feature, pairs
    papers_using = np.bincount(ids, minlength=n_ids)

    # retained features in the order of (kind, word, word): pairs (ids from
    # V on) before words; they become columns in key order
    n = len(words)
    kept = np.flatnonzero(papers_using >= min_df)
    kept = np.roll(kept, -int(np.searchsorted(raw[kept], n)))
    k = kept.size
    keys = [f"w|{words[i]}" if i < n else f"p|{words[i // n - 1]}|{words[i % n]}"
            for i in raw[kept].tolist()]
    by_key = sorted(range(k), key=keys.__getitem__)
    col_of = np.full(n_ids, -1, dtype=np.int64)
    col_of[kept[by_key]] = np.arange(k)
    cols = col_of[ids]
    # the retained entries in (row, col) order
    keep = np.flatnonzero(cols >= 0)
    keep = keep[np.argsort(rows[keep] * k + cols[keep])]
    rows, cols, counts = rows[keep], cols[keep], counts[keep].astype(np.float64)

    # papers per (column, window)
    window = (years - origin) // window_years
    window_counts = np.bincount(cols * n_windows + window[rows],
                                minlength=k * n_windows).reshape(k, n_windows)
    first_seen = np.argmax(window_counts > 0, axis=1)
    doc_freq = window_counts.sum(axis=1)
    lam = doc_freq / (n_windows - first_seen)
    # the mean of the means, added in (kind, word, word) order: the order
    # fixes the bits of the sum, and with them every score
    global_lambda = sum(lam[col_of[kept]].tolist()) / k if k else 0.0
    return FeatureTable(
        features=tuple(keys[i] for i in by_key), global_lambda=global_lambda,
        window_years=window_years, origin_year=origin, n_windows=n_windows,
        doc_freq=doc_freq, first_seen=first_seen, lam=lam,
        window_counts=window_counts, rows=rows, cols=cols, counts=counts)


def _window(table: FeatureTable, w: int) -> np.ndarray:
    """Papers per feature in window w; 0 outside the table's windows."""
    if 0 <= w < table.n_windows:
        return table.window_counts[:, w]
    return np.zeros(len(table.features), dtype=np.int64)


def decay(ages: np.ndarray, rho: float) -> np.ndarray:
    """exp(-rho * age) per entry of ``ages``, with math.exp called once per
    distinct age; all ones at rho = 0, since exp(-0.0 * age) is 1.0."""
    return per_distinct(lambda age: math.exp(-rho * age), ages)


def innovativeness_at_window(table: FeatureTable, j: int, rho: float,
                             u: int = HyperParams.u) -> np.ndarray:
    """Burst score of every feature at window j, in column order: deviation
    from the Poisson mean, times discounted recent increments, times an age
    decay; clamped at 0.  A feature whose mean, or the global mean, is not
    positive scores 0.
    """
    lam_i, lam = table.lam, table.global_lambda
    x_j = _window(table, j)
    age_decay = decay((j - table.first_seen) * table.window_years, rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        lookback = np.zeros(len(table.features))
        for s in range(1, u + 1):
            lookback += ((x_j - _window(table, j - s)) / lam_i) * (1.0 / s)
        score = np.abs(x_j - lam_i) / lam * lookback * age_decay
    # -0.0 (first factor 0, lookback < 0) and nan both become +0.0
    return np.where((score > 0.0) & (lam_i > 0.0) & (lam > 0.0), score, 0.0)


def _idf(total: int, users: np.ndarray) -> np.ndarray:
    """ln(total / users) per feature, math.log once per distinct count."""
    return per_distinct(lambda u: math.log(total / u) if u else 0.0, users)


def idf_paper(corpus: Corpus, table: FeatureTable) -> np.ndarray:
    """ln(N / papers using the feature), per column."""
    return _idf(len(corpus.papers), table.doc_freq)


# (author, feature) keys per slice in ``idf_author``: at 1 << 20 the slice's
# arrays set the peak RSS of a 25k-paper ``rank`` (+20 MB); at 1 << 18 they
# fit in memory freed earlier, at no measurable cost in time
AUTHOR_SLICE_KEYS = 1 << 18


def idf_author(listings: SparseMatrix, table: FeatureTable) -> np.ndarray:
    """ln(M / authors using the feature), per column; an author uses every
    feature of every paper that lists it.

    The distinct (author, feature) keys are counted over L's entries, in
    (author, paper) order, in slices of whole authors, each about
    ``AUTHOR_SLICE_KEYS`` keys before deduplication, so the author x
    feature expansion never exists whole.
    """
    (m, n), k = listings.shape, len(table.features)
    author, paper = listings.rows, listings.cols
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


def write_feature_table(table: FeatureTable, path, rho: float,
                        u: int = HyperParams.u) -> None:
    """Snapshot the table as TSV: kind, terms, df, lambda, per-window counts
    and innovativeness at the latest window."""
    if u < 1:
        raise ValueError(f"u must be at least 1, got {u}")
    if not 0.0 <= rho < math.inf:
        raise ValueError(f"rho must be finite and >= 0, got {rho}")
    e = innovativeness_at_window(table, table.n_windows - 1, rho, u)
    # rows in (kind, word, word) order, which is not key order where one
    # word is a prefix of another: "p|ab|c" < "p|a|bc", but "ab" > "a"
    rows = sorted(zip([key.split("|") for key in table.features],
                      table.doc_freq.tolist(), table.first_seen.tolist(),
                      table.lam.tolist(), e.tolist(), table.window_counts.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# origin_year\t{table.origin_year}\twindow_years\t{table.window_years}"
                 f"\tn_windows\t{table.n_windows}\tglobal_lambda\t{table.global_lambda:.10g}\n")
        fh.write("kind\tterms\tdf\tfirst_seen\tlambda\tinnov\twindow_counts\n")
        for terms, df, first, lam, score, counts in rows:
            counts = ",".join(f"{w}:{n}" for w, n in enumerate(counts) if n)
            fh.write(f"{terms[0]}\t{' '.join(terms[1:])}\t{df}\t{first}"
                     f"\t{lam:.10g}\t{score:.10g}\t{counts}\n")
