"""Word and same-sentence word-pair features, windowed frequency histories,
burst-based innovativeness scores, idf weights and the one time decay."""

from __future__ import annotations

import math
import string
from array import array
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .config import FeatureConfig, HyperParams
from .corpus import Corpus
from .records import text_lines
from .sparse import (SparseMatrix, concat_ranges, distinct, interner,
                     pairs_within_groups, per_distinct)

# A piece is a run of letters and digits (a token) or one sentence
# terminator.  ``_BYTE_MAP`` keeps the bytes of [a-z0-9.] and _END, maps
# "!" and "?" to "." and every other byte to a space; every byte of a
# non-ASCII character is 0x80 or above, so such a character separates
# tokens.  _END ends every paper: no lowered text holds an ASCII capital.
_END = "Z"
_BYTE_MAP = bytes(b if chr(b) in string.ascii_lowercase + string.digits + "." + _END
                  else ord(".") if chr(b) in "!?" else ord(" ") for b in range(256))


def load_stopwords(path=None) -> frozenset[str]:
    """The lowered words of the list file at ``path``, one a line, or of
    the built-in list when no path is given; tokens are lowered before
    they are looked up, so ``The`` in the file drops ``the``."""
    lines = text_lines(path or resources.files("mrfrank.data") / "stopwords.txt")
    return frozenset(w.strip().lower() for w in lines if w.strip())


_DEFAULT_STOPWORDS = load_stopwords()

# Slice sizes: ``_tokenize`` splits runs of whole papers of about
# FEATURE_SLICE_PIECES characters, so of about as many pieces or fewer, at
# once; ``build_feature_table`` counts the (paper, feature) entries in
# slices of whole papers of about FEATURE_SLICE_PIECES pieces, and
# ``idf_author`` the distinct (author, feature) keys in slices of whole
# authors of about AUTHOR_SLICE_KEYS keys, so the temporaries of one slice
# bound the transient memory.  At 1 << 18 the author slices set the peak
# RSS of a 6k-paper ``rank`` once the feature table needed less; at 1 << 16
# they do not, and take the same time on a 100k-paper corpus.
FEATURE_SLICE_PIECES = 1 << 16
AUTHOR_SLICE_KEYS = 1 << 16


def _runs(ends: np.ndarray, bound: int):
    """(lo, hi) of consecutive runs of whole items, from the cumulative
    item sizes ``ends``: each run takes items until it holds ``bound`` or
    more, or the items run out."""
    lo = 0
    while lo < ends.size:
        start = int(ends[lo - 1]) if lo else 0
        hi = min(int(np.searchsorted(ends, start + bound)) + 1, ends.size)
        yield lo, hi
        lo = hi


def _tokenize(titles, abstracts, stopwords: frozenset[str]):
    """The kept words in lexicographic order, every paper's pieces in order
    as distinct-piece ids, each distinct piece's code, and each paper's
    piece count.

    A word's id is its position in the word list, so ids order like the
    words.  A paper's text is its lowered ``title + ". " + abstract`` and
    _END.  The texts of a run of whole papers (``_runs``) are joined,
    encoded and mapped by ``_BYTE_MAP`` at once; spaces around each "."
    make every terminator a piece, and one ``split`` gives the pieces.  A
    sentence ends at a terminator and at _END, so a run of terminators
    adds only empty sentences.  Each piece is looked up in one dict, so the
    word tests (2 characters or more, which no terminator and no _END is,
    and not a stopword) run once per distinct piece.
    """
    interned = interner()   # a new piece gets the next id
    interned[_END.encode()]   # id 0 ends each paper
    ids = array("q")
    size = (np.fromiter(map(len, titles), np.int64, len(titles))
            + np.fromiter(map(len, abstracts), np.int64, len(abstracts)))
    for lo, hi in _runs(np.cumsum(size), FEATURE_SLICE_PIECES):
        texts = map(str.lower, map(". ".join, zip(titles[lo:hi], abstracts[lo:hi])))
        text = f" {_END} ".join(texts) + f" {_END}"
        # a lone surrogate, which a JSON escape can give, encodes to bytes
        # of 0x80 and above too
        data = text.encode("utf-8", "surrogatepass").translate(_BYTE_MAP)
        ids.extend(map(interned.__getitem__, data.replace(b".", b" . ").split()))
    interned.default_factory = None   # frees the dict without the cycle collector
    strings = [s.decode() for s in interned]
    words = sorted(s for s in strings if len(s) >= 2 and s not in stopwords)
    word_id = dict(zip(words, range(len(words))))
    # per distinct piece: its word id, -1 for a terminator or _END, -2
    # otherwise
    code = np.array([word_id.get(s, -1 if s in (".", _END) else -2)
                     for s in strings], dtype=np.int64)
    pieces = np.frombuffer(ids, dtype=np.int64)
    return words, pieces, code, np.diff(np.flatnonzero(pieces == 0), prepend=-1)


def _occurrences(piece: np.ndarray, lengths: np.ndarray, n: int):
    """One (paper, feature id) pair per word occurrence and per sentence
    holding a pair of distinct words (a pair once per sentence), for a run
    of whole papers.

    ``piece`` holds the papers' piece codes, ``lengths`` each paper's piece
    count, and a paper is its position in the run.  For n words, the pair
    of words a < b has id ``n + a * n + b``.
    """
    paper = np.repeat(np.arange(lengths.size), lengths)
    # a sentence ends at a terminator and at the end of a paper
    sentence = np.cumsum(piece == -1) + paper
    paper_of = np.zeros(sentence[-1] + 1, dtype=np.int64)
    paper_of[sentence] = paper
    is_word = piece >= 0
    word, word_paper, word_sentence = piece[is_word], paper[is_word], sentence[is_word]
    # the distinct words of each sentence, ascending; each pairs with the
    # later ones of its sentence
    sentence, word_u = np.divmod(distinct(word_sentence * n + word), n)
    first, second = pairs_within_groups(sentence)
    return (np.concatenate([word_paper, paper_of[sentence[first]]]),
            np.concatenate([word, n + word_u[first] * n + word_u[second]]))


def _entries(piece: np.ndarray, lengths: np.ndarray, n: int):
    """The distinct (paper, feature) entries of a run of whole papers
    (``_occurrences``), in (paper, feature id) order: the number of entries
    of each paper, each entry's index into the run's distinct feature ids
    (ascending), those ids, and how often each entry occurs."""
    paper, feature = _occurrences(piece, lengths, n)
    # compact ids keep the (paper, feature) keys below papers * features
    raw, feature = np.unique(feature, return_inverse=True)
    keys, counts = np.unique(paper * raw.size + feature, return_counts=True)
    paper, feature = np.divmod(keys, raw.size)
    # an index and a count are both at most the run's occurrences, and a
    # run of 2**31 occurrences could not be held in memory; the ids stay
    # 64-bit, since a pair id reaches V + V**2 for V words
    return (np.bincount(paper, minlength=lengths.size), feature.astype(np.int32),
            raw, counts.astype(np.int32))


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
    from then on; key strings are built only for the retained features.
    The (paper, feature) entries are counted in slices of whole papers,
    each about ``FEATURE_SLICE_PIECES`` pieces, so the corpus-wide word and
    pair occurrences never exist at once.  One sort of the entries' ids
    gives the retained ids, with no array over every distinct id; a second
    pass writes each slice's retained entries into the table and drops the
    slice.  A feature's mean averages its frequencies from its first window
    to the latest window.
    """
    if not len(corpus):
        return FeatureTable((), 0.0, window_years, 0, 0)

    years = corpus.years
    origin = int(years.min())
    n_windows = (int(years.max()) - origin) // window_years + 1

    words, pieces, code, lengths = _tokenize(corpus.titles, corpus.abstracts, stopwords)
    n = len(words)
    # the entries of each slice of whole papers, as ``_entries`` returns them
    ends = np.cumsum(lengths)
    slices = [_entries(code[pieces[ends[lo] - lengths[lo]:ends[hi - 1]]], lengths[lo:hi], n)
              for lo, hi in _runs(ends, FEATURE_SLICE_PIECES)]
    del pieces
    # the retained ids, ascending, from one sort of the ids of all entries,
    # in place: a run of equal ids has min_df entries or more when its first
    # entry equals the entry min_df - 1 places later
    feature = np.concatenate([ids[index] for _, index, ids, _ in slices])
    feature.sort()
    head = feature[:max(feature.size - min_df + 1, 0)]
    retain = head == feature[min_df - 1:]
    retain[1:] &= head[1:] != head[:-1]
    kept = head[retain]
    k = kept.size
    total = int((np.searchsorted(feature, kept, side="right")
                 - np.searchsorted(feature, kept)).sum())
    del feature, head, retain

    # retained features become columns in key order
    keys = [f"w|{words[i]}" if i < n else f"p|{words[i // n - 1]}|{words[i % n]}"
            for i in kept.tolist()]
    by_key = sorted(range(k), key=keys.__getitem__)
    # each slice's ids are looked up by one searchsorted into the retained
    # ids, followed by an id above every feature id, which matches no entry
    bound = np.append(kept, n + n * n)
    col_of = np.full(k + 1, -1, dtype=np.int64)
    col_of[by_key] = np.arange(k)
    # each slice's retained entries in (row, col) order, after those of the
    # slices before it
    rows, cols = np.empty(total, dtype=np.int64), np.empty(total, dtype=np.int64)
    counts = np.empty(total)
    lo = at = 0
    for i, (per_paper, index, ids, count) in enumerate(slices):
        slices[i] = None
        pos = np.searchsorted(bound, ids)
        col = np.where(bound[pos] == ids, col_of[pos], -1)[index]
        keep = np.flatnonzero(col >= 0)
        paper = np.repeat(np.arange(lo, lo + per_paper.size), per_paper)[keep]
        lo += per_paper.size
        col, count = col[keep], count[keep]
        order = np.argsort(paper * k + col)
        end = at + keep.size
        rows[at:end], cols[at:end], counts[at:end] = paper[order], col[order], count[order]
        at = end

    # papers per (column, window)
    window = (years - origin) // window_years
    window_counts = np.bincount(cols * n_windows + window[rows],
                                minlength=k * n_windows).reshape(k, n_windows)
    first_seen = np.argmax(window_counts > 0, axis=1)
    doc_freq = window_counts.sum(axis=1)
    lam = doc_freq / (n_windows - first_seen)
    # the mean of the means, added in (kind, word, word) order, pairs (ids
    # from V on) before words: the order fixes the bits of the sum, and
    # with them every score
    by_kind = np.roll(lam[col_of[:k]], -int(np.searchsorted(kept, n)))
    global_lambda = sum(by_kind.tolist()) / k if k else 0.0
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
    # the keys before each entry of L, and L's entries before each author
    before = np.append(0, np.cumsum(lengths))
    first = np.searchsorted(author, np.arange(m + 1))
    users = np.zeros(k, dtype=np.int64)
    for a, b in _runs(before[first[1:]], AUTHOR_SLICE_KEYS):
        lo, hi = first[a], first[b]
        entries = concat_ranges(starts[lo:hi], lengths[lo:hi])
        keys = distinct(np.repeat(author[lo:hi], lengths[lo:hi]) * k + table.cols[entries])
        users += np.bincount(keys % k, minlength=k)
    return _idf(m, users)


def write_feature_table(table: FeatureTable, path, rho: float,
                        u: int = HyperParams.u) -> None:
    """Snapshot the table as TSV: kind, terms, df, lambda, per-window counts
    and innovativeness at the latest window."""
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
