"""Bibliographic corpus parsing, preprocessing filters and ground-truth split.

The native corpus format is JSON lines: one object per paper with keys
``id``, ``title``, ``abstract``, ``authors``, ``year``, ``venue``, ``refs``.
``records.read_native`` and ``records.read_arnetminer`` yield the records of
a file one at a time and ``parse_corpus`` takes them into columns.
"""

from __future__ import annotations

import json
import logging
from array import array
from dataclasses import dataclass, fields

import numpy as np

from .config import PreprocessConfig
from .records import DataError
from .sparse import concat_ranges, interner

log = logging.getLogger(__name__)


# a year outside this range is malformed, so year arithmetic on the int64
# years array cannot overflow
_YEAR_MIN, _YEAR_MAX = -(2**31), 2**31 - 1
_STR = frozenset({str})


@dataclass(frozen=True, eq=False)
class Corpus:
    """Per-paper columns in sorted paper id order, and the author ids,
    sorted.  A paper's or an author's position is its index in that order;
    the arrays refer to papers and authors by position."""

    papers: np.ndarray           # N paper ids (objects), sorted
    titles: np.ndarray           # N titles (objects)
    abstracts: np.ndarray        # N abstracts (objects)
    venues: np.ndarray           # N venues (objects)
    years: np.ndarray            # N publication years
    authors: tuple[str, ...]
    first_year: np.ndarray       # M first publication years of the authors
    # E x 2 (citing, cited) positions, deduplicated, grouped by citing
    # paper in the order of its references
    citation_edges: np.ndarray
    # one (paper, author) pair per listing, grouped by paper in the order of
    # its author list; an author listed twice on a paper gives two listings
    listing_papers: np.ndarray
    listing_authors: np.ndarray

    def __len__(self) -> int:
        return len(self.papers)

    def subset(self, keep: np.ndarray) -> "Corpus":
        """The papers where the boolean mask ``keep`` is true, with the
        citations and listings among them.  Authors and their first
        publication years are derived again from the kept listings."""
        new_pos = np.cumsum(keep) - 1
        citing, cited = self.citation_edges.T
        edges = np.compress(keep[citing] & keep[cited], self.citation_edges, axis=0)
        listed = keep[self.listing_papers]
        return _corpus({c: getattr(self, c)[keep] for c in _COLUMNS}, new_pos[edges],
                       new_pos[self.listing_papers[listed]],
                       self.listing_authors[listed], self.authors)

    def sum_over_authors(self, per_paper: np.ndarray) -> np.ndarray:
        """Per author, the sum of ``per_paper`` over the author's listings."""
        return np.bincount(self.listing_authors, weights=per_paper[self.listing_papers],
                           minlength=len(self.authors))


# the per-paper columns of a Corpus
_COLUMNS = ("papers", "titles", "abstracts", "venues", "years")


def _corpus(columns: dict[str, np.ndarray], edges: np.ndarray,
            listing_papers: np.ndarray, listing_authors: np.ndarray,
            author_ids: list[str] | tuple[str, ...]) -> Corpus:
    """A Corpus over the paper ``columns`` (sorted by id), keeping the
    authors of ``author_ids`` (sorted) that some listing names, renumbered
    in order."""
    listed = np.zeros(len(author_ids), dtype=bool)
    listed[listing_authors] = True
    listing_authors = (np.cumsum(listed) - 1)[listing_authors]
    first = np.full(int(listed.sum()), np.iinfo(np.int64).max)
    np.minimum.at(first, listing_authors, columns["years"][listing_papers])
    authors = tuple(author_ids[i] for i in np.flatnonzero(listed).tolist())
    return Corpus(**columns, authors=authors, first_year=first, citation_edges=edges,
                  listing_papers=listing_papers, listing_authors=listing_authors)


class _Counts:
    def lines(self) -> list[str]:
        """One ``name<TAB>count`` line per field, in field order."""
        return [f"{f.name}\t{getattr(self, f.name)}" for f in fields(self)]


@dataclass
class ParseReport(_Counts):
    parsed_papers: int = 0
    skipped_malformed: int = 0
    dangling_references: int = 0


@dataclass
class FilterReport(_Counts):
    input_papers: int = 0
    removed_survey: int = 0
    removed_year: int = 0
    removed_no_abstract: int = 0
    removed_isolated: int = 0
    remaining: int = 0


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Citations from papers in (cutoff, horizon], by position in the
    ranked sub-corpus: per paper, and per author summed over the author's
    listings."""

    papers: np.ndarray
    authors: np.ndarray


def malformed_reason(rec) -> str | None:
    """Why a raw record cannot become a paper, or None when it can.

    ``id`` must be a non-empty string and ``year`` an integer (not a bool);
    ``authors`` and ``refs`` are lists of strings and ``title``,
    ``abstract`` and ``venue`` strings, each of the five optional (missing
    or null means empty).
    """
    if not isinstance(rec, dict):
        return "not a JSON object"
    pid, year = rec.get("id"), rec.get("year")
    if not pid or year is None:
        return "missing id or year"
    if not isinstance(pid, str):
        return "id is not a string"
    if type(year) is not int or not _YEAR_MIN <= year <= _YEAR_MAX:
        return f"year is not an integer in [{_YEAR_MIN}, {_YEAR_MAX}]"
    for key in ("authors", "refs"):
        v = rec.get(key)
        if v is not None and not (isinstance(v, list) and _STR.issuperset(map(type, v))):
            return f"{key} is not a list of strings"
    for key in ("title", "abstract", "venue"):
        if rec.get(key) is not None and not isinstance(rec[key], str):
            return f"{key} is not a string"
    return None


def parse_corpus(record_stream) -> tuple[Corpus, ParseReport]:
    """Parse an iterable of raw record dicts into a Corpus, in one pass
    that keeps no record.

    A record ``malformed_reason`` rejects is skipped, counted and logged
    with its position; a None record (a line ``read_native`` could not
    decode, and reported) is skipped and counted.  A duplicate paper id is
    a hard error.  Self-references and repeated references are dropped;
    references to unknown ids are dropped and counted as dangling, once
    per record however often it lists them.

    Paper ids and references are interned to int keys in one dict, author
    ids in another, and each record leaves only its fields in flat columns
    in file order, its references as listed.  After the pass, one numpy
    pass over the (own key, reference key) pairs drops self-references
    and repeats, keeping each pair's first occurrence in file order; then
    the keys are mapped once to positions in sorted id order, -1 for an id
    no paper has.
    """
    report = ParseReport()
    key, author_key = interner(), interner()
    parsed: set[int] = set()     # the keys of the papers so far
    # per-record numbers go into arrays, which hold no int objects, so none
    # outlives its record; the key lists hold only the interners' own ints
    own, years, ref_ends, author_ends = (array("q") for _ in range(4))
    ref_keys, author_keys = [], []
    titles, abstracts, venues = [], [], []
    lineno = 0   # not enumerate: its reused result tuple would keep the last record
    for rec in record_stream:
        lineno += 1
        reason = "" if rec is None else malformed_reason(rec)
        if reason is not None:
            report.skipped_malformed += 1
            if reason:   # None records were reported by read_native
                log.warning("record %d skipped: %s", lineno, reason)
        else:
            pid = rec["id"]
            k = key[pid]
            if k in parsed:
                raise DataError(f"duplicate paper id {pid!r} at record {lineno}")
            parsed.add(k)
            own.append(k)
            ref_keys += map(key.__getitem__, rec.get("refs") or ())
            ref_ends.append(len(ref_keys))
            author_keys += map(author_key.__getitem__, rec.get("authors") or ())
            author_ends.append(len(author_keys))
            years.append(rec["year"])
            titles.append(rec.get("title") or "")
            abstracts.append(rec.get("abstract") or "")
            venues.append(rec.get("venue") or "")
        del rec   # a record dies before the next one is read
    report.parsed_papers = len(own)

    key.default_factory = author_key.default_factory = None   # frees the dicts
    strings, names = list(key), list(author_key)              # in key order
    own = np.frombuffer(own, dtype=np.int64)
    # each key list is freed as its array takes its name
    ref_keys, ref_lengths = _int64(ref_keys), _lengths(ref_ends)
    del ref_ends
    ref_keys, ref_lengths = _first_references(ref_keys, ref_lengths, own, len(strings))

    # order[i]: the file index of the paper at position i
    pids = [strings[k] for k in own.tolist()]
    order = np.array(sorted(range(len(pids)), key=pids.__getitem__), dtype=np.int64)
    pos = np.full(len(strings), -1, dtype=np.int64)
    pos[own[order]] = np.arange(order.size)
    citing, cited = _regroup(ref_keys, ref_lengths, order)
    del ref_keys, ref_lengths
    cited = pos[cited]
    resolved = cited >= 0
    report.dangling_references = int(resolved.size - np.count_nonzero(resolved))

    by_name = sorted(range(len(names)), key=names.__getitem__)
    author_pos = np.empty(len(names), dtype=np.int64)
    author_pos[by_name] = np.arange(len(names))
    author_keys, author_lengths = _int64(author_keys), _lengths(author_ends)
    del author_ends
    listing_papers, listing_authors = _regroup(author_keys, author_lengths, order)
    del author_keys, author_lengths

    columns = {c: np.array(v, dtype=object)[order] for c, v in
               (("papers", pids), ("titles", titles), ("abstracts", abstracts),
                ("venues", venues))}
    columns["years"] = np.frombuffer(years, dtype=np.int64)[order]
    return _corpus(columns, np.stack([citing[resolved], cited[resolved]], axis=1),
                   listing_papers, author_pos[listing_authors],
                   [names[i] for i in by_name]), report


def _int64(values: list[int]) -> np.ndarray:
    return np.fromiter(values, dtype=np.int64, count=len(values))


def _lengths(ends: array) -> np.ndarray:
    """The lengths of the runs that end at ``ends``."""
    return np.diff(np.frombuffer(ends, dtype=np.int64), prepend=0)


def _first_references(keys: np.ndarray, lengths: np.ndarray, own: np.ndarray,
                      n_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """The per-record runs of reference ``keys`` (of ``lengths``) without
    the record's own key ``own`` and without repeats, keeping each first
    occurrence in file order, and the new run lengths."""
    record = np.repeat(np.arange(lengths.size), lengths)
    keep = keys != own[record]
    # a stable sort of a key that orders as (record, reference): each run
    # of equal pairs starts with the pair's first occurrence
    pair = record * n_keys + keys
    order = np.argsort(pair, kind="stable")
    pair = pair[order]
    keep[order[1:][pair[1:] == pair[:-1]]] = False
    del pair, order
    return keys[keep], np.bincount(record[keep], minlength=lengths.size)


def _regroup(keys: np.ndarray, lengths: np.ndarray, order: np.ndarray):
    """The runs of ``keys`` of ``lengths``, one per record in file order,
    taken in the record order ``order``: the position in ``order`` of each
    entry's record, and the entry's key."""
    starts = (np.cumsum(lengths) - lengths)[order]
    lengths = lengths[order]
    return np.repeat(np.arange(order.size), lengths), keys[concat_ranges(starts, lengths)]


def _title_matches(titles: np.ndarray, cfg: PreprocessConfig) -> np.ndarray:
    """Per title, whether it holds a survey substring or starts with a
    proceedings prefix, ignoring case."""
    substrings = [s.lower() for s in cfg.survey_substrings]
    prefixes = tuple(p.lower() for p in cfg.proceedings_prefixes)
    return np.fromiter((any(s in t for s in substrings) or t.startswith(prefixes)
                        for t in map(str.lower, titles)), dtype=bool, count=len(titles))


def preprocess(corpus: Corpus, cfg: PreprocessConfig) -> tuple[Corpus, FilterReport]:
    """Apply the corpus filters: survey titles, year floor, missing abstract,
    then citation isolation."""
    report = FilterReport(input_papers=len(corpus))
    survey = _title_matches(corpus.titles, cfg)
    early = ~survey & (corpus.years < cfg.min_year)
    keep = ~survey & ~early
    report.removed_survey = int(survey.sum())
    report.removed_year = int(early.sum())
    if cfg.require_abstract:
        blank = keep & np.fromiter((not a.strip() for a in corpus.abstracts),
                                   dtype=bool, count=len(corpus))
        keep &= ~blank
        report.removed_no_abstract = int(blank.sum())

    # isolation filter: a kept paper no citation among the kept papers
    # touches is removed.  One pass reaches the fixpoint, because removing
    # such papers removes no citation between the others.
    citing, cited = corpus.citation_edges.T
    kept = keep[citing] & keep[cited]
    linked = np.zeros(len(corpus), dtype=bool)
    linked[citing[kept]] = True
    linked[cited[kept]] = True
    report.removed_isolated = int((keep & ~linked).sum())
    keep &= linked

    report.remaining = int(keep.sum())
    return corpus.subset(keep), report


def split_ground_truth(corpus: Corpus, cutoff_year: int,
                       horizon_year: int) -> tuple[Corpus, GroundTruth]:
    """Split at cutoff: ranking sub-corpus (year <= cutoff) plus future
    citation counts from papers in (cutoff, horizon]."""
    if cutoff_year >= horizon_year:
        raise ValueError(f"cutoff_year {cutoff_year} must be < horizon_year {horizon_year}")

    pre = corpus.years <= cutoff_year
    citing, cited = corpus.citation_edges.T
    year = corpus.years[citing]
    future = (cutoff_year < year) & (year <= horizon_year)
    paper_future = np.bincount(cited[future], minlength=len(corpus))[pre]
    sub = corpus.subset(pre)
    author_future = sub.sum_over_authors(paper_future).astype(np.int64)
    return sub, GroundTruth(papers=paper_future, authors=author_future)


def write_native(corpus: Corpus, path) -> None:
    """Write a corpus back out as JSON lines in id order (stable bytes).  A
    paper's refs are the papers its citation edges reach and its authors
    those of its listings, both in their order in the corpus."""
    ids = corpus.papers.tolist()
    citing, cited = corpus.citation_edges.T
    refs = _runs([ids[j] for j in cited.tolist()], citing, len(ids))
    authors = _runs([corpus.authors[a] for a in corpus.listing_authors.tolist()],
                    corpus.listing_papers, len(ids))
    with open(path, "w", encoding="utf-8") as fh:
        for pid, title, abstract, venue, year, r, a in zip(
                ids, corpus.titles, corpus.abstracts, corpus.venues,
                corpus.years.tolist(), refs, authors):
            fh.write(json.dumps({
                "id": pid, "title": title, "abstract": abstract, "authors": a,
                "year": year, "venue": venue, "refs": r,
            }, sort_keys=True, ensure_ascii=False) + "\n")


def _runs(values: list, groups: np.ndarray, n: int) -> list[list]:
    """``values`` cut into ``n`` runs, the run of each value given by
    ``groups`` (ascending)."""
    ends = np.cumsum(np.bincount(groups, minlength=n)).tolist()
    return [values[s:e] for s, e in zip([0] + ends, ends)]
