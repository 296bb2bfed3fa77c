"""Bibliographic corpus parsing, preprocessing filters and ground-truth split.

The native corpus format is JSON lines: one object per paper with keys
``id``, ``title``, ``abstract``, ``authors``, ``year``, ``venue``, ``refs``.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from itertools import chain

import numpy as np

log = logging.getLogger(__name__)


class DataError(Exception):
    """Unrecoverable problem in the input data (e.g. duplicate paper id)."""


# a year outside this range is malformed, so year arithmetic on the int64
# years array cannot overflow
_YEAR_MIN, _YEAR_MAX = -(2**31), 2**31 - 1
_STR = frozenset({str})


@dataclass(frozen=True)
class PaperRecord:
    paper_id: str
    title: str
    abstract: str
    author_ids: tuple[str, ...]
    year: int
    venue: str
    references: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class Corpus:
    """Papers keyed by id and author ids, both in sorted id order.  A
    paper's or an author's position is its index in that order; the arrays
    refer to papers and authors by position."""

    papers: dict[str, PaperRecord]
    authors: tuple[str, ...]
    # E x 2 (citing, cited) positions, deduplicated, grouped by citing
    # paper in the order of its references
    citation_edges: np.ndarray
    years: np.ndarray            # N publication years
    first_year: np.ndarray       # M first publication years of the authors
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
        ids = list(self.papers)
        papers = {ids[i]: self.papers[ids[i]] for i in np.flatnonzero(keep).tolist()}
        edges = self.citation_edges[keep[self.citation_edges].all(axis=1)]
        listed = keep[self.listing_papers]
        return _corpus(papers, self.years[keep], new_pos[edges],
                       new_pos[self.listing_papers[listed]],
                       self.listing_authors[listed], self.authors)

    def sum_over_authors(self, per_paper: np.ndarray) -> np.ndarray:
        """Per author, the sum of ``per_paper`` over the author's listings."""
        return np.bincount(self.listing_authors, weights=per_paper[self.listing_papers],
                           minlength=len(self.authors))


def _corpus(papers: dict[str, PaperRecord], years: np.ndarray, edges: np.ndarray,
            listing_papers: np.ndarray, listing_authors: np.ndarray,
            author_ids: list[str] | tuple[str, ...]) -> Corpus:
    """A Corpus over ``papers`` (sorted by id), keeping the authors of
    ``author_ids`` (sorted) that some listing names, renumbered in order."""
    listed = np.zeros(len(author_ids), dtype=bool)
    listed[listing_authors] = True
    listing_authors = (np.cumsum(listed) - 1)[listing_authors]
    first = np.full(int(listed.sum()), np.iinfo(np.int64).max)
    np.minimum.at(first, listing_authors, years[listing_papers])
    authors = tuple(author_ids[i] for i in np.flatnonzero(listed).tolist())
    return Corpus(papers=papers, authors=authors, citation_edges=edges, years=years,
                  first_year=first, listing_papers=listing_papers,
                  listing_authors=listing_authors)


@dataclass
class ParseReport:
    parsed: int = 0
    skipped_malformed: int = 0
    dangling_references: int = 0

    def lines(self) -> list[str]:
        return [
            f"parsed_papers\t{self.parsed}",
            f"skipped_malformed\t{self.skipped_malformed}",
            f"dangling_references\t{self.dangling_references}",
        ]


@dataclass
class PreprocessConfig:
    min_year: int = 1990
    require_abstract: bool = False
    # case-insensitive substrings matched anywhere in the title
    survey_substrings: tuple[str, ...] = ("survey", "a review of")
    # case-insensitive prefixes matched at the start of the title
    proceedings_prefixes: tuple[str, ...] = ("proceedings of", "workshop on")


@dataclass
class FilterReport:
    input_papers: int = 0
    removed_survey: int = 0
    removed_year: int = 0
    removed_no_abstract: int = 0
    removed_isolated: int = 0
    remaining: int = 0

    def lines(self) -> list[str]:
        return [
            f"input_papers\t{self.input_papers}",
            f"removed_survey\t{self.removed_survey}",
            f"removed_year\t{self.removed_year}",
            f"removed_no_abstract\t{self.removed_no_abstract}",
            f"removed_isolated\t{self.removed_isolated}",
            f"remaining\t{self.remaining}",
        ]


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
    """Parse an iterable of raw record dicts into a Corpus.

    A record ``malformed_reason`` rejects is skipped, counted and logged
    with its position; a None record (a line ``read_native`` could not
    decode, and reported) is skipped and counted.  A duplicate paper id is
    a hard error.  Self-references and repeated references are dropped;
    references to unknown ids are dropped and counted as dangling.
    """
    report = ParseReport()
    raw: dict[str, dict] = {}
    for lineno, rec in enumerate(record_stream, start=1):
        reason = "" if rec is None else malformed_reason(rec)
        if reason is not None:
            report.skipped_malformed += 1
            if reason:   # None records were reported by read_native
                log.warning("record %d skipped: %s", lineno, reason)
            continue
        pid = rec["id"]
        if pid in raw:
            raise DataError(f"duplicate paper id {pid!r} at record {lineno}")
        raw[pid] = rec
        report.parsed += 1

    pos = {pid: i for i, pid in enumerate(sorted(raw))}
    papers: dict[str, PaperRecord] = {}
    for pid in pos:
        rec = raw[pid]
        refs = dict.fromkeys(rec.get("refs") or ())
        refs.pop(pid, None)
        kept = tuple(filter(pos.__contains__, refs))
        report.dangling_references += len(refs) - len(kept)
        papers[pid] = PaperRecord(
            paper_id=pid,
            title=rec.get("title") or "",
            abstract=rec.get("abstract") or "",
            author_ids=tuple(rec.get("authors") or ()),
            year=rec["year"],
            venue=rec.get("venue") or "",
            references=kept,
        )

    records = papers.values()
    author_ids = sorted({a for p in records for a in p.author_ids})
    apos = {a: i for i, a in enumerate(author_ids)}
    cited = _positions(pos, chain.from_iterable(p.references for p in records))
    citing = np.repeat(np.arange(len(papers)), [len(p.references) for p in records])
    listing_authors = _positions(apos,
                                 chain.from_iterable(p.author_ids for p in records))
    listing_papers = np.repeat(np.arange(len(papers)),
                               [len(p.author_ids) for p in records])
    years = np.array([p.year for p in records], dtype=np.int64)
    return _corpus(papers, years, np.stack([citing, cited], axis=1),
                   listing_papers, listing_authors, author_ids), report


def _positions(pos: dict[str, int], ids) -> np.ndarray:
    return np.fromiter(map(pos.__getitem__, ids), dtype=np.int64)


def _title_matches(title: str, cfg: PreprocessConfig) -> bool:
    t = title.lower()
    if any(s in t for s in cfg.survey_substrings):
        return True
    return any(t.startswith(p) for p in cfg.proceedings_prefixes)


def preprocess(corpus: Corpus, cfg: PreprocessConfig) -> tuple[Corpus, FilterReport]:
    """Apply the corpus filters: survey titles, year floor, missing abstract,
    then citation isolation."""
    report = FilterReport(input_papers=len(corpus))
    records = corpus.papers.values()
    survey = np.array([_title_matches(p.title, cfg) for p in records], dtype=bool)
    early = ~survey & (corpus.years < cfg.min_year)
    keep = ~survey & ~early
    report.removed_survey = int(survey.sum())
    report.removed_year = int(early.sum())
    if cfg.require_abstract:
        blank = keep & np.array([not p.abstract.strip() for p in records], dtype=bool)
        keep &= ~blank
        report.removed_no_abstract = int(blank.sum())

    # isolation filter: a kept paper no citation among the kept papers
    # touches is removed.  One pass reaches the fixpoint, because removing
    # such papers removes no citation between the others.
    citing, cited = corpus.citation_edges[keep[corpus.citation_edges].all(axis=1)].T
    linked = np.zeros(len(corpus), dtype=bool)
    linked[citing] = True
    linked[cited] = True
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


def read_native(path) -> list[dict | None]:
    """Read native JSON-lines corpus records.  A line that is not UTF-8
    JSON is logged with its line number and read as None, which
    ``parse_corpus`` counts as malformed."""
    records = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line.decode("utf-8")))
                continue
            except UnicodeDecodeError as exc:
                reason = f"not UTF-8 ({exc.reason} at byte {exc.start + 1})"
            except json.JSONDecodeError as exc:
                reason = f"not JSON ({exc.msg} at column {exc.colno})"
            log.warning("%s line %d skipped: %s", path, lineno, reason)
            records.append(None)
    return records


def write_native(corpus: Corpus, path) -> None:
    """Write a corpus back out as sorted JSON lines (stable bytes)."""
    with open(path, "w", encoding="utf-8") as fh:
        for pid in sorted(corpus.papers):
            p = corpus.papers[pid]
            fh.write(json.dumps({
                "id": p.paper_id, "title": p.title, "abstract": p.abstract,
                "authors": list(p.author_ids), "year": p.year, "venue": p.venue,
                "refs": list(p.references),
            }, sort_keys=True, ensure_ascii=False) + "\n")


def convert_arnetminer(lines) -> list[dict]:
    """Convert ArnetMiner flat-text records to native record dicts.

    Markers: ``#*`` title, ``#@`` authors (``;`` separated), ``#t`` year,
    ``#c`` venue, ``#index`` id, ``#%`` reference (repeated), ``#!`` abstract.
    Records are separated by blank lines.
    """
    records = []
    cur: dict = {}

    def flush():
        if cur:
            records.append({
                "id": cur.get("id", ""),
                "title": cur.get("title", ""),
                "abstract": cur.get("abstract", ""),
                "authors": cur.get("authors", []),
                "year": cur.get("year"),
                "venue": cur.get("venue", ""),
                "refs": cur.get("refs", []),
            })

    for line in lines:
        line = line.rstrip("\n")
        if not line.strip():
            flush()
            cur = {}
        elif line.startswith("#index"):
            cur["id"] = line[6:].strip()
        elif line.startswith("#*"):
            cur["title"] = line[2:].strip()
        elif line.startswith("#@"):
            cur["authors"] = [a.strip() for a in line[2:].split(";") if a.strip()]
        elif line.startswith("#t"):
            try:
                cur["year"] = int(line[2:].strip())
            except ValueError:
                cur["year"] = None
        elif line.startswith("#c"):
            cur["venue"] = line[2:].strip()
        elif line.startswith("#%"):
            cur.setdefault("refs", []).append(line[2:].strip())
        elif line.startswith("#!"):
            cur["abstract"] = line[2:].strip()
    flush()
    return records
