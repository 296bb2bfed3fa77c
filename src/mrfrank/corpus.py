"""Bibliographic corpus parsing, preprocessing filters and ground-truth split.

The native corpus format is JSON lines: one object per paper with keys
``id``, ``title``, ``abstract``, ``authors``, ``year``, ``venue``, ``refs``.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace

import numpy as np

log = logging.getLogger(__name__)


class DataError(Exception):
    """Unrecoverable problem in the input data (e.g. duplicate paper id)."""


@dataclass(frozen=True)
class PaperRecord:
    paper_id: str
    title: str
    abstract: str
    author_ids: tuple[str, ...]
    year: int
    venue: str
    references: tuple[str, ...]


@dataclass(frozen=True)
class AuthorRecord:
    author_id: str
    name: str
    first_pub_year: int


@dataclass(frozen=True)
class Corpus:
    papers: dict[str, PaperRecord]
    authors: dict[str, AuthorRecord]
    # (citing_id, cited_id, citing_year), deduplicated
    citation_edges: tuple[tuple[str, str, int], ...]

    def __len__(self) -> int:
        return len(self.papers)


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


@dataclass(frozen=True)
class GroundTruth:
    cutoff_year: int
    horizon_year: int
    paper_future_citations: dict[str, int]
    author_future_citations: dict[str, int]


def _derive_authors(papers: dict[str, PaperRecord]) -> dict[str, AuthorRecord]:
    first: dict[str, int] = {}
    for p in papers.values():
        for a in p.author_ids:
            y = first.get(a)
            if y is None or p.year < y:
                first[a] = p.year
    return {a: AuthorRecord(a, a, y) for a, y in sorted(first.items())}


def _assemble(papers: dict[str, PaperRecord]) -> Corpus:
    """Rebuild derived structures (authors, edge list) from a paper map."""
    edges = []
    for pid in sorted(papers):
        p = papers[pid]
        for ref in p.references:
            if ref in papers:
                edges.append((pid, ref, p.year))
    return Corpus(papers=dict(sorted(papers.items())),
                  authors=_derive_authors(papers),
                  citation_edges=tuple(edges))


def parse_corpus(record_stream) -> tuple[Corpus, ParseReport]:
    """Parse an iterable of raw record dicts into a Corpus.

    Records missing ``id`` or ``year`` are skipped and logged with their
    position; a duplicate paper id is a hard error.  References to unknown
    ids and self-references are dropped (counted as dangling).
    """
    report = ParseReport()
    raw: dict[str, dict] = {}
    for lineno, rec in enumerate(record_stream, start=1):
        pid = rec.get("id")
        year = rec.get("year")
        if not pid or not isinstance(year, int):
            report.skipped_malformed += 1
            log.warning("record %d skipped: missing id or year", lineno)
            continue
        if pid in raw:
            raise DataError(f"duplicate paper id {pid!r} at record {lineno}")
        raw[pid] = rec
        report.parsed += 1

    papers: dict[str, PaperRecord] = {}
    for pid in sorted(raw):
        rec = raw[pid]
        refs = []
        seen = set()
        for ref in rec.get("refs", []):
            if ref == pid or ref in seen:
                continue
            seen.add(ref)
            if ref not in raw:
                report.dangling_references += 1
                continue
            refs.append(ref)
        papers[pid] = PaperRecord(
            paper_id=pid,
            title=rec.get("title", ""),
            abstract=rec.get("abstract", "") or "",
            author_ids=tuple(rec.get("authors", [])),
            year=rec["year"],
            venue=rec.get("venue", "") or "",
            references=tuple(refs),
        )
    return _assemble(papers), report


def _title_matches(title: str, cfg: PreprocessConfig) -> bool:
    t = title.lower()
    if any(s in t for s in cfg.survey_substrings):
        return True
    return any(t.startswith(p) for p in cfg.proceedings_prefixes)


def preprocess(corpus: Corpus, cfg: PreprocessConfig) -> tuple[Corpus, FilterReport]:
    """Apply the corpus filters: survey titles, year floor, missing abstract,
    then citation isolation run to fixpoint."""
    report = FilterReport(input_papers=len(corpus.papers))
    papers = dict(corpus.papers)

    for pid in list(papers):
        if _title_matches(papers[pid].title, cfg):
            del papers[pid]
            report.removed_survey += 1
    for pid in list(papers):
        if papers[pid].year < cfg.min_year:
            del papers[pid]
            report.removed_year += 1
    if cfg.require_abstract:
        for pid in list(papers):
            if not papers[pid].abstract.strip():
                del papers[pid]
                report.removed_no_abstract += 1

    # isolation filter to fixpoint: removals may isolate further papers
    while True:
        cited: set[str] = set()
        citing: set[str] = set()
        for pid, p in papers.items():
            for ref in p.references:
                if ref in papers:
                    citing.add(pid)
                    cited.add(ref)
        isolated = [pid for pid in papers if pid not in citing and pid not in cited]
        if not isolated:
            break
        for pid in isolated:
            del papers[pid]
            report.removed_isolated += 1

    report.remaining = len(papers)
    return _assemble(papers), report


def author_listings(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """Every (paper, author) listing as two position arrays, papers in
    sorted id order and authors in sorted id order, grouped by paper.  An
    author listed twice on one paper gives two listings."""
    author_pos = {a: i for i, a in enumerate(sorted(corpus.authors))}
    papers = [corpus.papers[pid] for pid in sorted(corpus.papers)]
    authors = np.fromiter((author_pos[a] for p in papers for a in p.author_ids),
                          dtype=np.int64)
    rows = np.repeat(np.arange(len(papers)), [len(p.author_ids) for p in papers])
    return rows, authors


def split_ground_truth(corpus: Corpus, cutoff_year: int,
                       horizon_year: int) -> tuple[Corpus, GroundTruth]:
    """Split at cutoff: ranking sub-corpus (year <= cutoff) plus future
    citation counts from papers in (cutoff, horizon]."""
    if cutoff_year >= horizon_year:
        raise ValueError(f"cutoff_year {cutoff_year} must be < horizon_year {horizon_year}")

    pre = {pid: p for pid, p in corpus.papers.items() if p.year <= cutoff_year}
    paper_future = {pid: 0 for pid in pre}
    for citing, cited, year in corpus.citation_edges:
        if cutoff_year < year <= horizon_year and cited in pre:
            paper_future[cited] += 1

    sub = _assemble(pre)
    author_future = {a: 0 for a in sub.authors}
    for pid, count in paper_future.items():
        for a in pre[pid].author_ids:
            author_future[a] += count

    gt = GroundTruth(cutoff_year=cutoff_year, horizon_year=horizon_year,
                     paper_future_citations=paper_future,
                     author_future_citations=author_future)
    return sub, gt


def read_native(path) -> list[dict]:
    """Read native JSON-lines corpus records."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
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
