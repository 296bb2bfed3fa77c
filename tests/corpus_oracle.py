"""Dict-based reference implementation of the corpus front half.

``mrfrank.corpus`` carries the citation graph as position arrays; this
module keeps the straightforward version built on dicts and tuples of
``(citing_id, cited_id, citing_year)`` string edges, so tests can check
that the array path computes exactly the same corpora, reports, ground
truth and citation counts.  It applies the same record rules as
``parse_corpus`` (``malformed_reason``) but none of its array code.  Its
evaluation half works on id sets and id lists, with a key sort for every
order, where ``mrfrank.evaluate`` works on position arrays.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

from mrfrank.config import PreprocessConfig
from mrfrank.corpus import FilterReport, ParseReport, malformed_reason
from mrfrank.records import DataError
from mrfrank.evaluate import ri_item

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PaperRecord:
    paper_id: str
    title: str
    abstract: str
    author_ids: tuple[str, ...]
    year: int
    venue: str
    references: tuple[str, ...]


def records(corpus) -> dict[str, PaperRecord]:
    """The papers of an array ``Corpus`` as records keyed by id, in position
    order: the references from its citation edges, the authors from its
    listings."""
    ids = corpus.papers.tolist()
    refs: list[list[str]] = [[] for _ in ids]
    authors: list[list[str]] = [[] for _ in ids]
    for citing, cited in corpus.citation_edges.tolist():
        refs[citing].append(ids[cited])
    for paper, author in zip(corpus.listing_papers.tolist(),
                             corpus.listing_authors.tolist()):
        authors[paper].append(corpus.authors[author])
    return {pid: PaperRecord(pid, title, abstract, tuple(a), year, venue, tuple(r))
            for pid, title, abstract, a, year, venue, r in zip(
                ids, corpus.titles, corpus.abstracts, authors, corpus.years.tolist(),
                corpus.venues, refs)}


@dataclass(frozen=True)
class OracleCorpus:
    papers: dict[str, PaperRecord]
    authors: dict[str, int]      # author id -> first publication year
    # (citing_id, cited_id, citing_year), in citing id order, then in the
    # citing paper's reference order
    citation_edges: tuple[tuple[str, str, int], ...]


def _derive_authors(papers: dict[str, PaperRecord]) -> dict[str, int]:
    first: dict[str, int] = {}
    for p in papers.values():
        for a in p.author_ids:
            y = first.get(a)
            if y is None or p.year < y:
                first[a] = p.year
    return dict(sorted(first.items()))


def assemble(papers: dict[str, PaperRecord]) -> OracleCorpus:
    """The corpus of ``papers``; a paper keeps the references to papers
    among them."""
    edges = []
    kept = {}
    for pid in sorted(papers):
        p = papers[pid]
        refs = tuple(ref for ref in p.references if ref in papers)
        edges += [(pid, ref, p.year) for ref in refs]
        kept[pid] = replace(p, references=refs)
    return OracleCorpus(papers=kept,
                        authors=_derive_authors(papers),
                        citation_edges=tuple(edges))


def parse_corpus(record_stream) -> tuple[OracleCorpus, ParseReport]:
    report = ParseReport()
    raw: dict[str, dict] = {}
    for lineno, rec in enumerate(record_stream, start=1):
        if rec is None or malformed_reason(rec) is not None:
            report.skipped_malformed += 1
            continue
        pid = rec["id"]
        if pid in raw:
            raise DataError(f"duplicate paper id {pid!r} at record {lineno}")
        raw[pid] = rec
        report.parsed_papers += 1

    papers: dict[str, PaperRecord] = {}
    for pid in sorted(raw):
        rec = raw[pid]
        refs = []
        seen = set()
        for ref in rec.get("refs") or []:
            if ref == pid or ref in seen:
                continue
            seen.add(ref)
            if ref not in raw:
                report.dangling_references += 1
                continue
            refs.append(ref)
        papers[pid] = PaperRecord(
            paper_id=pid,
            title=rec.get("title") or "",
            abstract=rec.get("abstract") or "",
            author_ids=tuple(rec.get("authors") or []),
            year=rec["year"],
            venue=rec.get("venue") or "",
            references=tuple(refs),
        )
    return assemble(papers), report


def _title_matches(title: str, cfg: PreprocessConfig) -> bool:
    t = title.lower()
    if any(s.lower() in t for s in cfg.survey_substrings):
        return True
    return any(t.startswith(p.lower()) for p in cfg.proceedings_prefixes)


def preprocess(corpus: OracleCorpus,
               cfg: PreprocessConfig) -> tuple[OracleCorpus, FilterReport]:
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
    return assemble(papers), report


def split_ground_truth(corpus: OracleCorpus, cutoff_year: int, horizon_year: int):
    """The sub-corpus and the (paper, author) future citation dicts."""
    pre = {pid: p for pid, p in corpus.papers.items() if p.year <= cutoff_year}
    paper_future = {pid: 0 for pid in pre}
    for citing, cited, year in corpus.citation_edges:
        if cutoff_year < year <= horizon_year and cited in pre:
            paper_future[cited] += 1

    sub = assemble(pre)
    author_future = {a: 0 for a in sub.authors}
    for pid, count in paper_future.items():
        for a in pre[pid].author_ids:
            author_future[a] += count
    return sub, paper_future, author_future


def citation_counts(corpus: OracleCorpus) -> tuple[dict[str, int], dict[str, int]]:
    """In-corpus citations per paper, and per author summed over the
    author's listings."""
    paper_counts: dict[str, int] = {pid: 0 for pid in corpus.papers}
    for _, cited, _ in corpus.citation_edges:
        paper_counts[cited] += 1
    author_counts: dict[str, int] = {a: 0 for a in corpus.authors}
    for pid, c in paper_counts.items():
        for a in corpus.papers[pid].author_ids:
            author_counts[a] += c
    return paper_counts, author_counts


def papers_of_year(corpus: OracleCorpus, year: int) -> frozenset[str]:
    return frozenset(pid for pid, p in corpus.papers.items() if p.year == year)


def authors_starting_year(corpus: OracleCorpus, year: int) -> frozenset[str]:
    return frozenset(a for a, first in corpus.authors.items() if first == year)


def _sorted_by_count(counts: dict[str, int], members) -> list[str]:
    return sorted(members, key=lambda x: (-counts.get(x, 0), x))


def ground_truth_ranking(future: dict[str, int], members) -> list[str]:
    """Cohort ids by descending future citations, ties by ascending id."""
    return _sorted_by_count(future, members)


def citation_count_baseline(corpus: OracleCorpus, kind: str, members) -> list[str]:
    paper_counts, author_counts = citation_counts(corpus)
    counts = paper_counts if kind == "papers_of_year" else author_counts
    return _sorted_by_count(counts, members)


def evaluate_run(ranked_ids: list[str], future: dict[str, int], members,
                 ks) -> list[tuple[int, float]]:
    """(k, RI@k) per cutoff k; the ground-truth membership list L is the
    top-k of the cohort's ground-truth ranking for that same k."""
    cohort_ranked = [eid for eid in ranked_ids if eid in members]
    gt_ranking = ground_truth_ranking(future, members)
    results = []
    for k in ks:
        if k > len(members):
            log.warning("k=%d exceeds cohort size %d, skipped", k, len(members))
            continue
        gt_set = set(gt_ranking[:k])
        per_item = {pid: ri_item(o_r, k, pid in gt_set)
                    for o_r, pid in enumerate(cohort_ranked[:k], start=1)}
        results.append((k, sum(per_item.values())))
    return results
