import json
import logging
import re
import weakref
from collections.abc import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus_oracle as oracle
from operator_oracle import transpose
from mrfrank.config import PreprocessConfig
from mrfrank.corpus import parse_corpus, preprocess, split_ground_truth, write_native
from mrfrank.graphs import build_citation
from mrfrank.textfeat import decay
from mrfrank.records import DataError, read_arnetminer, read_native
from mrfrank.evaluate import (authors_starting_year, citation_counts, evaluate_run,
                              papers_of_year)
from mrfrank.ranking import rank_entities
from mrfrank.sparse import SparseMatrix


def rec(pid, year, refs=(), title="t", authors=("x",), abstract="a"):
    return {"id": pid, "title": title, "abstract": abstract,
            "authors": list(authors), "year": year, "refs": list(refs)}


class ListHandler(logging.Handler):
    """Keeps the messages of the records it handles."""

    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


class TestParse:
    @pytest.mark.parametrize("refs, edges", [
        (["A", "MISSING"], [[1, 0]]),   # B cites A
        # repeats and self-references keep each first occurrence in order,
        # and a dangling id listed twice counts once
        (["C", "A", "B", "MISSING", "A", "B", "MISSING", "C"], [[1, 2], [1, 0]]),
    ], ids=["once", "repeated"])
    def test_dangling_reference_dropped(self, refs, edges):
        corpus, report = parse_corpus([
            rec("A", 2000), rec("B", 2001, refs=refs), rec("C", 2002),
        ])
        assert len(corpus.papers) == 3
        assert corpus.citation_edges.tolist() == edges
        assert report.dangling_references == 1

    def test_empty_stream(self):
        corpus, _ = parse_corpus([])
        assert len(corpus.papers) == 0
        assert corpus.citation_edges.shape == (0, 2)

    def test_edge_carries_citing_year(self):
        corpus, _ = parse_corpus([rec("A", 2000), rec("B", 2001, refs=["A"])])
        assert corpus.citation_edges.tolist() == [[1, 0]]
        assert corpus.years[corpus.citation_edges[0, 0]] == 2001

    def test_malformed_record_skipped(self):
        corpus, report = parse_corpus([rec("A", 2000), {"title": "no id"}])
        assert len(corpus.papers) == 1
        assert report.skipped_malformed == 1

    @pytest.mark.parametrize("bad, reason", [
        ({"id": "B", "year": True}, "year is not an integer in"),
        ({"id": "B", "year": 10**12}, "year is not an integer in"),
        ({"id": "B", "year": 2001.0}, "year is not an integer in"),
        ({"id": "B", "year": "2001"}, "year is not an integer in"),
        ({"id": "B"}, "missing id or year"),
        ({"id": "", "year": 2001}, "missing id or year"),
        ({"id": 7, "year": 2001}, "id is not a string"),
        ({"id": "B", "year": 2001, "authors": "bob"}, "authors is not a list of strings"),
        ({"id": "B", "year": 2001, "authors": ["bob", 7]},
         "authors is not a list of strings"),
        ({"id": "B", "year": 2001, "refs": "A"}, "refs is not a list of strings"),
        ({"id": "B", "year": 2001, "refs": [["A"]]}, "refs is not a list of strings"),
        ({"id": "B", "year": 2001, "title": 5}, "title is not a string"),
        (["B", 2001], "not a JSON object"),
        ({"id": "B", "year": 2001, "abstract": ["a"]}, "abstract is not a string"),
        ({"id": "B", "year": 2001, "venue": 1.5}, "venue is not a string"),
        # the authors check comes first
        ({"id": "B", "year": 2001, "authors": [None], "refs": 7},
         "authors is not a list of strings"),
    ])
    def test_malformed_record_rules(self, bad, reason, caplog):
        corpus, report = parse_corpus([rec("A", 2000), bad])
        assert list(corpus.papers) == ["A"]
        assert (report.parsed_papers, report.skipped_malformed) == (1, 1)
        assert f"record 2 skipped: {reason}" in caplog.text

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_record_rules_match_oracle(self, data):
        """Records whose fields are drawn from ints, floats, bools, None,
        strings and nested lists are kept or skipped, and each skip logged
        with its reason, as the oracle's copy of the record rules says."""
        text = st.text(st.characters(blacklist_characters="\t\n\r"), max_size=3)
        value = st.recursive(st.none() | st.booleans() | st.integers() | st.floats()
                             | text, lambda inner: st.lists(inner, max_size=3),
                             max_leaves=6)

        def mostly(good):   # one draw in five from any value
            return st.integers(0, 4).flatmap(lambda i: value if i == 0 else good)

        required = {"id": mostly(text), "year": mostly(st.integers(1985, 2010))}
        optional = {"authors": mostly(st.lists(text, max_size=2)),
                    "refs": mostly(st.lists(st.sampled_from(["R0", "R1"]), max_size=2)),
                    "title": mostly(text), "abstract": mostly(text), "venue": mostly(text)}
        record = mostly(st.fixed_dictionaries(required, optional=optional))
        records = []
        for i in range(data.draw(st.integers(0, 6))):
            rec = data.draw(record)
            if isinstance(rec, dict) and isinstance(rec.get("id"), str) and rec["id"]:
                rec["id"] = f"R{i}{rec['id']}"   # distinct ids
            records.append(rec)
        logger = logging.getLogger("mrfrank.corpus")
        handler = ListHandler()
        logger.addHandler(handler)
        try:
            corpus, report = parse_corpus(records)
        finally:
            logger.removeHandler(handler)
        reasons = [oracle.malformed_reason(rec) for rec in records]
        # a None record, a line read_native could not decode, was logged there
        assert handler.messages == [
            f"record {i} skipped: {r}" for i, (rec, r) in
            enumerate(zip(records, reasons), start=1) if r and rec is not None]
        assert (report.parsed_papers, report.skipped_malformed) == (
            reasons.count(None), len(records) - reasons.count(None))
        expected, _ = oracle.parse_corpus(records)
        assert oracle.records(corpus) == expected.papers

    def test_null_optional_fields_are_empty(self):
        corpus, report = parse_corpus([
            {"id": "A", "year": 2000, "title": None, "abstract": None,
             "venue": None, "authors": None, "refs": None}])
        p = oracle.records(corpus)["A"]
        assert (p.title, p.abstract, p.venue, p.author_ids, p.references) == \
            ("", "", "", (), ())
        assert report.skipped_malformed == 0

    def test_duplicate_id_is_hard_error(self):
        with pytest.raises(DataError, match="A"):
            parse_corpus([rec("A", 2000), rec("A", 2001)])

    def test_self_citation_dropped(self):
        corpus, _ = parse_corpus([rec("A", 2000, refs=["A"])])
        assert corpus.citation_edges.shape == (0, 2)

    def test_author_first_pub_year(self):
        corpus, _ = parse_corpus([
            rec("A", 2000, authors=["x"]), rec("B", 1995, authors=["x", "y"]),
        ])
        assert corpus.authors == ("x", "y")
        assert corpus.first_year.tolist() == [1995, 1995]


class TestPreprocess:
    def test_survey_title_removed(self):
        corpus, _ = parse_corpus([
            rec("S", 2000, title="A Survey of X", refs=["A"]),
            rec("A", 2000, refs=["B"]), rec("B", 1999, refs=["A"]),
        ])
        out, report = preprocess(corpus, PreprocessConfig())
        assert "S" not in out.papers
        assert report.removed_survey == 1

    def test_isolated_paper_removed(self):
        corpus, _ = parse_corpus([
            rec("I", 2000), rec("A", 2000, refs=["B"]), rec("B", 1999, refs=["A"]),
        ])
        out, report = preprocess(corpus, PreprocessConfig())
        assert "I" not in out.papers
        assert report.removed_isolated == 1

    def test_isolation_cascades_to_fixpoint(self):
        # chain P1 <- P2 <- P3; P3 removed by year filter, P2 becomes isolated
        corpus2, _ = parse_corpus([
            rec("P2", 1992, refs=["P3"]), rec("P3", 1985),
            rec("X", 1995, refs=["Y"]), rec("Y", 1994, refs=["X"]),
        ])
        out2, report2 = preprocess(corpus2, PreprocessConfig(min_year=1990))
        assert report2.removed_year == 1
        assert "P2" not in out2.papers  # isolated after P3 removed
        assert set(out2.papers) == {"X", "Y"}

    def test_require_abstract(self):
        corpus, _ = parse_corpus([
            rec("A", 2000, refs=["B"], abstract=""), rec("B", 1999, refs=["A"]),
        ])
        out, report = preprocess(corpus, PreprocessConfig(require_abstract=True))
        assert report.removed_no_abstract == 1
        assert len(out.papers) == 0  # B then isolated

    def test_proceedings_prefix_only(self):
        corpus, _ = parse_corpus([
            rec("A", 2000, title="Proceedings of the Workshop", refs=["B"]),
            rec("B", 1999, title="Notes on proceedings of events", refs=["A"]),
            rec("C", 1999, refs=["B"]),
        ])
        out, _ = preprocess(corpus, PreprocessConfig())
        assert "A" not in out.papers
        assert "B" in out.papers


@st.composite
def corpus_strategy(draw):
    n = draw(st.integers(0, 15))
    records = []
    for i in range(n):
        year = draw(st.integers(1985, 2010))
        refs = draw(st.lists(st.integers(0, n - 1), max_size=3)) if n > 1 else []
        records.append(rec(f"P{i}", year,
                           refs=[f"P{r}" for r in refs if r != i]))
    return records


@given(corpus_strategy())
@settings(max_examples=60, deadline=None)
def test_preprocess_idempotent_and_conserving(records):
    corpus, _ = parse_corpus(records)
    cfg = PreprocessConfig()
    once, report = preprocess(corpus, cfg)
    twice, report2 = preprocess(once, cfg)
    assert oracle.records(twice) == oracle.records(once)
    assert np.array_equal(twice.citation_edges, once.citation_edges)
    removed = (report.removed_survey + report.removed_year +
               report.removed_no_abstract + report.removed_isolated)
    assert removed + report.remaining == report.input_papers


def future_by_id(sub, gt):
    """The ground truth as (per paper id, per author id) dicts."""
    return (dict(zip(sub.papers, gt.papers.tolist())),
            dict(zip(sub.authors, gt.authors.tolist())))


class TestSplit:
    def test_future_count_excludes_pre_cutoff_citation(self):
        corpus, _ = parse_corpus([
            rec("A", 2003), rec("B", 2004, refs=["A"]), rec("C", 2007, refs=["A"]),
        ])
        sub, gt = split_ground_truth(corpus, 2004, 2011)
        assert future_by_id(sub, gt)[0]["A"] == 1
        assert set(sub.papers) == {"A", "B"}

    def test_all_pre_cutoff_gives_zero_counts(self):
        corpus, _ = parse_corpus([rec("A", 2000), rec("B", 2001, refs=["A"])])
        _, gt = split_ground_truth(corpus, 2004, 2011)
        assert gt.papers.tolist() == [0, 0]

    def test_author_future_sums_papers(self):
        corpus, _ = parse_corpus([
            rec("A", 2000, authors=["w"]), rec("B", 2001, authors=["w"]),
            rec("C1", 2006, refs=["A", "B"]), rec("C2", 2007, refs=["A", "B"]),
            rec("C3", 2008, refs=["A"]),
        ])
        papers, authors = future_by_id(*split_ground_truth(corpus, 2004, 2011))
        assert papers["A"] == 3
        assert papers["B"] == 2
        assert authors["w"] == 5

    def test_horizon_bound_respected(self):
        corpus, _ = parse_corpus([
            rec("A", 2000), rec("B", 2012, refs=["A"]), rec("C", 2006, refs=["A"]),
        ])
        papers, _ = future_by_id(*split_ground_truth(corpus, 2004, 2011))
        assert papers["A"] == 1

    def test_cutoff_ge_horizon_rejected(self):
        corpus, _ = parse_corpus([rec("A", 2000)])
        with pytest.raises(ValueError):
            split_ground_truth(corpus, 2011, 2011)


@given(corpus_strategy(), st.integers(1990, 2005))
@settings(max_examples=60, deadline=None)
def test_split_edge_partition(records, cutoff):
    corpus, _ = parse_corpus(records)
    sub, gt = split_ground_truth(corpus, cutoff, 2011)
    kept = len(sub.citation_edges)
    counted = int(gt.papers.sum())
    years = corpus.years.tolist()
    discarded = sum(
        1 for citing, cited in corpus.citation_edges.tolist()
        if years[cited] > cutoff or years[citing] > 2011)
    assert kept + counted + discarded == len(corpus.citation_edges)


def edge_tuples(corpus):
    """The citation edges as (citing_id, cited_id, citing_year) tuples."""
    ids = list(corpus.papers)
    return tuple((ids[a], ids[b], int(corpus.years[a]))
                 for a, b in corpus.citation_edges.tolist())


def assert_matches_oracle(corpus, expected):
    assert oracle.records(corpus) == expected.papers
    assert list(oracle.records(corpus)) == list(expected.papers)
    assert corpus.authors == tuple(expected.authors)
    assert corpus.first_year.tolist() == list(expected.authors.values())
    assert edge_tuples(corpus) == expected.citation_edges
    assert corpus.citation_edges.dtype == np.int64
    assert corpus.years.tolist() == [p.year for p in expected.papers.values()]
    author_ids = list(corpus.authors)
    listings = [(i, a) for i, p in enumerate(expected.papers.values())
                for a in p.author_ids]
    assert list(zip(corpus.listing_papers.tolist(),
                    [author_ids[a] for a in corpus.listing_authors.tolist()])) == listings


@st.composite
def oracle_case(draw):
    """Records in shuffled order with dangling, self and repeated references,
    citation chains the filters break, survey and proceedings titles, blank
    abstracts, authors listed twice and null refs and authors; malformed
    records between them, whose ids some references name (so those
    dangle); the first record cites the last; plus a filter config and a
    split."""
    n = draw(st.integers(0, 20))
    ids = [f"P{i:02d}" for i in range(n)]
    records = []
    for i in range(n):
        # chains, self, dangling, malformed
        targets = ids[max(0, i - 3):i + 1] + ["X1", "X2", "M1"]
        refs = draw(st.lists(st.sampled_from(targets), max_size=5))
        r = rec(ids[i], draw(st.integers(1986, 2010)), refs=refs,
                title=draw(st.sampled_from(["t"] * 8 + [
                    "A Survey of t", "Proceedings of t", "t: a review of u",
                    "Workshop on t"])),
                authors=draw(st.lists(st.sampled_from("uvwxy"), max_size=4)),
                abstract=draw(st.sampled_from(["a"] * 4 + ["", " "])))
        for key in ("refs", "authors"):
            if draw(st.integers(0, 5)) == 0:
                r[key] = None
        records.append(r)
    records = [records[i] for i in draw(st.permutations(range(n)))]
    if n > 1:
        records[0]["refs"] = (records[0]["refs"] or []) + [records[-1]["id"]]
    for bad in ({"id": "M1", "year": "2001", "refs": ["P00"]}, None,
                {"id": "M2", "year": 2001, "authors": "u"}):
        records.insert(draw(st.integers(0, len(records))), bad)
    # the patterns match ignoring case, theirs and the title's
    case = draw(st.sampled_from([str.lower, str.upper, str.title]))
    cfg = PreprocessConfig(min_year=draw(st.integers(1985, 1992)),
                           require_abstract=draw(st.booleans()),
                           survey_substrings=tuple(map(
                               case, PreprocessConfig.survey_substrings)),
                           proceedings_prefixes=tuple(map(
                               case, PreprocessConfig.proceedings_prefixes)))
    cutoff = draw(st.integers(1990, 2008))
    horizon = draw(st.integers(cutoff + 1, 2012))
    return records, cfg, cutoff, horizon


def drawn_ranking(data, size):
    """A shuffled ranking of ``size`` positions with some dropped."""
    order = data.draw(st.permutations(range(size)))
    kept = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
    return np.array([i for i, keep in zip(order, kept) if keep], dtype=np.int64)


@given(oracle_case(), st.data())
@settings(max_examples=150, deadline=None)
def test_array_path_matches_oracle(case, data):
    records, cfg, cutoff, horizon = case
    corpus, report = parse_corpus(records)
    expected, expected_report = oracle.parse_corpus(records)
    assert report == expected_report
    assert_matches_oracle(corpus, expected)

    pre, filter_report = preprocess(corpus, cfg)
    expected_pre, expected_filter_report = oracle.preprocess(expected, cfg)
    assert filter_report == expected_filter_report
    assert_matches_oracle(pre, expected_pre)

    sub, gt = split_ground_truth(pre, cutoff, horizon)
    expected_sub, paper_future, author_future = oracle.split_ground_truth(
        expected_pre, cutoff, horizon)
    assert_matches_oracle(sub, expected_sub)
    assert list(zip(sub.papers, gt.papers.tolist())) == list(paper_future.items())
    assert list(zip(sub.authors, gt.authors.tolist())) == list(author_future.items())

    # the evaluation: cohorts, both orders and RI@k of drawn rankings (ties
    # among the small counts are common), ks up to above the cohort size
    counts = citation_counts(sub)
    expected_counts = oracle.citation_counts(expected_sub)
    kinds = [("papers_of_year", list(sub.papers), papers_of_year,
              oracle.papers_of_year, paper_future),
             ("authors_starting_year", list(sub.authors), authors_starting_year,
              oracle.authors_starting_year, author_future)]
    ks = data.draw(st.lists(st.integers(1, 8), max_size=4))
    for kind, (name, ids, cohort_of, oracle_cohort_of, future) in enumerate(kinds):
        assert dict(zip(ids, counts[kind].tolist())) == expected_counts[kind]
        ranked = drawn_ranking(data, len(ids))
        ranked_ids = [ids[i] for i in ranked.tolist()]
        truth = (gt.papers, gt.authors)[kind]
        for year in range(1986, cutoff + 1):
            cohort = cohort_of(sub, year)
            members = oracle_cohort_of(expected_sub, year)
            assert [ids[i] for i in cohort.tolist()] == sorted(members)
            by_count = cohort[rank_entities(counts[kind][cohort])]
            assert [ids[i] for i in by_count.tolist()] == oracle.citation_count_baseline(
                expected_sub, name, members)
            by_future = cohort[rank_entities(truth[cohort])]
            assert [ids[i] for i in by_future.tolist()] == \
                oracle.ground_truth_ranking(future, members)
            assert evaluate_run(ranked, truth, cohort, ks) == \
                oracle.evaluate_run(ranked_ids, future, members, ks)


@given(oracle_case(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_citation_edges_grouped_by_citing_position(case, seed):
    """Records in shuffled order list their references out of order; the
    citation edges come out grouped by citing paper in ascending position
    after every stage, so the citation graph applied transposed adds each
    cited paper's column in ascending citing order: bit for bit the
    transpose of its (row, col) sorted copy, with ``x`` spread over twelve
    orders of magnitude."""
    records, cfg, cutoff, horizon = case
    corpus, _ = parse_corpus(records)
    pre, _ = preprocess(corpus, cfg)
    sub, _ = split_ground_truth(pre, cutoff, horizon)
    rng = np.random.default_rng(seed)
    for stage in (corpus, pre, sub):
        citing = stage.citation_edges[:, 0]
        assert np.all(citing[1:] >= citing[:-1])
        cit = build_citation(stage, decay(2012 - stage.years, 0.37))
        order = np.lexsort((cit.cols, cit.rows))
        lexsorted = SparseMatrix(cit.shape, cit.rows[order], cit.cols[order],
                                 cit.data[order])
        x = rng.standard_normal(len(stage)) * 10.0 ** rng.integers(-6, 7, len(stage))
        assert np.array_equal(cit.T.matvec(x), transpose(lexsorted).matvec(x))


def test_cited_column_added_in_citing_order():
    """A paper cited by three others, with products 1, 1e16 and -1e16 in
    citing order: the ascending sum is 0 and the reversed one 1, so a
    citation graph stored in any other order than the corpus's edges reads
    the wrong bits."""
    records = [rec("D", 2003, refs=["A"]), rec("B", 2001, refs=["A"]),
               rec("A", 2000), rec("C", 2002, refs=["A"])]
    corpus, _ = parse_corpus(records)
    assert list(corpus.papers) == ["A", "B", "C", "D"]
    weight = np.array([1.0, 1.0, 2.0, 0.5])
    x = np.array([0.0, 1.0, 5e15, -2e16])
    products = (weight * x)[1:].tolist()
    assert products == [1.0, 1e16, -1e16]
    ascending = (products[0] + products[1]) + products[2]
    reversed_sum = (products[2] + products[1]) + products[0]
    assert (ascending, reversed_sum) == (0.0, 1.0)
    assert build_citation(corpus, weight).T.matvec(x)[0] == ascending


class TestReadNative:
    def test_undecodable_line_skipped_and_counted(self, tmp_path, caplog):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"\n".join([
            json.dumps(rec("A", 2000)).encode(), b"", b"{not json",
            b'{"id": "\xff", "year": 2001}',
            json.dumps(rec("B", 2001, refs=["A"])).encode()]) + b"\n")
        corpus, report = parse_corpus(read_native(path))
        assert list(corpus.papers) == ["A", "B"]
        assert (report.parsed_papers, report.skipped_malformed) == (2, 2)
        assert f"{path} line 3 skipped" in caplog.text
        assert f"{path} line 4 skipped" in caplog.text


    def test_undecodable_line_counts_as_record(self, tmp_path, caplog):
        """Record numbers count the lines ``read_native`` could not decode
        (not blank lines), and its warnings and ``parse_corpus``'s come in
        line order."""
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"\n".join([
            json.dumps(rec("A", 2000)).encode(), b"{not json", b"",
            json.dumps({"id": "B", "year": True}).encode(),
            json.dumps(rec("A", 2001)).encode()]) + b"\n")
        with pytest.raises(DataError, match="duplicate paper id 'A' at record 4"):
            parse_corpus(read_native(path))
        assert [r.getMessage() for r in caplog.records] == [
            f"{path} line 2 skipped: not JSON (Expecting property name enclosed "
            "in double quotes at column 2)",
            "record 3 skipped: year is not an integer in [-2147483648, 2147483647]"]

    @pytest.mark.parametrize("line, papers, warning", [
        (json.dumps(rec("C", 2001)).encode() + b" x", ["A"],
         "line 2 skipped: not JSON (Extra data at column 88)"),
        (json.dumps(rec("C", 2001)).encode() + b" " + json.dumps(rec("D", 2001)).encode(),
         ["A"], "line 2 skipped: not JSON (Extra data at column 88)"),
        (b"\xef\xbb\xbf" + json.dumps(rec("C", 2001)).encode(), ["A"],
         "line 2 skipped: not JSON (Unexpected UTF-8 BOM (decode using utf-8-sig) "
         "at column 1)"),
        # bytes.strip takes the form feeds and the vertical tab off the line
        (b"\x0c" + json.dumps(rec("C", 2001)).encode() + b"\x0c\x0b", ["A", "C"], None),
        (b'{"id": "C", "year": ' + b"1" * 4301 + b"}", ["A"],
         "line 2 skipped: not decodable JSON (Exceeds the limit (4300 digits) for "
         "integer string conversion: value has 4301 digits; use "
         "sys.set_int_max_str_digits() to increase the limit)"),
        (b'{"id": "C", "year": 2001, "x": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
         ["A"], "line 2 skipped: not decodable JSON (maximum recursion depth exceeded "
         "while decoding a JSON array from a unicode string)"),
        (b'{"id": "C", "year": NaN}', ["A"],
         "record 2 skipped: year is not an integer in [-2147483648, 2147483647]"),
        (b'{"id": "C\xc3", "year": 2001}', ["A"],
         "line 2 skipped: not UTF-8 (invalid continuation byte at byte 10)"),
    ], ids=["extra_data", "two_objects", "bom_on_line_2", "form_feeds", "digits",
            "deep", "nan_year", "not_utf8"])
    def test_decoder_messages(self, tmp_path, caplog, line, papers, warning):
        """Each line is logged, counted and kept or skipped as ``json.loads``
        of the stripped line words it."""
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(json.dumps(rec("A", 2000)).encode() + b"\n" + line + b"\n")
        corpus, report = parse_corpus(read_native(path))
        assert list(corpus.papers) == papers
        assert (report.parsed_papers, report.skipped_malformed) == (
            len(papers), 2 - len(papers))
        prefix = "" if warning is None or warning.startswith("record") else f"{path} "
        assert [r.getMessage() for r in caplog.records] == (
            [] if warning is None else [prefix + warning])

    def test_byte_order_mark_starts_file(self, tmp_path, caplog):
        """A byte-order mark that starts the file is not data, as
        ``utf-8-sig`` reads it: the first record is kept, and a line of a
        mark alone is blank.  A bad byte on line 1 is still counted from
        the start of the line as the file holds it."""
        path = tmp_path / "corpus.jsonl"
        bom = b"\xef\xbb\xbf"
        path.write_bytes(bom + json.dumps(rec("A", 2000)).encode() + b"\n")
        assert list(parse_corpus(read_native(path))[0].papers) == ["A"]
        path.write_bytes(bom + b"\n" + json.dumps(rec("A", 2000)).encode() + b"\n")
        corpus, report = parse_corpus(read_native(path))
        assert (list(corpus.papers), report.skipped_malformed) == (["A"], 0)
        path.write_bytes(bom + b'{"id": "A\xff", "year": 2000}\n')
        assert len(parse_corpus(read_native(path))[0]) == 0
        assert caplog.records[-1].getMessage() == (
            f"{path} line 1 skipped: not UTF-8 (invalid start byte at byte 13)")

    def test_read_native_is_lazy(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(rec("A", 2000)) + "\n")
        records = read_native(path)
        assert isinstance(records, Iterator)
        assert next(records)["id"] == "A"


class Record(dict):
    """A record dict a weak reference can watch."""


def test_parse_keeps_no_consumed_record():
    """Each record, valid or malformed, is dead by the time ``parse_corpus``
    asks for the next one."""
    watched = []

    def stream():
        for r in [rec("B", 2000, refs=["A", "C"], authors=["u", "v"]),
                  {"id": "M", "year": "2000"}, rec("A", 1999, refs=["B"]),
                  None, {**rec("C", 2001, refs=["A", "A"]), "authors": None}]:
            assert all(w() is None for w in watched), \
                [i for i, w in enumerate(watched) if w() is not None]
            if r is not None:
                r = Record(r)
                watched.append(weakref.ref(r))
            yield r
            del r
        assert all(w() is None for w in watched)

    corpus, report = parse_corpus(stream())
    assert (len(watched), report.parsed_papers, report.skipped_malformed) == (4, 3, 2)
    assert corpus.citation_edges.tolist() == [[0, 1], [1, 0], [1, 2], [2, 0]]


@given(oracle_case())
@settings(max_examples=40, deadline=None)
def test_native_roundtrip(tmp_path_factory, case):
    """parse -> write_native -> read_native -> parse keeps every paper;
    the written references are the resolved ones, so none dangle."""
    path = tmp_path_factory.mktemp("native") / "corpus.jsonl"
    corpus, _ = parse_corpus(case[0])
    write_native(corpus, path)
    again, report = parse_corpus(read_native(path))
    assert oracle.records(again) == oracle.records(corpus)
    assert np.array_equal(again.citation_edges, corpus.citation_edges)
    assert (report.parsed_papers, report.dangling_references) == (len(corpus), 0)


class TestArnetMiner:
    def test_roundtrip_fields(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("".join([
            "#*Title One\n", "#@Alice; Bob\n", "#t2001\n", "#cVenueX\n",
            "#index1\n", "#%2\n", "#!An abstract.\n", "\n",
            "#*Title Two\n", "#@Carol\n", "#t2000\n", "#index2\n",
        ]))
        records = list(read_arnetminer(path))
        assert records[0]["id"] == "1"
        assert records[0]["authors"] == ["Alice", "Bob"]
        assert records[0]["refs"] == ["2"]
        assert records[0]["abstract"] == "An abstract."
        assert records[1]["year"] == 2000

    def test_byte_order_mark_starts_file(self, tmp_path):
        """The mark that starts the file is dropped, so the first record's
        title marker is read; a bad byte on line 1 is still counted from
        the start of the line as the file holds it."""
        path = tmp_path / "corpus.txt"
        path.write_bytes(b"\xef\xbb\xbf#*First Title\n#index1\n#t2000\n")
        assert list(read_arnetminer(path)) == [
            {"title": "First Title", "id": "1", "year": 2000}]
        path.write_bytes(b"\xef\xbb\xbf#*First\xff\n")
        message = f"{path} line 1: not UTF-8 (invalid start byte at byte 11)"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            list(read_arnetminer(path))

    def test_read_arnetminer_is_lazy(self, tmp_path):
        """The first record comes before the reader decodes the second, whose
        non-UTF-8 byte lies past a 1 MiB title line; decoding it is a
        DataError naming the file, the line and the byte within it."""
        path = tmp_path / "corpus.txt"
        path.write_bytes(b"#index1\n#t2000\n\n#*" + b"x" * 2**20 + b"\n#c\xff\n")
        records = read_arnetminer(path)
        assert next(records) == {"id": "1", "year": 2000}
        message = f"{path} line 5: not UTF-8 (invalid start byte at byte 3)"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            next(records)
