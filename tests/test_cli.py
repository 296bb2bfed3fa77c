import contextlib
import dataclasses
import hashlib
import io
import json
import logging
import math
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrfrank
from mrfrank.cli import build_parser, load_config, main
from mrfrank.config import FORMS, MODES, SECTIONS, HyperParams, PreprocessConfig
from mrfrank.sparse import SparseMatrix

VOCAB = ["ranking", "citation", "influence", "burst", "network", "topic"]


def tiny_records(n=30):
    """Deterministic connected corpus: chain citations, repeated vocabulary,
    years spread so time decay matters."""
    recs = []
    for i in range(n):
        year = 1996 + i // 3
        w = [VOCAB[i % 6], VOCAB[(i + 1) % 6], VOCAB[(i + 3) % 6]]
        refs = [f"p{j:02d}" for j in (i - 1, i - 3) if j >= 0]
        recs.append({
            "id": f"p{i:02d}",
            "title": f"{w[0]} {w[1]} analysis",
            "abstract": f"{w[1]} {w[2]} methods. {w[0]} {w[2]} models.",
            "authors": [f"auth{i % 8}", f"auth{(i + 3) % 8}"],
            "year": year, "venue": "v", "refs": refs,
        })
    return recs


def coauthor_records(n=24):
    """``tiny_records`` with 3 to 6 authors per paper from a pool of 11,
    listed out of order; one paper lists an author twice and one has a
    single author."""
    recs = tiny_records(n)
    for i, r in enumerate(recs):
        r["authors"] = [f"auth{(5 * i + 2 * j) % 11}" for j in range(3 + i % 4)]
    recs[5]["authors"].append(recs[5]["authors"][1])
    recs[9]["authors"] = ["auth4"]
    return recs


def write_corpus(path, recs):
    with open(path, "w") as fh:
        for r in recs:
            fh.write(json.dumps(r) + "\n")
    return path


@pytest.fixture
def corpus_file(tmp_path):
    return write_corpus(tmp_path / "corpus.jsonl", tiny_records())


def eval_config(path, corpus_file, workspace, protocol):
    path.write_text(json.dumps({
        "corpus": str(corpus_file), "workspace": str(workspace),
        "preprocess": {"min_year": 1990}, "protocol": protocol}))
    return path


def rank_args(corpus_file, workspace, *extra):
    return ["rank", "--corpus", str(corpus_file), "--workspace", str(workspace),
            "--min-year", "1990", "--tolerance", "1e-10",
            "--max-iterations", "3000", *extra]


# sha256 of the files ``rank`` (all four modes), ``features`` and ``eval``
# (``EVAL_PROTOCOL`` over those rankings) write for ``tiny_records()``
OUTPUT_DIGESTS = {
    "authors_full.tsv": "394fc54987702d710a5235f347a179b705c7d366d2b67b56704e5f1f2905f67b",
    "authors_no_content.tsv": "b661a9052c80a191009b190a92827a11272a9b849446e57e59b9aff9baded449",
    "authors_no_time.tsv": "19d0f760954912eec085f3488a702a915fdc74c59a4bfa0c2bb960517554eb51",
    "authors_no_time_no_content.tsv": "9de54a655fd983da5a5360dba822a34292061f985282008c76153b13f784ca23",
    "features_full.tsv": "d645f1ca42897fd443472a38672a0bf1d87fe518ca5c54db306e9a8662373d1d",
    "features_no_content.tsv": "ea80fd1cf4adc6adbb4ab5315600af41edfad808f2718a64633137dd36429ad6",
    "features_no_time.tsv": "c22dddd343435aa6cc38e9c0a81e64f5cc7a0349981a2bf8aef9db393e1745cf",
    "features_no_time_no_content.tsv": "31c50fa93d3b78d61a444db79479db631fbb65ed052f806a54f45555fe63975d",
    "papers_full.tsv": "fe9adc83f3cebef5552dfdad1d8bd2f8d1a24c2debd0ad2805a77a57f43754d9",
    "papers_no_content.tsv": "3e545d2983c4c12409d7d7c8d0c37c3e857824b721d8c93dc7bca7cf4008feb2",
    "papers_no_time.tsv": "62737ef6b8b64fb2e53d6e6a33f03d2716ae7d039657314a07807f0dbf4a3d26",
    "papers_no_time_no_content.tsv": "3f6629d820d2a55988f8413987bfac162c223ca8b5f839caca795d7175915f0e",
    "snapshot.tsv": "1c2d289cb93364e8cc693373a3a1020cda99dff8891771533df81f2879614c57",
    "eval.tsv": "fe560dc98d6c2d2566d3989f1424a61e698cdbe3c717d506f1868650cf6d809c",
}
# sha256 of the ranking and convergence files ``rank`` writes in all four
# modes for ``coauthor_records()``, whose coauthor graph has many entries
# per row
COAUTHOR_DIGESTS = {
    "authors_full.tsv": "3332dc82d6f33526b07b1857bfd6b4aaffe0d989a2e2a70c5aa0f37218626798",
    "authors_no_content.tsv": "0e2d49218eea79f601649e86158c6e2e3f3b060dd40f0dc1ff50c041f8ae7d06",
    "authors_no_time.tsv": "a4683910be78df14accc1bf6aed75714b4d57d9930bd5948d45b2a67e315fc60",
    "authors_no_time_no_content.tsv": "3b287bc25cf056f06db434a4d2461af2e6ff9f8ec2081d5bca03e7f94ab29a5e",
    "convergence_full.tsv": "f7e60ef228655c5da79a7832d6d77231ba857d27b22439e17663b149786833b4",
    "convergence_no_content.tsv": "564943de69c20ea505c2741f92bf07137677f2bc7f22fcdc8b36916fa2c6d41c",
    "convergence_no_time.tsv": "814112be3825455a356e5fd9079cb7eb1d54572ed620a276eb451c19971c7339",
    "convergence_no_time_no_content.tsv": "e4ab3b9a60b9c9fedb87d9fdb02865a2cc5e3b94162e2f0a223ce61e60151979",
    "features_full.tsv": "b49439cf04991f8cd8ad069ea2a23e0bc88c1f41922f8440357f9d69184f3938",
    "features_no_content.tsv": "f14738cb7bdcf664ce31ead5bc9e745f22ec2fad27fd5f3fd5e139f333c929c6",
    "features_no_time.tsv": "ea935b13692c7cc550e56636980c04d56c308d3d50c07fb28811a6bb32def09c",
    "features_no_time_no_content.tsv": "70ebe77ccb6642f748e972a879dc65f842571ee2b5d8c96f328e92ed16fbb318",
    "papers_full.tsv": "b01f5af15e7ff2bd6ea8da103ce38b06952a2c0f0c2837be105206a1ca3d4b49",
    "papers_no_content.tsv": "e6fc4948550a4ba1df17c9c9313fd4f84112da3a9c3a87f141817cb997830b73",
    "papers_no_time.tsv": "ca62e6fa11c3dc5792f64897136f13c0a9a212f39ca7e72ed9916bcdd0a4468c",
    "papers_no_time_no_content.tsv": "97c2056ffbe797d61f8d275751f20ffd725a825861733a79b610dbc9da659b26",
}
# a cutoff before the ranking's, so ranked papers outside the sub-corpus are
# skipped; paper and author cohorts with non-zero RI, an author cohort smaller
# than k = 3 and an empty cohort (2004)
EVAL_PROTOCOL = {"cutoff_year": 2002, "horizon_year": 2005,
                 "cohort_years": [1996, 1997, 1999, 2000, 2004], "ks": [1, 2, 3]}

# a corpus in shuffled file order: repeated, self and dangling references
# (one to a malformed record's id, one to a paper whose record comes
# later), an author listed twice, null refs, authors and other fields, a
# malformed record and an undecodable line; ``preprocess --min-year 1990``
# removes a survey, an early and an isolated paper
NATIVE_LINES = [json.dumps(r) for r in [
    {"id": "p07", "title": "Ranking über alles", "abstract": "citation bursts.",
     "authors": ["ann", "bob", "ann"], "year": 2001, "venue": "kdd",
     "refs": ["p03", "p03", "p07", "gone", "p11", "p09"]},
    {"id": "p03", "title": "Graphs", "abstract": None, "authors": None,
     "year": 1995, "venue": None, "refs": ["p01"]},
    {"id": "p05", "year": "1999", "refs": ["p03"]},
    {"id": "p11", "title": "A Survey of ranking", "abstract": "",
     "authors": ["cy"], "year": 2003, "refs": None},
    {"id": "p01", "title": "Early work", "abstract": "old", "authors": ["bob"],
     "year": 1985, "venue": "v", "refs": []},
    {"id": "p09", "title": "Trees", "abstract": "a. b.", "authors": ["dee", "ann"],
     "year": 1999, "venue": "v", "refs": ["p05", "p07", "p03", "p05"]},
    {"id": "p02", "title": "Isolated", "abstract": "x", "authors": ["eve"],
     "year": 2000, "refs": ["nowhere"]},
]]
NATIVE_LINES.insert(5, "{not json")
# sha256 of what ``ingest`` and ``preprocess --min-year 1990`` write for
# ``NATIVE_LINES``; a written paper lists only the references to papers of
# its own file
NATIVE_DIGESTS = {
    "ingest.jsonl": "3b1ef9dc6ee5b78aa5d071572de01e8bb7aa2fe5086ac1e0bd86aa9044d826f6",
    "preprocess.jsonl": "5e4c607b9c10ed3d793f9816334cb670a3ede68823dc95a01ddcb51094c7e03b",
}

# an ArnetMiner text with CRLF line endings (and one lone CR): repeated,
# self and dangling references, an author list with empty items, an
# unknown marker, two blank lines in a row, a record without ``#index``,
# one whose ``#t`` is not an integer, and a last record with no blank
# line (nor line break) after it
ARNETMINER_TEXT = "\r\n".join([
    "#*Ranking über alles", "#@Ann Smith;; Bo Chen; ;", "#t2001", "#cKDD",
    "#index7", "#%3", "#%3", "#%7", "#%gone", "#%9", "#!Citation bursts.",
    "#xan unknown marker", "", "",
    "#*No index here", "#@Cy", "#t1999", "",
    "#*Bad year", "#tnineteen", "#index5", "#%3", "",
    "#*Graphs", "#@Bo Chen", "#t1995", "#index3", "",
    "#*Trees", "#@Dee;Ann Smith", "#t1999", "#cVLDB\r#index9", "#%3",
    "#!Last record, no blank line after it."])
# sha256 of the file ``ingest --format arnetminer`` writes for
# ``ARNETMINER_TEXT`` and of the report it prints
ARNETMINER_DIGESTS = {
    "ingest.jsonl": "c89a20da7a346b1203a4caf28533ee4e9b67e777a2e9d24719343a3d006a0f79",
    "stdout": "433a0067975ee534f660d49f4da77da3ca5b128b5ea4497f2dd3efa1cec47bb4",
}
# sha256 of the JSON list [exit code, stdout, stderr] of ``main`` for each
# argument list, at 80 columns with Python 3.11's argparse: the top-level and
# every subcommand's help, and one usage error, so every flag, default,
# choice and help string is pinned
PARSER_DIGESTS = {
    "--help": "f1a805fce714740eafbc8a8548229f53a79a5968d6ee10ef758040413f388fff",
    "ingest --help": "abc53d5a100f8547667e3dd907bc53e6e648341814262ac2bae7a564c3c1e5c6",
    "preprocess --help": "8aeaa2f8b409a4aa03485dbd4c7cd9aca158d23836d6b49cc452457783fddcea",
    "features --help": "99daf4390844dd05e5582812d71ed45b0872a65473cc4c1e32a169f267dc33c8",
    "rank --help": "c9dd1997c964498b73ed1b6009c7cb65c3d4e9034fb7a0b15b13f736fa9e1144",
    "eval --help": "d6615d58ab0d207a48c04b4696ee9d650f75df6b4cfe5502f0a8c4b008280a26",
    "report --help": "b26db073204cb2d4966847e64f7a97deb81385539eaae86ce18454b032f7d7d8",
    "rank --bogus": "845aa25f1cb246498c4c92de738985b17335049600083ef3059f6db1b4512bb5",
}


@pytest.mark.parametrize("argv", PARSER_DIGESTS)
def test_parser_output_matches_recorded_digest(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(argv.split())
    out, err = capsys.readouterr()
    data = json.dumps([code, out, err]).encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == PARSER_DIGESTS[argv]


def test_commands_that_compute_nothing_do_not_import_numpy(corpus_file, tmp_path, capsys):
    """``--help``, a usage error and ``report``, each run through
    ``mrfrank.cli.main`` in a fresh interpreter, as the ``mrfrank`` script
    runs it, end without numpy in ``sys.modules``, and ``--help`` loads only
    the parser's modules.  ``eval`` on a ranked workspace loads no graph or
    text-feature code."""
    eval_tsv = tmp_path / "eval.tsv"
    eval_tsv.write_text("year\tmethod\tkind\tk\tri\n2000\tfull\tP\t2\t1.5\n")
    ws = tmp_path / "ws"
    assert main(rank_args(corpus_file, ws)) == 0
    cfg = eval_config(tmp_path / "cfg.json", corpus_file, ws, EVAL_PROTOCOL)
    # runs the command, then reports on the way out
    probe = ("import sys\n"
             "from mrfrank.cli import main\n"
             "try:\n"
             "    code = main()\n"
             "finally:\n"
             "    print('numpy' in sys.modules, *sorted(\n"
             "        m for m in sys.modules if m.partition('.')[0] == 'mrfrank'))\n"
             "sys.exit(code)\n")
    src = str(Path(mrfrank.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def loaded(argv, code):
        """Whether numpy was loaded, and the ``mrfrank`` modules loaded."""
        done = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == code, (argv, done.stderr)
        numpy, *modules = done.stdout.splitlines()[-1].split()
        return numpy, set(modules)

    parser = {"mrfrank", "mrfrank.cli", "mrfrank.config", "mrfrank.records"}
    assert loaded(["--help"], 0) == ("False", parser)
    for argv, code in ((["rank", "--bogus"], 1), (["report", "--input", str(eval_tsv)], 0)):
        assert loaded(argv, code)[0] == "False", argv
    assert loaded(["eval", "--config", str(cfg)], 0) == ("True", parser | {
        "mrfrank.sparse", "mrfrank.corpus", "mrfrank.ranking", "mrfrank.evaluate"})


class TestExitCodes:
    def test_usage_error_missing_arg(self, capsys):
        assert main(["ingest", "--input", "x"]) == 1

    def test_usage_error_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_data_error_duplicate_id(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        rec = {"id": "A", "title": "t", "abstract": "a", "authors": ["u"],
               "year": 2000, "refs": []}
        path.write_text(json.dumps(rec) + "\n" + json.dumps(rec) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["ingest", "--input", str(path), "--output", str(out)]) == 2

    @pytest.mark.parametrize("char", ["\t", "\n", "\r"], ids=["tab", "lf", "cr"])
    @pytest.mark.parametrize("field", ["id", "authors"])
    def test_data_error_id_with_a_break(self, tmp_path, capsys, field, char):
        """A paper id or an author name holding a tab or a line break would
        split a line of a ranking file: ``rank`` ends with exit 2 and an
        ``error:`` line naming it, and writes no ranking file."""
        recs = tiny_records()
        bad = f"p05{char}x" if field == "id" else f"bad{char}author"
        recs[5][field] = bad if field == "id" else [bad, "auth1"]
        corpus = write_corpus(tmp_path / "corpus.jsonl", recs)
        ws = tmp_path / "ws"
        assert main(rank_args(corpus, ws)) == 2
        kind = "paper id" if field == "id" else "author name"
        assert f"error: {kind} {bad!r} holds a tab or a line break\n" in \
            capsys.readouterr().err
        assert not list(ws.glob("*.tsv"))

    @pytest.mark.parametrize("case", ["missing", "corpus_dir", "config_dir",
                                      "report_input_dir", "workspace_file"])
    def test_data_error_missing_file(self, corpus_file, tmp_path, capsys, case):
        """A path that cannot be read or made ends with exit 2 and one
        ``error:`` line naming it: a missing input, a directory given as
        the corpus, the config or the report input, and an existing file
        given as the workspace."""
        bad = tmp_path / "bad"
        if case == "missing":
            args = ["ingest", "--input", str(bad), "--output", str(tmp_path / "o.jsonl")]
        elif case == "workspace_file":
            bad.write_text("")
            args = rank_args(corpus_file, bad)
        else:
            bad.mkdir()
            args = {"corpus_dir": rank_args(bad, tmp_path / "ws"),
                    "config_dir": ["rank", "--config", str(bad)],
                    "report_input_dir": ["report", "--input", str(bad)]}[case]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and str(bad) in err

    def test_nonconvergence_exit_3(self, corpus_file, tmp_path, capsys):
        ws = tmp_path / "ws"
        code = main(["rank", "--corpus", str(corpus_file), "--workspace",
                     str(ws), "--max-iterations", "1"])
        assert code == 3
        assert (ws / "papers_full.tsv").read_text().startswith(
            "# WARNING: NOT CONVERGED\n")
        *_, last = (ws / "convergence_full.tsv").read_text().splitlines()
        delta = float(last.split("\t")[1])
        assert capsys.readouterr().err.splitlines() == [
            f"WARNING: not converged after 1 iterations (last delta {delta:.3g})"]


    @pytest.mark.parametrize("command, flag", [
        ("rank", "--window-years"), ("rank", "--min-df"),
        ("features", "--window-years"), ("features", "--min-df"),
        ("rank", "--u"), ("rank", "--max-iterations"), ("features", "--u")])
    def test_data_error_feature_setting_below_one(self, corpus_file, tmp_path,
                                                  capsys, command, flag):
        if command == "rank":
            args = rank_args(corpus_file, tmp_path / "ws", flag, "0")
        else:
            args = ["features", "--input", str(corpus_file),
                    "--output", str(tmp_path / "f.tsv"), flag, "0"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert flag[2:].replace("-", "_") + " must be at least 1, got 0" in err
        assert "Traceback" not in err

    def test_data_error_window_years_too_large(self, corpus_file, tmp_path, capsys):
        """A window of 2**63 years or more in the config file ends with exit
        2, as it does from the flags (``INVALID_FLAG_VALUES``)."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"corpus": str(corpus_file),
                                   "workspace": str(tmp_path / "ws"),
                                   "features": {"window_years": 2**70}}))
        assert main(["rank", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"window_years must be below 2**63, got {2**70}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag, value, message", [
        ("rank", "--tolerance", "nan", "tolerance must be finite and > 0, got nan"),
        ("rank", "--rho-edge", "inf", "rho_edge must be finite and >= 0, got inf"),
        ("rank", "--alpha-p", "nan", "alpha_p=nan outside [0, 1]"),
        ("features", "--rho", "nan", "rho must be finite and >= 0, got nan"),
        ("features", "--rho", "-1", "rho must be finite and >= 0, got -1.0")])
    def test_data_error_invalid_float_setting(self, corpus_file, tmp_path, capsys,
                                              command, flag, value, message):
        if command == "rank":
            args = rank_args(corpus_file, tmp_path / "ws", flag, value)
        else:
            args = ["features", "--input", str(corpus_file),
                    "--output", str(tmp_path / "f.tsv"), flag, value]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("section, settings, message", [
        ("hyperparams", {"u": "3"}, "hyperparams.u must be integer, got '3'"),
        ("hyperparams", {"tolerance": "1e-8"},
         "hyperparams.tolerance must be number, got '1e-8'"),
        ("hyperparams", {"max_iterations": 2.5},
         "hyperparams.max_iterations must be integer, got 2.5"),
        ("hyperparams", {"alpha_p": True}, "hyperparams.alpha_p must be number, got True"),
        ("hyperparams", {"tolerence": 1e-8}, "unknown config setting hyperparams.tolerence"),
        ("preprocess", {"require_abstract": "yes"},
         "preprocess.require_abstract must be boolean, got 'yes'"),
        ("preprocess", {"survey_substrings": "survey"},
         "preprocess.survey_substrings must be list of strings, got 'survey'"),
        ("features", {"min_df": "3"}, "features.min_df must be integer, got '3'"),
        ("features", {"stopwords": 1}, "features.stopwords must be string or null, got 1"),
        ("protocol", {"ks": [10, "20"]}, "protocol.ks must be list of integers"),
        ("protocol", {"ks": [10, 0]}, "protocol.ks must be at least 1, got 0"),
        ("protocol", {"cohort_years": 2000},
         "protocol.cohort_years must be list of integers, got 2000"),
        ("protocol", {"cutoff_year": "2003"},
         "protocol.cutoff_year must be integer, got '2003'"),
        ("protocol", {"horizon_year": 2011.0},
         "protocol.horizon_year must be integer, got 2011.0"),
        ("protocol", [2003], "config section protocol must be an object"),
        ("protocl", {}, "unknown config setting protocl"),
        ("protocol", {"ks": [2, 5, 2]}, "protocol.ks lists 2 more than once"),
        ("protocol", {"cohort_years": [1999, 2000, 1999, 2000]},
         "protocol.cohort_years lists 1999 more than once"),
        # an empty pattern is in every title: it would remove every paper
        ("preprocess", {"survey_substrings": [""]},
         "preprocess.survey_substrings holds an empty pattern"),
        ("preprocess", {"proceedings_prefixes": ["workshop on", ""]},
         "preprocess.proceedings_prefixes holds an empty pattern"),
        # a boolean is no integer and an integer no boolean; every list item
        # is checked
        ("protocol", {"ks": [True]}, "protocol.ks must be list of integers, got [True]"),
        ("preprocess", {"require_abstract": 1},
         "preprocess.require_abstract must be boolean, got 1"),
        ("hyperparams", {"mode": 1}, "hyperparams.mode must be string, got 1"),
        ("preprocess", {"survey_substrings": ["a", 1]},
         "preprocess.survey_substrings must be list of strings, got ['a', 1]"),
        # an integer sets a float and null a path: the error is the next setting's
        ("hyperparams", {"tolerance": 1, "u": 0}, "u must be at least 1, got 0"),
        ("features", {"stopwords": None, "min_df": 0}, "min_df must be at least 1, got 0"),
    ])
    def test_data_error_config_setting(self, corpus_file, tmp_path, capsys,
                                       section, settings, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"corpus": str(corpus_file),
                                   "workspace": str(tmp_path / "ws"),
                                   section: settings}))
        for command in ("rank", "eval"):
            assert main([command, "--config", str(cfg)]) == 2
            err = capsys.readouterr().err
            assert message in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("content", [
        b'{corpus: "c.jsonl"}', b'{"corpus": "\xff"}', b"[" * 100_000],
        ids=["not_json", "not_utf8", "too_deep"])
    def test_data_error_undecodable_config(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        for command in ("rank", "eval"):
            assert main([command, "--config", str(cfg)]) == 2
            err = capsys.readouterr().err
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert len(errors) == 1 and str(cfg) in errors[0]
            assert "Traceback" not in err

    @pytest.mark.parametrize("content, message", [
        ("[1, 2]", "config file {cfg} must hold a JSON object"),
        ('{"corpus": 5}', "config setting corpus must be string or null, got 5"),
    ], ids=["array", "corpus_not_string"])
    def test_data_error_config_shape(self, tmp_path, capsys, content, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        for command in ("rank", "eval"):
            assert main([command, "--config", str(cfg)]) == 2
            err = capsys.readouterr().err
            assert f"error: {message.format(cfg=cfg)}\n" in err
            assert "Traceback" not in err

    def test_data_error_no_paths(self, capsys):
        assert main(["rank"]) == 2
        err = capsys.readouterr().err
        assert "error: config must provide corpus and workspace paths\n" in err
        assert "Traceback" not in err

    # (section, settings, message); a row's id is its section, its index and
    # its message
    _EARLY_SETTINGS = [
        ("protocol", {"cutoff_year": 2005, "horizon_year": 2005},
         "protocol.cutoff_year 2005 must be before protocol.horizon_year 2005"),
        ("protocol", {"cutoff_year": 2008, "horizon_year": 2003},
         "protocol.cutoff_year 2008 must be before protocol.horizon_year 2003"),
        ("protocol", {"cutoff_year": 2011},
         "protocol.cutoff_year 2011 must be before protocol.horizon_year 2011"),
        ("features", {"window_years": 0}, "window_years must be at least 1, got 0"),
        ("features", {"window_years": 2**70},
         f"window_years must be below 2**63, got {2**70}"),
        ("features", {"min_df": 0}, "min_df must be at least 1, got 0"),
        ("hyperparams", {"u": 0}, "u must be at least 1, got 0"),
        ("hyperparams", {"rho_edge": -1}, "rho_edge must be finite and >= 0, got -1"),
        ("protocol", {"ks": [0]}, "protocol.ks must be at least 1, got 0"),
        # years outside the record-year range would overflow int64 arithmetic
        ("protocol", {"cutoff_year": 2**63, "horizon_year": 2**64},
         f"protocol.cutoff_year={2**63} outside [-2147483648, 2147483647]"),
        # a float setting reads its JSON number with float(), as its flag
        # reads its text
        ("hyperparams", {"rho_edge": 10**400},
         "config setting hyperparams.rho_edge: int too large to convert to float"),
        ("hyperparams", {"rho_feature": 10**400},
         "config setting hyperparams.rho_feature: int too large to convert to float"),
        ("hyperparams", {"tolerance": 10**400},
         "config setting hyperparams.tolerance: int too large to convert to float"),
        # null gives the built-in stopword list, not an empty path
        ("features", {"stopwords": ""}, "features.stopwords is an empty path"),
    ]

    @pytest.mark.parametrize("section, settings, message", _EARLY_SETTINGS,
                             ids=[f"{section}{i}-{message}" for i, (section, _, message)
                                  in enumerate(_EARLY_SETTINGS)])
    def test_data_error_cutoff_not_before_horizon(self, tmp_path, capsys, section,
                                                  settings, message):
        # the corpus does not exist: every setting is checked before it is read
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"corpus": str(tmp_path / "missing.jsonl"),
                                   "workspace": str(tmp_path / "ws"),
                                   section: settings}))
        for command in ("rank", "eval"):
            assert main([command, "--config", str(cfg)]) == 2
            err = capsys.readouterr().err
            assert message in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag, value, message", [
        ("features", "--u", "0", "u must be at least 1, got 0"),
        ("features", "--rho", "nan", "rho must be finite and >= 0, got nan"),
        ("features", "--stopwords", "stopwords.txt", "stopwords.txt"),
        ("rank", "--stopwords", "stopwords.txt", "stopwords.txt")])
    def test_data_error_flag_before_corpus(self, tmp_path, capsys, command, flag, value,
                                           message):
        """An out-of-range flag or a missing stopword file is named, not the
        corpus, which is missing too."""
        corpus = tmp_path / "missing.jsonl"
        if flag == "--stopwords":
            value = message = str(tmp_path / value)
        if command == "rank":
            args = rank_args(corpus, tmp_path / "ws", flag, value)
        else:
            args = ["features", "--input", str(corpus),
                    "--output", str(tmp_path / "f.tsv"), flag, value]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert message in err
        assert str(corpus) not in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("command", ["features", "rank"])
    def test_data_error_empty_stopwords_flag(self, tmp_path, capsys, command):
        """``--stopwords ""`` is refused before the corpus is read, not taken
        for the built-in list."""
        corpus = tmp_path / "missing.jsonl"
        if command == "rank":
            args = rank_args(corpus, tmp_path / "ws", "--stopwords", "")
        else:
            args = ["features", "--input", str(corpus),
                    "--output", str(tmp_path / "f.tsv"), "--stopwords", ""]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "features.stopwords is an empty path" in err
        assert str(corpus) not in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("lines, message", [
        (["rank\tid\tscore", "1\tp05\t0.5", "2"], "papers_full.tsv line 3: no id column"),
        (["rank\tid\tscore", "1\t\t0.5"], "papers_full.tsv line 2: no id column"),
        (["rank\tid\tscore", "1\tp05\t0.5", "2\tp07\t0.4", "3\tp05\t0.3"],
         "papers_full.tsv line 4: id 'p05' listed twice"),
        # an id outside the ranked sub-corpus counts too
        (["rank\tid\tscore", "1\tzz\t0.5", "2\tzz\t0.4"],
         "papers_full.tsv line 3: id 'zz' listed twice"),
        # of a duplicate and a row with no id column, the earlier line is named
        (["rank\tid\tscore", "1\tp05\t0.5", "2\tp05\t0.4", "3"],
         "papers_full.tsv line 3: id 'p05' listed twice"),
        (["rank\tid\tscore", "1\tp05\t0.5", "2", "3\tp05\t0.3"],
         "papers_full.tsv line 3: no id column"),
        (["# WARNING: NOT CONVERGED", "rank\tid\tscore", "1\tp05\t0.5", "2\tp05\t0.4"],
         "papers_full.tsv line 4: id 'p05' listed twice"),
    ])
    def test_data_error_malformed_ranking_file(self, corpus_file, tmp_path, capsys,
                                               lines, message):
        ws = tmp_path / "ws"
        ws.mkdir()
        (ws / "papers_full.tsv").write_text("\n".join(lines) + "\n")
        cfg = eval_config(tmp_path / "cfg.json", corpus_file, ws,
                          {"cohort_years": [1998], "ks": [2]})
        assert main(["eval", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ("", "eval.tsv line 1: no header line"),
        ("year\tmethod\tkind\tk\tri\n2000\tfull\tP\t2\t1.5\n2000\tfull\tP\n",
         "eval.tsv line 3: not enough values to unpack (expected 5, got 3)"),
        ("year\tmethod\tkind\tk\tri\n2000\tfull\tP\ttwo\t1.5\n",
         "eval.tsv line 2: invalid literal for int()"),
    ])
    def test_data_error_malformed_eval_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "eval.tsv"
        path.write_text(text)
        assert main(["report", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", ["report_input", "ranking_file", "stopwords"])
    def test_data_error_undecodable_text_file(self, corpus_file, tmp_path, capsys, case):
        """A byte that is not UTF-8 in a text file the CLI reads ends with
        exit 2 and one ``error:`` line naming the file, the line and the
        byte within it, past the decoder's first chunk."""
        ws = tmp_path / "ws"
        ws.mkdir()
        bad = {"report_input": tmp_path / "eval.tsv", "ranking_file": ws / "papers_full.tsv",
               "stopwords": tmp_path / "stopwords.txt"}[case]
        # rows each of the three readers accepts, then the bad one on line 2002
        rows = "".join(f"2000\tm{i}\tP\t2\t1.5\n" for i in range(2000))
        bad.write_bytes(b"rank\tid\tscore\n" + rows.encode() + b"1\tp05\xff\t0.5\n")
        args = {"report_input": ["report", "--input", str(bad)],
                "ranking_file": ["eval", "--config", str(eval_config(
                    tmp_path / "cfg.json", corpus_file, ws, {"cohort_years": [1998]}))],
                "stopwords": ["features", "--input", str(corpus_file), "--output",
                              str(tmp_path / "features.tsv"), "--stopwords", str(bad)]}[case]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"error: {bad} line 2002: not UTF-8 (invalid start byte at byte 6)\n" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cohort_years", [[1800, 2100], []])
    def test_data_error_no_cohort(self, corpus_file, tmp_path, capsys, cohort_years):
        ws = tmp_path / "ws"
        assert main(rank_args(corpus_file, ws)) == 0
        cfg = eval_config(tmp_path / "cfg.json", corpus_file, ws,
                          {"cohort_years": cohort_years})
        assert main(["eval", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert (f"protocol.cohort_years {cohort_years} give no paper or author "
                "cohort in the ranked sub-corpus (years 1996-2005)") in err
        assert not (ws / "eval.tsv").exists()

    def test_data_error_empty_entity_set(self, corpus_file, tmp_path, capsys):
        """A year floor after every paper leaves nothing to rank: exit 2,
        and the filter report is the only file written."""
        ws = tmp_path / "ws"
        assert main(["rank", "--corpus", str(corpus_file), "--workspace", str(ws),
                     "--min-year", "3000"]) == 2
        err = capsys.readouterr().err
        assert "error: pipeline produced an empty entity set (N=0, M=0, K=0)\n" in err
        assert [p.name for p in ws.iterdir()] == ["filter_report.txt"]


class TestIngest:
    def test_native_roundtrip(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "native.jsonl"
        assert main(["ingest", "--input", str(corpus_file),
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 30
        ids = [json.loads(l)["id"] for l in lines]
        assert ids == sorted(ids)
        captured = capsys.readouterr()
        assert "parsed_papers\t30" in captured.out

    @pytest.mark.parametrize("bad, warning", [
        (b"{not json", "line 5 skipped: not JSON (Expecting property name enclosed "
                       "in double quotes at column 2)"),
        (b'{"id": "\xff", "year": 2001}',
         "line 5 skipped: not UTF-8 (invalid start byte at byte 9)"),
        (b'{"id": "p99", "year": true}', "record 5 skipped: year is not an integer"),
        (b'{"id": "p99", "year": 1' + b"0" * 5000 + b"}",
         "line 5 skipped: not decodable JSON (Exceeds the limit (4300 digits) for "
         "integer string conversion"),
        (b"[" * 100_000, "line 5 skipped: not decodable JSON (maximum recursion depth "
                         "exceeded")])
    def test_bad_line_skipped_and_counted(self, corpus_file, tmp_path, capsys,
                                          caplog, bad, warning):
        lines = corpus_file.read_bytes().splitlines()
        corpus_file.write_bytes(b"\n".join(lines[:4] + [bad] + lines[4:]) + b"\n")
        out = tmp_path / "native.jsonl"
        assert main(["ingest", "--input", str(corpus_file),
                     "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 30
        captured = capsys.readouterr()
        assert "parsed_papers\t30" in captured.out
        assert "skipped_malformed\t1" in captured.out
        assert warning in caplog.text

    def test_native_outputs_match_recorded_digests(self, tmp_path, capsys):
        """The bytes ``write_native`` writes after ``ingest`` and after
        ``preprocess`` keep the recorded sha256, and the filtered file
        references no paper the filters removed."""
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(NATIVE_LINES) + "\n")
        assert main(["ingest", "--input", str(corpus),
                     "--output", str(tmp_path / "ingest.jsonl")]) == 0
        assert main(["preprocess", "--input", str(corpus), "--min-year", "1990",
                     "--output", str(tmp_path / "preprocess.jsonl")]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in NATIVE_DIGESTS}
        assert digests == NATIVE_DIGESTS
        capsys.readouterr()
        assert main(["ingest", "--input", str(tmp_path / "preprocess.jsonl"),
                     "--output", str(tmp_path / "again.jsonl")]) == 0
        assert "dangling_references\t0" in capsys.readouterr().out

    def test_arnetminer_outputs_match_recorded_digests(self, tmp_path, capsys):
        """The bytes ``ingest --format arnetminer`` writes and prints keep
        the recorded sha256."""
        raw = tmp_path / "raw.txt"
        raw.write_bytes(ARNETMINER_TEXT.encode("utf-8"))
        assert main(["ingest", "--input", str(raw), "--format", "arnetminer",
                     "--output", str(tmp_path / "ingest.jsonl")]) == 0
        written = {"ingest.jsonl": (tmp_path / "ingest.jsonl").read_bytes(),
                   "stdout": capsys.readouterr().out.encode("utf-8")}
        assert {name: hashlib.sha256(data).hexdigest()
                for name, data in written.items()} == ARNETMINER_DIGESTS

    def test_arnetminer_undecodable_byte_names_file(self, tmp_path, capsys):
        """The error names the line of the byte and its byte within the
        line, past the decoder's first chunk."""
        raw = tmp_path / "raw.txt"
        good = b"".join(b"#*One\n#index%d\n#t2000\n\n" % i for i in range(1000))
        raw.write_bytes(good + b"#*Two\xff\n#index2\n#t2001\n")
        assert main(["ingest", "--input", str(raw), "--format", "arnetminer",
                     "--output", str(tmp_path / "native.jsonl")]) == 2
        err = capsys.readouterr().err
        assert f"error: {raw} line 4001: not UTF-8 (invalid start byte at byte 6)\n" in err
        assert "Traceback" not in err

    def test_arnetminer(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text(
            "#*First Paper\n#@Ann Smith; Bo Chen\n#t2001\n#cVLDB\n"
            "#index10\n#%11\n#!Some abstract text.\n\n"
            "#*Second Paper\n#@Cara Diaz\n#t2000\n#index11\n#!Older work.\n")
        out = tmp_path / "native.jsonl"
        assert main(["ingest", "--input", str(raw), "--output", str(out),
                     "--format", "arnetminer"]) == 0
        recs = [json.loads(l) for l in out.read_text().splitlines()]
        by_id = {r["id"]: r for r in recs}
        assert by_id["10"]["authors"] == ["Ann Smith", "Bo Chen"]
        assert by_id["10"]["refs"] == ["11"]
        assert by_id["11"]["year"] == 2000


class TestPreprocessAndFeatures:
    def test_preprocess_writes_filtered(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "pre.jsonl"
        assert main(["preprocess", "--input", str(corpus_file),
                     "--output", str(out), "--min-year", "2000"]) == 0
        recs = [json.loads(l) for l in out.read_text().splitlines()]
        assert recs and all(r["year"] >= 2000 for r in recs)

    @pytest.mark.parametrize("flags", [
        ["--survey-substrings", "survey"], ["--survey-substrings", "Survey"],
        ["--survey-substrings", "SURVEY,x"],
        ["--survey-substrings", "", "--proceedings-prefixes", "a survey"],
        ["--survey-substrings", "", "--proceedings-prefixes", "A Survey"],
        ["--survey-substrings", ",", "--proceedings-prefixes", "A SURVEY OF"]])
    def test_patterns_ignore_case(self, tmp_path, capsys, flags):
        """A title pattern matches whatever the case of the title and of the
        pattern; an empty flag value sets no pattern."""
        recs = tiny_records()
        recs[4]["title"] = "A Survey of things"
        corpus = write_corpus(tmp_path / "corpus.jsonl", recs)
        assert main(["preprocess", "--input", str(corpus), "--min-year", "1990",
                     "--output", str(tmp_path / "pre.jsonl"), *flags]) == 0
        assert "removed_survey\t1\n" in capsys.readouterr().out

    def test_features_snapshot(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "features.tsv"
        assert main(["features", "--input", str(corpus_file),
                     "--output", str(out), "--min-df", "3"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# origin_year\t1996")
        assert lines[1].split("\t")[0] == "kind"
        assert len(lines) > 2

    def test_stopword_entries_lowered(self, tmp_path, capsys):
        """Tokens are lowered before the stopword test, and so are the
        entries of a list: ``The`` in the list drops ``the``."""
        recs = tiny_records()
        for r in recs:
            r["title"] = "The " + r["title"]
        corpus = write_corpus(tmp_path / "corpus.jsonl", recs)
        words = {}
        for entry in ("The", "of"):
            stopwords = tmp_path / f"{entry}.txt"
            stopwords.write_text(entry + "\n")
            out = tmp_path / f"{entry}.tsv"
            assert main(["features", "--input", str(corpus), "--output", str(out),
                         "--min-df", "1", "--stopwords", str(stopwords)]) == 0
            words[entry] = {line.split("\t")[1] for line in out.read_text().splitlines()[2:]
                            if line.startswith("w\t")}
        assert "the" in words["of"]
        assert "the" not in words["The"] and words["The"] == words["of"] - {"the"}


class TestRank:
    def test_outputs_written_and_converged(self, corpus_file, tmp_path, capsys):
        ws = tmp_path / "ws"
        assert main(rank_args(corpus_file, ws)) == 0
        for name in ("papers_full.tsv", "authors_full.tsv", "features_full.tsv",
                     "convergence_full.tsv", "filter_report.txt"):
            assert (ws / name).exists()
        lines = (ws / "papers_full.tsv").read_text().splitlines()
        assert lines[0] == "rank\tid\tscore"
        assert len(lines) > 10

    def test_rerun_byte_identical(self, corpus_file, tmp_path, capsys):
        ws1, ws2 = tmp_path / "a", tmp_path / "b"
        assert main(rank_args(corpus_file, ws1)) == 0
        assert main(rank_args(corpus_file, ws2)) == 0
        for name in ("papers_full.tsv", "authors_full.tsv", "features_full.tsv"):
            assert (ws1 / name).read_bytes() == (ws2 / name).read_bytes()

    def test_outputs_match_recorded_digests(self, corpus_file, tmp_path, capsys):
        """Every ranking file of every mode, a features snapshot and the
        evaluation of all four modes keep their recorded bytes: a refactor
        that moves any byte fails here."""
        ws = tmp_path / "ws"
        for mode in MODES:
            assert main(rank_args(corpus_file, ws, "--mode", mode.replace("_", "-"))) == 0
        assert main(["features", "--input", str(corpus_file),
                     "--output", str(ws / "snapshot.tsv")]) == 0
        cfg = eval_config(tmp_path / "eval.json", corpus_file, ws, EVAL_PROTOCOL)
        assert main(["eval", "--config", str(cfg)]) == 0
        digests = {name: hashlib.sha256((ws / name).read_bytes()).hexdigest()
                   for name in OUTPUT_DIGESTS}
        assert digests == OUTPUT_DIGESTS

    def test_rank_makes_no_resorted_copy(self, corpus_file, tmp_path, capsys):
        """``rank`` applies the transposed factors over the stored matrices
        (``SparseMatrix`` has no ``transpose``), and its ranking files keep
        the recorded bytes."""
        assert not hasattr(SparseMatrix, "transpose")
        ws = tmp_path / "ws"
        for mode in MODES:
            assert main(rank_args(corpus_file, ws, "--mode", mode.replace("_", "-"))) == 0
        for kind in ("papers", "authors", "features"):
            for mode in MODES:
                name = f"{kind}_{mode}.tsv"
                digest = hashlib.sha256((ws / name).read_bytes()).hexdigest()
                assert digest == OUTPUT_DIGESTS[name], name

    @pytest.mark.parametrize("flag, value", [("--stopwords", "/nonexistent/stopwords.txt"),
                                             ("--window-years", "0"), ("--min-df", "0")])
    def test_rank_failing_in_feature_step_writes_nothing(self, corpus_file, tmp_path,
                                                         capsys, flag, value):
        """A rank refused for its feature settings leaves every file of a
        ranked workspace as it was, and writes no file in a new one,
        ``filter_report.txt`` included."""
        ws = tmp_path / "ws"
        assert main(rank_args(corpus_file, ws)) == 0
        before = {p.name: p.read_bytes() for p in ws.iterdir()}
        # a filter that changes the report's counts
        assert main(rank_args(corpus_file, ws, "--min-year", "2000", flag, value)) == 2
        assert {p.name: p.read_bytes() for p in ws.iterdir()} == before
        fresh = tmp_path / "fresh"
        assert main(rank_args(corpus_file, fresh, flag, value)) == 2
        assert not [p for p in fresh.rglob("*") if p.is_file()]

    def test_coauthor_dense_outputs_match_recorded_digests(self, tmp_path, capsys):
        """With 3 to 6 authors per paper every author row of the coauthor
        graph holds entries on both sides of the diagonal, so a misplaced or
        mis-summed entry moves the recorded bytes."""
        corpus = write_corpus(tmp_path / "corpus.jsonl", coauthor_records())
        ws = tmp_path / "ws"
        for mode in MODES:
            assert main(rank_args(corpus, ws, "--mode", mode.replace("_", "-"))) == 0
        digests = {name: hashlib.sha256((ws / name).read_bytes()).hexdigest()
                   for name in COAUTHOR_DIGESTS}
        assert digests == COAUTHOR_DIGESTS

    def test_modes_differ(self, corpus_file, tmp_path, capsys):
        ws = tmp_path / "ws"
        assert main(rank_args(corpus_file, ws)) == 0
        assert main(rank_args(corpus_file, ws, "--mode", "no-time")) == 0
        assert main(rank_args(corpus_file, ws, "--mode", "no-content")) == 0
        full = (ws / "papers_full.tsv").read_text()
        no_time = (ws / "papers_no_time.tsv").read_text()
        no_content = (ws / "papers_no_content.tsv").read_text()
        assert full != no_time
        assert full != no_content

    def test_rho_zero_full_equals_no_time(self, corpus_file, tmp_path, capsys):
        """Ablating time must be exactly the same computation as running the
        full model with edge decay switched off."""
        ws = tmp_path / "ws"
        assert main(rank_args(corpus_file, ws, "--rho-edge", "0")) == 0
        assert main(rank_args(corpus_file, ws, "--mode", "no-time")) == 0
        full = (ws / "papers_full.tsv").read_bytes()
        no_time = (ws / "papers_no_time.tsv").read_bytes()
        assert full == no_time

    def test_config_file_and_flag_override(self, corpus_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "corpus": str(corpus_file), "workspace": str(tmp_path / "ws"),
            "hyperparams": {"tolerance": 1e-10, "max_iterations": 3000,
                            "alpha_p": 0.5},
            "preprocess": {"min_year": 1990},
        }))
        assert main(["rank", "--config", str(cfg)]) == 0
        base = (tmp_path / "ws" / "papers_full.tsv").read_bytes()
        # overriding alpha-p on the command line changes the result
        assert main(["rank", "--config", str(cfg), "--alpha-p", "0.2"]) == 0
        assert (tmp_path / "ws" / "papers_full.tsv").read_bytes() != base


class TestEvalAndReport:
    def make_config(self, corpus_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "corpus": str(corpus_file), "workspace": str(tmp_path / "ws"),
            "hyperparams": {"tolerance": 1e-10, "max_iterations": 3000},
            "preprocess": {"min_year": 1990},
            "protocol": {"cutoff_year": 2003, "horizon_year": 2005,
                         "cohort_years": [2000], "ks": [2, 3]},
        }))
        return cfg

    def test_eval_then_report(self, corpus_file, tmp_path, capsys, caplog):
        cfg = self.make_config(corpus_file, tmp_path)
        assert main(["rank", "--config", str(cfg)]) == 0
        caplog.set_level(logging.INFO, logger="mrfrank")
        assert main(["eval", "--config", str(cfg)]) == 0
        # papers after the 2003 cutoff are not in the ranked sub-corpus
        assert [r.getMessage() for r in caplog.records
                if "sub-corpus" in r.getMessage()] == [
            "ranked sub-corpus: 24 papers, years 1996-2003"]
        eval_path = tmp_path / "ws" / "eval.tsv"
        lines = eval_path.read_text().splitlines()
        assert lines[0] == "year\tmethod\tkind\tk\tri"
        methods = {l.split("\t")[1] for l in lines[1:]}
        assert methods == {"full", "cc"}
        ks = {l.split("\t")[3] for l in lines[1:]}
        assert ks == {"2", "3"}
        report_path = tmp_path / "ws" / "report.txt"
        assert main(["report", "--input", str(eval_path),
                     "--output", str(report_path)]) == 0
        text = report_path.read_text()
        assert "P@2" in text and "full" in text and "cc" in text

    def test_eval_warns_of_rankings_not_converged(self, corpus_file, tmp_path, capsys,
                                                  caplog):
        """A ranking file marked not converged is scored, with one warning
        naming it."""
        cfg = self.make_config(corpus_file, tmp_path)
        assert main(["rank", "--config", str(cfg), "--max-iterations", "1"]) == 3
        assert main(["eval", "--config", str(cfg)]) == 0
        ws = tmp_path / "ws"
        assert [r.getMessage() for r in caplog.records if "converge" in r.getMessage()] == [
            f"{ws / name} is from a run that did not converge"
            for name in ("papers_full.tsv", "authors_full.tsv")]

    def test_eval_warns_once_per_skipped_k(self, corpus_file, tmp_path, capsys, caplog):
        """A k larger than its cohort is skipped with one warning naming the
        k, the cohort and the year, however many methods are scored."""
        ws = tmp_path / "ws"
        cfg = eval_config(tmp_path / "cfg.json", corpus_file, ws,
                          {"cutoff_year": 2003, "horizon_year": 2005,
                           "cohort_years": [1996, 2000], "ks": [2, 5, 10]})
        for mode in ("full", "no-time"):
            assert main(["rank", "--config", str(cfg), "--mode", mode]) == 0
        assert main(["eval", "--config", str(cfg)]) == 0
        assert [r.getMessage() for r in caplog.records if "exceeds" in r.getMessage()] == [
            f"k={k} exceeds the {name} cohort size {size} for year {year}, skipped"
            for year, name, size, k in ((1996, "papers_of_year", 3, 5),
                                        (1996, "papers_of_year", 3, 10),
                                        (1996, "authors_starting_year", 6, 10),
                                        (2000, "papers_of_year", 3, 5),
                                        (2000, "papers_of_year", 3, 10))]

    def test_report_without_rows(self, tmp_path, capsys):
        """An eval.tsv holding only its header renders as one line, both on
        stdout and in the ``--output`` file."""
        path = tmp_path / "eval.tsv"
        path.write_text("year\tmethod\tkind\tk\tri\n")
        assert main(["report", "--input", str(path)]) == 0
        assert capsys.readouterr().out == "(no evaluation rows)\n"
        out = tmp_path / "report.txt"
        assert main(["report", "--input", str(path), "--output", str(out)]) == 0
        assert out.read_text() == "(no evaluation rows)\n"
        assert capsys.readouterr().out == ""

    def test_eval_without_rankings_is_data_error(self, corpus_file, tmp_path,
                                                 capsys):
        cfg = self.make_config(corpus_file, tmp_path)
        (tmp_path / "ws").mkdir()
        assert main(["eval", "--config", str(cfg)]) == 2


def test_rank_flags_cover_all_config_fields():
    """Every hyperparameter and preprocessing option must be settable from
    the rank subcommand without a config file."""
    parser = build_parser()
    rank = next(a for a in parser._subparsers._group_actions[0].choices.items()
                if a[0] == "rank")[1]
    opts = {s for action in rank._actions for s in action.option_strings}
    for f in dataclasses.fields(HyperParams):
        assert "--" + f.name.replace("_", "-") in opts, f.name
    for f in dataclasses.fields(PreprocessConfig):
        assert "--" + f.name.replace("_", "-") in opts, f.name


def test_list_flag_drops_empty_items():
    args = build_parser().parse_args(["rank", "--corpus", "c.jsonl", "--workspace", "ws",
                                      "--survey-substrings", "a,,b"])
    assert load_config(args).preprocess.survey_substrings == ("a", "b")


def test_every_setting_has_a_written_form():
    """Every field of the four sections has a row in ``config.FORMS``, which
    checks its config file value and reads its flag."""
    for cls in SECTIONS.values():
        for name, hint in typing.get_type_hints(cls).items():
            assert hint in FORMS, (cls.__name__, name, hint)


# per numeric ``rank``, ``eval`` and ``features`` flag, values it must reject: text that
# is no number of its type, and the numbers outside its range
_NOT_AN_INT = st.sampled_from(["x", "", "1,5", "2.5", "nan", "0x10"])
_NOT_A_FLOAT = st.sampled_from(["x", "", "1,5", "0x10"])


def _ints_below_one():
    return _NOT_AN_INT | st.integers(max_value=0).map(str)


def _floats_outside(valid):
    return _NOT_A_FLOAT | st.floats().filter(lambda v: not valid(v)).map(repr)


# a window of 2**63 years or more overflows the int64 division
_WINDOW_YEARS = _ints_below_one() | st.integers(min_value=2**63).map(str)

INVALID_FLAG_VALUES = {
    ("rank", "--min-year"): _NOT_AN_INT,
    ("eval", "--min-year"): _NOT_AN_INT,
    ("rank", "--window-years"): _WINDOW_YEARS,
    ("features", "--window-years"): _WINDOW_YEARS,
    ("rank", "--min-df"): _ints_below_one(),
    ("features", "--min-df"): _ints_below_one(),
    ("features", "--u"): _ints_below_one(),
    ("features", "--rho"): _floats_outside(lambda v: 0 <= v < math.inf),
    ("rank", "--u"): _ints_below_one(),
    ("rank", "--max-iterations"): _ints_below_one(),
    **{("rank", flag): _floats_outside(lambda v: 0 <= v <= 1)
       for flag in ("--alpha-p", "--beta-p", "--alpha-a", "--beta-a", "--alpha-f")},
    ("rank", "--tolerance"): _floats_outside(lambda v: 0 < v < math.inf),
    ("rank", "--rho-edge"): _floats_outside(lambda v: 0 <= v < math.inf),
    ("rank", "--rho-feature"): _floats_outside(lambda v: 0 <= v < math.inf),
}


@pytest.fixture(scope="module")
def module_corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in tiny_records()))
    return path


def test_numeric_flags_all_checked():
    """``INVALID_FLAG_VALUES`` covers every numeric flag of rank, eval and
    features."""
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    numeric = {(command, action.option_strings[0])
               for command in ("rank", "eval", "features")
               for action in commands[command]._actions
               if action.type in (int, float)}
    assert numeric == set(INVALID_FLAG_VALUES)


@pytest.mark.parametrize("command, flag", sorted(INVALID_FLAG_VALUES))
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_invalid_numeric_flag_named_on_exit(module_corpus_file, tmp_path_factory,
                                            command, flag, data):
    """An invalid value of a numeric flag ends the command with exit 1
    (usage) or 2 (data), naming the flag on stderr, with no traceback."""
    value = data.draw(INVALID_FLAG_VALUES[command, flag], label="value")
    ws = tmp_path_factory.mktemp("ws")
    if command == "features":
        paths = ["--input", str(module_corpus_file), "--output", str(ws / "f.tsv")]
    else:
        paths = ["--corpus", str(module_corpus_file), "--workspace", str(ws)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, *paths, f"{flag}={value}"])
    assert code in (1, 2)
    assert flag in err.getvalue() or flag[2:].replace("-", "_") in err.getvalue()
    assert "Traceback" not in err.getvalue()
