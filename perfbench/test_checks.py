"""The benchmark's output checks catch corrupted output.

    python3 -m pytest perfbench/test_checks.py
"""

import sys
from pathlib import Path

import checks
import run
import tracing

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def write_ranking(path: Path, rows, header="") -> None:
    total = sum(s for _, s in rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "rank\tid\tscore\n")
        for r, (eid, s) in enumerate(rows, start=1):
            fh.write(f"{r}\t{eid}\t{s / total:.10g}\n")


def write_rank_outputs(ws: Path, mode: str, papers, authors) -> None:
    write_ranking(ws / f"papers_{mode}.tsv", papers)
    write_ranking(ws / f"authors_{mode}.tsv", authors)
    write_ranking(ws / f"features_{mode}.tsv", [("w|x", 2.0), ("w|y", 1.0)])
    (ws / f"convergence_{mode}.tsv").write_text(
        "# converged\tTrue\niteration\tl1_delta\n1\t0.5\n2\t1e-9\n")


PAPERS = [("p1", 5.0), ("p2", 3.0), ("p3", 2.0)]
AUTHORS = [("a1", 2.0), ("a2", 1.0)]
EXPECTED = {"papers": {"p1", "p2", "p3"}, "authors": {"a1", "a2"}}


def test_good_outputs_pass(tmp_path):
    write_rank_outputs(tmp_path, "full", PAPERS, AUTHORS)
    assert checks.check_rank(tmp_path, "full", EXPECTED) == []


def test_corrupted_ranking_files_fail(tmp_path):
    write_rank_outputs(tmp_path, "full", PAPERS, AUTHORS)
    path = tmp_path / "papers_full.tsv"
    good = path.read_text()

    path.write_text(good.replace("\t0.5\n", "\t0.6\n"))  # mass no longer 1
    assert any("sum" in p for p in checks.check_rank(tmp_path, "full", EXPECTED))

    path.write_text("\n".join(good.splitlines()[:-1]) + "\n")  # a row lost
    assert any("expected 3" in p for p in checks.check_rank(tmp_path, "full", EXPECTED))

    path.write_text("# WARNING: NOT CONVERGED\n" + good)
    assert any("NOT CONVERGED" in p for p in checks.check_rank(tmp_path, "full", EXPECTED))

    path.write_text(good.replace("p1", "p1\tjunk"))
    assert checks.check_rank(tmp_path, "full", EXPECTED)


def test_reference_mismatch_fails(tmp_path):
    write_rank_outputs(tmp_path, "full", PAPERS, AUTHORS)
    (tmp_path / "eval.tsv").write_text(
        "year\tmethod\tkind\tk\tri\n2005\tfull\tP\t2\t2.5\n2005\tcc\tP\t2\t1\n")
    reference = checks.reference_of(tmp_path, ("full",))
    assert checks.check_reference(tmp_path, ("full",), reference) == []
    write_rank_outputs(tmp_path, "full", [("p1", 5.0), ("p3", 3.0), ("p2", 2.0)], AUTHORS)
    assert checks.check_reference(tmp_path, ("full",), reference)


def test_a_corrupted_ranking_counts_as_a_failed_operation(tmp_path, monkeypatch):
    """A command that exits 0 but writes a corrupted ranking is counted in
    ``failed``, like one that exits non-zero."""
    bench = run.Bench(tmp_path, "scale_rank", 1, tmp_path)
    bench.cfg = tmp_path / "config.json"
    bench.expected = EXPECTED

    def fake_launch(argv):
        ws = Path(argv[argv.index("--workspace") + 1])
        if "rank" in argv:
            write_rank_outputs(ws, "full", PAPERS, AUTHORS)
            p = ws / "papers_full.tsv"
            p.write_text(p.read_text().replace("\t0.5\n", "\t0.6\n"))
        else:
            (ws / "eval.tsv").write_text(
                "year\tmethod\tkind\tk\tri\n2005\tfull\tP\t2\t2.5\n2005\tcc\tP\t2\t1\n")
        return 0, 1.0, 100.0, 1.0

    monkeypatch.setattr(bench, "launch", fake_launch)
    result = bench.run_pass(0, traced=False)
    assert bench.attempted == 2
    assert bench.failed == 1
    assert result.outcomes[0].problems and not result.outcomes[1].problems


def test_a_removed_function_is_reported_absent():
    assert tracing.Tracer().install({"kernels.no_such_function": None,
                                     "no_such_module.f": None}) == [
        "kernels.no_such_function", "no_such_module.f"]
    metrics = tracing.layer_metrics(
        [{"spans": [{"name": "cli.main", "parent": -1, "start": 0.0, "end": 1.0,
                     "counts": {}}], "absent": ["kernels.spmv"]}], [1.5], 1.4)
    assert metrics["kernels.spmv_calls"] == 0 and metrics["kernels.spmv_s"] == 0.0
    assert abs(metrics["cli.self_s"] - 1.5) < 1e-12
    assert abs(metrics["trace.overhead_s"] - 0.1) < 1e-12
