"""Timing spans around the public mrfrank functions the CLI calls.

Run as a script, this module executes one ``mrfrank`` command in-process
with every function in ``TARGETS`` wrapped, then writes the spans once, as
JSON, when the command has finished:

    python3 perfbench/tracing.py SPANS.json rank --config cfg.json ...

The wrappers live here, not in ``src/``: the program runs unmodified.  A
target that a later version of the program renames or removes is listed
as absent instead of failing the run.  The parent benchmark turns the
spans of a traced pass into per-layer metrics with ``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _nnz(x) -> int:
    return int(x.nnz) if hasattr(x, "nnz") else len(x)


def _operator_counts(blocks) -> dict:
    """nnz of the operator and the bytes one application of it moves,
    computed from the arrays' dtypes: per nonzero its value, its row and
    column index and the gathered input entry; per row one output entry."""
    parts = [v for v in vars(blocks).values() if hasattr(v, "nnz")] or [blocks]
    nnz = nbytes = 0
    for b in parts:
        arrays = [getattr(b, a) for a in ("data", "rows", "cols", "indices")
                  if hasattr(b, a)]
        nnz += b.nnz
        nbytes += b.nnz * (sum(a.itemsize for a in arrays) + 8) + b.shape[0] * 8
    return {"nnz": nnz, "bytes_per_apply": nbytes}


# wrapped function -> the counts read from its return value
TARGETS = {
    "corpus.read_native": None,
    "corpus.parse_corpus": lambda r: {"papers": len(r[0].papers),
                                      "citation_edges": len(r[0].citation_edges)},
    "corpus.preprocess": None,
    "corpus.split_ground_truth": None,
    "textfeat.build_feature_table": lambda r: {"features": len(r.features)},
    "textfeat.innovativeness_at_window": None,
    "textfeat.tfidf_paper": lambda r: {"nnz": _nnz(r)},
    "textfeat.tfidf_author": lambda r: {"nnz": _nnz(r)},
    "graphs.build_index": None,
    "graphs.build_graphs": lambda r: {"citation_nnz": r.citation.nnz,
                                      "coauthor_nnz": r.coauthor.nnz},
    "graphs.operator_blocks": _operator_counts,
    "kernels.spmv": None,
    "ranking.run": lambda r: {"iterations": r[1].iterations},
    "ranking.iterate_once": None,
    "ranking.rank_entities": None,
    "ranking.write_ranking": None,
    "evaluate.papers_of_year": None,
    "evaluate.authors_starting_year": None,
    "evaluate.evaluate_run": None,
    "evaluate.citation_count_baseline": None,
}

# functions whose resident-set growth is recorded
RSS_TRACKED = frozenset({"textfeat.build_feature_table", "graphs.build_graphs"})


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE


class Tracer:
    """Spans kept in memory: name, start, end, parent index and counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name, fn, counts_of, *args, **kwargs):
        span = {"name": name, "parent": self._stack[-1] if self._stack else -1,
                "counts": {}}
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        rss = _rss_bytes() if name in RSS_TRACKED else 0
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if rss:
            span["counts"]["rss_growth_mb"] = (_rss_bytes() - rss) / 2**20
        if counts_of is not None:
            try:
                span["counts"].update(counts_of(result))
            except (AttributeError, TypeError, IndexError, KeyError):
                span["counts"]["unreadable"] = 1
        return result

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target wherever mrfrank holds a reference to it (a
        ``from .x import f`` binding included); return the absent ones."""
        absent = []
        for name, counts_of in targets.items():
            module, attr = name.split(".")
            try:
                fn = getattr(importlib.import_module(f"mrfrank.{module}"), attr)
            except (ImportError, AttributeError):
                absent.append(name)
                continue
            wrapper = functools.wraps(fn)(
                functools.partial(self.call, name, fn, counts_of))
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "mrfrank":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
        return absent


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    cli = importlib.import_module("mrfrank.cli")
    tracer = Tracer()
    absent = tracer.install()
    code = tracer.call("cli.main", cli.main, None, cli_args)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "absent": absent}, fh)
    return code


# per-layer metric -> unit; times are summed over a pass's invocations,
# sizes are those of its first (full-mode) rank
LAYER_METRICS = {
    "corpus.read_native_s": "s", "corpus.parse_corpus_s": "s",
    "corpus.preprocess_s": "s", "corpus.split_ground_truth_s": "s",
    "corpus.papers": "count", "corpus.citation_edges": "count",
    "textfeat.build_feature_table_s": "s", "textfeat.innovativeness_s": "s",
    "textfeat.tfidf_paper_s": "s", "textfeat.tfidf_author_s": "s",
    "textfeat.features": "count", "textfeat.paper_feature_nnz": "count",
    "textfeat.author_feature_nnz": "count",
    "textfeat.build_feature_table_rss_growth_mb": "MB",
    "graphs.build_index_s": "s", "graphs.build_graphs_s": "s",
    "graphs.operator_blocks_s": "s", "graphs.citation_nnz": "count",
    "graphs.coauthor_nnz": "count", "graphs.operator_nnz": "count",
    "graphs.build_graphs_rss_growth_mb": "MB",
    "kernels.spmv_calls": "count", "kernels.spmv_s": "s",
    "kernels.flops_per_iteration": "flop", "kernels.bytes_per_iteration": "B",
    "ranking.run_s": "s", "ranking.iterations": "count",
    "ranking.iterate_once_ms": "ms", "ranking.rank_entities_s": "s",
    "ranking.write_ranking_s": "s",
    "evaluate.cohorts_s": "s", "evaluate.evaluate_run_s": "s",
    "evaluate.citation_count_baseline_s": "s",
    "cli.self_s": "s", "trace.overhead_s": "s",
}

_SUMMED_TIMES = {
    "corpus.read_native_s": ["corpus.read_native"],
    "corpus.parse_corpus_s": ["corpus.parse_corpus"],
    "corpus.preprocess_s": ["corpus.preprocess"],
    "corpus.split_ground_truth_s": ["corpus.split_ground_truth"],
    "textfeat.build_feature_table_s": ["textfeat.build_feature_table"],
    "textfeat.innovativeness_s": ["textfeat.innovativeness_at_window"],
    "textfeat.tfidf_paper_s": ["textfeat.tfidf_paper"],
    "textfeat.tfidf_author_s": ["textfeat.tfidf_author"],
    "graphs.build_index_s": ["graphs.build_index"],
    "graphs.build_graphs_s": ["graphs.build_graphs"],
    "graphs.operator_blocks_s": ["graphs.operator_blocks"],
    "kernels.spmv_s": ["kernels.spmv"],
    "ranking.run_s": ["ranking.run"],
    "ranking.rank_entities_s": ["ranking.rank_entities"],
    "ranking.write_ranking_s": ["ranking.write_ranking"],
    "evaluate.cohorts_s": ["evaluate.papers_of_year",
                           "evaluate.authors_starting_year"],
    "evaluate.evaluate_run_s": ["evaluate.evaluate_run"],
    "evaluate.citation_count_baseline_s": ["evaluate.citation_count_baseline"],
}

# (metric, span name, count key) read from the first rank invocation
_FIRST_RANK_COUNTS = [
    ("corpus.papers", "corpus.parse_corpus", "papers"),
    ("corpus.citation_edges", "corpus.parse_corpus", "citation_edges"),
    ("textfeat.features", "textfeat.build_feature_table", "features"),
    ("textfeat.paper_feature_nnz", "textfeat.tfidf_paper", "nnz"),
    ("textfeat.author_feature_nnz", "textfeat.tfidf_author", "nnz"),
    ("textfeat.build_feature_table_rss_growth_mb",
     "textfeat.build_feature_table", "rss_growth_mb"),
    ("graphs.citation_nnz", "graphs.build_graphs", "citation_nnz"),
    ("graphs.coauthor_nnz", "graphs.build_graphs", "coauthor_nnz"),
    ("graphs.build_graphs_rss_growth_mb", "graphs.build_graphs", "rss_growth_mb"),
    ("graphs.operator_nnz", "graphs.operator_blocks", "nnz"),
]


def layer_metrics(traces: list[dict], traced_walls: list[float],
                  untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``traces`` holds the span files of the pass's invocations in order (the
    first is the full-mode rank), ``traced_walls`` their wall times as the
    parent measured them.  A metric whose function is absent reads 0.
    """
    values = dict.fromkeys(LAYER_METRICS, 0.0)
    all_spans = [s for t in traces for s in t["spans"]]
    for metric, names in _SUMMED_TIMES.items():
        values[metric] = sum(s["end"] - s["start"] for s in all_spans
                             if s["name"] in names)
    first = {}
    for s in traces[0]["spans"]:
        first.setdefault(s["name"], s["counts"])
    for metric, name, key in _FIRST_RANK_COUNTS:
        values[metric] = first.get(name, {}).get(key, 0)
    op_bytes = first.get("graphs.operator_blocks", {}).get("bytes_per_apply", 0)
    values["kernels.flops_per_iteration"] = 2 * values["graphs.operator_nnz"]
    values["kernels.bytes_per_iteration"] = op_bytes
    values["kernels.spmv_calls"] = sum(s["name"] == "kernels.spmv" for s in all_spans)
    values["ranking.iterations"] = sum(s["counts"].get("iterations", 0)
                                       for s in all_spans if s["name"] == "ranking.run")
    steps = [s["end"] - s["start"] for s in all_spans
             if s["name"] == "ranking.iterate_once"]
    values["ranking.iterate_once_ms"] = 1e3 * statistics.median(steps) if steps else 0.0
    # self time of the command: its wall time minus the layer spans directly
    # under cli.main (interpreter start, imports, argument parsing, writing
    # small files, and the span dump are what remains)
    self_s = 0.0
    for trace, wall in zip(traces, traced_walls):
        spans = trace["spans"]
        top = sum(s["end"] - s["start"] for s in spans if s["parent"] == 0)
        self_s += wall - top
    values["cli.self_s"] = self_s
    values["trace.overhead_s"] = sum(traced_walls) - untraced_wall
    return values


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
