"""Command-line pipeline: ingest, preprocess, features, rank, eval, report.

Exit codes: 0 success, 1 usage, 2 data error, 3 non-convergence.

The parser is built from ``config``, whose ``FORMS`` read every settings
flag and check every config file value, and ``records``; neither needs numpy.
Each command imports the modules it runs, so ``--help``, a usage error and
``report`` start without loading numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import typing
from pathlib import Path

from .config import (FIELDS, FORMS, MODES, SECTIONS, FeatureConfig, HyperParams,
                     PreprocessConfig, ProtocolConfig, at_least_one, finite_nonnegative,
                     resolve)
from .records import READERS, DataError, text_lines

if typing.TYPE_CHECKING:
    import numpy as np

log = logging.getLogger("mrfrank")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NO_CONVERGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclasses.dataclass
class RunConfig:
    corpus: Path
    workspace: Path
    preprocess: PreprocessConfig
    hyperparams: HyperParams
    features: FeatureConfig
    protocol: ProtocolConfig


# help for the flags whose name is not enough
_HELP = {"survey_substrings": "comma-separated title substrings",
         "proceedings_prefixes": "comma-separated title prefixes",
         "stopwords": "path to a stopword list overriding the built-in one"}


def add_flags(parser, *sections: str) -> None:
    """One flag per field of each config section, ``--`` and the field name
    with hyphens, in the flag form of its type, left None when not given."""
    for section in sections:
        g = parser.add_argument_group(section)
        for name, form in FIELDS[section].items():
            kwargs = {"default": None, "help": _HELP.get(name)}
            if form.flag is None:
                kwargs["action"] = "store_true"
            elif name == "mode":
                kwargs["choices"] = [m.replace("_", "-") for m in MODES]
            else:
                kwargs["type"] = form.flag
            g.add_argument("--" + name.replace("_", "-"), **kwargs)


def load_config(args) -> RunConfig:
    raw = {}
    if getattr(args, "config", None):
        try:
            raw = json.loads("".join(text_lines(args.config)))
        except (ValueError, RecursionError) as exc:   # not JSON, too deep
            raise DataError(f"config file {args.config}: {exc}") from None
        if not isinstance(raw, dict):
            raise DataError(f"config file {args.config} must hold a JSON object")
    path = FORMS[str | None]
    for key in raw:
        if key not in ("corpus", "workspace", *SECTIONS):
            raise DataError(f"unknown config setting {key}")
        if key not in SECTIONS and not path.fits(raw[key]):
            raise DataError(f"config setting {key} must be {path.json}, got {raw[key]!r}")
    flags = vars(args)
    if flags.get("mode"):   # --mode takes hyphens for underscores
        flags = dict(flags, mode=flags["mode"].replace("-", "_"))
    sections = {name: resolve(name, raw, flags) for name in SECTIONS}
    paths = [raw.get(k) if flags[k] is None else flags[k] for k in ("corpus", "workspace")]
    if None in paths:
        raise DataError("config must provide corpus and workspace paths")
    return RunConfig(*map(Path, paths), **sections)


def _load_corpus(path, fmt: str = "native"):
    """Parse the corpus at ``path``, read by the reader of format ``fmt``."""
    from .corpus import parse_corpus
    return parse_corpus(READERS[fmt](path))


def cmd_ingest(args) -> int:
    from . import corpus as corpus_mod
    corpus, report = _load_corpus(args.input, args.format)
    corpus_mod.write_native(corpus, args.output)
    for line in report.lines():
        print(line)
    return EXIT_OK


def cmd_preprocess(args) -> int:
    from . import corpus as corpus_mod
    cfg = resolve("preprocess", {}, vars(args))
    corpus, _ = _load_corpus(args.input)
    out, report = corpus_mod.preprocess(corpus, cfg)
    corpus_mod.write_native(out, args.output)
    for line in report.lines():
        print(line)
    return EXIT_OK


def cmd_features(args) -> int:
    from . import textfeat
    cfg = resolve("features", {}, vars(args))
    at_least_one("u", args.u)
    finite_nonnegative("rho", args.rho)
    stopwords = textfeat.load_stopwords(cfg.stopwords)
    corpus, _ = _load_corpus(args.input)
    table = textfeat.build_feature_table(corpus, cfg.window_years, cfg.min_df, stopwords)
    textfeat.write_feature_table(table, args.output, rho=args.rho, u=args.u)
    print(f"features\t{len(table.features)}")
    return EXIT_OK


def _pipeline(cfg: RunConfig):
    """Shared front half: corpus -> preprocess -> cutoff split."""
    from . import corpus as corpus_mod
    corpus, _ = _load_corpus(cfg.corpus)
    pre, filter_report = corpus_mod.preprocess(corpus, cfg.preprocess)
    del corpus   # the filtered papers' texts are not needed past here
    sub, gt = corpus_mod.split_ground_truth(pre, cfg.protocol.cutoff_year,
                                            cfg.protocol.horizon_year)
    return sub, gt, filter_report


def cmd_rank(args) -> int:
    from . import graphs as graphs_mod
    from . import ranking as ranking_mod
    from . import textfeat
    cfg = load_config(args)
    stopwords = textfeat.load_stopwords(cfg.features.stopwords)
    cfg.workspace.mkdir(parents=True, exist_ok=True)
    hp = cfg.hyperparams
    sub, _, filter_report = _pipeline(cfg)
    table = textfeat.build_feature_table(sub, cfg.features.window_years,
                                         cfg.features.min_df, stopwords)
    (cfg.workspace / "filter_report.txt").write_text(
        "\n".join(filter_report.lines()) + "\n", encoding="utf-8")
    n, m, k = len(sub), len(sub.authors), len(table.features)
    if n == 0 or m == 0 or k == 0:
        raise DataError("pipeline produced an empty entity set "
                        f"(N={n}, M={m}, K={k})")
    hp_eff = hp.effective()
    e = textfeat.innovativeness_at_window(
        table, table.n_windows - 1, rho=hp_eff.rho_feature, u=hp_eff.u)

    gs = graphs_mod.build_graphs(sub, table, t_current=cfg.protocol.cutoff_year,
                                 rho_edge=hp_eff.rho_edge)
    # the iteration needs the operator alone: free the corpus and the
    # feature table before it is built, and the graphs after
    entity_ids = (sub.papers, sub.authors, table.features)
    del sub, table
    operator = ranking_mod.combined_operator(gs, e, hp)
    del gs
    x, conv = ranking_mod.run(operator, (n, m, k), hp)

    mode = hp.mode
    ws = cfg.workspace
    for kind, ids, scores in zip(("papers", "authors", "features"), entity_ids,
                                 ranking_mod.per_type(x, (n, m, k))):
        ranking_mod.write_ranking(ws / f"{kind}_{mode}.tsv", ids, scores,
                                  conv.converged)
    ranking_mod.write_convergence(conv, ws / f"convergence_{mode}.tsv")

    if not conv.converged:
        print(f"WARNING: not converged after {conv.iterations} iterations "
              f"(last delta {conv.deltas[-1]:.3g})", file=sys.stderr)
        return EXIT_NO_CONVERGE
    print(f"converged in {conv.iterations} iterations")
    return EXIT_OK


# per cohort kind: its eval.tsv letter, its ranking file prefix, and the
# ``evaluate`` function that finds its members, also its name in warnings
_COHORTS = (("P", "papers", "papers_of_year"), ("A", "authors", "authors_starting_year"))
_EVAL_HEADER = "year\tmethod\tkind\tk\tri"   # the first line of eval.tsv


def cmd_eval(args) -> int:
    from . import evaluate as eval_mod
    from .ranking import rank_entities, read_ranking
    cfg = load_config(args)
    sub, gt, _ = _pipeline(cfg)
    ws = cfg.workspace
    years = f"{sub.years.min()}-{sub.years.max()}" if len(sub) else "none"
    log.info("ranked sub-corpus: %d papers, years %s", len(sub), years)
    protocol = cfg.protocol
    cohorts = [(year, kind, getattr(eval_mod, name)(sub, year))
               for year in protocol.cohort_years
               for kind, (_, _, name) in enumerate(_COHORTS)]
    if not any(cohort.size for _, _, cohort in cohorts):
        raise DataError(f"protocol.cohort_years {list(protocol.cohort_years)} give no paper "
                        f"or author cohort in the ranked sub-corpus (years {years})")

    positions = [{eid: i for i, eid in enumerate(ids)}
                 for ids in (sub.papers, sub.authors)]
    rankings: dict[str, list[np.ndarray | None]] = {}
    for mode in MODES:
        paths = [ws / f"{prefix}_{mode}.tsv" for _, prefix, _ in _COHORTS]
        if any(p.exists() for p in paths):
            rankings[mode] = [read_ranking(p, pos) if p.exists() else None
                              for p, pos in zip(paths, positions)]
    if not rankings:
        raise DataError(f"no ranking files found in workspace {ws}")

    counts = eval_mod.citation_counts(sub)
    future = (gt.papers, gt.authors)
    rows = []
    for year, kind, cohort in cohorts:
        letter, _, name = _COHORTS[kind]
        if not cohort.size:
            log.warning("empty %s cohort for year %d, omitted", name, year)
            continue
        for k in protocol.ks:
            if k > cohort.size:
                log.warning("k=%d exceeds the %s cohort size %d for year %d, skipped",
                            k, name, cohort.size, year)
        runs = [(m, rankings[m][kind]) for m in sorted(rankings)
                if rankings[m][kind] is not None]
        runs.append(("cc", cohort[rank_entities(counts[kind][cohort])]))
        for method, ranked in runs:
            for k, ri in eval_mod.evaluate_run(ranked, future[kind], cohort, protocol.ks):
                rows.append((year, method, letter, k, ri))

    out = ws / "eval.tsv"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(_EVAL_HEADER + "\n")
        for year, method, kind, k, ri in rows:
            fh.write(f"{year}\t{method}\t{kind}\t{k}\t{ri:.10g}\n")
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def render_report(eval_path) -> str:
    """Aligned per-year table: method rows, (k, P/A) columns."""
    rows = []
    text = text_lines(eval_path)
    header = next(text, "").rstrip("\n")
    if header != _EVAL_HEADER:
        reason = f"not the header line {_EVAL_HEADER!r}" if header else "no header line"
        raise DataError(f"{eval_path} line 1: {reason}")
    for lineno, line in enumerate(text, start=2):
        try:
            year, method, kind, k, ri = line.rstrip("\n").split("\t")
            rows.append((int(year), method, kind, int(k), float(ri)))
        except ValueError as exc:
            raise DataError(f"{eval_path} line {lineno}: {exc}") from None
    if not rows:
        return "(no evaluation rows)\n"
    years = sorted({r[0] for r in rows})
    ks = sorted({r[3] for r in rows})
    methods = sorted({r[1] for r in rows})
    cell = {(y, m, kd, k): ri for y, m, kd, k, ri in rows}

    lines = []
    header = ["year", "method"] + [f"P@{k}" for k in ks] + [f"A@{k}" for k in ks]
    widths = [6, 22] + [8] * (2 * len(ks))
    lines.append("".join(h.ljust(w) for h, w in zip(header, widths)))
    for y in years:
        for m in methods:
            vals = []
            for kd in ("P", "A"):
                for k in ks:
                    v = cell.get((y, m, kd, k))
                    vals.append("-" if v is None else f"{v:.4g}")
            lines.append("".join(s.ljust(w) for s, w in
                                 zip([str(y), m] + vals, widths)))
    return "\n".join(lines) + "\n"


def cmd_report(args) -> int:
    text = render_report(args.input)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="mrfrank",
                     description="Future-influence ranking of papers and authors")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert raw corpus to native JSON lines")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--format", choices=list(READERS), default="native")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("preprocess", help="apply corpus filters")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    add_flags(p, "preprocess")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("features", help="build and snapshot the feature table")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    add_flags(p, "features")
    p.add_argument("--rho", type=float, default=HyperParams.rho_feature,
                   help="feature decay used for the snapshot scores")
    p.add_argument("--u", type=int, default=HyperParams.u)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("rank", help="run the full ranking pipeline")
    p.add_argument("--config", default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--workspace", default=None)
    add_flags(p, "preprocess", "features", "hyperparams")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("eval", help="score rankings against ground truth")
    p.add_argument("--config", default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--workspace", default=None)
    add_flags(p, "preprocess")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="render the evaluation table")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
