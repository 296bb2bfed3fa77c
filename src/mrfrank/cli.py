"""Command-line pipeline: ingest, preprocess, features, rank, eval, report.

Exit codes: 0 success, 1 usage, 2 data error, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import types
import typing
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import evaluate as eval_mod
from . import graphs as graphs_mod
from . import ranking as ranking_mod
from . import textfeat
from .corpus import DataError, PreprocessConfig
from .ranking import MODES, HyperParams

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


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def add_preprocess_flags(parser):
    g = parser.add_argument_group("preprocess")
    g.add_argument("--min-year", type=int, default=None)
    g.add_argument("--require-abstract", action="store_true", default=None)
    g.add_argument("--survey-substrings", type=str, default=None,
                   help="comma-separated title substrings")
    g.add_argument("--proceedings-prefixes", type=str, default=None,
                   help="comma-separated title prefixes")


def add_feature_flags(parser):
    g = parser.add_argument_group("features")
    g.add_argument("--window-years", type=int, default=None)
    g.add_argument("--min-df", type=int, default=None)
    g.add_argument("--stopwords", type=str, default=None,
                   help="path to a stopword list overriding the built-in one")


def add_hyperparam_flags(parser):
    g = parser.add_argument_group("hyperparams")
    g.add_argument("--alpha-p", type=float, default=None)
    g.add_argument("--beta-p", type=float, default=None)
    g.add_argument("--alpha-a", type=float, default=None)
    g.add_argument("--beta-a", type=float, default=None)
    g.add_argument("--alpha-f", type=float, default=None)
    g.add_argument("--rho-edge", type=float, default=None)
    g.add_argument("--rho-feature", type=float, default=None)
    g.add_argument("--u", type=int, default=None)
    g.add_argument("--tolerance", type=float, default=None)
    g.add_argument("--max-iterations", type=int, default=None)
    g.add_argument("--mode", choices=[m.replace("_", "-") for m in MODES],
                   default=None)


@dataclasses.dataclass
class RunConfig:
    corpus: Path
    workspace: Path
    preprocess: PreprocessConfig
    window_years: int = 1
    min_df: int = 3
    stopwords: str | None = None
    hyperparams: HyperParams = dataclasses.field(default_factory=HyperParams)
    cutoff_year: int = 2005
    horizon_year: int = 2011
    cohort_years: tuple[int, ...] = ()
    ks: tuple[int, ...] = (10, 20, 50)


def _merge(cls, file_section: dict, args, fields):
    kwargs = dict(file_section)
    for f in fields:
        v = getattr(args, f, None)
        if v is not None:
            kwargs[f] = v
    return cls(**kwargs)


# config file section -> the dataclass whose fields it sets (all of them
# when no names are given)
_SECTIONS = {
    "preprocess": (PreprocessConfig, None),
    "hyperparams": (HyperParams, None),
    "features": (RunConfig, ("window_years", "min_df", "stopwords")),
    "protocol": (RunConfig, ("cutoff_year", "horizon_year", "cohort_years", "ks")),
}
_JSON_TYPES = {int: "integer", float: "number", bool: "boolean", str: "string",
               type(None): "null"}


def _json_type(hint) -> str:
    """The JSON type a config value needs to set a field of type ``hint``."""
    if typing.get_origin(hint) is tuple:
        return f"list of {_json_type(typing.get_args(hint)[0])}s"
    if isinstance(hint, types.UnionType):
        return " or ".join(map(_json_type, typing.get_args(hint)))
    return _JSON_TYPES[hint]


def _fits(value, hint) -> bool:
    """Whether a JSON value can set a field of type ``hint``: a list for a
    tuple, an integer (not a boolean) for an int, any number for a float."""
    if typing.get_origin(hint) is tuple:
        return isinstance(value, list) and all(_fits(v, typing.get_args(hint)[0])
                                               for v in value)
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if isinstance(value, bool) or hint is bool:
        return isinstance(value, bool) and hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _section(raw: dict, name: str) -> dict:
    """The settings of one config file section, each checked against the
    type of the field it sets, lists turned into tuples."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise DataError(f"config section {name} must be an object")
    cls, names = _SECTIONS[name]
    hints = typing.get_type_hints(cls)
    for key, value in section.items():
        if key not in (names or hints):
            raise DataError(f"unknown config setting {name}.{key}")
        if not _fits(value, hints[key]):
            raise DataError(f"config setting {name}.{key} must be "
                            f"{_json_type(hints[key])}, got {value!r}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in section.items()}


def load_config(args) -> RunConfig:
    raw = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise DataError("config file must hold a JSON object")
    for key in raw:
        if key not in ("corpus", "workspace", *_SECTIONS):
            raise DataError(f"unknown config setting {key}")
        if key not in _SECTIONS and not _fits(raw[key], str | None):
            raise DataError(f"config setting {key} must be string or null, "
                            f"got {raw[key]!r}")

    pp_raw = _section(raw, "preprocess")
    for key in ("survey_substrings", "proceedings_prefixes"):
        v = getattr(args, key, None)
        if v is not None:
            pp_raw[key] = tuple(s for s in v.split(",") if s)
            setattr(args, key, None)
    pp = _merge(PreprocessConfig, pp_raw,
                args, [f.name for f in dataclasses.fields(PreprocessConfig)])

    hp_raw = _section(raw, "hyperparams")
    if getattr(args, "mode", None) is not None:
        args.mode = args.mode.replace("-", "_")
    hp = _merge(HyperParams, hp_raw,
                args, [f.name for f in dataclasses.fields(HyperParams)])

    feat_raw = _section(raw, "features")
    proto = _section(raw, "protocol")
    for k in proto.get("ks", ()):
        if k < 1:
            raise DataError(f"protocol.ks must be at least 1, got {k}")
    for name in ("ks", "cohort_years"):
        values = proto.get(name, ())
        for i, v in enumerate(values):
            if v in values[:i]:
                raise DataError(f"protocol.{name} lists {v} more than once")
    cutoff = proto.get("cutoff_year", 2005)
    horizon = proto.get("horizon_year", 2011)
    if cutoff >= horizon:
        raise DataError(f"protocol.cutoff_year {cutoff} must be before "
                        f"protocol.horizon_year {horizon}")

    def pick(name, default, section):
        v = getattr(args, name, None)
        if v is not None:
            return v
        return section.get(name, default)

    corpus_path = pick("corpus", raw.get("corpus"), raw)
    workspace = pick("workspace", raw.get("workspace"), raw)
    if corpus_path is None or workspace is None:
        raise DataError("config must provide corpus and workspace paths")
    return RunConfig(
        corpus=Path(corpus_path),
        workspace=Path(workspace),
        preprocess=pp,
        window_years=pick("window_years", 1, feat_raw),
        min_df=pick("min_df", 3, feat_raw),
        stopwords=pick("stopwords", None, feat_raw),
        hyperparams=hp,
        cutoff_year=cutoff,
        horizon_year=horizon,
        cohort_years=proto.get("cohort_years", ()),
        ks=proto.get("ks", (10, 20, 50)),
    )


def _load_corpus(path):
    records = corpus_mod.read_native(path)
    return corpus_mod.parse_corpus(records)


def cmd_ingest(args) -> int:
    if args.format == "arnetminer":
        with open(args.input, encoding="utf-8") as fh:
            records = corpus_mod.convert_arnetminer(fh)
    else:
        records = corpus_mod.read_native(args.input)
    corpus, report = corpus_mod.parse_corpus(records)
    corpus_mod.write_native(corpus, args.output)
    for line in report.lines():
        print(line)
    return EXIT_OK


def cmd_preprocess(args) -> int:
    cfg = _merge(PreprocessConfig, {}, args,
                 ["min_year", "require_abstract"])
    for key in ("survey_substrings", "proceedings_prefixes"):
        v = getattr(args, key, None)
        if v is not None:
            setattr(cfg, key, tuple(s for s in v.split(",") if s))
    corpus, _ = _load_corpus(args.input)
    out, report = corpus_mod.preprocess(corpus, cfg)
    corpus_mod.write_native(out, args.output)
    for line in report.lines():
        print(line)
    return EXIT_OK


def cmd_features(args) -> int:
    corpus, _ = _load_corpus(args.input)
    stop = (textfeat.load_stopwords(args.stopwords) if args.stopwords
            else textfeat.load_stopwords())
    table = textfeat.build_feature_table(
        corpus, window_years=1 if args.window_years is None else args.window_years,
        min_df=3 if args.min_df is None else args.min_df, stopwords=stop)
    textfeat.write_feature_table(table, args.output,
                                 rho=args.rho if args.rho is not None else 0.2,
                                 u=args.u if args.u is not None else 3)
    print(f"features\t{len(table.features)}")
    return EXIT_OK


def _pipeline(cfg: RunConfig):
    """Shared front half: corpus -> preprocess -> cutoff split."""
    corpus, _ = _load_corpus(cfg.corpus)
    pre, filter_report = corpus_mod.preprocess(corpus, cfg.preprocess)
    sub, gt = corpus_mod.split_ground_truth(pre, cfg.cutoff_year, cfg.horizon_year)
    return sub, gt, filter_report


def cmd_rank(args) -> int:
    cfg = load_config(args)
    cfg.workspace.mkdir(parents=True, exist_ok=True)
    hp = cfg.hyperparams
    sub, _, filter_report = _pipeline(cfg)
    (cfg.workspace / "filter_report.txt").write_text(
        "\n".join(filter_report.lines()) + "\n")

    stop = (textfeat.load_stopwords(cfg.stopwords) if cfg.stopwords
            else textfeat.load_stopwords())
    table = textfeat.build_feature_table(sub, window_years=cfg.window_years,
                                         min_df=cfg.min_df, stopwords=stop)
    index = graphs_mod.build_index(sub, table.features)
    if index.n == 0 or index.m == 0 or index.k == 0:
        raise DataError("pipeline produced an empty entity set "
                        f"(N={index.n}, M={index.m}, K={index.k})")
    hp_eff = hp.effective()
    e = textfeat.innovativeness_at_window(
        table, table.n_windows - 1, rho=hp_eff.rho_feature, u=hp_eff.u)

    gs = graphs_mod.build_graphs(sub, index, table, t_current=cfg.cutoff_year,
                                 rho_edge=hp_eff.rho_edge)
    state, conv = ranking_mod.run(gs, e, hp)

    mode = hp.mode
    ws = cfg.workspace
    for kind, ids, scores in (("papers", index.paper_ids, state.a_paper),
                              ("authors", index.author_ids, state.a_author),
                              ("features", index.feature_ids, state.a_feature)):
        ranking_mod.write_ranking(ws / f"{kind}_{mode}.tsv", ids, scores,
                                  conv.converged)
    ranking_mod.write_convergence(conv, ws / f"convergence_{mode}.tsv")

    if not conv.converged:
        print(f"WARNING: not converged after {conv.iterations} iterations "
              f"(last delta {state.last_delta:.3g})", file=sys.stderr)
        return EXIT_NO_CONVERGE
    print(f"converged in {conv.iterations} iterations")
    return EXIT_OK


def _read_ranking(path, positions: dict[str, int]) -> np.ndarray:
    """The positions of a ranking file's ids, in file order.  Ids not in
    ``positions`` are skipped: they are in no cohort."""
    ranked, seen = [], set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith("#") or line.startswith("rank\t"):
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) < 2 or not fields[1]:
                raise DataError(f"{path} line {lineno}: no id column")
            eid = fields[1]
            if eid in seen:
                raise DataError(f"{path} line {lineno}: id {eid!r} listed twice")
            seen.add(eid)
            if eid in positions:
                ranked.append(positions[eid])
    return np.array(ranked, dtype=np.int64)


# per cohort kind: its eval.tsv letter, its ranking file prefix, and the
# ``evaluate`` function that finds its members, also its name in warnings
_COHORTS = (("P", "papers", "papers_of_year"), ("A", "authors", "authors_starting_year"))


def cmd_eval(args) -> int:
    cfg = load_config(args)
    sub, gt, _ = _pipeline(cfg)
    ws = cfg.workspace
    years = f"{sub.years.min()}-{sub.years.max()}" if len(sub) else "none"
    log.info("ranked sub-corpus: %d papers, years %s", len(sub), years)
    cohorts = [(year, kind, getattr(eval_mod, name)(sub, year))
               for year in cfg.cohort_years for kind, (_, _, name) in enumerate(_COHORTS)]
    if not any(cohort.size for _, _, cohort in cohorts):
        raise DataError(f"protocol.cohort_years {list(cfg.cohort_years)} give no paper "
                        f"or author cohort in the ranked sub-corpus (years {years})")

    positions = [{eid: i for i, eid in enumerate(ids)}
                 for ids in (sub.papers, sub.authors)]
    rankings: dict[str, list[np.ndarray | None]] = {}
    for mode in MODES:
        paths = [ws / f"{prefix}_{mode}.tsv" for _, prefix, _ in _COHORTS]
        if any(p.exists() for p in paths):
            rankings[mode] = [_read_ranking(p, pos) if p.exists() else None
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
        runs = [(m, rankings[m][kind]) for m in sorted(rankings)
                if rankings[m][kind] is not None]
        runs.append(("cc", cohort[ranking_mod.rank_entities(counts[kind][cohort])]))
        for method, ranked in runs:
            for k, ri in eval_mod.evaluate_run(ranked, future[kind], cohort, cfg.ks):
                rows.append((year, method, letter, k, ri))

    out = ws / "eval.tsv"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("year\tmethod\tkind\tk\tri\n")
        for year, method, kind, k, ri in rows:
            fh.write(f"{year}\t{method}\t{kind}\t{k}\t{ri:.10g}\n")
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def render_report(eval_path) -> str:
    """Aligned per-year table: method rows, (k, P/A) columns."""
    rows = []
    with open(eval_path, encoding="utf-8") as fh:
        if next(fh, None) is None:
            raise DataError(f"{eval_path} line 1: no header line")
        for lineno, line in enumerate(fh, start=2):
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
        Path(args.output).write_text(text)
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
    p.add_argument("--format", choices=["native", "arnetminer"], default="native")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("preprocess", help="apply corpus filters")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    add_preprocess_flags(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("features", help="build and snapshot the feature table")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    add_feature_flags(p)
    p.add_argument("--rho", type=float, default=None,
                   help="feature decay used for the snapshot scores")
    p.add_argument("--u", type=int, default=None)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("rank", help="run the full ranking pipeline")
    p.add_argument("--config", default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--workspace", default=None)
    add_preprocess_flags(p)
    add_feature_flags(p)
    add_hyperparam_flags(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("eval", help="score rankings against ground truth")
    p.add_argument("--config", default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--workspace", default=None)
    add_preprocess_flags(p)
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
    except (DataError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
