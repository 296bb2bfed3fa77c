"""Command-line pipeline: ingest, preprocess, features, rank, eval, report.

Exit codes: 0 success, 1 usage, 2 data error, 3 non-convergence.

The parser is built from ``config`` and ``records``, which need no numpy;
each command imports the modules it runs, so ``--help``, a usage error and
``report`` start without loading numpy.
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

from .config import MODES, FeatureConfig, HyperParams, PreprocessConfig, ProtocolConfig
from .records import READERS, DataError, text_lines

if typing.TYPE_CHECKING:
    import numpy as np

    from .textfeat import FeatureTable

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


# config file section -> the dataclass whose fields it sets, in the order
# the sections are checked
_SECTIONS = {"preprocess": PreprocessConfig, "hyperparams": HyperParams,
             "features": FeatureConfig, "protocol": ProtocolConfig}
_JSON_TYPES = {int: "integer", float: "number", bool: "boolean", str: "string",
               type(None): "null"}


# help for the flags whose name is not enough
_HELP = {"survey_substrings": "comma-separated title substrings",
         "proceedings_prefixes": "comma-separated title prefixes",
         "stopwords": "path to a stopword list overriding the built-in one"}


def add_flags(parser, section: str) -> None:
    """One flag per field of a config section, ``--`` and the field name
    with hyphens, left None when not given."""
    g = parser.add_argument_group(section)
    for name, hint in typing.get_type_hints(_SECTIONS[section]).items():
        kwargs = {"default": None, "help": _HELP.get(name)}
        if hint is bool:
            kwargs["action"] = "store_true"
        elif name == "mode":
            kwargs["choices"] = [m.replace("_", "-") for m in MODES]
        else:
            kwargs["type"] = hint if hint in (int, float) else str
        g.add_argument("--" + name.replace("_", "-"), **kwargs)


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
    hints = typing.get_type_hints(_SECTIONS[name])
    for key, value in section.items():
        if key not in hints:
            raise DataError(f"unknown config setting {name}.{key}")
        if not _fits(value, hints[key]):
            raise DataError(f"config setting {name}.{key} must be "
                            f"{_json_type(hints[key])}, got {value!r}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in section.items()}


def _settings(cls, args, values=None):
    """A settings dataclass: its defaults, overridden by ``values`` (a
    config file section), overridden by each flag of ``args`` that is set.
    A flag setting a tuple is comma-separated, empty items dropped, and
    ``--mode`` takes hyphens for underscores."""
    values = dict(values or {})
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        v = getattr(args, f.name, None)
        if v is None:
            continue
        if typing.get_origin(hints[f.name]) is tuple:
            v = tuple(s for s in v.split(",") if s)
        elif f.name == "mode":
            v = v.replace("-", "_")
        values[f.name] = v
    return cls(**values)


def load_config(args) -> RunConfig:
    raw = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (ValueError, RecursionError) as exc:   # not UTF-8, not JSON, too deep
            raise DataError(f"config file {args.config}: {exc}") from None
        if not isinstance(raw, dict):
            raise DataError(f"config file {args.config} must hold a JSON object")
    for key in raw:
        if key not in ("corpus", "workspace", *_SECTIONS):
            raise DataError(f"unknown config setting {key}")
        if key not in _SECTIONS and not _fits(raw[key], str | None):
            raise DataError(f"config setting {key} must be string or null, "
                            f"got {raw[key]!r}")
    sections = {name: _settings(cls, args, _section(raw, name))
                for name, cls in _SECTIONS.items()}
    paths = [raw.get(key) if getattr(args, key) is None else getattr(args, key)
             for key in ("corpus", "workspace")]
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
    cfg = _settings(PreprocessConfig, args)
    corpus, _ = _load_corpus(args.input)
    out, report = corpus_mod.preprocess(corpus, cfg)
    corpus_mod.write_native(out, args.output)
    for line in report.lines():
        print(line)
    return EXIT_OK


def _feature_table(corpus, cfg: FeatureConfig) -> FeatureTable:
    from . import textfeat
    return textfeat.build_feature_table(corpus, cfg.window_years, cfg.min_df,
                                        textfeat.load_stopwords(cfg.stopwords))


def cmd_features(args) -> int:
    from . import textfeat
    cfg = _settings(FeatureConfig, args)
    corpus, _ = _load_corpus(args.input)
    table = _feature_table(corpus, cfg)
    textfeat.write_feature_table(table, args.output, rho=args.rho, u=args.u)
    print(f"features\t{len(table.features)}")
    return EXIT_OK


def _pipeline(cfg: RunConfig):
    """Shared front half: corpus -> preprocess -> cutoff split."""
    from . import corpus as corpus_mod
    corpus, _ = _load_corpus(cfg.corpus)
    pre, filter_report = corpus_mod.preprocess(corpus, cfg.preprocess)
    sub, gt = corpus_mod.split_ground_truth(pre, cfg.protocol.cutoff_year,
                                            cfg.protocol.horizon_year)
    return sub, gt, filter_report


def cmd_rank(args) -> int:
    from . import graphs as graphs_mod
    from . import ranking as ranking_mod
    from . import textfeat
    cfg = load_config(args)
    cfg.workspace.mkdir(parents=True, exist_ok=True)
    hp = cfg.hyperparams
    sub, _, filter_report = _pipeline(cfg)
    table = _feature_table(sub, cfg.features)
    (cfg.workspace / "filter_report.txt").write_text(
        "\n".join(filter_report.lines()) + "\n")
    n, m, k = len(sub), len(sub.authors), len(table.features)
    if n == 0 or m == 0 or k == 0:
        raise DataError("pipeline produced an empty entity set "
                        f"(N={n}, M={m}, K={k})")
    hp_eff = hp.effective()
    e = textfeat.innovativeness_at_window(
        table, table.n_windows - 1, rho=hp_eff.rho_feature, u=hp_eff.u)

    gs = graphs_mod.build_graphs(sub, table, t_current=cfg.protocol.cutoff_year,
                                 rho_edge=hp_eff.rho_edge)
    x, conv = ranking_mod.run(gs, e, hp)

    mode = hp.mode
    ws = cfg.workspace
    for kind, ids, scores in zip(("papers", "authors", "features"),
                                 (sub.papers, sub.authors, table.features),
                                 ranking_mod.per_type(x, gs.sizes)):
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
        fh.write("year\tmethod\tkind\tk\tri\n")
        for year, method, kind, k, ri in rows:
            fh.write(f"{year}\t{method}\t{kind}\t{k}\t{ri:.10g}\n")
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def render_report(eval_path) -> str:
    """Aligned per-year table: method rows, (k, P/A) columns."""
    rows = []
    text = text_lines(eval_path)
    if next(text, None) is None:
        raise DataError(f"{eval_path} line 1: no header line")
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
    add_flags(p, "preprocess")
    add_flags(p, "features")
    add_flags(p, "hyperparams")
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
