"""Output checks for the pipeline benchmark.

Each check returns a list of problems (empty when the output is right).
The expectations come from the generated corpus, read here with the
benchmark's own code, never from the program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

SCORE_SUM_TOLERANCE = 1e-9
# Two correct solvers stopped at an L1 change of 1e-8 differ by far less
# than this per entry; a wrong operator or normalization moves scores more.
REFERENCE_SCORE_TOLERANCE = 1e-6
REFERENCE_TOP = 100
RANKING_KINDS = ("papers", "authors", "features")


def expected_entities(corpus_path: Path, cutoff_year: int) -> dict[str, set[str]]:
    """Paper and author ids the ranking must contain.

    The synthetic corpora have no survey or proceedings titles and no year
    before 1990, so of the default filters only isolation removes papers:
    a paper that neither cites nor is cited inside the corpus.  The split
    then keeps papers up to the cutoff year.
    """
    papers = {}
    with open(corpus_path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            papers[rec["id"]] = rec
    linked = set()
    for pid, rec in papers.items():
        refs = {r for r in rec["refs"] if r in papers and r != pid}
        if refs:
            linked.add(pid)
            linked.update(refs)
    kept = {pid for pid in linked if papers[pid]["year"] <= cutoff_year}
    authors = {a for pid in kept for a in papers[pid]["authors"]}
    return {"papers": kept, "authors": authors}


def read_ranking(path: Path) -> tuple[list[str], list[str], list[float]]:
    """Header lines, ids and scores of a ranking TSV."""
    headers, ids, scores = [], [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("rank\t"):
                headers.append(line.rstrip("\n"))
                continue
            _, eid, score = line.rstrip("\n").split("\t")
            ids.append(eid)
            scores.append(float(score))
    return headers, ids, scores


def check_ranking(path: Path, expected_ids: set[str] | None) -> list[str]:
    """Converged header, one row per entity, scores a distribution."""
    if not path.exists():
        return [f"{path.name}: missing"]
    try:
        headers, ids, scores = read_ranking(path)
    except ValueError as exc:
        return [f"{path.name}: unreadable row ({exc})"]
    problems = []
    if any("NOT CONVERGED" in h for h in headers):
        problems.append(f"{path.name}: NOT CONVERGED header")
    if len(set(ids)) != len(ids):
        problems.append(f"{path.name}: duplicate ids")
    if expected_ids is not None and set(ids) != expected_ids:
        problems.append(f"{path.name}: {len(ids)} rows, expected "
                        f"{len(expected_ids)} ids")
    if not ids:
        problems.append(f"{path.name}: no rows")
    if any(not s >= 0.0 for s in scores):
        problems.append(f"{path.name}: negative or non-finite score")
    total = math.fsum(scores)
    if abs(total - 1.0) > SCORE_SUM_TOLERANCE:
        problems.append(f"{path.name}: scores sum to {total!r}")
    if scores != sorted(scores, reverse=True):
        problems.append(f"{path.name}: rows not in descending score order")
    return problems


def iterations(ws: Path, mode: str) -> int:
    """Iterations recorded in ``convergence_<mode>.tsv`` (0 when unreadable)."""
    path = ws / f"convergence_{mode}.tsv"
    if not path.exists():
        return 0
    rows = [ln for ln in path.read_text(encoding="utf-8").splitlines()
            if ln and ln[0].isdigit()]
    return len(rows)


def check_rank(ws: Path, mode: str, expected: dict[str, set[str]]) -> list[str]:
    problems = []
    for kind in RANKING_KINDS:
        problems += check_ranking(ws / f"{kind}_{mode}.tsv", expected.get(kind))
    conv = ws / f"convergence_{mode}.tsv"
    if not conv.exists() or "# converged\tTrue" not in conv.read_text(encoding="utf-8"):
        problems.append(f"{conv.name}: not marked converged")
    return problems


def check_same_features(ws: Path, modes: tuple[str, ...]) -> list[str]:
    """The feature table does not depend on the mode, so neither does K."""
    sets = {m: set(read_ranking(ws / f"features_{m}.tsv")[1]) for m in modes}
    if any(ids != sets[modes[0]] for ids in sets.values()):
        return [f"feature ids differ between modes ({[len(v) for v in sets.values()]})"]
    return []


def max_ri(k: int) -> float:
    """RI of a list that matches the ground-truth top-k in order."""
    return k + (k - 1) / 2


def read_eval(path: Path) -> list[tuple[int, str, str, int, float]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        if next(fh, "").rstrip("\n") != "year\tmethod\tkind\tk\tri":
            raise ValueError("bad header")
        for line in fh:
            year, method, kind, k, ri = line.rstrip("\n").split("\t")
            rows.append((int(year), method, kind, int(k), float(ri)))
    return rows


def check_eval(ws: Path, modes: tuple[str, ...]) -> list[str]:
    """Every method scored on the same cohorts, each RI within [0, max]."""
    path = ws / "eval.tsv"
    if not path.exists():
        return ["eval.tsv: missing"]
    try:
        rows = read_eval(path)
    except (ValueError, StopIteration) as exc:
        return [f"eval.tsv: unreadable ({exc})"]
    problems = []
    cells = {}
    for year, method, kind, k, ri in rows:
        cells.setdefault(method, set()).add((year, kind, k))
        if not 0.0 <= ri <= max_ri(k):
            problems.append(f"eval.tsv: ri {ri} outside [0, {max_ri(k)}] at k={k}")
    want = set(modes) | {"cc"}
    if set(cells) != want:
        problems.append(f"eval.tsv: methods {sorted(cells)}, expected {sorted(want)}")
    elif len({frozenset(c) for c in cells.values()}) != 1:
        problems.append("eval.tsv: methods scored on different cohorts")
    if not rows:
        problems.append("eval.tsv: no rows")
    return problems


def ri_full(ws: Path) -> float:
    """Mean of ri / max_ri(k) over the full-mode rows of eval.tsv."""
    vals = [ri / max_ri(k) for _, method, _, k, ri in read_eval(ws / "eval.tsv")
            if method == "full"]
    return sum(vals) / len(vals) if vals else 0.0


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def reference_of(ws: Path, modes: tuple[str, ...]) -> dict:
    """The part of a pass's output that the reference records."""
    ref = {}
    for mode in modes:
        for kind in ("papers", "authors"):
            _, ids, scores = read_ranking(ws / f"{kind}_{mode}.tsv")
            ref[f"{kind}_{mode}"] = [[i, s] for i, s in
                                     zip(ids[:REFERENCE_TOP], scores[:REFERENCE_TOP])]
    ref["eval"] = [list(r) for r in read_eval(ws / "eval.tsv")]
    return ref


def check_reference(ws: Path, modes: tuple[str, ...], reference: dict) -> list[str]:
    """Top ids and scores and every RI value against the recorded reference.

    Scores are compared id by id, so two entities whose scores differ by
    rounding may swap places; RI values must match exactly.
    """
    problems = []
    for mode in modes:
        for kind in ("papers", "authors"):
            key = f"{kind}_{mode}"
            _, ids, scores = read_ranking(ws / f"{kind}_{mode}.tsv")
            got = dict(zip(ids, scores))
            top = [got.get(eid) for eid, _ in reference[key]]
            bad = [eid for (eid, want), s in zip(reference[key], top)
                   if s is None or abs(s - want) > REFERENCE_SCORE_TOLERANCE]
            if bad:
                problems.append(f"{key}: {len(bad)} of the reference top "
                                f"{REFERENCE_TOP} differ, first {bad[0]}")
            lowest = reference[key][-1][1]
            if any(s > lowest + REFERENCE_SCORE_TOLERANCE for s in scores[REFERENCE_TOP:]):
                problems.append(f"{key}: an id outside the reference top "
                                f"{REFERENCE_TOP} now scores above it")
    got_eval = [list(r) for r in read_eval(ws / "eval.tsv")]
    if got_eval != reference["eval"]:
        problems.append("eval.tsv: RI values differ from the reference")
    return problems
