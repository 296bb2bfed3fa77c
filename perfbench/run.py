"""Pipeline benchmark for mrfrank.

    python3 perfbench/run.py --workload scale_rank --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The benchmark generates the
workload's corpus from ``--seed`` (untimed), times CLI start-up, then runs
the workload's ``mrfrank`` commands as subprocesses, one at a time, in
passes until ``--seconds`` is spent, checking every output.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the median over passes of every end-to-end
metric (``--trace 0``) or of every per-layer metric from traced passes
(``--trace 1``).  A full record, environment and spans included, goes to
``.perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import corpora
import tracing

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
SETUP_LAUNCHES = 11
# a command is killed when a run has lasted this long, so that a hung or
# very slow program still ends the run within three minutes
RUN_DEADLINE_S = 160.0
RANK_FLAGS = ["--tolerance", "1e-8", "--max-iterations", "1000"]
PINNED_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMBA_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
}
END_TO_END = {
    "setup_s": "s", "rank_s": "s", "wall_s": "s", "eval_s": "s",
    "peak_rss_mb": "MB", "iterations": "count", "ri_full": "ratio",
}


@dataclass(frozen=True)
class Workload:
    generate: Callable[[Path, int, Path], None]
    modes: tuple[str, ...]
    # evaluation protocol; the rank commands use the same cutoff
    protocol: dict


WORKLOADS = {
    # the criterion-8 generator, scaled so a pass fits the run; its corpus
    # ends in 2005, so the cutoff is 2003, and the cohorts are old enough to
    # have settled citation counts (young cohorts make RI too seed-dependent)
    "scale_rank": Workload(
        generate=lambda path, seed, root: corpora.scale_corpus(
            path, seed, root, n_papers=25_000, n_authors=2_500, vocab_size=5_000),
        modes=("full",),
        protocol={"cutoff_year": 2003, "horizon_year": 2005,
                  "cohort_years": list(range(1991, 2000)), "ks": [50, 100, 200]}),
    "citation_dense": Workload(
        generate=lambda path, seed, root: corpora.growing_corpus(
            path, seed, n_papers=24_000, first_year=1990, last_year=2008,
            refs_per_paper=30, authors_per_paper=(4, 6), n_authors=2_800,
            newcomer_share=0.5, newcomers_per_year=200, title_tokens=3,
            abstract_sentences=0, vocab_size=3_000, hot_share=0.2),
        modes=("full",),
        protocol={"cutoff_year": 2005, "horizon_year": 2008,
                  "cohort_years": list(range(1997, 2006)), "ks": [20, 50, 100]}),
    # the paper's reproduction flow: every mode, then eval; eleven cohort
    # years, because with three the mean RI moves by a tenth between seeds
    "ablation_eval": Workload(
        generate=lambda path, seed, root: corpora.growing_corpus(
            path, seed, n_papers=6_000, first_year=1990, last_year=2011,
            refs_per_paper=8, authors_per_paper=(2, 4), n_authors=750,
            newcomer_share=0.5, newcomers_per_year=200, title_tokens=5,
            abstract_sentences=2, vocab_size=3_000, hot_share=0.2),
        modes=("full", "no_time", "no_content", "no_time_no_content"),
        protocol={"cutoff_year": 2005, "horizon_year": 2011,
                  "cohort_years": list(range(1995, 2006)), "ks": [10, 20, 50]}),
}


@dataclass
class Command:
    """One CLI invocation of a pass: ``rank`` in one mode, or ``eval``."""
    name: str
    mode: str | None

    def args(self, cfg: Path, ws: Path) -> list[str]:
        base = [self.name, "--config", str(cfg), "--workspace", str(ws)]
        if self.mode is None:
            return base
        return base + ["--mode", self.mode.replace("_", "-")] + RANK_FLAGS


@dataclass
class Outcome:
    command: Command
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    problems: list[str]


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, work: Path,
                 record_reference: bool = False):
        self.root = root
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.env = dict(os.environ, **PINNED_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        self.commands = [Command("rank", m) for m in self.workload.modes]
        self.commands.append(Command("eval", None))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_digest: str | None = None
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.log = work / "child.log"
        self.reference: dict | None = None
        self.record_reference = record_reference

    # --- set-up (untimed unless stated) --------------------------------------

    def prepare(self) -> None:
        self.corpus = self.work / "corpus.jsonl"
        self.workload.generate(self.corpus, self.seed, self.root)
        self.cfg = self.work / "config.json"
        self.cfg.write_text(json.dumps({
            "corpus": str(self.corpus), "workspace": str(self.work / "ws"),
            "protocol": self.workload.protocol}))
        self.expected = checks.expected_entities(
            self.corpus, self.workload.protocol["cutoff_year"])
        ref = HERE / "reference" / f"{self.name}.json"
        if self.seed == DEFAULT_SEED and ref.exists():
            self.reference = json.loads(ref.read_text())

    def launch(self, argv: list[str]):
        """Run one child to completion; return its exit code, wall time,
        peak RSS (MB) and CPU time.

        ``os.wait4`` reaps the child itself so that its own peak RSS is read;
        a timer kills a child still running at the run's deadline.
        """
        out = open(self.log, "wb")
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - time.perf_counter()),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        finally:
            out.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
                usage.ru_utime + usage.ru_stime)

    def cli(self, args: list[str]) -> list[str]:
        return [sys.executable, "-m", "mrfrank.cli"] + args

    def setup_s(self) -> float:
        """Median wall time of a fresh ``mrfrank --help`` (one warm-up)."""
        walls = []
        for i in range(SETUP_LAUNCHES):
            self.attempted += 1
            code, wall, _, _ = self.launch(self.cli(["--help"]))
            if code != 0:
                self.failed += 1
                self.failures.append(f"setup launch {i}: exit {code}")
            elif i:
                walls.append(wall)
        return statistics.median(walls) if walls else 0.0

    # --- passes ---------------------------------------------------------------

    def run_pass(self, index: int, traced: bool) -> Pass:
        ws = self.work / f"ws{index}"
        ws.mkdir()
        result = Pass()
        for n, command in enumerate(self.commands):
            self.attempted += 1
            args = command.args(self.cfg, ws)
            spans = self.work / f"spans{index}_{n}.json"
            argv = ([sys.executable, str(HERE / "tracing.py"), str(spans)] + args
                    if traced else self.cli(args))
            code, wall, rss, cpu = self.launch(argv)
            problems = []
            if code != 0:
                tail = self.log.read_bytes()[-300:].decode(errors="replace")
                problems.append(f"exit code {code}: {tail.strip()}")
            problems += self.check(ws, command)
            if traced:
                if spans.exists():
                    result.traces.append(json.loads(spans.read_text()))
                else:
                    problems.append("no span file")
            if problems:
                self.failed += 1
                self.failures += [f"pass {index} {command.name} "
                                  f"{command.mode or ''}: {p}" for p in problems]
            result.outcomes.append(Outcome(command, wall, rss, cpu, problems))
        if not any(o.problems for o in result.outcomes):
            self.check_pass(ws)
            result.iterations = checks.iterations(ws, "full")
            result.ri_full = checks.ri_full(ws)
        shutil.rmtree(ws)
        return result

    def check(self, ws: Path, command: Command) -> list[str]:
        if command.mode is not None:
            return checks.check_rank(ws, command.mode, self.expected)
        return checks.check_eval(ws, self.workload.modes)

    def check_pass(self, ws: Path) -> None:
        """One feature set for every mode, the same bytes on every pass, the
        reference on the default seed.  A problem here fails the pass's last
        command."""
        problems = checks.check_same_features(ws, self.workload.modes)
        digest = checks.digest(sorted(p for p in ws.iterdir() if p.suffix == ".tsv"))
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("outputs differ from the first pass")
        if self.record_reference:
            path = HERE / "reference" / f"{self.name}.json"
            path.parent.mkdir(exist_ok=True)
            ref = {"seed": self.seed, **checks.reference_of(ws, self.workload.modes)}
            path.write_text(json.dumps(ref) + "\n")
            self.record_reference = False
        elif self.reference is not None:
            problems += checks.check_reference(ws, self.workload.modes, self.reference)
            self.reference = None
        if problems:
            self.failed += 1
            self.failures += [f"{ws.name}: {p}" for p in problems]


@dataclass
class Pass:
    outcomes: list[Outcome] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    iterations: int = 0
    ri_full: float = 0.0

    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    def end_to_end(self) -> dict[str, float]:
        rank = next(o for o in self.outcomes if o.command.mode == "full")
        evaluation = next(o for o in self.outcomes if o.command.name == "eval")
        return {"rank_s": rank.wall_s, "wall_s": self.wall_s(),
                "eval_s": evaluation.wall_s,
                "peak_rss_mb": max(o.peak_rss_mb for o in self.outcomes),
                "iterations": self.iterations, "ri_full": self.ri_full,
                # CPU time (user + sys) is recorded, not reported: the gap
                # to wall time shows when the machine was busy
                "rank_cpu_s": rank.cpu_s,
                "wall_cpu_s": sum(o.cpu_s for o in self.outcomes)}


def median_of(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def environment(bench: Bench) -> dict:
    """Where the numbers came from, so results from different machines are
    never compared silently."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import importlib.util, json, platform, numpy\n"
         "try:\n import scipy; sv = scipy.__version__\n"
         "except ImportError:\n sv = None\n"
         "print(json.dumps({'python': platform.python_version(),"
         " 'numpy': numpy.__version__, 'scipy': sv,"
         " 'numba_imports': importlib.util.find_spec('numba') is not None}))"],
        env=bench.env, capture_output=True, text=True, timeout=60)
    env = json.loads(probe.stdout) if probe.returncode == 0 else {}

    def read(path, default="unknown"):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return default

    cpu = next((ln.split(":", 1)[1].strip() for ln in read("/proc/cpuinfo", "").splitlines()
                if ln.startswith("model name")), platform.processor() or "unknown")
    commit = "unknown"
    if (bench.root / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench.root,
                                 capture_output=True, text=True, timeout=30)
            commit = git.stdout.strip() if git.returncode == 0 else commit
        except OSError:
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "l3_cache": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        **env, "pinned_env": PINNED_ENV, "git_commit": commit,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="write reference/<workload>.json from the first pass "
                         "instead of checking against it")
    args = ap.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/mrfrank/cli.py", "tests/synthgen.py")
               if not (root / p).is_file()]
    if missing:
        print(f"error: run from the root of an mrfrank checkout; missing {missing}",
              file=sys.stderr)
        return 2

    out_dir = root / ".perfbench"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(root, args.workload, args.seed, work, args.record_reference)
        bench.prepare()
        setup = bench.setup_s()
        rows, pass_walls, spans = [], [], []
        start = time.perf_counter()
        # a pass (traced: an untraced and a traced pass) starts only while
        # one more of the same length still fits in the run
        while not pass_walls or (time.perf_counter() - start
                                 + statistics.mean(pass_walls) <= args.seconds):
            t0 = time.perf_counter()
            plain = bench.run_pass(2 * len(pass_walls), traced=False)
            if args.trace:
                traced = bench.run_pass(2 * len(pass_walls) + 1, traced=True)
                if len(traced.traces) == len(traced.outcomes):
                    rows.append(tracing.layer_metrics(
                        traced.traces, [o.wall_s for o in traced.outcomes],
                        plain.wall_s()))
                    spans.append(traced.traces)
            elif not any(o.problems for o in plain.outcomes):
                rows.append(plain.end_to_end())
            pass_walls.append(time.perf_counter() - t0)
        env = environment(bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = tracing.LAYER_METRICS if args.trace else END_TO_END
    values = median_of(rows) if rows else {}
    if not args.trace:
        values["setup_s"] = setup
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    correct = bench.failed == 0 and bool(rows)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "correct": correct,
              "attempted": bench.attempted, "failed": bench.failed,
              "failures": bench.failures, "passes": rows, "metrics": metrics,
              "absent": sorted({a for t in spans for tr in t for a in tr["absent"]}),
              "spans": spans}
    (out_dir / "results").mkdir(exist_ok=True)
    result_path = out_dir / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record) + "\n")

    for f in bench.failures:
        print(f"FAILED {f}")
    print(f"environment: {json.dumps(env)}")
    print(f"passes: {len(rows)}; failed_ops: {bench.failed}/{bench.attempted}; "
          f"record: {result_path.relative_to(root)}")
    if record["absent"]:
        print(f"absent (reported as 0): {', '.join(record['absent'])}")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
