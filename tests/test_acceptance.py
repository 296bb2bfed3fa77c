"""Acceptance suite: one test per criterion, each printing a single
PASS/FAIL line on the real stdout so the verdicts survive pytest capture."""

import contextlib
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import random_hyperparams, random_instance
from operator_oracle import assemble_combined, plain_iteration, ri_list
from mrfrank.cli import main as cli_main
from mrfrank.config import HyperParams
from mrfrank.evaluate import max_ri, ri_item
from mrfrank.ranking import per_type, run
from mrfrank.textfeat import FeatureTable, innovativeness_at_window
from synthgen import rising_paper_corpus, scale_corpus

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


@contextlib.contextmanager
def criterion(capfd, num, title):
    """Emit exactly one PASS/FAIL verdict line per criterion on the real
    stdout, outside pytest's capture."""

    def emit(verdict):
        with capfd.disabled():
            print(f"CRITERION {num}: {verdict} - {title}", flush=True)

    try:
        yield
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


def dominant_eigenvector(combined):
    vals, vecs = np.linalg.eig(combined)
    v = np.real(vecs[:, np.argmax(np.abs(vals))])
    return v / v.sum()


def test_criterion_1_and_2_eigenvector_oracle_and_normalization(rng, capfd):
    """Criteria 1 and 2 share the oracle instances: the converged vector of
    every instance must match the dense dominant eigenvector, and every
    intermediate authority vector must be a proper distribution."""
    checked = 0
    attempts = 0
    start = time.perf_counter()
    norm_ok = True
    with criterion(capfd, 1, "fixpoint matches dense dominant eigenvector "
                      "(>=50 random instances, L-inf <= 1e-6)"):
        while checked < 50 and attempts < 80:
            attempts += 1
            gs, e = random_instance(rng, max_dim=11)  # N+M+K <= 30
            assert sum(gs.sizes) <= 30
            hp = random_hyperparams(rng, tolerance=1e-13, max_iterations=5000)
            converged = False
            for x, _, delta in itertools.islice(plain_iteration(gs, e, hp),
                                                hp.max_iterations):
                for sec in per_type(x, gs.sizes):
                    if abs(sec.sum() - 1.0) > 1e-12 or np.any(sec < 0.0):
                        norm_ok = False
                if delta < hp.tolerance:
                    converged = True
                    break
            if not converged:
                continue
            v = dominant_eigenvector(assemble_combined(gs, e, hp))
            assert np.max(np.abs(x / x.sum() - v)) <= 1e-6
            checked += 1
        elapsed = time.perf_counter() - start
        assert checked >= 50, f"only {checked} converged instances"
        assert elapsed < 10.0, f"oracle loop took {elapsed:.1f}s"
    with criterion(capfd, 2, "authority vectors sum to 1 +/- 1e-12 with no "
                      "negative entries at every iteration"):
        assert norm_ok


def test_criterion_3_mode_reductions(rng, capfd):
    with criterion(capfd, 3, "ablation modes are byte-identical to the equivalent "
                      "full-mode parameterizations"):
        gs, e = random_instance(rng)
        base = random_hyperparams(rng, tolerance=1e-10, max_iterations=3000)
        a, _ = run(gs, e, replace(base, mode="full", rho_edge=0.0))
        b, _ = run(gs, e, replace(base, mode="no_time", rho_edge=0.8))
        for x, y in zip(per_type(a, gs.sizes), per_type(b, gs.sizes)):
            assert np.array_equal(x, y)
        c, _ = run(gs, e, replace(base, mode="full", beta_p=1.0, beta_a=1.0))
        d, _ = run(gs, e, replace(base, mode="no_content"))
        for x, y in zip(per_type(c, gs.sizes), per_type(d, gs.sizes)):
            assert np.array_equal(x, y)


def test_criterion_4_innovativeness_scaling_invariance(rng, capfd):
    with criterion(capfd, 4, "scaling all burst scores by 7.3 changes no ranking "
                      "and moves converged vectors < 1e-10"):
        for _ in range(5):
            gs, e = random_instance(rng)
            hp = random_hyperparams(rng, tolerance=1e-12, max_iterations=5000)
            a, la = run(gs, e, hp)
            b, lb = run(gs, 7.3 * e, hp)
            assert la.converged and lb.converged
            for x, y in zip(per_type(a, gs.sizes), per_type(b, gs.sizes)):
                assert np.max(np.abs(x - y)) < 1e-10
                assert np.array_equal(np.argsort(-x, kind="stable"),
                                      np.argsort(-y, kind="stable"))


def test_criterion_5_burst_worked_value(capfd):
    with criterion(capfd, 5, "burst score matches the independently recomputed "
                      "worked value; constant series is exactly 0"):
        out = subprocess.run(
            [sys.executable, str(FIXTURES / "burst_oracle.py")],
            capture_output=True, text=True, check=True)
        oracle = float(out.stdout.split()[1])
        table = FeatureTable(features=("w|f",), global_lambda=2.0, window_years=1,
                             origin_year=2000, n_windows=4, doc_freq=np.array([10]),
                             first_seen=np.array([0]), lam=np.array([2.5]),
                             window_counts=np.array([[0, 0, 2, 8]]))
        [score] = innovativeness_at_window(table, 3, rho=0.0, u=3).tolist()
        assert abs(score - oracle) <= 1e-9
        ctab = FeatureTable(features=("w|c",), global_lambda=3.0, window_years=1,
                            origin_year=2000, n_windows=4, doc_freq=np.array([16]),
                            first_seen=np.array([0]), lam=np.array([4.0]),
                            window_counts=np.array([[4, 4, 4, 4]]))
        [const] = innovativeness_at_window(ctab, 3, rho=0.0, u=3).tolist()
        assert const == 0.0


def test_criterion_6_ri_metric_exactness(capfd):
    with criterion(capfd, 6, "RI metric closed-form values are exact"):
        assert ri_item(1, 10, True) == 1.9
        assert ri_item(10, 10, True) == 1.0
        perfect = [f"p{i}" for i in range(10)]
        assert ri_list(perfect, perfect) == 14.5
        assert max_ri(10) == 14.5
        assert ri_list(perfect, [f"q{i}" for i in range(10)]) == 0.0


# ---------------------------------------------------------------------------
# criterion 7 plus the cheap half of criterion 9 share one synthetic corpus


@pytest.fixture(scope="module")
def rising_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("rising") / "corpus.jsonl"
    with open(path, "w") as fh:
        for r in rising_paper_corpus():
            fh.write(json.dumps(r) + "\n")
    return path


def run_rising(corpus, workspace, mode, extra=()):
    args = ["rank", "--corpus", str(corpus), "--workspace", str(workspace),
            "--tolerance", "1e-8", "--max-iterations", "2000",
            "--mode", mode.replace("_", "-"), *extra]
    return cli_main(args)


def rank_position(path, entity_id):
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("rank\t"):
                continue
            rank, eid, _ = line.split("\t")
            if eid == entity_id:
                return int(rank)
    raise AssertionError(f"{entity_id} not found in {path}")


def test_criterion_7_rising_paper_experiment(rising_corpus, tmp_path, capfd):
    with criterion(capfd, 7, "full mode ranks the recent riser above the old "
                      "classic; no_time_no_content reverses them (< 5 s)"):
        ws = tmp_path / "ws"
        start = time.perf_counter()
        assert run_rising(rising_corpus, ws, "full") == 0
        assert run_rising(rising_corpus, ws, "no_time_no_content") == 0
        elapsed = time.perf_counter() - start
        full = ws / "papers_full.tsv"
        tc = ws / "papers_no_time_no_content.tsv"
        assert rank_position(full, "riser") < rank_position(full, "classic")
        assert rank_position(tc, "classic") < rank_position(tc, "riser")
        assert elapsed < 5.0, f"rising-paper runs took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criteria 8 and 9 (scale smoke test and determinism)


@pytest.fixture(scope="module")
def scale_corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("scale") / "corpus.jsonl"
    scale_corpus(path)
    return path


def threads_env(threads: str) -> dict:
    return {"OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads}


def child_env(env_extra: dict) -> dict:
    """The environment of a ``python -m mrfrank.cli`` child: this
    checkout's ``src`` first on PYTHONPATH, so the child imports the code
    under test whether or not mrfrank is installed."""
    env = dict(os.environ, **env_extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def run_scale_subprocess(corpus, workspace, env_extra):
    env = child_env(env_extra)
    args = [sys.executable, "-m", "mrfrank.cli", "rank",
            "--corpus", str(corpus), "--workspace", str(workspace),
            "--tolerance", "1e-8", "--max-iterations", "1000"]
    start = time.perf_counter()
    proc = subprocess.run(args, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr[-2000:]
    return elapsed


@pytest.fixture(scope="module")
def scale_run(scale_corpus_path, tmp_path_factory):
    ws = tmp_path_factory.mktemp("scale_ws")
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    elapsed = run_scale_subprocess(scale_corpus_path, ws, threads_env("4"))
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return elapsed, max(peak_kb, before), ws


def test_criterion_8_scale_smoke(scale_run, capfd):
    with criterion(capfd, 8, "100k-paper corpus completes cmd_rank in < 5 min "
                      "and < 4 GB"):
        elapsed, peak_kb, ws = scale_run
        assert (ws / "papers_full.tsv").exists()
        assert elapsed < 300.0, f"scale run took {elapsed:.0f}s"
        assert peak_kb < 4 * 1024 * 1024, f"peak rss {peak_kb} kB"


OUTPUTS = ("papers_full.tsv", "authors_full.tsv", "features_full.tsv")


def workspace_bytes(ws, names=OUTPUTS):
    return [Path(ws, n).read_bytes() for n in names]


def test_criterion_9_determinism(rising_corpus, scale_corpus_path, scale_run,
                                 tmp_path_factory, capfd):
    with criterion(capfd, 9, "criterion-7 and criterion-8 pipelines are "
                      "byte-identical across reruns and thread settings"):
        # rising-paper pipeline: two in-process runs, then subprocess runs
        # with different BLAS/OpenMP thread counts
        ws = {}
        for name in ("a", "b"):
            ws[name] = tmp_path_factory.mktemp(f"det_{name}")
            assert run_rising(rising_corpus, ws[name], "full") == 0
        assert workspace_bytes(ws["a"]) == workspace_bytes(ws["b"])
        for threads in ("1", "4", "2"):
            wsx = tmp_path_factory.mktemp(f"det_t{threads}")
            env = child_env(threads_env(threads))
            args = [sys.executable, "-m", "mrfrank.cli", "rank",
                    "--corpus", str(rising_corpus), "--workspace", str(wsx),
                    "--tolerance", "1e-8", "--max-iterations", "2000"]
            proc = subprocess.run(args, env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr[-2000:]
            assert workspace_bytes(wsx) == workspace_bytes(ws["a"])

        # scale pipeline: rerun with a different thread count
        _, _, ws8 = scale_run
        ws8b = tmp_path_factory.mktemp("det_scale")
        run_scale_subprocess(scale_corpus_path, ws8b, threads_env("1"))
        assert workspace_bytes(ws8b) == workspace_bytes(ws8)
