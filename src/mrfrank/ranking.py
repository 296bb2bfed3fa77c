"""Mutual-reinforcement power iteration over papers, authors and text
features, and ranked-list output.

The combined (N+M+K)^2 block matrix is held as a list of terms, each a
column-normalized block, or a short chain of sparse factors whose product
is one, already scaled by its coefficient and placed at its row and column
offset.  One step applies every term to the concatenated authority vector
and renormalizes it by its total sum, which is exactly power iteration and
therefore converges to the dominant eigenvector of the combined matrix.
The per-type vectors are the three sections of that one vector, each
rescaled to sum 1.

The innovativeness vector is rescaled to sum 1 before entering the
matrix, so only the relative burstiness of features matters and a global
rescaling of the scores cannot change any ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .graphs import GraphSet, graph_blocks
from .sparse import SparseMatrix, Transposed, reciprocal, scale

MODES = ("full", "no_time", "no_content", "no_time_no_content")


class NumericalError(Exception):
    """Non-finite value produced during the iteration."""


@dataclass
class HyperParams:
    alpha_p: float = 0.4
    beta_p: float = 1.0 / 3.0   # gamma1 = (1-beta_p)(1-alpha_p) = 0.4
    alpha_a: float = 0.4
    beta_a: float = 0.5         # gamma2 = (1-beta_a)(1-alpha_a) = 0.3
    alpha_f: float = 0.5
    rho_edge: float = 0.2
    rho_feature: float = 0.2
    u: int = 3
    tolerance: float = 1e-8
    max_iterations: int = 200
    mode: str = "full"

    def __post_init__(self):
        # written so that nan fails every check
        for name in ("alpha_p", "beta_p", "alpha_a", "beta_a", "alpha_f"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")
        for name in ("rho_edge", "rho_feature"):
            v = getattr(self, name)
            if not 0.0 <= v < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        for name in ("u", "max_iterations"):
            v = getattr(self, name)
            if v < 1:
                raise ValueError(f"{name} must be at least 1, got {v}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")

    def effective(self) -> "HyperParams":
        """Coefficients after applying the ablation mode: no_time forces
        binary edges (rho_edge = 0), no_content forces beta_p = beta_a = 1."""
        hp = self
        if hp.mode in ("no_time", "no_time_no_content"):
            hp = replace(hp, rho_edge=0.0)
        if hp.mode in ("no_content", "no_time_no_content"):
            hp = replace(hp, beta_p=1.0, beta_a=1.0)
        return hp


def _split(vector: np.ndarray, sizes: tuple[int, int, int]) -> list[np.ndarray]:
    """Views of the paper, author and feature sections of ``vector``."""
    return np.split(vector, np.cumsum(sizes[:2]))


@dataclass
class RankState:
    # paper, author and feature authority concatenated; sums to 1
    vector: np.ndarray
    sizes: tuple[int, int, int]
    iteration: int = 0
    last_delta: float = float("inf")
    # the three sections of ``vector``, each rescaled to sum 1, concatenated
    per_type: np.ndarray = field(init=False)

    def __post_init__(self):
        self.per_type = np.concatenate([sec / sec.sum()
                                        for sec in _split(self.vector, self.sizes)])

    @property
    def a_paper(self) -> np.ndarray:
        return _split(self.per_type, self.sizes)[0]

    @property
    def a_author(self) -> np.ndarray:
        return _split(self.per_type, self.sizes)[1]

    @property
    def a_feature(self) -> np.ndarray:
        return _split(self.per_type, self.sizes)[2]


@dataclass
class ConvergenceLog:
    deltas: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.deltas)


def init_state(n: int, m: int, k: int) -> RankState:
    """Uniform within each section, a third of the mass per section."""
    if n <= 0 or m <= 0 or k <= 0:
        raise ValueError(f"entity counts must be positive, got {(n, m, k)}")
    uniform = np.concatenate([np.full(n, 1.0 / n), np.full(m, 1.0 / m),
                              np.full(k, 1.0 / k)])
    return RankState(vector=uniform * (1.0 / 3.0), sizes=(n, m, k))


def normalize_innovativeness(e: np.ndarray) -> np.ndarray:
    """Scale the innovativeness vector to sum 1 (zeros stay zeros)."""
    e = np.asarray(e, dtype=np.float64)
    if np.any(e < 0.0):
        raise ValueError("innovativeness scores must be non-negative")
    total = e.sum()
    return e / total if total > 0.0 else e.copy()


# (row offset, col offset, chain): the term adds
# chain[-1] @ ... @ chain[0] @ x[col:] into the rows from ``row`` on; a
# factor is a SparseMatrix or one applied ``Transposed``
Operator = list[tuple[int, int, tuple[SparseMatrix | Transposed, ...]]]


def _feature_chains(graphs: GraphSet, e_norm: np.ndarray,
                    coef: dict[str, float]) -> dict[str, tuple]:
    """The four feature blocks as chains of factors over C (paper x feature
    counts) and L (author x paper listing counts), the transposed ones
    applied in place.

    Column normalization cancels idf, so

        pt = C diag(1 / colsum C)
        at = L C diag(1 / colsum(L C))
        tp = diag(idf_p) C^T diag(1 / (C idf_p))
        ta = diag(idf_a) C^T L^T diag(1 / (L C idf_a))

    A feature with idf 0 keeps a zero column in pt and at, and a paper or
    author whose features all have idf 0 a zero column in tp and ta.  Each
    coefficient and diagonal, the normalized innovativeness of the feature
    rows included, is folded into one factor's weights; every scaled factor
    shares the ``rows`` and ``cols`` of C or L.
    """
    c, lst = graphs.feature_counts, graphs.listings
    idf_p, idf_a = graphs.idf_paper, graphs.idf_author
    n, m = c.shape[0], lst.shape[0]
    colsum_c = c.rmatvec(np.ones(n))
    colsum_lc = c.rmatvec(lst.rmatvec(np.ones(m)))
    return {
        "pt": (scale(c, col_weights=np.where(idf_p != 0.0, coef["pt"], 0.0)
                     * reciprocal(colsum_c)),),
        "at": (scale(c, col_weights=np.where(idf_a != 0.0, coef["at"], 0.0)
                     * reciprocal(colsum_lc)), lst),
        "tp": (Transposed(scale(c, row_weights=reciprocal(c.matvec(idf_p)),
                                col_weights=coef["tp"] * e_norm * idf_p)),),
        "ta": (Transposed(scale(lst, row_weights=reciprocal(lst.matvec(c.matvec(idf_a))))),
               Transposed(scale(c, col_weights=coef["ta"] * e_norm * idf_a))),
    }


def combined_operator(graphs: GraphSet, e: np.ndarray, hp: HyperParams) -> Operator:
    """The combined matrix as (row offset, col offset, chain) terms.

    The paper and author blocks come fresh from ``graph_blocks`` and their
    weights are scaled in place by their coefficients; pp and pa come as
    their transposes and are applied transposed.  The feature blocks are
    chains of factors (``_feature_chains``).  Terms whose coefficient is 0
    are left out.
    """
    hp = hp.effective()
    n, m, _ = graphs.sizes
    f = n + m
    coef = {
        "pp": hp.alpha_p, "pa": hp.beta_p * (1.0 - hp.alpha_p),
        "pt": (1.0 - hp.beta_p) * (1.0 - hp.alpha_p),
        "aa": hp.alpha_a, "ap": hp.beta_a * (1.0 - hp.alpha_a),
        "at": (1.0 - hp.beta_a) * (1.0 - hp.alpha_a),
        "ta": hp.alpha_f, "tp": 1.0 - hp.alpha_f,
    }
    chains = _feature_chains(graphs, normalize_innovativeness(e), coef)
    blocks = graph_blocks(graphs)
    for name, block in blocks.items():
        block.data *= coef[name]
    chains.update(pp=(Transposed(blocks["pp"]),), pa=(Transposed(blocks["pa"]),),
                  aa=(blocks["aa"],), ap=(blocks["ap"],))
    offsets = [("pp", 0, 0), ("pa", 0, n), ("pt", 0, f), ("aa", n, n), ("ap", n, 0),
               ("at", n, f), ("ta", f, n), ("tp", f, 0)]
    return [(row, col, chains[name]) for name, row, col in offsets if coef[name] != 0.0]


def iterate_once(state: RankState, operator: Operator) -> RankState:
    """One Jacobi-style update of the whole vector from the old state.

    A section whose image is all zero is reset to a uniform vector of unit
    mass before the global renormalization.
    """
    x = state.vector
    y = np.zeros_like(x)
    for row, col, chain in operator:
        v = x[col:col + chain[0].shape[1]]
        for factor in chain:
            v = factor.matvec(v)
        y[row:row + v.size] += v
    if not np.all(np.isfinite(y)):
        raise NumericalError(f"non-finite value at iteration {state.iteration + 1}")
    total = 0.0
    for sec in _split(y, state.sizes):
        if sec.sum() == 0.0:
            sec[:] = 1.0 / sec.size
        total += sec.sum()
    out = RankState(vector=y / total, sizes=state.sizes,
                    iteration=state.iteration + 1)
    out.last_delta = float(np.abs(out.per_type - state.per_type).sum())
    return out


def run(graphs: GraphSet, e: np.ndarray,
        hp: HyperParams) -> tuple[RankState, ConvergenceLog]:
    """Iterate to convergence (L1 delta over the concatenated per-type
    vectors below tolerance) or until max_iterations."""
    operator = combined_operator(graphs, e, hp)
    state = init_state(*graphs.sizes)
    log = ConvergenceLog()
    for _ in range(hp.max_iterations):
        state = iterate_once(state, operator)
        log.deltas.append(state.last_delta)
        if state.last_delta < hp.tolerance:
            log.converged = True
            break
    return state, log


def rank_entities(values: np.ndarray) -> np.ndarray:
    """Positions by descending value, ties by ascending position; where
    positions follow sorted ids, as in ``Corpus`` and ``FeatureTable``, that
    is ascending id."""
    # a stable sort by value keeps tied positions in order
    return np.argsort(-values, kind="stable")


def write_ranking(path, ids, scores: np.ndarray, converged: bool = True) -> None:
    """Rank, id and score of every entity, in ``rank_entities`` order;
    ``ids[i]`` is the id of the entity at position i."""
    order = rank_entities(scores)
    with open(path, "w", encoding="utf-8") as fh:
        if not converged:
            fh.write("# WARNING: NOT CONVERGED\n")
        fh.write("rank\tid\tscore\n")
        fh.writelines(f"{rank}\t{ids[i]}\t{score:.10g}\n" for rank, (i, score) in
                      enumerate(zip(order.tolist(), scores[order].tolist()), start=1))


def write_convergence(log: ConvergenceLog, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# converged\t{log.converged}\n")
        fh.write("iteration\tl1_delta\n")
        for i, d in enumerate(log.deltas, start=1):
            fh.write(f"{i}\t{d:.10g}\n")
