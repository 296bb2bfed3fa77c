"""Mutual-reinforcement iteration over papers, authors and text features,
and the ranked lists: their order, and the ranking files that hold them.

The combined (N+M+K)^2 block matrix is held as a list of terms, one per
block: a chain of one or two sparse factors whose product is the
column-normalized block times its coefficient, placed at its row and column
offset.  ``combined_operator`` builds all eight; a factor applied
transposed is ``.T`` of a stored matrix, over the same arrays, so one
kernel, ``SparseMatrix.matvec``, applies them all.  One operator application
(``iterate_once``) applies every term to the concatenated authority vector
and renormalizes it by its total sum: a power-iteration step, whose fixed
point is the dominant eigenvector of the combined matrix.  ``run`` reaches
that same fixed point in fewer applications by Anderson mixing: each next
point combines the latest image with the last few images, and the plain
image is taken whenever the mix is not a distribution.  Every point is a
plain vector; ``per_type`` reads the paper, author and feature vectors
from one as its three sections, each rescaled to sum 1.  The step count
and the deltas live in the ``ConvergenceLog`` alone.

The innovativeness vector is rescaled to sum 1 before entering the
matrix, so only the relative burstiness of features matters and a global
rescaling of the scores cannot change any ranking.

``write_ranking`` and ``read_ranking`` alone know the ranking file format.
``GraphSet`` is named in annotations only: this module loads no graph code.
"""

from __future__ import annotations

import itertools
import logging
import math
import typing
from dataclasses import dataclass, field

import numpy as np

from .config import HyperParams
from .records import DataError, text_lines
from .sparse import SparseMatrix, reciprocal

if typing.TYPE_CHECKING:
    from .graphs import GraphSet

# the number of past differences each Anderson-mixed step combines
ANDERSON_MEMORY = 5

# the first line of a ranking file written by a run that did not converge
NOT_CONVERGED = "# WARNING: NOT CONVERGED"


class NumericalError(Exception):
    """Non-finite value produced during the iteration."""


def _split(vector: np.ndarray, sizes: tuple[int, int, int]) -> list[np.ndarray]:
    """Views of the paper, author and feature sections of ``vector``."""
    return np.split(vector, np.cumsum(sizes[:2]))


def per_type(vector: np.ndarray, sizes: tuple[int, int, int]) -> list[np.ndarray]:
    """The paper, author and feature authority vectors: the three sections
    of ``vector``, each rescaled to sum 1."""
    return [sec / sec.sum() for sec in _split(vector, sizes)]


@dataclass
class ConvergenceLog:
    deltas: list[float] = field(default_factory=list)
    # per operator application: the next point came from the Anderson mix
    mixed: list[bool] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.deltas)


def init_state(n: int, m: int, k: int) -> np.ndarray:
    """The starting vector: uniform within each section, a third of the
    mass per section."""
    if n <= 0 or m <= 0 or k <= 0:
        raise ValueError(f"entity counts must be positive, got {(n, m, k)}")
    uniform = np.concatenate([np.full(n, 1.0 / n), np.full(m, 1.0 / m),
                              np.full(k, 1.0 / k)])
    return uniform * (1.0 / 3.0)


def normalize_innovativeness(e: np.ndarray) -> np.ndarray:
    """Scale the innovativeness vector to sum 1 (zeros stay zeros)."""
    e = np.asarray(e, dtype=np.float64)
    if np.any(e < 0.0):
        raise ValueError("innovativeness scores must be non-negative")
    total = e.sum()
    return e / total if total > 0.0 else e.copy()


# (row offset, col offset, chain): the term adds
# chain[-1] @ ... @ chain[0] @ x[col:] into the rows from ``row`` on
Operator = list[tuple[int, int, tuple[SparseMatrix, ...]]]


def combined_operator(graphs: GraphSet, e: np.ndarray, hp: HyperParams) -> Operator:
    """The combined matrix as (row offset, col offset, chain) terms, one per
    block whose coefficient w is not 0.  With R the citation graph (i cites
    j), S the coauthor graph, A the authorship pattern (L's nonzeros), C the
    paper x feature counts, L the author x paper listing counts and e the
    normalized innovativeness, the eight blocks are

        pp = w R^T diag(1 / references per citing paper)
        pa = w A^T diag(1 / papers per author)
        aa = w S diag(1 / coauthor links per author)
        ap = w A diag(1 / authors per paper)
        pt = w C diag([idf_p != 0] / colsum C)
        at = w L C diag([idf_a != 0] / colsum(L C))
        tp = w diag(e idf_p) C^T diag(1 / (C idf_p))
        ta = w diag(e idf_a) C^T L^T diag(1 / (L C idf_a))

    Each is column-normalized: column normalization cancels idf in pt and
    at, and a zero sum leaves a zero column.  pp and aa divide by undecayed
    counts instead of their own sums: every reference of one citing paper
    carries that paper's timestamp, so normalizing by the decayed sums would
    cancel the decay exactly.  Dividing by the reference count keeps each
    citer's vote split across its references while recent votes keep more
    absolute weight; at rho = 0 this is plain column normalization.  An
    author's coauthor links sum, over its papers, the paper's other authors.
    The authorship graph is L's pattern: an author listed twice on a paper
    links to it once.

    Every factor shares the ``rows`` and ``cols`` of R, S, L or C and gets
    its own ``data``, made with the divisor and w folded in; pp, pa, tp and
    ta apply theirs transposed, as ``.T``: the same arrays with ``rows`` and
    ``cols`` swapped.  In a factor weighted on both sides the column weight
    is multiplied in first.  The C factors of tp and ta share a subset of
    C: its entries in the columns where e and idf_p or idf_a are not 0,
    picked through a mask over the K columns.  Every entry left out has a
    product of exactly +0.0, and every kept product is finite and not
    negative for a finite, non-negative x, so no image loses a bit.
    """
    hp = hp.effective()
    cit, co, lst, c = graphs.citation, graphs.coauthor, graphs.listings, graphs.feature_counts
    idf_p, idf_a = graphs.idf_paper, graphs.idf_author
    n, m, _ = graphs.sizes
    f = n + m
    e_norm = normalize_innovativeness(e)
    # every divisor: the undecayed counts of the paper and author blocks,
    # and the reciprocal column and row sums of the feature blocks
    refs = np.bincount(cit.rows, minlength=n)
    papers_per_author = np.bincount(lst.rows, minlength=m)
    authors_per_paper = np.bincount(lst.cols, minlength=n)
    links = np.bincount(lst.rows, weights=authors_per_paper[lst.cols] - 1.0, minlength=m)
    inv_colsum_c = reciprocal(c.T.matvec(np.ones(n)))
    inv_colsum_lc = reciprocal(c.T.matvec(lst.T.matvec(np.ones(m))))
    inv_paper_tfidf = reciprocal(c.matvec(idf_p))
    inv_author_tfidf = reciprocal(lst.matvec(c.matvec(idf_a)))

    # the entries of C in the columns that tp or ta can weigh by more than 0
    keep = np.flatnonzero(((e_norm != 0.0) & ((idf_p != 0.0) | (idf_a != 0.0)))[c.cols])
    live = SparseMatrix(c.shape, c.rows[keep], c.cols[keep], c.data[keep])

    def on(g: SparseMatrix, data: np.ndarray) -> SparseMatrix:
        # a factor over g's rows and cols, with its own data
        return SparseMatrix(g.shape, g.rows, g.cols, data)

    def pp(w):
        return (on(cit, cit.data / refs[cit.rows] * w).T,)

    def pa(w):
        return (on(lst, 1.0 / papers_per_author[lst.rows] * w).T,)

    def pt(w):
        return (on(c, c.data * (np.where(idf_p != 0.0, w, 0.0) * inv_colsum_c)[c.cols]),)

    def aa(w):
        return (on(co, co.data / links[co.cols] * w),)

    def ap(w):
        return (on(lst, 1.0 / authors_per_paper[lst.cols] * w),)

    def at(w):
        return (on(c, c.data * (np.where(idf_a != 0.0, w, 0.0) * inv_colsum_lc)[c.cols]), lst)

    def ta(w):
        return (on(lst, lst.data * inv_author_tfidf[lst.rows]).T,
                on(live, live.data * (w * e_norm * idf_a)[live.cols]).T)

    def tp(w):
        return (on(live, live.data * (w * e_norm * idf_p)[live.cols]
                   * inv_paper_tfidf[live.rows]).T,)

    terms = [(0, 0, hp.alpha_p, pp), (0, n, hp.beta_p * (1.0 - hp.alpha_p), pa),
             (0, f, (1.0 - hp.beta_p) * (1.0 - hp.alpha_p), pt),
             (n, n, hp.alpha_a, aa), (n, 0, hp.beta_a * (1.0 - hp.alpha_a), ap),
             (n, f, (1.0 - hp.beta_a) * (1.0 - hp.alpha_a), at),
             (f, n, hp.alpha_f, ta), (f, 0, 1.0 - hp.alpha_f, tp)]
    return [(row, col, build(w)) for row, col, w, build in terms if w != 0.0]


def iterate_once(x: np.ndarray, operator: Operator,
                 sizes: tuple[int, int, int]) -> np.ndarray:
    """One Jacobi-style update of the whole vector: the operator's image of
    ``x``, renormalized to sum 1.

    A section whose image is all zero is reset to a uniform vector of unit
    mass before the global renormalization.
    """
    y = np.zeros_like(x)
    for row, col, chain in operator:
        v = x[col:col + chain[0].shape[1]]
        for factor in chain:
            v = factor.matvec(v)
        y[row:row + v.size] += v
    if not np.all(np.isfinite(y)):
        raise NumericalError("non-finite value in the operator image")
    total = 0.0
    for sec in _split(y, sizes):
        if sec.sum() == 0.0:
            sec[:] = 1.0 / sec.size
        total += sec.sum()
    return y / total


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # a pairwise sum of products: its bits do not depend on BLAS threads
    return float(np.add.reduce(a * b))


def _solve(a: np.ndarray, b: list[float]) -> list[float] | None:
    """Solve the small system ``a[:n, :n] x = b`` (n = len(b)) by Gaussian
    elimination with partial pivoting; None when a pivot is zero or a value
    is not finite."""
    n = len(b)
    rows = [a[i, :n].tolist() + [b[i]] for i in range(n)]
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(rows[r][c]))
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        if not (pivot != 0.0 and math.isfinite(pivot)):
            return None
        for r in range(c + 1, n):
            factor = rows[r][c] / pivot
            rows[r] = [v - factor * w for v, w in zip(rows[r], rows[c])]
    x = [0.0] * n
    for c in reversed(range(n)):
        x[c] = (rows[c][n] - sum(rows[c][j] * x[j] for j in range(c + 1, n))) / rows[c][c]
    return x if all(math.isfinite(v) for v in x) else None


class Anderson:
    """Anderson mixing (Walker and Ni, SIAM J. Numer. Anal. 2011) of a
    fixed-point map g over distributions.

    ``mix(x, g)`` takes a point and its image and returns the next point
    g - dG gamma, where gamma minimizes |f - dF gamma| for the residual
    f = g - x, and the columns of dF and dG are the last ``ANDERSON_MEMORY``
    differences of successive residuals and images.  gamma solves the
    normal equations dF^T dF gamma = dF^T f; the Gram matrix dF^T dF gains
    one row and column per call.  It returns None, meaning "take g", when
    that system is singular, or when the mix has a negative entry or a
    section of zero mass; otherwise the mix rescaled to sum 1.

    The differences live in a ring of ``ANDERSON_MEMORY`` rows.  Each call
    subtracts the last residual and image, held by reference (so the caller
    must not change g afterwards), straight into the oldest slot.
    """

    def __init__(self, sizes: tuple[int, int, int]):
        size = sum(sizes)
        self.sizes = sizes
        self.df = np.empty((ANDERSON_MEMORY, size))
        self.dg = np.empty((ANDERSON_MEMORY, size))
        self.gram = np.zeros((ANDERSON_MEMORY, ANDERSON_MEMORY))
        self.held = 0       # differences in the ring
        self.slot = 0       # the slot the next difference fills
        self.last = None    # the last residual and image

    def mix(self, x: np.ndarray, g: np.ndarray) -> np.ndarray | None:
        f = g - x
        if self.last is not None:
            s = self.slot
            np.subtract(f, self.last[0], out=self.df[s])
            np.subtract(g, self.last[1], out=self.dg[s])
            self.held = min(self.held + 1, ANDERSON_MEMORY)
            self.slot = (s + 1) % ANDERSON_MEMORY
            for j in range(self.held):
                self.gram[s, j] = self.gram[j, s] = _dot(self.df[s], self.df[j])
        self.last = f, g
        return self._combine(f, g) if self.held else None

    def _combine(self, f: np.ndarray, g: np.ndarray) -> np.ndarray | None:
        gamma = _solve(self.gram, [_dot(self.df[j], f) for j in range(self.held)])
        if gamma is None:
            return None
        out = g.copy()
        for j, c in enumerate(gamma):
            out -= self.dg[j] * c
        if np.any(out < 0.0) or any(sec.sum() == 0.0 for sec in _split(out, self.sizes)):
            return None
        out /= out.sum()
        return out


def run(operator: Operator, sizes: tuple[int, int, int],
        hp: HyperParams) -> tuple[np.ndarray, ConvergenceLog]:
    """Iterate ``operator`` (``combined_operator``) over vectors with
    sections of ``sizes`` to convergence or until max_iterations operator
    applications; return the last image and the log.  Nothing else is
    needed, so a caller can free the graphs before iterating.

    Each step applies the operator once, to the current point x.  The run
    has converged when the L1 delta between the concatenated per-type
    vectors of x and of its image g(x) is below tolerance, and then returns
    that image.  Otherwise the next point is the Anderson mix of g(x) with
    the last ``ANDERSON_MEMORY`` images, or g(x) itself when the mix is
    unusable (``Anderson.mix``).  The log records every delta and whether
    the next point came from the mix.
    """
    x = init_state(*sizes)
    log = ConvergenceLog()
    anderson = Anderson(sizes)
    while True:
        g = iterate_once(x, operator, sizes)
        delta = float(np.abs(np.concatenate(per_type(g, sizes))
                             - np.concatenate(per_type(x, sizes))).sum())
        log.deltas.append(delta)
        log.converged = delta < hp.tolerance
        if log.converged or log.iterations == hp.max_iterations:
            log.mixed.append(False)
            return g, log
        mixed = anderson.mix(x, g)
        log.mixed.append(mixed is not None)
        x = g if mixed is None else mixed


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
            fh.write(NOT_CONVERGED + "\n")
        fh.write("rank\tid\tscore\n")
        fh.writelines(f"{rank}\t{ids[i]}\t{score:.10g}\n" for rank, (i, score) in
                      enumerate(zip(order.tolist(), scores[order].tolist()), start=1))


def read_ranking(path, positions: dict[str, int]) -> np.ndarray:
    """The positions of a ranking file's ids, in file order.  Ids not in
    ``positions`` are skipped: they are in no cohort.  A file marked not
    converged is read all the same, with a warning naming it.

    Each row is only split and its id taken; a row with no id column ends
    the reading.  The duplicate test and the lookup of positions then run
    once over the ids taken, and of a duplicate and a row with no id
    column, the one on the earlier line is raised."""
    ids, headers = [], []
    missing = None   # the line of a row with no id column
    for lineno, line in enumerate(text_lines(path), start=1):
        if line.startswith(("#", "rank\t")):
            if line.rstrip("\n") == NOT_CONVERGED:
                logging.getLogger(__name__).warning(
                    "%s is from a run that did not converge", path)
            headers.append(lineno)
            continue
        row = line.split("\t", 2)
        # the second column holds the line break when it is the last one
        eid = row[1].rstrip("\n") if len(row) > 1 else ""
        if not eid:
            missing = lineno
            break
        ids.append(eid)
    if len(set(ids)) < len(ids):
        seen = set()
        for first, eid in enumerate(ids):
            if eid in seen:
                break
            seen.add(eid)
        lineno = first + 1   # the line of the row: each header before it moves it on
        for header in headers:
            lineno += header <= lineno
        raise DataError(f"{path} line {lineno}: id {eid!r} listed twice")
    if missing is not None:
        raise DataError(f"{path} line {missing}: no id column")
    found = np.fromiter(map(positions.get, ids, itertools.repeat(-1)), dtype=np.int64,
                        count=len(ids))
    return found[found >= 0]


def write_convergence(log: ConvergenceLog, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# converged\t{log.converged}\n")
        fh.write("iteration\tl1_delta\tmixed\n")
        for i, (d, mixed) in enumerate(zip(log.deltas, log.mixed), start=1):
            fh.write(f"{i}\t{d:.10g}\t{int(mixed)}\n")
