import hashlib
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_counts, random_hyperparams, random_instance
from operator_oracle import (assemble_combined, fixed_point, plain_iteration, run_graphs,
                             to_dense)
from mrfrank import ranking
from mrfrank.corpus import parse_corpus
from mrfrank.graphs import build_graphs
from mrfrank.config import MODES, HyperParams
from mrfrank.ranking import (Anderson, NumericalError, combined_operator, init_state,
                             iterate_once, normalize_innovativeness, per_type,
                             rank_entities, write_convergence, write_ranking)
from mrfrank.sparse import SparseMatrix, reciprocal
from mrfrank.textfeat import build_feature_table


class TestHyperParams:
    def test_defaults_valid(self):
        hp = HyperParams()
        assert hp.mode == "full"
        # mixing weights in the paper-update convex combination
        assert hp.beta_p * (1 - hp.alpha_p) == pytest.approx(0.2)
        assert (1 - hp.beta_p) * (1 - hp.alpha_p) == pytest.approx(0.4)

    @pytest.mark.parametrize("kwargs", [
        {"alpha_p": -0.1}, {"beta_a": 1.5}, {"tolerance": 0.0},
        {"rho_edge": -1.0}, {"mode": "bogus"},
        {"u": 0}, {"u": -2}, {"max_iterations": 0}, {"max_iterations": -5},
        {"tolerance": float("nan")}, {"rho_edge": float("inf")},
        {"rho_feature": float("nan")}, {"alpha_f": float("nan")},
    ])
    def test_invalid_rejected(self, kwargs):
        (name, _), = kwargs.items()
        with pytest.raises(ValueError, match=name):
            HyperParams(**kwargs)

    def test_effective_no_time(self):
        hp = HyperParams(mode="no_time", rho_edge=0.7).effective()
        assert hp.rho_edge == 0.0
        assert hp.beta_p == HyperParams().beta_p

    def test_effective_no_content(self):
        hp = HyperParams(mode="no_content").effective()
        assert hp.beta_p == 1.0 and hp.beta_a == 1.0
        assert hp.rho_edge == HyperParams().rho_edge

    def test_effective_both(self):
        hp = HyperParams(mode="no_time_no_content").effective()
        assert hp.rho_edge == 0.0 and hp.beta_p == 1.0 and hp.beta_a == 1.0


class TestInitAndNormalize:
    def test_init_uniform_unit_sections(self):
        v = init_state(4, 3, 5)
        paper, author, feature = per_type(v, (4, 3, 5))
        assert np.allclose(paper, 0.25)
        assert author.sum() == pytest.approx(1.0)
        assert feature.sum() == pytest.approx(1.0)
        assert np.allclose([v[:4].sum(), v[4:7].sum(), v[7:].sum()], 1 / 3)

    def test_init_rejects_empty(self):
        with pytest.raises(ValueError):
            init_state(0, 3, 5)

    def test_normalize_innovativeness(self):
        e = normalize_innovativeness(np.array([1.0, 3.0, 0.0]))
        assert np.allclose(e, [0.25, 0.75, 0.0])
        z = normalize_innovativeness(np.zeros(3))
        assert np.array_equal(z, np.zeros(3))
        with pytest.raises(ValueError):
            normalize_innovativeness(np.array([1.0, -0.5]))


class TestIterateOnce:
    def test_sections_sum_to_one(self, rng):
        gs, e = random_instance(rng)
        hp = random_hyperparams(rng)
        operator = combined_operator(gs, e, hp)
        x = init_state(*gs.sizes)
        for _ in range(5):
            x = iterate_once(x, operator, gs.sizes)
            for sec in per_type(x, gs.sizes):
                assert sec.sum() == pytest.approx(1.0)
            assert x.sum() == pytest.approx(1.0)

    def test_matches_dense_matrix_application(self, rng):
        """One sparse update must equal one multiply by the assembled
        combined matrix followed by the same normalization."""
        for _ in range(15):
            gs, e = random_instance(rng)
            hp = random_hyperparams(rng)
            combined = assemble_combined(gs, e, hp)
            operator = combined_operator(gs, e, hp)
            x = init_state(*gs.sizes)
            for _ in range(3):
                raw_next = combined @ x
                x = iterate_once(x, operator, gs.sizes)
                expect = raw_next / raw_next.sum()
                assert np.allclose(x, expect, atol=1e-14)

    def test_zero_innovativeness_resets_features_uniform(self, rng):
        gs, e = random_instance(rng)
        hp = random_hyperparams(rng)
        operator = combined_operator(gs, np.zeros_like(e), hp)
        x = iterate_once(init_state(*gs.sizes), operator, gs.sizes)
        assert np.allclose(per_type(x, gs.sizes)[2], 1.0 / gs.sizes[2])

    def test_nonfinite_raises(self, rng):
        gs, e = random_instance(rng)
        hp = random_hyperparams(rng)
        operator = combined_operator(gs, e, hp)
        x = init_state(*gs.sizes)
        x[0] = np.inf
        # a zero factor entry times inf is nan, which numpy warns of
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            iterate_once(x, operator, gs.sizes)


# sha256 over every term of ``combined_operator`` on ``operator_instances``
# in all four modes: each term's offsets, and each factor's shape, whether
# it is applied transposed, and the bytes of its rows, cols and data; a
# transposed factor is hashed as the stored matrix it is ``.T`` of
OPERATOR_DIGEST = "f0d32b52af41bfe368d08daa89b0fed6ae5b78f709cf79c2ba8355b689179011"


def operator_instances():
    """60 seeded ``random_instance``s with their hyperparameters; every
    fifth puts a coefficient at 0 or 1."""
    rng = np.random.default_rng(1407)
    edges = [dict(alpha_p=1.0), dict(beta_p=0.0, alpha_a=0.0), dict(beta_a=1.0),
             dict(alpha_f=0.0), dict(alpha_f=1.0, beta_p=1.0)]
    for i in range(60):
        gs, e = random_instance(rng)
        hp = random_hyperparams(rng, **(edges[i // 5 % 5] if i % 5 == 4 else {}))
        yield gs, e, hp


def operator_digest() -> str:
    digest = hashlib.sha256()
    for gs, e, hp in operator_instances():
        n, m, _ = gs.sizes
        # the offsets of pp, pa, ta and tp, whose factors are applied transposed
        transposed_terms = {(0, 0), (0, n), (n + m, n), (n + m, 0)}
        for mode in MODES:
            for row, col, chain in combined_operator(gs, e, replace(hp, mode=mode)):
                digest.update(f"{mode} {row} {col} {len(chain)};".encode())
                for factor in chain:
                    transposed = (row, col) in transposed_terms
                    stored = factor.T if transposed else factor
                    digest.update(f"{transposed} {stored.shape};".encode())
                    for array in (stored.rows, stored.cols, stored.data):
                        digest.update(array.dtype.str.encode() + array.tobytes())
    return digest.hexdigest()


def unpruned(operator, gs, e, hp):
    """``operator`` with the C factors of tp and ta over every entry of C,
    those whose feature weight is 0 included."""
    n, m, _ = gs.sizes
    c, hp = gs.feature_counts, hp.effective()
    e_norm = normalize_innovativeness(e)
    inv_paper_tfidf = reciprocal(c.matvec(gs.idf_paper))
    out = []
    for row, col, chain in operator:
        if (row, col) == (n + m, 0):
            weight = (1.0 - hp.alpha_f) * e_norm * gs.idf_paper
            chain = (SparseMatrix(c.shape, c.rows, c.cols, c.data * weight[c.cols]
                                  * inv_paper_tfidf[c.rows]).T,)
        elif (row, col) == (n + m, n):
            weight = hp.alpha_f * e_norm * gs.idf_author
            chain = (chain[0], SparseMatrix(c.shape, c.rows, c.cols,
                                            c.data * weight[c.cols]).T)
        out.append((row, col, chain))
    return out


class TestCombinedOperator:
    def test_operator_bytes_pinned(self):
        """Every factor of every term keeps its bytes: a refactor of how
        the terms are built must not move a single ulp."""
        assert operator_digest() == OPERATOR_DIGEST

    def test_pruned_feature_terms_keep_every_image(self):
        """Leaving out the entries of tp's and ta's C factor whose feature
        weight is 0 keeps every image bit for bit: each left-out product
        was +0.0, added to a sum of non-negative products.  Checked from
        the uniform start, whose mass is on every feature, and from random
        non-negative points, with the instance's e and with half of e 0."""
        rng = np.random.default_rng(27)
        dropped = 0
        for gs, e, hp in operator_instances():
            size = sum(gs.sizes)
            points = [init_state(*gs.sizes)] + [
                rng.random(size) * (rng.random(size) < 0.8) for _ in range(3)]
            for e in (e, e * (rng.random(e.size) < 0.5)):
                for mode in MODES:
                    mode_hp = replace(hp, mode=mode)
                    operator = combined_operator(gs, e, mode_hp)
                    full = unpruned(operator, gs, e, mode_hp)
                    dropped += (sum(f.nnz for _, _, chain in full for f in chain)
                                - sum(f.nnz for _, _, chain in operator for f in chain))
                    for x in points:
                        assert (iterate_once(x, operator, gs.sizes).tobytes()
                                == iterate_once(x, full, gs.sizes).tobytes())
        assert dropped > 0

    def test_no_content_leaves_out_pt_and_at(self, rng):
        gs, e = random_instance(rng)
        hp = random_hyperparams(rng, mode="no_content")
        n, m, k = gs.sizes
        operator = combined_operator(gs, e, hp)
        offsets = [(row, col) for row, col, _ in operator]
        assert (0, n + m) not in offsets and (n, n + m) not in offsets
        assert len(offsets) == 6
        size = n + m + k
        dense = np.zeros((size, size))
        for row, col, chain in operator:
            block = to_dense(chain[0])
            for factor in chain[1:]:
                block = to_dense(factor) @ block
            r, c = block.shape
            dense[row:row + r, col:col + c] += block
        assert np.allclose(dense, assemble_combined(gs, e, hp), rtol=0, atol=1e-15)


def zero_weight_graphs(with_featureless_paper):
    """A small corpus, its feature table and its graphs, built to put zeros
    in every diagonal of the factored feature terms:

    - "common" is in every paper (idf_p = 0) unless the featureless paper
      D is added;
    - "alpha" is used by every author (idf_a = 0) but not in every paper;
    - author x writes only paper A, whose features all have idf_a 0;
    - paper B lists author u twice.
    """
    recs = [
        {"id": "A", "title": "common alpha", "abstract": "",
         "authors": ["u", "v", "x"], "year": 2000, "refs": []},
        {"id": "B", "title": "common alpha beta", "abstract": "",
         "authors": ["u", "u"], "year": 2001, "refs": ["A"]},
        {"id": "C", "title": "common beta gamma", "abstract": "",
         "authors": ["v"], "year": 2002, "refs": ["A", "B"]},
    ]
    if with_featureless_paper:
        recs.append({"id": "D", "title": "", "abstract": "", "authors": ["v"],
                     "year": 2002, "refs": ["C"]})
    corpus, _ = parse_corpus(recs)
    table = build_feature_table(corpus, min_df=1)
    return corpus, table, build_graphs(corpus, table, t_current=2002, rho_edge=0.3)


class TestFactoredTerms:
    def test_tp_multiplies_feature_weight_first(self, rng):
        """tp's C factor, applied transposed, takes the feature weight
        before the paper weight.  With counts of 1 and 2, as in
        ``random_instance``, either order gives the same bits, so the
        counts here run to 7."""
        gs, e = random_instance(rng)
        c = gs.feature_counts = random_counts(rng, gs.sizes[0], gs.sizes[2], high=8)
        e[::3] = 0.0   # most burst scores are 0
        f = sum(gs.sizes[:2])
        (factor,), = [chain for row, col, chain in
                      combined_operator(gs, e, HyperParams(alpha_f=0.0)) if (row, col) == (f, 0)]
        feature_w = 1.0 * normalize_innovativeness(e) * gs.idf_paper
        paper_w = reciprocal(c.matvec(gs.idf_paper))
        # the factor keeps the entries of C in the columns where e and
        # either idf are not 0
        kept = ((e != 0.0) & ((gs.idf_paper != 0.0) | (gs.idf_author != 0.0)))[c.cols]
        assert not kept.all()
        rows, cols, data = c.rows[kept], c.cols[kept], c.data[kept]
        assert np.array_equal(factor.T.rows, rows) and np.array_equal(factor.T.cols, cols)
        assert np.array_equal(factor.T.data, data * feature_w[cols] * paper_w[rows])
        assert not np.array_equal(factor.T.data, data * paper_w[rows] * feature_w[cols])

    @pytest.mark.parametrize("featureless", [False, True])
    @pytest.mark.parametrize("mode", MODES)
    def test_zero_weights_match_dense(self, rng, featureless, mode):
        """The factored feature terms keep a zero column wherever an idf or
        a row sum is 0, never inf or nan, and one update equals one
        multiply by the dense combined matrix."""
        corpus, table, gs = zero_weight_graphs(featureless)
        n, m, k = gs.sizes
        col = {key: j for j, key in enumerate(table.features)}
        assert gs.idf_author[col["w|alpha"]] == 0.0 < gs.idf_paper[col["w|alpha"]]
        pos = {x: i for ids in (corpus.papers, corpus.authors) for i, x in enumerate(ids)}
        assert to_dense(gs.listings)[pos["u"], pos["B"]] == 2.0

        e = rng.random(k) + 0.05
        hp = random_hyperparams(rng, mode=mode)
        operator = combined_operator(gs, e, hp)
        for _, _, chain in operator:
            for factor in chain:
                assert np.all(np.isfinite(to_dense(factor)))
        combined = assemble_combined(gs, e, hp)
        # x's features all have idf_a 0: nothing flows from x to features
        assert np.all(combined[n + m:, n + pos["x"]] == 0.0)
        if featureless:
            assert to_dense(gs.feature_counts)[pos["D"]].sum() == 0.0
            assert np.all(combined[n + m:, pos["D"]] == 0.0)
        else:
            assert gs.idf_paper[col["w|common"]] == 0.0
            assert np.all(combined[:n + m, n + m + col["w|common"]] == 0.0)
        x = init_state(n, m, k)
        for _ in range(3):
            raw_next = combined @ x
            x = iterate_once(x, operator, gs.sizes)
            assert np.allclose(x, raw_next / raw_next.sum(), atol=1e-14)


class TestRun:
    def test_converges_to_dominant_eigenvector(self, rng):
        """The fixpoint must match the dominant eigenvector of the dense
        combined matrix, computed independently with numpy's eigensolver,
        and the mixed iteration must take no more operator applications
        than plain power iteration to reach the same tolerance."""
        checked = 0
        for _ in range(24):
            gs, e = random_instance(rng)
            hp = random_hyperparams(rng, tolerance=1e-13, max_iterations=3000)
            x, log = run_graphs(gs, e, hp)
            if not log.converged:
                continue
            combined = assemble_combined(gs, e, hp)
            vals, vecs = np.linalg.eig(combined)
            lead = np.argmax(np.abs(vals))
            v = np.real(vecs[:, lead])
            v = v / v.sum()
            assert np.max(np.abs(x - v)) < 1e-8
            plain = next(step for step, (_, _, delta) in
                         enumerate(plain_iteration(gs, e, hp), start=1)
                         if delta < hp.tolerance)
            assert log.iterations <= plain
            checked += 1
        assert checked >= 20

    def test_every_state_fed_to_the_operator_is_a_distribution(self, rng,
                                                               monkeypatch):
        """Criterion 2's property for the points ``run`` feeds
        ``iterate_once``, mixed ones included: each section of the per-type
        vector sums to 1, and no entry is negative."""
        fed = []

        def recording(x, operator, sizes):
            fed.append((x, sizes))
            return iterate_once(x, operator, sizes)

        monkeypatch.setattr(ranking, "iterate_once", recording)
        mixed = 0
        for _ in range(10):
            gs, e = random_instance(rng)
            _, log = run_graphs(gs, e, random_hyperparams(rng, tolerance=1e-12))
            mixed += sum(log.mixed)
        assert mixed > 0
        for x, sizes in fed:
            assert abs(x.sum() - 1.0) <= 1e-12
            assert not np.any(x < 0.0)
            for sec in per_type(x, sizes):
                assert abs(sec.sum() - 1.0) <= 1e-12

    def test_unusable_mix_takes_the_plain_image(self, rng, monkeypatch):
        """A mix with a negative entry is never used: with every solve
        forced far off, ``run`` repeats plain power iteration bit for bit."""
        monkeypatch.setattr(ranking, "_solve", lambda a, b: [1e12] * len(b))
        gs, e = random_instance(rng)
        hp = random_hyperparams(rng, tolerance=1e-10, max_iterations=2000)
        x, log = run_graphs(gs, e, hp)
        assert log.converged and not any(log.mixed)
        for logged, (image, _, delta) in zip(log.deltas, plain_iteration(gs, e, hp)):
            assert delta == logged
        assert np.array_equal(image, x)

    def test_mix_with_an_empty_section_is_refused(self, monkeypatch):
        """A mix whose paper section is all zero is refused; a usable one is
        rescaled to sum 1."""
        sizes = (2, 2, 2)
        x0 = x1 = np.full(6, 1.0 / 6.0)
        g0 = np.array([0.2, 0.2, 0.15, 0.15, 0.15, 0.15])
        g1 = np.array([0.1, 0.1, 0.2, 0.2, 0.2, 0.2])
        for gamma, expect in ((-1.0, None), (0.5, [0.15, 0.15, 0.175, 0.175, 0.175, 0.175])):
            monkeypatch.setattr(ranking, "_solve", lambda a, b: [gamma])
            anderson = Anderson(sizes)
            assert anderson.mix(x0, g0) is None
            out = anderson.mix(x1, g1)
            if expect is None:
                assert out is None
            else:
                assert np.allclose(out, expect, rtol=0, atol=1e-15)

    def test_singular_system_takes_the_plain_image(self):
        """A repeated point adds a zero difference, so the Gram system is
        singular and the mix is refused."""
        a = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]])
        b = [1.0, -2.0, 0.5]
        assert np.allclose(ranking._solve(a, b), np.linalg.solve(a, b), rtol=1e-14)
        assert ranking._solve(np.array([[1.0, 2.0], [2.0, 4.0]]), [1.0, 2.0]) is None
        x = np.full(6, 1.0 / 6.0)
        g = np.array([0.2, 0.2, 0.15, 0.15, 0.15, 0.15])
        anderson = Anderson((2, 2, 2))
        assert anderson.mix(x, g) is None
        assert anderson.mix(x, g) is None
        assert anderson.held == 1 and anderson.gram[0, 0] == 0.0

    def test_matches_plain_fixed_point(self, rng):
        """The mixed iteration stops next to the fixed point that plain
        power iteration reaches at a delta of 1e-14."""
        gs, e = random_instance(rng)
        hp = random_hyperparams(rng, tolerance=1e-12, max_iterations=3000)
        x, log = run_graphs(gs, e, hp)
        assert log.converged
        assert np.abs(np.concatenate(per_type(x, gs.sizes))
                      - fixed_point(gs, e, hp)).sum() < 1e-10

    def test_delta_log_matches_iterations(self, rng):
        gs, e = random_instance(rng)
        hp = random_hyperparams(rng, tolerance=1e-10, max_iterations=2000)
        _, log = run_graphs(gs, e, hp)
        assert log.iterations == len(log.mixed)
        assert not log.mixed[-1]
        if log.converged:
            assert log.deltas[-1] < hp.tolerance

    def test_max_iterations_respected(self, rng):
        gs, e = random_instance(rng)
        hp = random_hyperparams(rng, tolerance=1e-30, max_iterations=7)
        _, log = run_graphs(gs, e, hp)
        assert not log.converged
        assert log.iterations == 7

    def test_write_convergence(self, rng, tmp_path):
        gs, e = random_instance(rng)
        _, log = run_graphs(gs, e, random_hyperparams(rng, tolerance=1e-10))
        path = tmp_path / "convergence.tsv"
        write_convergence(log, path)
        lines = path.read_text().splitlines()
        assert lines[:2] == ["# converged\tTrue", "iteration\tl1_delta\tmixed"]
        rows = [line.split("\t") for line in lines[2:]]
        assert [int(r[0]) for r in rows] == list(range(1, log.iterations + 1))
        assert [float(r[1]) for r in rows] == pytest.approx(log.deltas, rel=1e-9)
        assert [r[2] for r in rows] == [str(int(m)) for m in log.mixed]
        assert "1" in {r[2] for r in rows}

    def test_no_time_mode_reduces_exactly(self, rng):
        """With graphs built at rho 0, mode=no_time with any rho_edge must
        produce byte-identical scores to mode=full with rho_edge 0."""
        gs, e = random_instance(rng)
        base = random_hyperparams(rng, tolerance=1e-10, max_iterations=2000)
        a, _ = run_graphs(gs, e, replace(base, mode="full", rho_edge=0.0))
        b, _ = run_graphs(gs, e, replace(base, mode="no_time", rho_edge=0.9))
        for x, y in zip(per_type(a, gs.sizes), per_type(b, gs.sizes)):
            assert np.array_equal(x, y)

    def test_no_content_mode_reduces_exactly(self, rng):
        gs, e = random_instance(rng)
        base = random_hyperparams(rng, tolerance=1e-10, max_iterations=2000)
        a, _ = run_graphs(gs, e, replace(base, mode="full", beta_p=1.0, beta_a=1.0))
        b, _ = run_graphs(gs, e, replace(base, mode="no_content"))
        for x, y in zip(per_type(a, gs.sizes)[:2], per_type(b, gs.sizes)[:2]):
            assert np.array_equal(x, y)

    def test_innovativeness_scaling_invariant(self, rng):
        """Scaling every burst score by one constant leaves the fixpoint
        unchanged to rounding error: the vector is pre-normalized to sum 1,
        and only the final division picks up float noise."""
        gs, e = random_instance(rng)
        hp = random_hyperparams(rng, tolerance=1e-12, max_iterations=3000)
        a, _ = run_graphs(gs, e, hp)
        b, _ = run_graphs(gs, 7.3 * e, hp)
        for x, y in zip(per_type(a, gs.sizes), per_type(b, gs.sizes)):
            assert np.max(np.abs(x - y)) < 1e-10


class TestAssembleCombined:
    def test_shape_and_blocks(self, rng):
        gs, e = random_instance(rng)
        hp = random_hyperparams(rng)
        n, m, k = gs.sizes
        c = assemble_combined(gs, e, hp)
        assert c.shape == (n + m + k, n + m + k)
        # feature-feature block is zero: features reinforce only via papers
        # and authors
        assert np.all(c[n + m:, n + m:] == 0.0)

    def test_linear_in_normalized_innovativeness(self, rng):
        gs, e = random_instance(rng)
        hp = random_hyperparams(rng)
        n, m, _ = gs.sizes
        c1 = assemble_combined(gs, e, hp)
        c2 = assemble_combined(gs, 2.0 * e, hp)
        assert np.allclose(c1, c2)  # invariant to scaling
        e_norm = normalize_innovativeness(e)
        base = assemble_combined(gs, np.ones_like(e), hp)
        scaled = base.copy()
        scaled[n + m:, :] *= (e_norm * e.size)[:, None]
        assert np.allclose(c1[n + m:, :], scaled[n + m:, :])

    def test_size_limit(self, rng):
        gs, e = random_instance(rng)
        hp = random_hyperparams(rng)
        with pytest.raises(ValueError):
            assemble_combined(gs, e, hp, size_limit=2)


class TestRankEntities:
    def test_descending_with_id_tiebreak(self):
        order = rank_entities(np.array([0.2, 0.5, 0.2, 0.2]))
        assert order.tolist() == [1, 0, 2, 3]
        assert rank_entities(np.array([0, 3, 1, 3])).tolist() == [1, 3, 2, 0]

    def test_write_ranking(self, tmp_path):
        path = tmp_path / "r.tsv"
        write_ranking(path, ("x", "y", "z"), np.array([0.25, 0.5, 0.25]))
        lines = path.read_text().splitlines()
        assert lines == ["rank\tid\tscore", "1\ty\t0.5", "2\tx\t0.25", "3\tz\t0.25"]
        write_ranking(path, ("x", "y", "z"), np.array([0.25, 0.5, 0.25]),
                      converged=False)
        assert path.read_text().startswith("# WARNING: NOT CONVERGED\n")
