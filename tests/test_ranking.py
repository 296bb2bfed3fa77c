import numpy as np
import pytest

from conftest import random_hyperparams, random_instance
from mrfrank.corpus import parse_corpus
from mrfrank.graphs import build_graphs, build_index
from mrfrank.ranking import (MODES, HyperParams, NumericalError, assemble_combined,
                             combined_operator, init_state, iterate_once,
                             normalize_innovativeness, rank_entities, run,
                             write_ranking)
from mrfrank.sparse import Transposed
from mrfrank.textfeat import build_feature_table


def factor_dense(factor):
    """The dense matrix an operator factor applies."""
    if isinstance(factor, Transposed):
        return factor.m.to_dense().T
    return factor.to_dense()


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
        s = init_state(4, 3, 5)
        assert np.allclose(s.a_paper, 0.25)
        assert s.a_author.sum() == pytest.approx(1.0)
        assert s.a_feature.sum() == pytest.approx(1.0)
        v = s.vector
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
        s = init_state(gs.index.n, gs.index.m, gs.index.k)
        for _ in range(5):
            s = iterate_once(s, operator)
            assert s.a_paper.sum() == pytest.approx(1.0)
            assert s.a_author.sum() == pytest.approx(1.0)
            assert s.a_feature.sum() == pytest.approx(1.0)
            assert s.vector.sum() == pytest.approx(1.0)

    def test_matches_dense_matrix_application(self, rng):
        """One sparse update must equal one multiply by the assembled
        combined matrix followed by the same normalization."""
        for _ in range(15):
            gs, e = random_instance(rng)
            hp = random_hyperparams(rng)
            combined = assemble_combined(gs, e, hp)
            operator = combined_operator(gs, e, hp)
            n, m = gs.index.n, gs.index.m
            s = init_state(n, m, gs.index.k)
            for _ in range(3):
                raw_next = combined @ s.vector
                s = iterate_once(s, operator)
                expect = raw_next / raw_next.sum()
                assert np.allclose(s.vector, expect, atol=1e-14)

    def test_zero_innovativeness_resets_features_uniform(self, rng):
        gs, e = random_instance(rng)
        hp = random_hyperparams(rng)
        operator = combined_operator(gs, np.zeros_like(e), hp)
        s = init_state(gs.index.n, gs.index.m, gs.index.k)
        s = iterate_once(s, operator)
        assert np.allclose(s.a_feature, 1.0 / gs.index.k)

    def test_nonfinite_raises(self, rng):
        gs, e = random_instance(rng)
        hp = random_hyperparams(rng)
        operator = combined_operator(gs, e, hp)
        s = init_state(gs.index.n, gs.index.m, gs.index.k)
        s.vector[0] = np.inf
        with pytest.raises(NumericalError):
            iterate_once(s, operator)

    def test_iteration_counter_and_delta(self, rng):
        gs, e = random_instance(rng)
        hp = random_hyperparams(rng)
        operator = combined_operator(gs, e, hp)
        s0 = init_state(gs.index.n, gs.index.m, gs.index.k)
        s1 = iterate_once(s0, operator)
        assert s1.iteration == 1
        assert s1.last_delta == pytest.approx(
            np.abs(s1.per_type - s0.per_type).sum())


class TestCombinedOperator:
    def test_no_content_leaves_out_pt_and_at(self, rng):
        gs, e = random_instance(rng)
        hp = random_hyperparams(rng, mode="no_content")
        n, m = gs.index.n, gs.index.m
        operator = combined_operator(gs, e, hp)
        offsets = [(row, col) for row, col, _ in operator]
        assert (0, n + m) not in offsets and (n, n + m) not in offsets
        assert len(offsets) == 6
        size = n + m + gs.index.k
        dense = np.zeros((size, size))
        for row, col, chain in operator:
            block = factor_dense(chain[0])
            for factor in chain[1:]:
                block = factor_dense(factor) @ block
            r, c = block.shape
            dense[row:row + r, col:col + c] += block
        assert np.allclose(dense, assemble_combined(gs, e, hp), rtol=0, atol=1e-15)


def zero_weight_graphs(with_featureless_paper):
    """Graphs of a small corpus built to put zeros in every diagonal of the
    factored feature terms:

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
    index = build_index(corpus, table.features)
    return build_graphs(corpus, index, table, t_current=2002, rho_edge=0.3)


class TestFactoredTerms:
    @pytest.mark.parametrize("featureless", [False, True])
    @pytest.mark.parametrize("mode", MODES)
    def test_zero_weights_match_dense(self, rng, featureless, mode):
        """The factored feature terms keep a zero column wherever an idf or
        a row sum is 0, never inf or nan, and one update equals one
        multiply by the dense combined matrix."""
        gs = zero_weight_graphs(featureless)
        idx = gs.index
        col = {key: j for j, key in enumerate(idx.feature_ids)}
        assert gs.idf_author[col["w|alpha"]] == 0.0 < gs.idf_paper[col["w|alpha"]]
        pos = {x: i for ids in (idx.paper_ids, idx.author_ids) for i, x in enumerate(ids)}
        assert gs.listings.to_dense()[pos["u"], pos["B"]] == 2.0

        e = rng.random(idx.k) + 0.05
        hp = random_hyperparams(rng, mode=mode)
        operator = combined_operator(gs, e, hp)
        for _, _, chain in operator:
            for factor in chain:
                assert np.all(np.isfinite(factor_dense(factor)))
        combined = assemble_combined(gs, e, hp)
        n, m = idx.n, idx.m
        # x's features all have idf_a 0: nothing flows from x to features
        assert np.all(combined[n + m:, n + pos["x"]] == 0.0)
        if featureless:
            assert gs.feature_counts.to_dense()[pos["D"]].sum() == 0.0
            assert np.all(combined[n + m:, pos["D"]] == 0.0)
        else:
            assert gs.idf_paper[col["w|common"]] == 0.0
            assert np.all(combined[:n + m, n + m + col["w|common"]] == 0.0)
        s = init_state(n, m, idx.k)
        for _ in range(3):
            raw_next = combined @ s.vector
            s = iterate_once(s, operator)
            assert np.allclose(s.vector, raw_next / raw_next.sum(), atol=1e-14)


class TestRun:
    def test_converges_to_dominant_eigenvector(self, rng):
        """The fixpoint must match the dominant eigenvector of the dense
        combined matrix, computed independently with numpy's eigensolver."""
        checked = 0
        for _ in range(12):
            gs, e = random_instance(rng)
            hp = random_hyperparams(rng, tolerance=1e-13, max_iterations=3000)
            state, log = run(gs, e, hp)
            if not log.converged:
                continue
            combined = assemble_combined(gs, e, hp)
            vals, vecs = np.linalg.eig(combined)
            lead = np.argmax(np.abs(vals))
            v = np.real(vecs[:, lead])
            v = v / v.sum()
            assert np.max(np.abs(state.vector - v)) < 1e-8
            checked += 1
        assert checked >= 8

    def test_delta_log_matches_iterations(self, rng):
        gs, e = random_instance(rng)
        hp = random_hyperparams(rng, tolerance=1e-10, max_iterations=2000)
        state, log = run(gs, e, hp)
        assert log.iterations == state.iteration
        assert log.deltas[-1] == state.last_delta
        if log.converged:
            assert log.deltas[-1] < hp.tolerance

    def test_max_iterations_respected(self, rng):
        gs, e = random_instance(rng)
        hp = random_hyperparams(rng, tolerance=1e-30, max_iterations=7)
        state, log = run(gs, e, hp)
        assert not log.converged
        assert log.iterations == 7

    def test_no_time_mode_reduces_exactly(self, rng):
        """With graphs built at rho 0, mode=no_time with any rho_edge must
        produce byte-identical scores to mode=full with rho_edge 0."""
        gs, e = random_instance(rng)
        base = random_hyperparams(rng, tolerance=1e-10, max_iterations=2000)
        from dataclasses import replace
        a, _ = run(gs, e, replace(base, mode="full", rho_edge=0.0))
        b, _ = run(gs, e, replace(base, mode="no_time", rho_edge=0.9))
        assert np.array_equal(a.a_paper, b.a_paper)
        assert np.array_equal(a.a_author, b.a_author)
        assert np.array_equal(a.a_feature, b.a_feature)

    def test_no_content_mode_reduces_exactly(self, rng):
        gs, e = random_instance(rng)
        base = random_hyperparams(rng, tolerance=1e-10, max_iterations=2000)
        from dataclasses import replace
        a, _ = run(gs, e, replace(base, mode="full", beta_p=1.0, beta_a=1.0))
        b, _ = run(gs, e, replace(base, mode="no_content"))
        assert np.array_equal(a.a_paper, b.a_paper)
        assert np.array_equal(a.a_author, b.a_author)

    def test_innovativeness_scaling_invariant(self, rng):
        """Scaling every burst score by one constant leaves the fixpoint
        unchanged to rounding error: the vector is pre-normalized to sum 1,
        and only the final division picks up float noise."""
        gs, e = random_instance(rng)
        hp = random_hyperparams(rng, tolerance=1e-12, max_iterations=3000)
        a, _ = run(gs, e, hp)
        b, _ = run(gs, 7.3 * e, hp)
        for x, y in [(a.a_paper, b.a_paper), (a.a_author, b.a_author),
                     (a.a_feature, b.a_feature)]:
            assert np.max(np.abs(x - y)) < 1e-10


class TestAssembleCombined:
    def test_shape_and_blocks(self, rng):
        gs, e = random_instance(rng)
        hp = random_hyperparams(rng)
        n, m, k = gs.index.n, gs.index.m, gs.index.k
        c = assemble_combined(gs, e, hp)
        assert c.shape == (n + m + k, n + m + k)
        # feature-feature block is zero: features reinforce only via papers
        # and authors
        assert np.all(c[n + m:, n + m:] == 0.0)

    def test_linear_in_normalized_innovativeness(self, rng):
        gs, e = random_instance(rng)
        hp = random_hyperparams(rng)
        n, m = gs.index.n, gs.index.m
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
