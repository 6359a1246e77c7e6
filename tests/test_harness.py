"""Tests for the benchmark harness: metrics, random search, rank statistics,
nested cross-validation, and report construction.

Oracles: R^2 is recomputed from sums of squares; the Friedman statistic and
Nemenyi critical differences are checked against hand-computed values and
published anchor points; rank rows are checked against the exact
average-rank sum identity; nested-CV records are checked against their own
definitional identities (gap = train - test) and against full re-runs.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from smoothbench.data import Dataset, FeatureError, kfold_split
from smoothbench.harness.metrics import FAILURE_SCORE, adjusted_r2, clip_bounds, r2
from smoothbench.harness.nested_cv import (
    BenchRunConfig,
    FoldResult,
    run_benchmark,
    tune,
)
from smoothbench.harness.report import (
    SCHEMA_VERSION,
    build_report,
    read_results_jsonl,
    report_model_columns,
    write_report_files,
    write_results_jsonl,
)
from smoothbench.harness import stats
from smoothbench.harness.search import (
    SPACES,
    Param,
    SearchSpace,
    random_search,
    search_space,
)
from smoothbench.harness.stats import (
    friedman_test,
    matched_gap_wins,
    nemenyi_cd,
    rank_matrix,
)
from smoothbench.registry import MODEL_KINDS, fit_model, hyperparameters, predict_model
from smoothbench.synth import gen

# ---------------------------------------------------------------------------
# metrics


class TestR2:
    def test_matches_sum_of_squares_definition(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            y = rng.normal(size=n)
            if np.var(y) == 0.0:  # pragma: no cover - essentially impossible
                continue
            p = y + rng.normal(scale=rng.uniform(0, 2), size=n)
            ss_res = float(np.sum((y - p) ** 2))
            ss_tot = float(np.sum((y - np.mean(y)) ** 2))
            want = 1.0 - ss_res / ss_tot
            assert r2(y, p) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_perfect_and_mean_predictor(self):
        y = np.array([1.0, 2.0, 3.0, 7.0])
        assert r2(y, y.copy()) == 1.0
        assert r2(y, np.full(4, y.mean())) == 0.0

    def test_constant_target_rules(self):
        y = np.full(5, 3.0)
        assert r2(y, np.full(5, 3.0)) == 1.0
        assert r2(y, np.array([3.0, 3.0, 3.0, 3.0, 3.1])) == FAILURE_SCORE

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            r2(np.zeros(3), np.zeros(4))


class TestAdjustedR2:
    def test_formula(self):
        # n=50, d=4, r2=0.9 -> 1 - 0.1 * 49/45
        want = 1.0 - 0.1 * 49.0 / 45.0
        assert adjusted_r2(0.9, 50, 4) == pytest.approx(want, rel=1e-15)

    def test_small_sample_fallback(self):
        # undefined / sign-flipping region returns the raw value unchanged
        for n, d in [(5, 4), (5, 5), (5, 10), (2, 1)]:
            assert adjusted_r2(0.7, n, d) == 0.7

    def test_penalises_dimension(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(10, 200))
            d = int(rng.integers(1, max(2, n - 2)))
            r = float(rng.uniform(-1, 1))
            adj = adjusted_r2(r, n, d)
            if n > d + 1:
                assert adj <= r + 1e-15
                # exact r2 of 1 is never penalised
                assert adjusted_r2(1.0, n, d) == 1.0
            else:
                assert adj == r


class _Returns:
    """A stand-in model whose predict returns fixed values."""

    def __init__(self, preds):
        self.preds = preds

    def predict(self, X):
        return self.preds


def clip_predictions(preds, y_train):
    """registry.predict_model on a model that predicts preds, clipped to y_train's bound."""
    return predict_model("ridge", _Returns(preds), None, clip_bounds(y_train))


class TestClipPredictions:
    def test_bounds_and_idempotence(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            y = rng.normal(scale=rng.uniform(0.1, 5), size=n)
            preds = rng.normal(scale=20, size=int(rng.integers(1, 50)))
            out = clip_predictions(preds, y)
            lo = y.min() - 3 * y.std()
            hi = y.max() + 3 * y.std()
            assert np.all(out >= lo) and np.all(out <= hi)
            again = clip_predictions(out, y)
            assert np.array_equal(out, again)

    def test_inside_values_pass_through(self):
        y = np.array([0.0, 1.0, 2.0, 3.0])
        preds = np.array([0.5, 2.9, -1.0])
        assert np.array_equal(clip_predictions(preds, y), preds)

    def test_clips_both_sides(self):
        y = np.array([0.0, 2.0])  # std = 1 -> range [-3, 5]
        out = clip_predictions(np.array([-100.0, 100.0, 1.0]), y)
        assert out.tolist() == [-3.0, 5.0, 1.0]


# ---------------------------------------------------------------------------
# random search


class TestParamSampling:
    def test_uniform_bounds(self):
        rng = np.random.default_rng(3)
        p = Param("uniform", lo=2.0, hi=5.0)
        draws = np.array([p.sample(rng) for _ in range(500)])
        assert np.all(draws >= 2.0) and np.all(draws < 5.0)
        assert 3.2 < draws.mean() < 3.8

    def test_log_uniform_bounds_and_scale(self):
        rng = np.random.default_rng(4)
        p = Param("log_uniform", lo=1e-3, hi=1e3)
        draws = np.array([p.sample(rng) for _ in range(500)])
        assert np.all(draws >= 1e-3) and np.all(draws <= 1e3)
        # uniform in log space: about half of the draws below the geometric
        # midpoint 1.0
        frac_below = np.mean(draws < 1.0)
        assert 0.4 < frac_below < 0.6

    def test_int_inclusive_endpoints(self):
        rng = np.random.default_rng(5)
        p = Param("int", lo=1, hi=5)
        draws = [p.sample(rng) for _ in range(500)]
        assert all(isinstance(v, int) for v in draws)
        assert set(draws) == {1, 2, 3, 4, 5}

    def test_categorical_choices(self):
        rng = np.random.default_rng(6)
        p = Param("categorical", choices=("a", "b", "c"))
        draws = [p.sample(rng) for _ in range(300)]
        assert set(draws) == {"a", "b", "c"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Param("triangular").sample(np.random.default_rng(0))


# The search's former gating, kept as the reference for the nested choices
# that replaced it: a (name, Param, gate) entry with gate = (parent,
# active_when) was drawn only when parent had taken the value active_when.
GATED_SPACES = {
    "erbf": [
        ("n_rbf_mode", Param("categorical", choices=("auto", "fixed")), None),
        ("n_rbf", Param("int", lo=10, hi=80), ("n_rbf_mode", "fixed")),
        ("alpha", Param("log_uniform", lo=1e-3, hi=1e3), None),
        ("center_init", Param("categorical", choices=("lipschitz", "kmeans")), None),
        ("width_init", Param("categorical", choices=("local_ridge", "local_variance")), None),
    ],
    "chebypoly": [
        ("complexity", Param("int", lo=1, hi=14), None),
        ("alpha", Param("log_uniform", lo=1e-3, hi=1e3), None),
        ("include_interactions", Param("categorical", choices=(True, False)), None),
        ("max_interaction_complexity", Param("categorical", choices=(1, 2)),
         ("include_interactions", True)),
    ],
}


def _gated_trial(spec, rng):
    out = {}
    for name, param, gate in spec:
        if gate is None or out.get(gate[0]) == gate[1]:
            out[name] = param.sample(rng)
    return out


def _renamed(kind, old):
    """A gated trial's params under today's names."""
    new = dict(old)
    if kind == "erbf":
        new["n_rbf"] = new.pop("n_rbf", None) if new.pop("n_rbf_mode") == "fixed" else None
    else:
        on = new.pop("include_interactions")
        new["interactions"] = new.pop("max_interaction_complexity") if on else 0
    return new


class TestConditionalParams:
    def test_inactive_param_not_sampled(self):
        # the nested choice has a kind that raises when sampled, so a trial
        # draws it exactly when it is chosen
        space = SearchSpace({
            "p": Param("categorical", choices=("off", Param("triangular"))),
            "r": Param("uniform", lo=0.0, hi=1.0),
        }, budget=5)
        outcomes = set()
        for seed in range(40):
            try:
                params = space.sample_trial(np.random.default_rng(seed))
            except ValueError as exc:
                assert "unknown parameter kind 'triangular'" in str(exc)
                outcomes.add("drawn")
            else:
                assert params["p"] == "off" and set(params) == {"p", "r"}
                outcomes.add("off")
        assert outcomes == {"drawn", "off"}

    def test_inactive_param_consumes_no_randomness(self):
        # when the nested choice is not chosen, the draws and the generator
        # state must line up with a space that does not nest it at all
        nested = SearchSpace({
            "p": Param("categorical", choices=("off", Param("int", lo=0, hi=100))),
            "r": Param("uniform", lo=0.0, hi=1.0),
        }, budget=5)
        flat = SearchSpace({
            "p": Param("categorical", choices=("off", "on")),
            "r": Param("uniform", lo=0.0, hi=1.0),
        }, budget=5)
        seen = set()
        for seed in range(40):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            pa, pb = nested.sample_trial(rng_a), flat.sample_trial(rng_b)
            if pa["p"] == "off":
                assert pa == pb
                assert rng_a.bit_generator.state == rng_b.bit_generator.state
            else:
                assert pb["p"] == "on" and 0 <= pa["p"] <= 100
                assert rng_a.bit_generator.state != rng_b.bit_generator.state
            seen.add(pb["p"])
        assert seen == {"off", "on"}

    def test_active_param_sampled(self):
        space = SearchSpace({
            "q": Param("categorical", choices=(Param("int", lo=3, hi=9),)),
        }, budget=5)
        rng = np.random.default_rng(8)
        for _ in range(50):
            q = space.sample_trial(rng)["q"]
            assert isinstance(q, int) and 3 <= q <= 9

    def test_model_space_conditionals(self):
        rng = np.random.default_rng(9)
        erbf = search_space("erbf")
        sizes = [erbf.sample_trial(rng)["n_rbf"] for _ in range(200)]
        assert None in sizes
        fixed = [k for k in sizes if k is not None]
        assert fixed and all(isinstance(k, int) and 10 <= k <= 80 for k in fixed)

        cheb = search_space("chebypoly")
        assert {cheb.sample_trial(rng)["interactions"] for _ in range(200)} == {0, 1, 2}

    @pytest.mark.parametrize("kind", sorted(GATED_SPACES))
    def test_model_spaces_draw_as_the_gated_pairs_did(self, kind):
        # same trials after renaming, and the same generator state after each search
        for seed in range(200):
            rng_old, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(30):
                old = _renamed(kind, _gated_trial(GATED_SPACES[kind], rng_old))
                assert SPACES[kind].sample_trial(rng_new) == old
            assert rng_new.bit_generator.state == rng_old.bit_generator.state


class TestRandomSearch:
    @staticmethod
    def _quadratic(params):
        return -((math.log10(params["alpha"])) ** 2)

    def test_deterministic_given_seed(self):
        space = search_space("ridge")
        a = random_search(self._quadratic, space, seed=7)
        b = random_search(self._quadratic, space, seed=7)
        assert a[0] == b[0] and a[1] == b[1]
        assert [(t.number, t.params, t.score) for t in a[2]] == \
               [(t.number, t.params, t.score) for t in b[2]]
        c = random_search(self._quadratic, space, seed=8)
        assert [t.params for t in c[2]] != [t.params for t in a[2]]

    def test_best_is_running_maximum(self):
        space = search_space("ridge")
        best_params, best_score, trials = random_search(self._quadratic, space, seed=11)
        assert len(trials) == space.budget == 20
        scores = [t.score for t in trials]
        assert best_score == max(scores)
        first_best = trials[scores.index(max(scores))]
        assert best_params == first_best.params

    def test_failures_scored_and_search_continues(self):
        space = SearchSpace({"x": Param("int", lo=0, hi=9)}, budget=40)

        def objective(params):
            x = params["x"]
            if x % 2 == 0:
                raise ValueError("boom")
            if x == 9:
                return math.nan
            return float(x)

        best_params, best_score, trials = random_search(objective, space, seed=12)
        assert len(trials) == 40
        for t in trials:
            if t.params["x"] % 2 == 0 or t.params["x"] == 9:
                assert t.score == FAILURE_SCORE
                # each failure keeps why, and no frame of the failed objective
                assert str(t.error) == ("boom" if t.params["x"] != 9
                                        else "score is not finite: nan")
                assert t.error.__traceback__ is None
            else:
                assert t.score == float(t.params["x"])
                assert t.error is None
        finite = [t.score for t in trials if t.score != FAILURE_SCORE]
        assert finite, "expected some odd draws in 40 trials"
        assert best_score == max(finite)
        assert best_params["x"] == int(max(finite))

    def test_all_failures_returns_first_trial(self):
        space = SearchSpace({"x": Param("int", lo=0, hi=9)}, budget=6)

        def objective(params):
            raise RuntimeError("always")

        best_params, best_score, trials = random_search(objective, space, seed=13)
        assert best_score == FAILURE_SCORE
        assert best_params == trials[0].params

    def test_ties_keep_earliest_trial(self):
        space = search_space("ridge")
        best_params, best_score, trials = random_search(lambda p: 0.5, space, seed=14)
        assert best_score == 0.5
        assert best_params == trials[0].params

    def test_budget_override_and_validation(self):
        space = search_space("ridge")
        _, _, trials = random_search(self._quadratic, space, seed=1, budget=4)
        assert len(trials) == 4
        with pytest.raises(ValueError):
            random_search(self._quadratic, space, seed=1, budget=0)

    def test_registered_spaces(self):
        budgets = {"ridge": 20, "dt": 25, "erbf": 30, "chebypoly": 30, "chebytree": 30}
        names = {
            "ridge": {"alpha"},
            "dt": {"max_depth", "min_samples_leaf", "min_samples_split"},
            "erbf": {"n_rbf", "alpha", "center_init", "width_init"},
            "chebypoly": {"complexity", "alpha", "interactions"},
            "chebytree": {"complexity", "alpha", "max_depth", "min_samples_leaf"},
        }
        for kind, budget in budgets.items():
            space = search_space(kind)
            assert space.budget == budget
            assert set(space.params) == names[kind]
        with pytest.raises(ValueError):
            search_space("boosted_stump")

    def test_every_space_name_is_a_fit_hyperparameter(self):
        assert set(SPACES) == set(MODEL_KINDS)
        for kind, space in SPACES.items():
            names = hyperparameters(kind)
            assert set(space.params) <= set(names), kind
            assert not {"X", "y", "seed", "ctx"} & set(names)
        assert sum(len(hyperparameters(kind)) for kind in MODEL_KINDS) == 15

    def test_fit_model_passes_a_context_only_to_fits_that_take_one(self):
        from smoothbench.context import FitContext

        ds = gen("friedman1", n=60, seed=4)
        X, y = ds.X.copy(), ds.y.copy()
        X.flags.writeable = y.flags.writeable = False
        ctx = FitContext(X, y)
        for kind in ("ridge", "chebypoly", "erbf"):  # they take none and ignore it
            fit_model(kind, X, y, {"n_rbf": 3} if kind == "erbf" else {}, ctx=ctx)
        # dt and chebytree grow the same depth-2 tree over the context's nodes
        dt = fit_model("dt", X, y, {"max_depth": 2}, ctx=ctx)
        tree = fit_model("chebytree", X, y, {"max_depth": 2}, ctx=ctx).tree
        assert all(rows is tree.leaf_rows[leaf] for leaf, rows in dt.leaf_rows.items())
        with pytest.raises(ValueError, match="no hyperparameter 'ctx'"):
            fit_model("dt", X, y, {"ctx": ctx})

    def test_fit_model_without_params_uses_the_fit_defaults(self):
        import smoothbench.registry as registry

        ds = gen("friedman1", n=80, seed=4)
        for kind in MODEL_KINDS:
            fit = getattr(registry, registry._MODELS[kind][0])
            direct = fit(ds.X, ds.y)  # erbf's own seed default is 0, as here
            via = fit_model(kind, ds.X, ds.y, {}, seed=0)
            assert json.dumps(via.to_dict()) == json.dumps(direct.to_dict()), kind


# ---------------------------------------------------------------------------
# rank statistics


def _row_ranks(scores, failed=None):
    """rank_matrix of a one-row table, as a list; no entry fails unless failed says so."""
    failed = np.zeros(len(scores), bool) if failed is None else failed
    return rank_matrix([scores], [failed])[0].tolist()


def _loop_ranks(scores, failed):
    """One row's ranks, entry by entry, as the former per-row loop computed them."""
    k = len(scores)
    ok = ~failed
    ranks = np.empty(k)
    for i in range(k):
        if failed[i]:
            ranks[i] = k
            continue
        higher = int(np.sum(ok & (scores > scores[i])))
        tied = int(np.sum(ok & (scores == scores[i]))) - 1
        ranks[i] = 1.0 + higher + 0.5 * tied
    return ranks


class TestAverageRanks:
    def test_basic_and_ties(self):
        assert _row_ranks([0.9, 0.8, 0.7]) == [1.0, 2.0, 3.0]
        assert _row_ranks([0.7, 0.8, 0.9]) == [3.0, 2.0, 1.0]
        assert _row_ranks([0.9, 0.9, 0.7]) == [1.5, 1.5, 3.0]
        assert _row_ranks([0.5, 0.5, 0.5]) == [2.0, 2.0, 2.0]
        assert _row_ranks([1.0, 2.0, 2.0, 3.0]) == [4.0, 2.5, 2.5, 1.0]

    def test_failures_pinned_to_worst(self):
        # a failed entry takes rank k even with the best recorded score
        assert _row_ranks([0.99, 0.5, 0.7], failed=[True, False, False]) == [3.0, 2.0, 1.0]
        # multiple failures all take rank k (no averaging among failures)
        assert _row_ranks([10.0, 20.0, 30.0, 40.0],
                          failed=[False, True, True, False]) == [2.0, 4.0, 4.0, 1.0]
        # failed scores are excluded from tie counting
        assert _row_ranks([0.5, 0.5], failed=[False, True]) == [1.0, 2.0]

    def test_rank_sum_identity(self):
        # without failures the ranks of k models always sum to k(k+1)/2,
        # ties or not (average ranks preserve the sum exactly)
        rng = np.random.default_rng(20)
        for _ in range(200):
            k = int(rng.integers(2, 9))
            if rng.random() < 0.5:
                scores = rng.normal(size=k)  # almost surely distinct
            else:
                scores = rng.integers(0, 3, size=k).astype(float)  # many ties
            ranks = np.array(_row_ranks(scores))
            assert ranks.sum() == k * (k + 1) / 2
            assert np.all(ranks >= 1.0) and np.all(ranks <= k)

    def test_rank_matrix_is_rowwise(self):
        table = np.array([[0.9, 0.8, 0.7], [0.1, 0.3, 0.2]])
        out = rank_matrix(table, np.zeros(table.shape, bool))
        assert out.tolist() == [[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]]
        failed = np.array([[False, False, True], [False, False, False]])
        out = rank_matrix(table, failed)
        assert out.tolist() == [[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]]

    def test_rank_matrix_equals_the_per_row_loop_bitwise(self):
        # rounded scores tie, and -inf entries tie too
        rng = np.random.default_rng(22)
        for _ in range(300):
            n, k = int(rng.integers(0, 8)), int(rng.integers(1, 9))
            scores = np.round(rng.normal(size=(n, k)), int(rng.integers(0, 3)))
            scores[rng.random((n, k)) < 0.1] = -np.inf
            for failed in (np.zeros((n, k), bool), rng.random((n, k)) < 0.2):
                want = np.array([_loop_ranks(s, f) for s, f in zip(scores, failed)])
                assert np.array_equal(rank_matrix(scores, failed), want.reshape(n, k))


class TestFriedman:
    def test_hand_computed_statistic(self):
        # two datasets, identical rank order (1,2,3):
        # mean ranks (1,2,3), sum of squares 14, k(k+1)^2/4 = 12,
        # chi2 = 12*2/(3*4) * (14 - 12) = 4
        ranks = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        res = friedman_test(ranks)
        assert res.statistic == pytest.approx(4.0, abs=1e-12)
        assert res.df == 2
        assert res.critical_value == 5.991
        assert res.significant is False

    def test_perfect_agreement_many_datasets_significant(self):
        ranks = np.tile([1.0, 2.0, 3.0], (10, 1))
        res = friedman_test(ranks)
        assert res.statistic == pytest.approx(20.0, abs=1e-9)
        assert res.significant is True

    def test_all_tied_scores_zero_statistic(self):
        ranks = rank_matrix(np.full((4, 3), 1.23), np.zeros((4, 3), bool))
        res = friedman_test(ranks)
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.significant is False

    def test_invariant_under_monotone_score_transform(self):
        # ranks depend only on score order, so exp() must not change anything
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(3, 7))
            scores = rng.normal(size=(n, k))
            if rng.random() < 0.5:
                scores = rng.integers(0, 3, size=(n, k)).astype(float)
            none_failed = np.zeros((n, k), bool)
            ra = rank_matrix(scores, none_failed)
            rb = rank_matrix(np.exp(scores), none_failed)
            assert np.array_equal(ra, rb)
            assert friedman_test(ra).statistic == friedman_test(rb).statistic

    def test_validation(self):
        with pytest.raises(ValueError):
            friedman_test(np.ones((3, 1)))
        with pytest.raises(ValueError):
            friedman_test(np.ones(4))
        with pytest.raises(ValueError):
            friedman_test(rank_matrix(np.random.default_rng(0).normal(size=(3, 12)),
                                      np.zeros((3, 12), bool)))


class TestNemenyi:
    def test_published_anchor_values(self):
        # standard benchmark-comparison anchors at alpha = 0.05
        assert nemenyi_cd(8, 54) == pytest.approx(1.43, abs=0.01)
        assert nemenyi_cd(7, 55) == pytest.approx(1.21, abs=0.01)
        assert nemenyi_cd(2, 1) == pytest.approx(1.960, abs=1e-12)

    def test_shrinks_with_more_datasets(self):
        cds = [nemenyi_cd(5, n) for n in (2, 5, 20, 100)]
        assert all(a > b for a, b in zip(cds, cds[1:]))
        assert nemenyi_cd(5, 4) == pytest.approx(nemenyi_cd(5, 1) / 2.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            nemenyi_cd(1, 10)
        with pytest.raises(ValueError):
            nemenyi_cd(11, 10)
        with pytest.raises(ValueError):
            nemenyi_cd(3, 0)


def _loop_matched_gap_wins(mean_scores, mean_gaps, pairs):
    """Reference: a per-dataset loop over dataset -> model -> value dicts.

    A value of None, or a model missing from a dataset's row, is a failed pair.
    """
    out = []
    for smooth, tree in pairs:
        matched = 0
        wins = 0.0
        for ds_name, row in mean_scores.items():
            if smooth not in row or tree not in row:
                continue
            s_score, t_score = row[smooth], row[tree]
            if s_score is None or t_score is None:
                continue
            if abs(s_score - t_score) > stats.MATCH_THRESHOLD:
                continue
            matched += 1
            s_gap = mean_gaps[ds_name][smooth]
            t_gap = mean_gaps[ds_name][tree]
            if s_gap < t_gap:
                wins += 1.0
            elif s_gap == t_gap:
                wins += 0.5
        out.append(stats.GapPairSummary(
            smooth=smooth, tree=tree, matched=matched, smooth_wins=wins,
            fraction=(wins / matched) if matched else None,
        ))
    return out


def _matched_from_dicts(scores, gaps, pairs):
    """matched_gap_wins on the tables of dataset -> model -> value dicts; a value
    of None, or a model missing from a dataset's row, is flagged failed."""
    models = list(dict.fromkeys(m for row in scores.values() for m in row))
    rows = list(scores.items())
    failed = np.array([[row.get(m) is None for m in models] for _, row in rows], bool)
    score_table = np.array([[row.get(m) or 0.0 for m in models] for _, row in rows])
    gap_table = np.array([[gaps[d].get(m) or 0.0 for m in models] for d, _ in rows])
    return matched_gap_wins(score_table, gap_table, failed, models, pairs)


class TestMatchedGapWins:
    def test_hand_case(self):
        scores = {
            "A": {"chebypoly": 0.80, "dt": 0.81},   # matched, smooth gap smaller
            "B": {"chebypoly": 0.70, "dt": 0.90},   # score diff too large
            "C": {"chebypoly": 0.50, "dt": 0.51},   # matched, equal gaps -> 0.5
            "D": {"chebypoly": None, "dt": 0.40},   # failed -> skipped
            "E": {"chebypoly": 0.60, "dt": 0.61},   # matched, tree gap smaller
        }
        gaps = {
            "A": {"chebypoly": 0.05, "dt": 0.10},
            "B": {"chebypoly": 0.01, "dt": 0.02},
            "C": {"chebypoly": 0.20, "dt": 0.20},
            "D": {"chebypoly": None, "dt": 0.10},
            "E": {"chebypoly": 0.30, "dt": 0.10},
        }
        (summary,) = _matched_from_dicts(scores, gaps, [("chebypoly", "dt")])
        assert summary.smooth == "chebypoly" and summary.tree == "dt"
        assert summary.matched == 3
        assert summary.smooth_wins == 1.5
        assert summary.fraction == 0.5

    def test_threshold_boundary_inclusive(self, monkeypatch):
        # |diff| exactly equal to the threshold still counts as matched
        # (values on the 2^-k grid keep the arithmetic exact)
        scores = {"A": {"s": 1.0, "t": 1.25}, "B": {"s": 1.0, "t": 1.3125}}
        gaps = {"A": {"s": 0.0, "t": 1.0}, "B": {"s": 0.0, "t": 1.0}}
        monkeypatch.setattr(stats, "MATCH_THRESHOLD", 0.25)
        (summary,) = _matched_from_dicts(scores, gaps, [("s", "t")])
        assert summary.matched == 1
        assert summary.smooth_wins == 1.0

    def test_nothing_matched_gives_none_fraction(self):
        scores = {"A": {"s": 0.1, "t": 0.9}}
        gaps = {"A": {"s": 0.0, "t": 0.0}}
        (summary,) = _matched_from_dicts(scores, gaps, [("s", "t")])
        assert summary.matched == 0
        assert summary.smooth_wins == 0.0
        assert summary.fraction is None

    def test_missing_model_key_skipped(self):
        scores = {"A": {"s": 0.5}, "B": {"s": 0.5, "t": 0.5}}
        gaps = {"A": {"s": 0.0}, "B": {"s": 0.1, "t": 0.2}}
        (summary,) = _matched_from_dicts(scores, gaps, [("s", "t")])
        assert summary.matched == 1
        assert summary.smooth_wins == 1.0

    def test_equals_the_per_dataset_loop(self):
        # rounded scores and gaps tie, and some differences sit on the threshold
        rng = np.random.default_rng(23)
        models = ["chebypoly", "erbf", "dt", "ridge"]
        pairs = [("chebypoly", "dt"), ("erbf", "dt"), ("erbf", "ridge")]
        for _ in range(300):
            n = int(rng.integers(0, 9))
            score_table = np.round(0.8 + 0.01 * rng.integers(-3, 4, size=(n, 4)), 2)
            gap_table = np.round(rng.random((n, 4)), int(rng.integers(0, 3)))
            failed = rng.random((n, 4)) < 0.2
            names = [f"d{i}" for i in range(n)]
            scores = {d: {m: None if failed[i, j] else float(score_table[i, j])
                          for j, m in enumerate(models)} for i, d in enumerate(names)}
            gaps = {d: {m: None if failed[i, j] else float(gap_table[i, j])
                        for j, m in enumerate(models)} for i, d in enumerate(names)}
            assert matched_gap_wins(score_table, gap_table, failed, models, pairs) == \
                _loop_matched_gap_wins(scores, gaps, pairs)


# ---------------------------------------------------------------------------
# nested cross-validation (small real runs)

SMALL_KINDS = ["ridge", "dt", "chebypoly"]
SMALL_CONFIG = BenchRunConfig(
    outer_k=3, outer_seed=7, search_seed=1,
    trial_budgets={"ridge": 2, "dt": 2, "chebypoly": 2},
)


def _small_datasets():
    return [
        ("zeta", gen("friedman1", n=60, noise_std=0.2, seed=11)),
        ("alpha", gen("synthetic_piecewise", n=60, noise_std=0.2, seed=12)),
    ]


def _strip_timing(fr: FoldResult):
    return (fr.dataset, fr.model, fr.fold, fr.train_r2, fr.test_r2,
            fr.test_r2_adj, fr.gap, tuple(sorted(fr.best_params.items())))


@pytest.fixture(scope="module")
def small_bench():
    datasets = _small_datasets()
    results, failures = run_benchmark(datasets, SMALL_KINDS, SMALL_CONFIG, parallel=1)
    return datasets, results, failures


class TestNestedCV:
    def test_no_failures_and_full_grid(self, small_bench):
        datasets, results, failures = small_bench
        assert failures == {}
        assert len(results) == len(datasets) * len(SMALL_KINDS) * SMALL_CONFIG.outer_k
        cells = {(fr.dataset, fr.model, fr.fold) for fr in results}
        assert len(cells) == len(results)

    def test_gap_is_train_minus_test(self, small_bench):
        _, results, _ = small_bench
        for fr in results:
            assert fr.gap == fr.train_r2 - fr.test_r2

    def test_adjusted_r2_consistent_with_fold_sizes(self, small_bench):
        datasets, results, _ = small_bench
        dims = {name: ds.d for name, ds in datasets}
        plans = {name: kfold_split(ds.n, SMALL_CONFIG.outer_k, SMALL_CONFIG.outer_seed)
                 for name, ds in datasets}
        for fr in results:
            n_test = len(plans[fr.dataset].test_indices(fr.fold))
            assert fr.test_r2_adj == adjusted_r2(fr.test_r2, n_test, dims[fr.dataset])

    def test_results_sorted_by_given_order(self, small_bench):
        datasets, results, _ = small_bench
        ds_order = {name: i for i, (name, _) in enumerate(datasets)}
        kind_order = {k: i for i, k in enumerate(SMALL_KINDS)}
        keys = [(ds_order[fr.dataset], kind_order[fr.model], fr.fold) for fr in results]
        assert keys == sorted(keys)
        # "zeta" was listed before "alpha": given order wins over alphabetical
        assert results[0].dataset == "zeta"

    def test_best_params_come_from_the_search_space(self, small_bench):
        _, results, _ = small_bench
        for fr in results:
            space = search_space(fr.model)
            assert set(fr.best_params) <= set(space.params)
            assert fr.best_params, "search must return a non-empty parameter dict"

    def test_rerun_is_deterministic(self, small_bench):
        datasets, results, failures = small_bench
        again, failures2 = run_benchmark(datasets, SMALL_KINDS, SMALL_CONFIG, parallel=1)
        assert failures2 == failures
        assert [_strip_timing(fr) for fr in again] == [_strip_timing(fr) for fr in results]

    def test_timing_fields_populated(self, small_bench):
        _, results, _ = small_bench
        for fr in results:
            assert fr.tune_seconds >= 0.0
            assert fr.train_seconds >= 0.0
            assert fr.predict_ms_per_1k >= 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exact_rescalings_score_every_fold_as_unscaled(self):
        # squares of X * 2^-900 underflow, and those of y * 2^+-600 underflow
        # or overflow; erbf's default widths depend on y's units, so it is
        # rescaled in X only
        ds = gen("friedman1", n=300, noise_std=0.3, seed=5)
        cfg = BenchRunConfig(outer_k=2, trial_budgets=dict.fromkeys(MODEL_KINDS, 3))
        y_kinds = ["ridge", "dt", "chebypoly", "chebytree"]

        def scores(X, y, kinds):
            results, failures = run_benchmark([("f1", Dataset(X, y, ds.feature_names))],
                                              kinds, cfg)
            assert failures == {}
            return [_strip_timing(fr) for fr in results]

        unscaled = scores(ds.X, ds.y, MODEL_KINDS)
        assert scores(ds.X * 2.0 ** -900, ds.y, MODEL_KINDS) == unscaled
        for k in (-600, 600):
            assert scores(ds.X, ds.y * 2.0 ** k, y_kinds) == [
                fold for fold in unscaled if fold[1] in y_kinds]

    def test_budget_for(self, monkeypatch):
        # a kind listed in trial_budgets runs that many trials; any other kind
        # runs its space's own budget (the search gets None)
        import smoothbench.harness.nested_cv as ncv
        assert BenchRunConfig().trial_budgets == {}
        budgets = []

        def spy(objective, space, seed, budget):
            budgets.append(budget)
            return random_search(objective, space, seed=seed, budget=1)

        monkeypatch.setattr(ncv, "random_search", spy)
        ds = gen("friedman1", n=45, noise_std=0.3, seed=3)
        cfg = BenchRunConfig(outer_k=2, trial_budgets={"ridge": 3})
        _, failures = run_benchmark([("f1", ds)], ["ridge", "dt"], cfg)
        assert failures == {}
        assert budgets == [3, 3, None, None]  # ridge's two folds, then dt's


class TestNestedCVParallel:
    def test_parallel_matches_serial(self):
        datasets = [("p1", gen("friedman1", n=45, noise_std=0.3, seed=3))]
        cfg = BenchRunConfig(outer_k=3, outer_seed=5, search_seed=2,
                             trial_budgets={"ridge": 2, "dt": 2})
        serial, f1 = run_benchmark(datasets, ["ridge", "dt"], cfg, parallel=1)
        para, f2 = run_benchmark(datasets, ["ridge", "dt"], cfg, parallel=2)
        assert f1 == f2 == {}
        assert [_strip_timing(fr) for fr in serial] == [_strip_timing(fr) for fr in para]

    def test_parallel_matches_serial_with_failed_cells(self):
        # x0 is known only on the rows of outer test fold 0, so fold 0's
        # training split has nothing to impute x0 from: that cell fails for
        # every model of the dataset, and folds 1 and 2 still complete
        cfg = BenchRunConfig(outer_k=3, outer_seed=5, search_seed=2,
                             trial_budgets={"ridge": 2, "dt": 2})
        holes = gen("friedman1", n=45, noise_std=0.3, seed=4)
        plan = kfold_split(holes.n, cfg.outer_k, cfg.outer_seed)
        holes.X[plan.assignments != 0, 0] = np.nan
        datasets = [("whole", gen("friedman1", n=45, noise_std=0.3, seed=3)),
                    ("holes", holes)]
        kinds = ["ridge", "dt"]
        serial, f1 = run_benchmark(datasets, kinds, cfg, parallel=1)
        para, f2 = run_benchmark(datasets, kinds, cfg, parallel=2)
        error = "fold 0: column 'x0' is entirely missing in the training split"
        assert list(f1.items()) == list(f2.items()) == [
            (("holes", "ridge"), error), (("holes", "dt"), error)]
        assert [_strip_timing(fr) for fr in serial] == [_strip_timing(fr) for fr in para]
        assert [(fr.dataset, fr.model, fr.fold) for fr in serial] == (
            [("whole", k, f) for k in kinds for f in range(3)]
            + [("holes", k, f) for k in kinds for f in (1, 2)])


    @pytest.mark.parametrize("parallel, workers", [(500, 4), (3, 3), (1, None)])
    def test_pool_starts_at_most_one_worker_per_cell(self, monkeypatch, parallel, workers):
        # a stub pool records its size and runs each cell in this process, so
        # no worker starts; a real pool forks every max_workers at once
        import smoothbench.harness.nested_cv as ncv
        sizes = []

        class StubPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                return ncv._finished(fn, *args)

        monkeypatch.setattr(ncv, "ProcessPoolExecutor", StubPool)
        ds = gen("friedman1", n=30, noise_std=0.3, seed=3)
        cfg = BenchRunConfig(outer_k=2, trial_budgets={"ridge": 1, "dt": 1})
        results, failures = run_benchmark([("f1", ds)], ["ridge", "dt"], cfg, parallel)
        assert failures == {} and len(results) == 4
        assert sizes == ([] if workers is None else [workers])

    @pytest.mark.parametrize("parallel", [0, -2])
    def test_parallel_below_one_raises(self, parallel):
        ds = gen("friedman1", n=30, noise_std=0.3, seed=3)
        with pytest.raises(ValueError, match=f"parallel must be >= 1, got {parallel}"):
            run_benchmark([("f1", ds)], ["ridge"], BenchRunConfig(outer_k=2), parallel)

class TestNestedCVInputs:
    @pytest.mark.parametrize("names, kinds, message", [
        (["f", "f"], ["ridge"], "dataset names must be unique"),
        (["f", "g"], ["ridge", "dt", "ridge"], "model kinds must be unique"),
    ], ids=["dataset", "model"])
    def test_duplicates_raise(self, names, kinds, message):
        # two datasets named alike once shared one fold plan, and a result was lost
        datasets = [(name, gen("friedman1", n=30 + 15 * i, seed=i))
                    for i, name in enumerate(names)]
        with pytest.raises(ValueError, match=message):
            run_benchmark(datasets, kinds, BenchRunConfig(outer_k=2))


class TestNestedCVFailure:
    def test_failing_model_is_marked_not_fatal(self, monkeypatch):
        import smoothbench.harness.nested_cv as ncv
        real_fit = ncv.fit_model

        def flaky_fit(kind, X, y, params, seed=0, ctx=None):
            if kind == "dt":
                raise RuntimeError("synthetic failure")
            return real_fit(kind, X, y, params, seed=seed, ctx=ctx)

        monkeypatch.setattr(ncv, "fit_model", flaky_fit)
        ds = gen("friedman1", n=45, noise_std=0.3, seed=4)
        cfg = BenchRunConfig(outer_k=3, outer_seed=5, search_seed=2,
                             trial_budgets={"ridge": 2, "dt": 2})

        results, failures = run_benchmark([("f1", ds)], ["ridge", "dt"], cfg, parallel=1)
        assert set(failures) == {("f1", "dt")}
        assert failures[("f1", "dt")].startswith("fold 0:")
        assert {fr.model for fr in results} == {"ridge"}
        assert len(results) == cfg.outer_k

        report = build_report(results, failures,
                              dataset_order=["f1"], model_order=["ridge", "dt"])
        assert report["scores"]["f1"]["dt"] is None
        assert report["ranks"]["f1"] == {"ridge": 1.0, "dt": 2.0}
        assert report["failures"] == {"f1/dt": failures[("f1", "dt")]}

    def test_search_with_every_trial_failed_is_a_failure(self, monkeypatch):
        # a cell whose search never produced a score must not be refit with
        # trial 0's params and scored as a success
        import smoothbench.harness.nested_cv as ncv
        real_fit = ncv.fit_model
        ds = gen("friedman1", n=45, noise_std=0.3, seed=4)
        cfg = BenchRunConfig(outer_k=3, outer_seed=5, search_seed=2,
                             trial_budgets={"dt": 3})
        plan = kfold_split(ds.n, cfg.outer_k, cfg.outer_seed)
        outer_train_sizes = {ds.n - len(plan.test_indices(f)) for f in range(cfg.outer_k)}

        def inner_fits_fail(kind, X, y, params, seed=0, ctx=None):
            # every inner-CV fit raises; the outer refit alone would succeed
            if X.shape[0] not in outer_train_sizes:
                raise RuntimeError("synthetic failure")
            return real_fit(kind, X, y, params, seed=seed, ctx=ctx)

        def every_fit_fails(kind, X, y, params, seed=0, ctx=None):
            raise RuntimeError("synthetic failure")

        for fit in (inner_fits_fail, every_fit_fails):
            monkeypatch.setattr(ncv, "fit_model", fit)
            results, failures = run_benchmark([("f1", ds)], ["dt"], cfg, parallel=1)
            assert results == []
            assert set(failures) == {("f1", "dt")}
            assert failures[("f1", "dt")] == \
                "fold 0: all 3 search trials failed; trial 0: synthetic failure"

    def test_refit_refusal_names_its_feature_by_header(self, monkeypatch):
        # only the refit on the whole outer training split refuses the feature,
        # so no search message names it first
        import smoothbench.harness.nested_cv as ncv
        real_fit = ncv.fit_model
        gen_ds = gen("friedman1", n=45, noise_std=0.3, seed=4)
        ds = Dataset(gen_ds.X, gen_ds.y, ("a", "b", "c", "d", "e"))
        cfg = BenchRunConfig(outer_k=3, outer_seed=5, search_seed=2, trial_budgets={"dt": 2})
        plan = kfold_split(ds.n, cfg.outer_k, cfg.outer_seed)
        outer_train_sizes = {ds.n - len(plan.test_indices(f)) for f in range(cfg.outer_k)}

        def refit_refuses(kind, X, y, params, seed=0, ctx=None):
            if X.shape[0] in outer_train_sizes:
                raise FeatureError(1, "its range max - min overflows float64")
            return real_fit(kind, X, y, params, seed=seed, ctx=ctx)

        monkeypatch.setattr(ncv, "fit_model", refit_refuses)
        results, failures = run_benchmark([("f1", ds)], ["dt"], cfg, parallel=1)
        assert results == []
        assert failures == {
            ("f1", "dt"): "fold 0: feature 'b': its range max - min overflows float64"}


    def test_non_finite_score_is_a_failure_and_files_are_strict_json(self, monkeypatch,
                                                                       tmp_path):
        import smoothbench.harness.nested_cv as ncv
        monkeypatch.setattr(ncv, "tune", lambda *args: {})
        monkeypatch.setattr(ncv, "r2", lambda y_true, y_pred: math.nan)
        ds = gen("friedman1", n=45, noise_std=0.3, seed=4)
        results, failures = run_benchmark([("f1", ds)], ["ridge"], BenchRunConfig(outer_k=3),
                                          parallel=1)
        assert results == []
        assert failures[("f1", "ridge")].startswith("fold 0: non-finite score: test_r2_adj=nan")

        def refuse(token):
            raise AssertionError(f"{token} in a strict JSON file")

        path = str(tmp_path / "results.jsonl")
        write_results_jsonl(path, results, failures)
        paths = write_report_files(str(tmp_path), build_report(results, failures))
        with open(path, encoding="utf-8") as fh:
            assert [json.loads(line, parse_constant=refuse)["record"] for line in fh] == \
                ["failure"]
        with open(paths[0], encoding="utf-8") as fh:
            assert json.load(fh, parse_constant=refuse)["failures"] == \
                {"f1/ridge": failures[("f1", "ridge")]}

    def test_constant_target_test_fold_is_a_failure(self):
        # r2 gives FAILURE_SCORE for a constant target; recorded as a score, it
        # averaged into the pair's mean and ranked as a real number
        ds = gen("friedman1", n=30, noise_std=0.3, seed=4)
        cfg = BenchRunConfig(outer_k=3, outer_seed=5, search_seed=2, trial_budgets={"ridge": 2})
        ds.y[kfold_split(ds.n, cfg.outer_k, cfg.outer_seed).test_indices(0)] = 1.5
        results, failures = run_benchmark([("f1", ds)], ["ridge"], cfg, parallel=1)
        assert failures == {
            ("f1", "ridge"): "fold 0: R² is undefined: the test target is constant"}
        assert [fr.fold for fr in results] == [1, 2]
        report = build_report(results, failures)
        assert report["scores"]["f1"]["ridge"] is None
        assert report["gaps"]["f1"]["ridge"] is None

    def test_writers_refuse_non_finite_numbers_and_leave_no_file(self, tmp_path):
        path = tmp_path / "results.jsonl"
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="not JSON compliant"):
                write_results_jsonl(str(path), [_fold("d", "m", 0, adj=bad)], {})
            assert not path.exists()
            report = build_report([_fold("d", "m", 0, adj=0.5)], {})
            report["nemenyi_cd"] = bad
            with pytest.raises(ValueError, match="not JSON compliant"):
                write_report_files(str(tmp_path), report)
            assert not (tmp_path / "report.json").exists()
        # nor do they touch earlier files
        write_results_jsonl(str(path), [_fold("d", "m", 0, adj=0.5)], {})
        report = build_report([_fold("d", "m", 0, adj=0.5)], {})
        write_report_files(str(tmp_path), report)
        files = [path] + [tmp_path / name
                          for name in ("report.json", "rank_table.csv", "scores_table.csv")]
        before = [f.read_bytes() for f in files]
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_results_jsonl(str(path), [_fold("d", "m", 0, adj=math.nan)], {})
        report["nemenyi_cd"] = math.nan
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_report_files(str(tmp_path), report)
        assert [f.read_bytes() for f in files] == before


class TestTune:
    def test_a_fit_that_writes_into_its_inputs_fails(self, monkeypatch):
        # the folds' arrays are shared by every trial, so they are read-only
        import smoothbench.harness.nested_cv as ncv
        ds = gen("friedman1", n=40, noise_std=0.3, seed=6)
        X, y = ds.X.copy(), ds.y.copy()
        seen = []

        def writing_fit(kind, X_fit, y_fit, params, seed=0, ctx=None):
            seen.append((X_fit.flags.writeable, y_fit.flags.writeable))
            X_fit[0, 0] = 1e6
            return fit_model(kind, X_fit, y_fit, params, seed=seed, ctx=ctx)

        monkeypatch.setattr(ncv, "fit_model", writing_fit)
        with pytest.raises(ValueError, match="all 3 search trials failed"):
            tune("ridge", X, y, plan_seed=2, fit_seed=0, search_seed=0, budget=3)
        assert seen == [(False, False)] * 3
        assert np.array_equal(X, ds.X) and np.array_equal(y, ds.y)
        assert X.flags.writeable and y.flags.writeable


# ---------------------------------------------------------------------------
# persistence and report construction


def _fold(ds, model, fold, adj, gap=0.1, train=0.9, test=0.8, params=None):
    return FoldResult(
        dataset=ds, model=model, fold=fold, train_r2=train, test_r2=test,
        test_r2_adj=adj, gap=gap, tune_seconds=0.5, train_seconds=0.25,
        predict_ms_per_1k=2.0, best_params=params or {"alpha": 0.5},
    )


class TestResultsJsonl:
    def test_round_trip_exact(self, tmp_path):
        results = [
            _fold("dsb", "m1", 1, adj=0.1 + 0.2, gap=math.pi, train=1 / 3),
            _fold("dsa", "m2", 0, adj=-1e9, params={"depth": 3, "frac": 0.017}),
            _fold("dsa", "m1", 0, adj=0.75),
        ]
        failures = {("dsb", "m2"): "boom", ("dsa", "m3"): "exploded at fold 2"}
        path = str(tmp_path / "results.jsonl")
        write_results_jsonl(path, results, failures)
        back, back_failures = read_results_jsonl(path)
        # both come back in the order they were written
        assert back == results
        assert list(back_failures.items()) == list(failures.items())

    def test_line_format_and_order(self, tmp_path):
        results = [_fold("b", "m", 0, adj=0.5), _fold("a", "m", 0, adj=0.5)]
        path = str(tmp_path / "results.jsonl")
        write_results_jsonl(path, results, {("a", "z"): "oops"})
        with open(path) as fh:
            lines = [json.loads(line) for line in fh]
        assert [rec["record"] for rec in lines] == ["fold", "fold", "failure"]
        assert [rec["dataset"] for rec in lines] == ["b", "a", "a"]
        assert all(rec["schema_version"] == SCHEMA_VERSION for rec in lines)

    def test_schema_version_guard(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"record": "fold", "schema_version": 999}) + "\n")
        with pytest.raises(ValueError, match="schema"):
            read_results_jsonl(path)

    def test_unknown_record_guard(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"record": "mystery",
                                 "schema_version": SCHEMA_VERSION}) + "\n")
        with pytest.raises(ValueError, match="record"):
            read_results_jsonl(path)


def _report_fixture_results():
    """Two datasets x three models x two folds with hand-checkable means."""
    rows = []
    adj = {
        ("d1", "m_a"): (0.8, 0.6),   # mean 0.7
        ("d1", "m_b"): (0.5, 0.5),   # mean 0.5
        ("d1", "m_c"): (0.9, 0.7),   # mean 0.8
        ("d2", "m_a"): (0.5, 0.5),   # mean 0.5
        ("d2", "m_b"): (0.5, 0.5),   # mean 0.5 (tie with m_a)
        ("d2", "m_c"): (0.1, 0.1),   # mean 0.1
    }
    for (ds, m), vals in adj.items():
        for fold, v in enumerate(vals):
            rows.append(_fold(ds, m, fold, adj=v, gap=v / 10))
    return rows


class TestBuildReport:
    def test_aggregation_and_ranks(self):
        report = build_report(_report_fixture_results(), {},
                              dataset_order=["d1", "d2"],
                              model_order=["m_a", "m_b", "m_c"])
        assert report["datasets"] == ["d1", "d2"]
        assert report["models"] == ["m_a", "m_b", "m_c"]
        assert report["scores"]["d1"] == pytest.approx(
            {"m_a": 0.7, "m_b": 0.5, "m_c": 0.8})
        assert report["scores"]["d2"] == pytest.approx(
            {"m_a": 0.5, "m_b": 0.5, "m_c": 0.1})
        assert report["gaps"]["d1"]["m_a"] == pytest.approx(0.07)
        # d1: m_c > m_a > m_b; d2: m_a ties m_b at 1.5, m_c last
        assert report["ranks"]["d1"] == {"m_a": 2.0, "m_b": 3.0, "m_c": 1.0}
        assert report["ranks"]["d2"] == {"m_a": 1.5, "m_b": 1.5, "m_c": 3.0}
        assert report["mean_ranks"] == pytest.approx(
            {"m_a": 1.75, "m_b": 2.25, "m_c": 2.0})
        assert report["rank1_counts"] == {"m_a": 0, "m_b": 0, "m_c": 1}
        assert report["rank2_counts"] == {"m_a": 1, "m_b": 0, "m_c": 0}
        # chi2 = 12*2/(3*4) * ((1.75^2 + 2.25^2 + 2^2) - 12) = 0.25
        assert report["friedman"]["statistic"] == pytest.approx(0.25, abs=1e-12)
        assert report["friedman"]["df"] == 2
        assert report["friedman"]["significant"] is False
        assert report["nemenyi_cd"] == pytest.approx(2.343, abs=1e-12)
        # matched-gap analysis needs >= 3 datasets
        assert report["matched_gap"] is None
        assert report["failures"] == {}
        assert report["timing"]["m_a"]["tune_seconds_mean"] == 0.5

    def test_matched_gap_block(self):
        rows = []
        scores = {
            ("ds1", "chebypoly"): 0.80, ("ds1", "dt"): 0.81,  # matched, smooth wins
            ("ds2", "chebypoly"): 0.70, ("ds2", "dt"): 0.90,  # unmatched
            ("ds3", "chebypoly"): 0.50, ("ds3", "dt"): 0.51,  # matched, tie
        }
        gaps = {
            ("ds1", "chebypoly"): 0.05, ("ds1", "dt"): 0.10,
            ("ds2", "chebypoly"): 0.01, ("ds2", "dt"): 0.02,
            ("ds3", "chebypoly"): 0.20, ("ds3", "dt"): 0.20,
        }
        for (ds, m) in scores:
            rows.append(_fold(ds, m, 0, adj=scores[(ds, m)], gap=gaps[(ds, m)]))
        report = build_report(rows, {}, dataset_order=["ds1", "ds2", "ds3"],
                              model_order=["chebypoly", "dt"])
        block = report["matched_gap"]
        assert block["threshold"] == 0.02
        (pair,) = block["pairs"]
        assert pair["smooth"] == "chebypoly" and pair["tree"] == "dt"
        assert pair["matched"] == 2
        assert pair["smooth_wins"] == 1.5
        assert pair["fraction"] == 0.75
        assert block["matched_total"] == 2
        assert block["smooth_wins_total"] == 1.5
        assert block["fraction_overall"] == 0.75
        # consistency with a direct call on the report's own tables
        direct = _matched_from_dicts(report["scores"], report["gaps"], [("chebypoly", "dt")])
        assert direct[0].matched == pair["matched"]
        assert direct[0].smooth_wins == pair["smooth_wins"]

    def test_partly_failed_pair_is_unscored_and_unmatched(self):
        # chebypoly completes fold 0 of 3 and fails the rest on every dataset;
        # its completed fold alone would match dt and win on the gap
        rows = []
        for ds in ("ds1", "ds2", "ds3"):
            rows += [_fold(ds, "dt", f, adj=0.80, gap=0.10) for f in range(3)]
            rows.append(_fold(ds, "chebypoly", 0, adj=0.80, gap=0.01))
        failures = {(ds, "chebypoly"): "fold 1: boom" for ds in ("ds1", "ds2", "ds3")}
        report = build_report(rows, failures, dataset_order=["ds1", "ds2", "ds3"],
                              model_order=["chebypoly", "dt"])
        for ds in ("ds1", "ds2", "ds3"):
            assert report["scores"][ds]["chebypoly"] is None
            assert report["gaps"][ds]["chebypoly"] is None
            assert report["ranks"][ds] == {"chebypoly": 2.0, "dt": 1.0}
        (pair,) = report["matched_gap"]["pairs"]
        assert pair["matched"] == 0 and pair["fraction"] is None
        # timing measures cost, so it keeps the completed folds
        assert report["timing"]["chebypoly"]["tune_seconds_mean"] == 0.5

    def test_pair_missing_a_fold_is_unscored_and_listed_as_failed(self):
        # a truncated results file: chebypoly lost its fold-2 record on ds1, and
        # its two remaining folds alone would rank it first and match dt
        rows = []
        for ds in ("ds1", "ds2", "ds3"):
            rows += [_fold(ds, "dt", f, adj=0.80, gap=0.10) for f in range(3)]
            rows += [_fold(ds, "chebypoly", f, adj=(0.81, 0.81, 0.50)[f], gap=0.01)
                     for f in range(3) if (ds, f) != ("ds1", 2)]
        report = build_report(rows, {}, dataset_order=["ds1", "ds2", "ds3"],
                              model_order=["chebypoly", "dt"])
        assert report["scores"]["ds1"]["chebypoly"] is None
        assert report["gaps"]["ds1"]["chebypoly"] is None
        assert report["ranks"]["ds1"] == {"chebypoly": 2.0, "dt": 1.0}
        assert report["failures"] == {"ds1/chebypoly": "missing folds [2]"}
        # ds2 and ds3 are complete: chebypoly scores 0.7067 there, unmatched
        (pair,) = report["matched_gap"]["pairs"]
        assert pair["matched"] == 0
        # the file's own failure record keeps its message
        report = build_report(rows, {("ds1", "chebypoly"): "fold 2: boom"},
                              dataset_order=["ds1", "ds2", "ds3"],
                              model_order=["chebypoly", "dt"])
        assert report["failures"] == {"ds1/chebypoly": "fold 2: boom"}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["test_r2_adj", "gap"])
    def test_refuses_a_non_finite_score(self, field, bad):
        # failure comes from the failure set only, so a non-finite score is refused
        rows = [_fold("d", "m", 0, adj=0.5), _fold("d", "m", 1, adj=0.5)]
        setattr(rows[1], field, bad)
        with pytest.raises(ValueError, match=re.escape(
                f"d/m fold 1: non-finite score: test_r2_adj={rows[1].test_r2_adj}, "
                f"gap={rows[1].gap}")):
            build_report(rows, {})

    def test_first_seen_order_without_explicit_order(self):
        rows = [_fold("zzz", "m2", 0, adj=0.5), _fold("aaa", "m1", 0, adj=0.5)]
        report = build_report(rows, {})
        assert report["datasets"] == ["zzz", "aaa"]
        assert report["models"] == ["m2", "m1"]

    def test_model_columns_sorted_by_mean_rank(self):
        report = build_report(_report_fixture_results(), {},
                              dataset_order=["d1", "d2"],
                              model_order=["m_a", "m_b", "m_c"])
        assert report_model_columns(report) == ["m_a", "m_c", "m_b"]

    def test_model_columns_break_ties_by_name(self):
        rows = [_fold("d", "zed", 0, adj=0.5), _fold("d", "abe", 0, adj=0.5)]
        report = build_report(rows, {})
        assert report["mean_ranks"]["zed"] == report["mean_ranks"]["abe"] == 1.5
        assert report_model_columns(report) == ["abe", "zed"]


class TestWriteReportFiles:
    def test_files_written_and_json_round_trips(self, tmp_path):
        report = build_report(_report_fixture_results(), {},
                              dataset_order=["d1", "d2"],
                              model_order=["m_a", "m_b", "m_c"])
        paths = write_report_files(str(tmp_path), report)
        assert [p.rsplit("/", 1)[1] for p in paths] == \
               ["report.json", "rank_table.csv", "scores_table.csv"]
        with open(paths[0]) as fh:
            assert json.load(fh) == report

    def test_csv_tables(self, tmp_path):
        import csv as csvmod

        report = build_report(_report_fixture_results(), {},
                              dataset_order=["d1", "d2"],
                              model_order=["m_a", "m_b", "m_c"])
        write_report_files(str(tmp_path), report)
        cols = report_model_columns(report)

        with open(tmp_path / "rank_table.csv", newline="") as fh:
            rows = list(csvmod.reader(fh))
        assert rows[0] == ["dataset"] + cols
        for row in rows[1:]:
            ds = row[0]
            for m, cell in zip(cols, row[1:]):
                assert float(cell) == report["ranks"][ds][m]

        with open(tmp_path / "scores_table.csv", newline="") as fh:
            rows = list(csvmod.reader(fh))
        assert rows[0] == ["dataset"] + cols
        for row in rows[1:]:
            ds = row[0]
            for m, cell in zip(cols, row[1:]):
                assert float(cell) == report["scores"][ds][m]

    def test_none_scores_become_empty_cells(self, tmp_path):
        import csv as csvmod

        rows = [_fold("d", "ok", 0, adj=0.5)]
        report = build_report(rows, {("d", "broken"): "err"},
                              dataset_order=["d"], model_order=["ok", "broken"])
        write_report_files(str(tmp_path), report)
        with open(tmp_path / "scores_table.csv", newline="") as fh:
            table = list(csvmod.reader(fh))
        broken_col = table[0].index("broken")
        assert table[1][broken_col] == ""

    def test_end_to_end_with_real_results(self, small_bench, tmp_path):
        datasets, results, failures = small_bench
        path = str(tmp_path / "results.jsonl")
        write_results_jsonl(path, results, failures)
        back, back_failures = read_results_jsonl(path)
        names = [name for name, _ in datasets]
        report_a = build_report(results, failures, names, SMALL_KINDS)
        report_b = build_report(back, back_failures, names, SMALL_KINDS)
        assert report_a == report_b
        write_report_files(str(tmp_path / "out"), report_a)
        with open(tmp_path / "out" / "report.json") as fh:
            assert json.load(fh) == report_a
