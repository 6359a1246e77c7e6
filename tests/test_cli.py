"""End-to-end tests of the command-line interface.

Every test drives `smoothbench.cli.main` in-process and checks exit codes
(0 success, 1 runtime failure, 2 usage error), file outputs, and agreement
with the library calls the commands wrap.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import stat

import numpy as np
import pytest

from smoothbench.cli import main
from smoothbench.data import Dataset, column_medians, impute_median, load_csv, write_csv
from smoothbench.harness import clip_bounds, tune
from smoothbench.registry import fit_model, model_from_dict, predict_model
from smoothbench.synth import gen


def _write_dataset(path, kind="friedman1", n=60, noise_std=0.2, seed=11):
    ds = gen(kind, n=n, noise_std=noise_std, seed=seed)
    write_csv(ds, str(path))
    return ds


def _write_with_blanks(path, ds, first_row=0):
    """Write ds as CSV, leaving feature j blank in rows first_row .. first_row + j.

    Column j so loses j + 1 cells: the finite counts alternate odd and even.
    Returns the feature matrix with NaN where a cell was left blank.
    """
    X = ds.X.copy()
    for j in range(ds.d):
        X[first_row:first_row + j + 1, j] = np.nan
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + [ds.target_name])
        for row, target in zip(X.tolist(), ds.y.tolist()):
            writer.writerow(["" if np.isnan(v) else repr(v) for v in row] + [repr(target)])
    return X


def _wrap_in_list(doc):
    """Replace the whole model document by a JSON list that holds it."""
    return [doc]


def _fold_line(**values):
    """A results.jsonl fold record line, with the given values replaced."""
    rec = {"record": "fold", "schema_version": 1, "dataset": "d", "model": "m", "fold": 0,
           "train_r2": 0.9, "test_r2": 0.8, "test_r2_adj": 0.75, "gap": 0.1,
           "tune_seconds": 0.5, "train_seconds": 0.25, "predict_ms_per_1k": 2.0,
           "best_params": {"alpha": 0.5}}
    return json.dumps({**rec, **values})


def _poly_row(model):
    """The row of the first polynomial leaf in a chebytree model dict's leaf arrays."""
    return next(j for j, w in enumerate(model["weights"]) if any(w))


def _to_leaf_models_layout(model, row):
    """Put a chebytree model dict back in the schema-4 layout: one entry per leaf."""
    for name in ("mins", "ranges", "weights", "intercepts", "lo", "hi"):
        model.pop(name)
    model["leaf_models"] = {"1": {"kind": "constant", "value": 0.0},
                            "2": {"kind": "constant", "value": 1.0}}


def _to_schema_5_chebypoly_layout(doc):
    """Put a chebypoly model back in its schema-5 layout: basis and scaler objects,
    one weight vector and one intercept, and no tree."""
    m = doc["model"]
    doc["model"] = {
        "basis": {"complexity": m["complexity"], "include_interactions": m["interactions"] > 0,
                  "max_interaction_complexity": max(m["interactions"], 1)},
        "scaler": {"mins": m["mins"][0], "ranges": m["ranges"][0]},
        "interaction_feats": m["interaction_feats"], "weights": m["weights"][0],
        "intercept": m["intercepts"][0], "y_mean": m["y_mean"], "y_std": m["y_std"]}


def _to_schema_6_chebypoly_layout(doc):
    """Put a chebypoly model file back at schema 6: the two basis flags in place of
    interactions. Returns the document."""
    m = doc["model"]
    inter = m.pop("interactions")
    m.update(include_interactions=inter > 0, max_interaction_complexity=max(inter, 1))
    doc["schema_version"] = 6
    return doc


def _strict_json(text):
    """Parse JSON that must hold no NaN, Infinity or -Infinity token."""
    def refuse(token):
        raise ValueError(f"{token} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


def _drop_last_feature(doc):
    """Make a model file list one feature name (and median) fewer than its model uses."""
    doc["feature_names"].pop()
    doc["medians"].pop()


# ---------------------------------------------------------------------------
# gen


class TestGen:
    def test_writes_loadable_csv_matching_library_call(self, tmp_path):
        out = tmp_path / "data.csv"
        code = main(["gen", "--kind", "friedman1", "--n", "50",
                     "--noise-std", "0.1", "--seed", "3", "--out", str(out)])
        assert code == 0
        back = load_csv(str(out), "y")
        want = gen("friedman1", n=50, noise_std=0.1, seed=3)
        assert np.array_equal(back.X, want.X)
        assert np.array_equal(back.y, want.y)
        assert back.feature_names == want.feature_names

    def test_catalogue_defaults(self, tmp_path):
        out = tmp_path / "mt.csv"
        assert main(["gen", "--kind", "synthetic_multithreshold",
                     "--out", str(out)]) == 0
        back = load_csv(str(out), "y")
        assert back.n == 750 and back.d == 6

    def test_unknown_kind_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "nope", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("noise", ["inf", "nan", "-0.5"])
    def test_non_finite_or_negative_noise_exits_1(self, tmp_path, capsys, noise):
        # inf used to write infinite targets, and nan silently meant no noise
        out = tmp_path / "x.csv"
        assert main(["gen", "--kind", "friedman1", "--n", "20", "--noise-std", noise,
                     "--out", str(out)]) == 1
        want = f"noise_std must be non-negative and finite, got {float(noise)}"
        assert want in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# fit / predict


class TestFitPredict:
    def test_round_trip_matches_reloaded_model(self, tmp_path):
        data = tmp_path / "train.csv"
        _write_dataset(data)
        model_path = tmp_path / "model.json"
        code = main(["fit", "--model", "ridge", "--data", str(data),
                     "--target", "y", "--out", str(model_path),
                     "--param", "alpha=0.5"])
        assert code == 0

        doc = json.loads(model_path.read_text())
        assert doc["kind"] == "ridge"
        assert doc["target"] == "y"
        assert doc["params"] == {"alpha": 0.5}
        assert doc["tuned"] is False
        assert doc["seed"] == 0
        assert doc["feature_names"] == [f"x{j}" for j in range(5)]
        assert len(doc["medians"]) == 5

        preds_path = tmp_path / "preds.csv"
        code = main(["predict", "--model-file", str(model_path),
                     "--data", str(data), "--out", str(preds_path)])
        assert code == 0
        with open(preds_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["prediction"]
        got = np.array([float(r[0]) for r in rows[1:]])

        ds = load_csv(str(data), "y")
        model = model_from_dict("ridge", doc["model"], ds.d)
        want = predict_model("ridge", model, ds.X, doc["clip"])
        assert np.array_equal(got, want)

    def test_fit_with_tuning(self, tmp_path):
        data = tmp_path / "train.csv"
        _write_dataset(data, n=50)
        model_path = tmp_path / "model.json"
        code = main(["fit", "--model", "dt", "--data", str(data),
                     "--target", "y", "--out", str(model_path),
                     "--tune", "--budget", "2", "--seed", "5"])
        assert code == 0
        doc = json.loads(model_path.read_text())
        assert doc["tuned"] is True
        assert set(doc["params"]) == {"max_depth", "min_samples_leaf",
                                      "min_samples_split"}

    @pytest.mark.parametrize("kind", ["dt", "chebytree"])
    def test_tuned_fit_serves_the_harness_tuners_model(self, tmp_path, kind):
        # the trials of one inner split share its tree nodes
        data = tmp_path / "train.csv"
        _write_dataset(data, n=80)
        model_path, out = tmp_path / "model.json", tmp_path / "preds.csv"
        assert main(["fit", "--model", kind, "--data", str(data), "--target", "y",
                     "--tune", "--budget", "6", "--seed", "4", "--out", str(model_path)]) == 0
        assert main(["predict", "--model-file", str(model_path),
                     "--data", str(data), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            served = np.array([float(r[0]) for r in list(csv.reader(fh))[1:]])
        ds = load_csv(str(data), "y")
        params = tune(kind, ds.X, ds.y, 4, 4, 4, 6)
        assert json.loads(model_path.read_text())["params"] == params
        model = fit_model(kind, ds.X, ds.y, params, seed=4)
        assert np.array_equal(served, predict_model(kind, model, ds.X, clip_bounds(ds.y)))

    def test_fit_tune_with_every_trial_failing_exits_1(self, tmp_path, capsys,
                                                         monkeypatch):
        import smoothbench.harness.nested_cv as ncv

        data = tmp_path / "train.csv"
        _write_dataset(data, n=50)
        real_fit = ncv.fit_model

        def fit_failing_on_inner_splits(kind, X, y, params, seed=0, ctx=None):
            if X.shape[0] < 50:
                raise np.linalg.LinAlgError("inner fit failed")
            return real_fit(kind, X, y, params, seed=seed, ctx=ctx)

        monkeypatch.setattr(ncv, "fit_model", fit_failing_on_inner_splits)
        model_path = tmp_path / "model.json"
        code = main(["fit", "--model", "dt", "--data", str(data),
                     "--target", "y", "--out", str(model_path),
                     "--tune", "--budget", "3"])
        assert code == 1
        assert "all 3 search trials failed" in capsys.readouterr().err
        assert not model_path.exists()

    def test_param_values_parse_as_json_with_string_fallback(self, tmp_path):
        data = tmp_path / "train.csv"
        _write_dataset(data, n=50)
        model_path = tmp_path / "model.json"
        code = main(["fit", "--model", "chebypoly", "--data", str(data),
                     "--target", "y", "--out", str(model_path),
                     "--param", "complexity=2",
                     "--param", "interactions=2"])
        assert code == 0
        doc = json.loads(model_path.read_text())
        # the defaults of the parameters not given are recorded too
        assert doc["params"] == {"complexity": 2, "alpha": 1.0, "interactions": 2}
        assert doc["model"]["interactions"] == 2

        model_path2 = tmp_path / "model2.json"
        code = main(["fit", "--model", "erbf", "--data", str(data),
                     "--target", "y", "--out", str(model_path2),
                     "--param", "center_init=kmeans", "--param", "n_rbf=7"])
        assert code == 0
        doc = json.loads(model_path2.read_text())
        assert doc["params"]["center_init"] == "kmeans"  # bare string kept
        assert doc["params"]["n_rbf"] == 7
        assert doc["model"]["fit_info"]["resolved_k"] == 7

        model_path3 = tmp_path / "model3.json"
        code = main(["fit", "--model", "erbf", "--data", str(data),
                     "--target", "y", "--out", str(model_path3), "--param", "n_rbf=null"])
        assert code == 0
        doc = json.loads(model_path3.read_text())
        assert doc["params"]["n_rbf"] is None  # sized by auto_k(50, 5) = 5
        assert doc["model"]["fit_info"]["resolved_k"] == 5

    @pytest.mark.parametrize("kind, param, message", [
        ("chebypoly", "complexty=9", "chebypoly has no hyperparameter 'complexty'"),
        ("dt", "max_depth=2.7", "max_depth must be an integer, got 2.7"),
        # the flags that n_rbf and interactions replaced are unknown names now
        ("erbf", "n_rbf_mode=fixed", "erbf has no hyperparameter 'n_rbf_mode'"),
        ("erbf", "width_optim_iters=3", "erbf has no hyperparameter 'width_optim_iters'"),
        ("chebypoly", "include_interactions=true",
         "chebypoly has no hyperparameter 'include_interactions'"),
        ("chebypoly", "max_interaction_complexity=2",
         "chebypoly has no hyperparameter 'max_interaction_complexity'"),
        ("erbf", "n_rbf=0", "n_rbf must be a positive integer or None, got 0"),
        ("erbf", "n_rbf=true", "n_rbf must be a positive integer or None, got True"),
        ("chebypoly", "interactions=3", "interactions must be 0, 1 or 2, got 3"),
        ("chebypoly", "interactions=false", "interactions must be an integer, got False"),
        # the seed comes from --seed, not from a hyperparameter
        ("erbf", "seed=3", "erbf has no hyperparameter 'seed'"),
        ("dt", "min_samples_leaf=-1", "count parameter must be at least 1, got -1"),
        # an infinite count used to end in an OverflowError traceback
        ("dt", "min_samples_leaf=Infinity", "count parameter must be positive and finite, got inf"),
        ("dt", "min_samples_split=1e400", "count parameter must be positive and finite, got inf"),
        # a NaN alpha used to fit and print train_r2=nan; an infinite one wrote Infinity
        ("chebypoly", "alpha=NaN", "alpha must be non-negative and finite, got nan"),
        ("ridge", "alpha=Infinity", "alpha must be non-negative and finite, got inf"),
        ("chebytree", "alpha=-Infinity", "alpha must be non-negative and finite, got -inf"),
    ], ids=["misspelt-name", "fractional-depth", "fixed-size-without-size",
            "width-optim-iters", "include-interactions", "max-interaction-complexity",
            "zero-rbf", "bool-rbf", "interactions-3", "bool-interactions", "seed",
            "leaf-count-below-one", "infinite-leaf-count", "overflowing-split-count",
            "nan-alpha", "infinite-alpha", "minus-infinite-alpha"])
    def test_fit_rejects_a_param_the_model_does_not_take(self, tmp_path, capsys, kind,
                                                         param, message):
        data = tmp_path / "train.csv"
        _write_dataset(data, n=50)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--model", kind, "--data", str(data), "--target", "y",
                     "--out", str(model_path), "--param", param]) == 1
        assert message in capsys.readouterr().err
        assert not model_path.exists()

    def test_fit_refuses_a_non_finite_model_and_writes_no_file(self, tmp_path, capsys,
                                                              monkeypatch):
        data = tmp_path / "train.csv"
        _write_dataset(data, n=50)
        monkeypatch.setattr("smoothbench.linear.RidgeModel.to_dict",
                            lambda self: {"weights": [float("nan")]})
        model_path = tmp_path / "model.json"
        assert main(["fit", "--model", "ridge", "--data", str(data), "--target", "y",
                     "--out", str(model_path)]) == 1
        assert "model file: Out of range float values" in capsys.readouterr().err
        assert not model_path.exists()
        # nor does it touch an earlier file
        model_path.write_bytes(b'{"earlier": true}\n')
        assert main(["fit", "--model", "ridge", "--data", str(data), "--target", "y",
                     "--out", str(model_path)]) == 1
        assert model_path.read_bytes() == b'{"earlier": true}\n'

    def test_max_samples_subsamples_training_data(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        _write_dataset(data, n=60)
        model_path = tmp_path / "model.json"
        code = main(["fit", "--model", "ridge", "--data", str(data),
                     "--target", "y", "--out", str(model_path),
                     "--max-samples", "30"])
        assert code == 0
        assert "n=30" in capsys.readouterr().out

    def test_predict_aligns_columns_by_name_and_imputes_medians(self, tmp_path):
        data = tmp_path / "train.csv"
        ds = _write_dataset(data, n=60)
        model_path = tmp_path / "model.json"
        main(["fit", "--model", "ridge", "--data", str(data),
              "--target", "y", "--out", str(model_path), "--param", "alpha=1.0"])
        doc = json.loads(model_path.read_text())

        # prediction file: shuffled columns, an extra column, one missing cell
        pred_csv = tmp_path / "query.csv"
        with open(pred_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["extra", "x3", "x1", "x0", "x4", "x2"])
            writer.writerow(["9.9", "0.4", "0.3", "0.2", "0.5", "0.1"])
            writer.writerow(["9.9", "0.4", "", "0.2", "0.5", "0.1"])
        out = tmp_path / "preds.csv"
        assert main(["predict", "--model-file", str(model_path),
                     "--data", str(pred_csv), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        got = np.array([float(r[0]) for r in rows[1:]])

        model = model_from_dict("ridge", doc["model"], 5)
        X = np.array([
            [0.2, 0.3, 0.1, 0.4, 0.5],
            [0.2, doc["medians"][1], 0.1, 0.4, 0.5],
        ])
        want = predict_model("ridge", model, X, doc["clip"])
        assert np.array_equal(got, want)

    def test_model_file_medians_are_the_training_nanmedians(self, tmp_path):
        data = tmp_path / "train.csv"
        X = _write_with_blanks(data, gen("friedman1", n=60, noise_std=0.2, seed=11))
        model_path = tmp_path / "model.json"
        assert main(["fit", "--model", "ridge", "--data", str(data),
                     "--target", "y", "--out", str(model_path)]) == 0
        doc = json.loads(model_path.read_text())
        assert [int(np.isfinite(X[:, j]).sum()) for j in range(5)] == [59, 58, 57, 56, 55]
        assert doc["medians"] == [float(np.nanmedian(X[:, j])) for j in range(5)]

    def test_predict_fills_blank_cells_as_the_benchmark_does(self, tmp_path):
        data, query = tmp_path / "train.csv", tmp_path / "query.csv"
        _write_with_blanks(data, gen("friedman1", n=60, noise_std=0.2, seed=11))
        _write_with_blanks(query, gen("friedman1", n=20, noise_std=0.2, seed=12), first_row=3)
        model_path, out = tmp_path / "model.json", tmp_path / "preds.csv"
        assert main(["fit", "--model", "ridge", "--data", str(data),
                     "--target", "y", "--out", str(model_path)]) == 0
        assert main(["predict", "--model-file", str(model_path),
                     "--data", str(query), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            got = np.array([float(r[0]) for r in list(csv.reader(fh))[1:]])

        # the outer fold's imputation: training medians fill both splits
        train = load_csv(str(data), "y")
        medians = column_medians(train)
        X_train = impute_median(train, medians).X
        X_query = impute_median(load_csv(str(query), "y"), medians).X
        model = fit_model("ridge", X_train, train.y, {}, seed=0)
        want = predict_model("ridge", model, X_query, clip_bounds(train.y))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", ["ridge", "erbf", "chebytree"])
    def test_fit_and_predict_fill_blanks_beside_huge_values(self, tmp_path, kind):
        # column a's two middle values sum past float64: its median must not
        # be inf, or imputation writes inf and the fit fails
        rng = np.random.default_rng(17)
        a = (1.6e308 + rng.uniform(0.0, 1e307, size=200)).tolist()
        b = rng.normal(size=200).tolist()
        data = tmp_path / "huge.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b", "y"])
            for i in range(200):
                writer.writerow(["" if i % 10 == 0 else repr(a[i]), repr(b[i]), repr(2.0 * b[i])])
        model_path, out = tmp_path / "model.json", tmp_path / "preds.csv"
        assert main(["fit", "--model", kind, "--data", str(data),
                     "--target", "y", "--out", str(model_path)]) == 0
        assert main(["predict", "--model-file", str(model_path),
                     "--data", str(data), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            preds = [float(r[0]) for r in list(csv.reader(fh))[1:]]
        assert len(preds) == 200 and np.isfinite(preds).all()

    @staticmethod
    def _cab_csv(tmp_path):
        """Columns c, a, b, y. b alternates about +-1.7e308, so its max - min
        overflows; c is constant and dropped, so b is feature 1 of a fit but
        column 2 of the file."""
        rng = np.random.default_rng(19)
        a = rng.normal(size=60)
        b = np.where(np.arange(60) % 2 == 0, -1.7e308, 1.7e308) * rng.uniform(0.9, 1.0, 60)
        data = tmp_path / "cab.csv"
        write_csv(Dataset(np.column_stack([np.full(60, 4.0), a, b]), 2.0 * a, ("c", "a", "b")),
                  str(data))
        return data

    def test_fit_refuses_a_chebyshev_range_past_float64_naming_the_feature(self, tmp_path,
                                                                          capsys):
        data = self._cab_csv(tmp_path)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--model", "chebypoly", "--data", str(data), "--target", "y",
                     "--out", str(model_path)]) == 1
        assert "feature 'b': its range max - min overflows float64" in capsys.readouterr().err
        assert not model_path.exists()

    def test_tuned_fit_says_why_every_trial_failed_naming_the_feature(self, tmp_path, capsys):
        data = self._cab_csv(tmp_path)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--model", "chebypoly", "--data", str(data), "--target", "y",
                     "--tune", "--budget", "2", "--out", str(model_path)]) == 1
        assert ("error: all 2 search trials failed; trial 0: feature 'b': its range "
                "max - min overflows float64") in capsys.readouterr().err
        assert not model_path.exists()

    def test_bench_records_why_every_trial_failed(self, tmp_path):
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({
            "datasets": [{"path": str(self._cab_csv(tmp_path)), "target": "y"}],
            "models": ["chebypoly"], "outer_k": 2, "trial_budgets": {"chebypoly": 2}}))
        out_dir = tmp_path / "out"
        assert main(["bench", "--config", str(config), "--out-dir", str(out_dir)]) == 1
        with open(out_dir / "results.jsonl", encoding="utf-8") as fh:
            errors = [r["error"] for r in map(json.loads, fh) if r["record"] == "failure"]
        assert errors == ["fold 0: all 2 search trials failed; trial 0: feature 'b': "
                          "its range max - min overflows float64"]

    def test_fit_refuses_a_repeated_header_name(self, tmp_path, capsys):
        # two different columns both named x0: the fit used to read both, and
        # predict then read the first one twice
        data = tmp_path / "dup.csv"
        data.write_text("x0,x0,y\n" + "".join(f"{a},{b},{3 * a - 5 * b}\n"
                                             for a, b in zip(range(12), range(12, 0, -1))))
        model_path = tmp_path / "model.json"
        assert main(["fit", "--model", "ridge", "--data", str(data), "--target", "y",
                     "--out", str(model_path)]) == 1
        assert f"{data}: column 'x0' appears more than once in the header" in \
            capsys.readouterr().err
        assert not model_path.exists()

    def test_predict_refuses_a_model_file_whose_feature_names_repeat(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        _write_dataset(data, n=50)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--model", "ridge", "--data", str(data), "--target", "y",
                     "--out", str(model_path)]) == 0
        doc = json.loads(model_path.read_text())
        doc["feature_names"][1] = "x0"
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        assert main(["predict", "--model-file", str(model_path), "--data", str(data),
                     "--out", str(out)]) == 1
        assert f"{data}: feature column 'x0' is listed more than once" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_predict_missing_feature_column_fails(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        _write_dataset(data, n=50)
        model_path = tmp_path / "model.json"
        main(["fit", "--model", "ridge", "--data", str(data),
              "--target", "y", "--out", str(model_path)])
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x0", "x1"])
            writer.writerow(["0.1", "0.2"])
        assert main(["predict", "--model-file", str(model_path),
                     "--data", str(bad), "--out", str(tmp_path / "p.csv")]) == 1
        assert "missing feature columns" in capsys.readouterr().err

    def test_fit_and_predict_read_a_utf8_byte_order_mark(self, tmp_path):
        # spreadsheets save "CSV UTF-8" with a BOM; it is no part of the first
        # header name, whether that is the target or a feature, and a model
        # file saved with one reads as the file without it
        ds = _write_dataset(tmp_path / "feature_first.csv", n=50)
        with open(tmp_path / "feature_first.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        with open(tmp_path / "target_first.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([r[-1]] + r[:-1] for r in rows)
        files = []
        for name in ("feature_first", "target_first"):
            plain = tmp_path / f"{name}.csv"
            bom = tmp_path / f"{name}_bom.csv"
            bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
            files += [plain, bom]
        preds = []
        for fit_data in files:
            model_path = tmp_path / f"{fit_data.stem}.json"
            assert main(["fit", "--model", "ridge", "--data", str(fit_data), "--target", "y",
                         "--out", str(model_path)]) == 0
            assert json.loads(model_path.read_text())["feature_names"] == list(ds.feature_names)
            model_bom = tmp_path / f"{fit_data.stem}_model_bom.json"
            model_bom.write_bytes(b"\xef\xbb\xbf" + model_path.read_bytes())
            for model_file, data in itertools.product((model_path, model_bom), files):
                out = tmp_path / "p.csv"
                assert main(["predict", "--model-file", str(model_file), "--data", str(data),
                             "--out", str(out)]) == 0
                preds.append(out.read_bytes())
        assert len(preds) == 32 and len(set(preds)) == 1

    @pytest.mark.parametrize("corrupt, message", [
        # a row of the wrong width
        (lambda m, j: m["weights"][j].pop(),
         "chebyshev model: weights is not a number or a regular array of numbers"),
        (lambda m, j: m["mins"][j].__setitem__(0, float("nan")),
         "chebyshev model: mins holds a non-finite"),
        # a stacked field one row short
        (lambda m, j: m["intercepts"].pop(),
         "chebyshev model: intercepts has shape (1,), expected (2,)"),
        (lambda m, j: m["lo"].__setitem__(j, "abc"),
         "chebyshev model: lo is not a number or a regular array of numbers"),
        (lambda m, j: m["lo"].__setitem__(j, m["hi"][j] + 1.0), "chebyshev model: lo["),
        (_to_leaf_models_layout, "chebytree model: missing field 'mins'"),
    ], ids=["truncated-weights", "nan-mins", "short-intercepts", "string-lo", "lo-above-hi",
            "old-leaf-models-layout"])
    def test_predict_rejects_corrupted_chebytree_leaf(self, tmp_path, capsys,
                                                      corrupt, message):
        data = tmp_path / "train.csv"
        _write_dataset(data, n=80)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--model", "chebytree", "--data", str(data),
                     "--target", "y", "--out", str(model_path),
                     "--param", "max_depth=1", "--param", "complexity=1"]) == 0
        doc = json.loads(model_path.read_text())
        corrupt(doc["model"], _poly_row(doc["model"]))
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        assert main(["predict", "--model-file", str(model_path),
                     "--data", str(data), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_predict_reads_only_the_feature_columns(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        _write_dataset(data, n=60)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--model", "ridge", "--data", str(data),
                     "--target", "y", "--out", str(model_path)]) == 0
        doc = json.loads(model_path.read_text())

        # one row, a non-numeric extra column, and an all-empty feature column
        query = tmp_path / "query.csv"
        query.write_text("label,x0,x1,x2,x3,x4\nabc,0.1,,0.3,0.4,0.5\n")
        out = tmp_path / "preds.csv"
        assert main(["predict", "--model-file", str(model_path),
                     "--data", str(query), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            got = [float(r[0]) for r in list(csv.reader(fh))[1:]]
        X = np.array([[0.1, doc["medians"][1], 0.3, 0.4, 0.5]])
        want = predict_model("ridge", model_from_dict("ridge", doc["model"], 5), X, doc["clip"])
        assert got == want.tolist()

        query.write_text("x0,x1,x2,x3,x4\n")
        assert main(["predict", "--model-file", str(model_path),
                     "--data", str(query), "--out", str(out)]) == 1
        assert "no data rows" in capsys.readouterr().err

    def test_predict_clips_to_the_bound_the_benchmark_scores_with(self, tmp_path):
        data = tmp_path / "train.csv"
        ds = _write_dataset(data, n=200)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--model", "ridge", "--data", str(data),
                     "--target", "y", "--out", str(model_path)]) == 0
        lo, hi = clip_bounds(ds.y)
        assert json.loads(model_path.read_text())["clip"] == [lo, hi]

        # far outside the training box a linear model leaves the bound
        query = tmp_path / "query.csv"
        query.write_text("x0,x1,x2,x3,x4\n50,50,50,50,50\n-50,-50,-50,-50,-50\n")
        out = tmp_path / "preds.csv"
        assert main(["predict", "--model-file", str(model_path),
                     "--data", str(query), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            got = [float(r[0]) for r in list(csv.reader(fh))[1:]]
        assert got == [hi, lo]

    def test_prediction_file_bytes_equal_csv_writer(self, tmp_path, monkeypatch):
        # the model's own predict is replaced, so predict_model's clip still applies
        data = tmp_path / "train.csv"
        ds = _write_dataset(data, n=60)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--model", "ridge", "--data", str(data),
                     "--target", "y", "--out", str(model_path)]) == 0
        lo, hi = clip_bounds(ds.y)
        special = [np.nan, -0.0, 5e-324, 0.1, np.inf, -np.inf, 1.0 / 3.0]
        raw = np.resize(special, ds.n)
        monkeypatch.setattr("smoothbench.linear.RidgeModel.predict", lambda self, X: raw)
        out = tmp_path / "preds.csv"
        assert main(["predict", "--model-file", str(model_path),
                     "--data", str(data), "--out", str(out)]) == 0
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["prediction"])
        for v in np.clip(raw, lo, hi):
            writer.writerow([repr(float(v))])
        assert out.read_bytes() == want.getvalue().encode("utf-8")
        assert b"nan\r\n-0.0\r\n5e-324\r\n" in out.read_bytes()

    @pytest.mark.parametrize("kind, params", [
        ("ridge", {"alpha": 0.5}),
        ("dt", {"max_depth": 4, "min_samples_leaf": 2}),
        ("chebypoly", {"complexity": 3, "alpha": 0.1, "interactions": 1}),
        ("chebytree", {"complexity": 2, "alpha": 0.1, "max_depth": 2}),
        ("erbf", {"n_rbf": 6, "alpha": 0.1}),
        ("chebypoly", {"complexity": 2, "interactions": 2}),
        ("erbf", {"n_rbf": 6, "center_init": "kmeans", "width_init": "local_variance"}),
    ])
    def test_served_predictions_equal_scored_ones(self, tmp_path, kind, params):
        data = tmp_path / "train.csv"
        _write_dataset(data, n=80)
        model_path = tmp_path / "model.json"
        flags = [a for k, v in params.items() for a in ("--param", f"{k}={json.dumps(v)}")]
        assert main(["fit", "--model", kind, "--data", str(data), "--target", "y",
                     "--seed", "3", "--out", str(model_path)] + flags) == 0
        _strict_json(model_path.read_text())  # a leaf's tree threshold used to be NaN
        out = tmp_path / "preds.csv"
        assert main(["predict", "--model-file", str(model_path),
                     "--data", str(data), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            served = np.array([float(r[0]) for r in list(csv.reader(fh))[1:]])

        # the harness path: fit_model, then predict_model clipped to clip_bounds(y)
        ds = load_csv(str(data), "y")
        model = fit_model(kind, ds.X, ds.y, params, seed=3)
        scored = predict_model(kind, model, ds.X, clip_bounds(ds.y))
        assert np.array_equal(served, scored)

    @pytest.mark.parametrize("kind, corrupt, message", [
        ("dt", lambda d: d["model"]["left"].pop(), "left has shape"),
        ("dt", lambda d: d["model"]["left"].__setitem__(0, 999), "left[0] = 999"),
        ("dt", lambda d: d["model"]["right"].__setitem__(0, 0), "right[0] = 0"),
        ("dt", lambda d: d["model"]["feature"].__setitem__(0, -5), "feature[0] = -5"),
        ("dt", lambda d: d["model"]["threshold"].__setitem__(0, float("inf")),
         "threshold"),
        ("dt", lambda d: d["model"]["value"].__setitem__(1, float("nan")), "value"),
        ("ridge", lambda d: d["model"]["weights"].pop(),
         "ridge model: weights has shape (4,), expected (5,)"),
        ("ridge", lambda d: d["model"]["standardizer"]["means"].__setitem__(
            0, float("nan")), "means holds a non-finite"),
        ("ridge", lambda d: d["model"]["standardizer"]["stds"].__setitem__(0, 0.0),
         "stds must be > 0"),
        ("ridge", lambda d: d.pop("clip"), "clip"),
        ("ridge", lambda d: d["clip"].__setitem__(1, float("inf")), "clip"),
        ("ridge", lambda d: d["clip"].reverse(), "clip"),
        ("ridge", lambda d: d["medians"].pop(), "medians"),
        # the model's input width against the file's feature_names
        ("dt", lambda d: d["model"]["feature"].__setitem__(0, 7),
         "feature[0] = 7 is neither the leaf mark -1 nor one of the 5 input features"),
        ("ridge", _drop_last_feature, "ridge model: weights has shape (5,), expected (4,)"),
        ("chebypoly", _drop_last_feature,
         "chebyshev model: mins has shape (1, 5), expected (1, 4)"),
        ("chebytree", _drop_last_feature,
         "tree: feature[3] = 4 is neither the leaf mark -1 nor one of the 4 input features"),
        ("erbf", _drop_last_feature, "centers has shape (6, 5), expected (n, 4)"),
        # chebypoly shapes and numbers
        ("chebypoly", lambda d: d["model"]["weights"][0].pop(),
         "chebyshev model: weights has shape (1, 15), expected (1, 16)"),
        ("chebypoly", lambda d: d["model"].update(
            interactions=1, interaction_feats=[0, 1, 2, 3, 4]),
         "weights has shape (1, 16), expected (1, 26)"),
        ("chebypoly", lambda d: d["model"]["ranges"][0].pop(),
         "chebyshev model: ranges has shape (1, 4), expected (1, 5)"),
        ("chebypoly", lambda d: d["model"].update(
            interactions=1, interaction_feats=[0, 5]), "interaction_feats [0, 5]"),
        ("chebypoly", lambda d: d["model"]["weights"][0].__setitem__(3, float("nan")),
         "weights holds a non-finite"),
        ("chebypoly", lambda d: d["model"]["mins"][0].__setitem__(0, float("-inf")),
         "mins holds a non-finite"),
        ("chebypoly", lambda d: d["model"].__setitem__("y_std", float("inf")),
         "y_std holds a non-finite"),
        # erbf shapes and numbers
        ("erbf", lambda d: d["model"]["centers"].pop(), "sigma has shape (6, 5), expected (5, 5)"),
        ("erbf", lambda d: d["model"]["weights"].pop(), "weights has shape (5,), expected (6,)"),
        ("erbf", lambda d: [d["model"]["standardizer"][k].pop() for k in ("means", "stds")],
         "standardizer: means has shape (4,), expected (5,)"),
        ("erbf", lambda d: d["model"]["standardizer"]["stds"].pop(),
         "standardizer: stds has shape (4,), expected (5,)"),
        ("erbf", lambda d: d["model"]["sigma"][2].__setitem__(1, 0.0), "sigma must be > 0"),
        ("erbf", lambda d: d["model"]["centers"][0].__setitem__(0, float("nan")),
         "centers holds a non-finite"),
        ("erbf", lambda d: d["model"].__setitem__("bias", float("inf")),
         "bias holds a non-finite"),
        # wrong keys and types, reported by registry.model_from_dict
        ("chebypoly", _to_schema_5_chebypoly_layout, "chebypoly model: missing field 'tree'"),
        ("chebypoly", lambda d: d["model"].__setitem__("complexity", "3"),
         "chebyshev model: complexity must be an integer, got '3'"),
        ("chebypoly", lambda d: d["model"].__setitem__("complexity", 2.5),
         "chebyshev model: complexity must be an integer, got 2.5"),
        ("chebypoly", lambda d: d["model"].__setitem__("interactions", True),
         "chebyshev model: interactions must be an integer, got True"),
        ("chebypoly", lambda d: d["model"].update(
            interactions=1, interaction_feats=[0, 1.7, "2"]),
         "chebyshev model: interaction_feats is not a number or a regular array of numbers"),
        ("chebypoly", lambda d: d["model"].update(
            interactions=1, interaction_feats=[0, 1.7]),
         "chebyshev model: interaction_feats[1] = 1.7 is not an integer"),
        ("chebytree", lambda d: d["model"].__setitem__("complexity", 2.9),
         "chebyshev model: complexity must be an integer, got 2.9"),
        ("chebypoly", lambda d: d["model"]["weights"][0].__setitem__(0, True),
         "chebyshev model: weights is not a number or a regular array of numbers"),
        ("chebypoly", lambda d: d["model"].pop("weights"),
         "chebypoly model: missing field 'weights'"),
        ("ridge", lambda d: d["model"].__setitem__("intercept", [1]),
         "ridge model: intercept has shape (1,), expected ()"),
        ("ridge", lambda d: d["model"].__setitem__("standardizer", None),
         "ridge model: 'NoneType' object is not subscriptable"),
        ("ridge", lambda d: d.__setitem__("model", []),
         "ridge model: list indices must be integers"),
        ("ridge", lambda d: d.__setitem__("feature_names", 5),
         "feature_names must be a list of strings, got 5"),
        # tree indices that an int cast would truncate
        ("dt", lambda d: d["model"]["feature"].__setitem__(0, 1.5),
         "feature[0] = 1.5 is not an integer"),
        ("dt", lambda d: d["model"]["left"].__setitem__(0, 1.5),
         "left[0] = 1.5 is not an integer"),
        ("dt", lambda d: d["model"]["right"].__setitem__(0, float("nan")),
         "tree: right holds a non-finite number"),
        # older schemas carried keys the current one dropped; they are refused, not read
        ("chebypoly", lambda d: d.__setitem__("schema_version", 2),
         "model file schema 2 is not supported"),
        ("erbf", lambda d: d.__setitem__("schema_version", 3),
         "model file schema 3 is not supported"),
        ("chebytree", lambda d: d.__setitem__("schema_version", 4),
         "model file schema 4 is not supported: predict reads schema 7; refit the model"),
        ("chebypoly", lambda d: d.__setitem__("schema_version", 5),
         "model file schema 5 is not supported: predict reads schema 7; refit the model"),
        ("chebypoly", _to_schema_6_chebypoly_layout,
         "model file schema 6 is not supported: predict reads schema 7; refit the model"),
        # the basis fields of schema 6 in a schema-7 file
        ("chebypoly", lambda d: _to_schema_6_chebypoly_layout(d).__setitem__(
            "schema_version", 7), "chebypoly model: missing field 'interactions'"),
        # the file's top level
        ("ridge", _wrap_in_list, "model file: expected a JSON object, got list"),
        ("ridge", lambda d: d.__setitem__("kind", ["ridge"]),
         "model file: kind must be one of"),
        ("ridge", lambda d: d.pop("kind"), "model file: missing field 'kind'"),
        ("ridge", lambda d: d.pop("medians"), "model file: missing field 'medians'"),
        ("ridge", lambda d: d.pop("feature_names"), "model file: missing field 'feature_names'"),
        ("ridge", lambda d: d.pop("model"), "model file: missing field 'model'"),
        ("erbf", lambda d: d["model"].__setitem__("fit_info", "ab"),
         "erbf model: fit_info is not an object: 'ab'"),
        # a negative range would scale its feature to 0 and predict wrong numbers
        ("chebypoly", lambda d: d["model"]["ranges"][0].__setitem__(1, -0.5),
         "chebyshev model: ranges[0, 1] = -0.5 is negative"),
        ("chebytree", lambda d: d["model"]["ranges"][_poly_row(d["model"])].__setitem__(
            2, -0.5), "chebyshev model: ranges["),
        # a negative y_std would turn the global clip around and predict one constant
        ("chebypoly", lambda d: d["model"].__setitem__("y_std", -d["model"]["y_std"]),
         "chebyshev model: y_std = -"),
        ("chebytree", lambda d: d["model"].__setitem__("y_std", -d["model"]["y_std"]),
         "chebyshev model: y_std = -"),
    ], ids=["dt-short-left", "dt-child-out-of-range", "dt-child-loops-back",
            "dt-feature-below-leaf-mark", "dt-inf-threshold", "dt-nan-value",
            "ridge-short-weights", "ridge-nan-means", "ridge-zero-std",
            "no-clip", "inf-clip", "clip-lo-above-hi", "short-medians",
            "dt-feature-beyond-width", "ridge-wider-than-names", "chebypoly-wider-than-names",
            "chebytree-wider-than-names", "erbf-wider-than-names",
            "chebypoly-short-weights", "chebypoly-interactions-flag", "chebypoly-short-ranges",
            "chebypoly-interaction-feature-beyond-width", "chebypoly-nan-weight",
            "chebypoly-inf-min", "chebypoly-inf-y-std",
            "erbf-short-centers", "erbf-short-weights", "erbf-short-standardizer",
            "erbf-short-stds", "erbf-zero-width", "erbf-nan-center", "erbf-inf-bias",
            "chebypoly-old-layout", "chebypoly-string-complexity",
            "chebypoly-fractional-complexity", "chebypoly-bool-interaction-complexity",
            "chebypoly-string-interaction-feat", "chebypoly-fractional-interaction-feat",
            "chebytree-fractional-complexity", "chebypoly-bool-weight", "chebypoly-no-weights", "ridge-list-intercept", "ridge-null-standardizer",
            "ridge-model-not-object", "feature-names-not-list", "dt-fractional-feature",
            "dt-fractional-left", "dt-nan-right", "schema-2", "schema-3", "schema-4",
            "schema-5", "schema-6", "schema-6-basis-fields", "file-is-list",
            "kind-is-list", "no-kind", "no-medians", "no-feature-names", "no-model",
            "erbf-string-fit-info", "chebypoly-negative-range", "chebytree-negative-range",
            "chebypoly-negative-y-std", "chebytree-negative-y-std"])
    def test_predict_rejects_corrupted_model_file(self, tmp_path, capsys, kind,
                                                  corrupt, message):
        data = tmp_path / "train.csv"
        _write_dataset(data, n=60)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--model", kind, "--data", str(data), "--target", "y",
                     "--out", str(model_path)]) == 0
        doc = json.loads(model_path.read_text())
        replaced = corrupt(doc)
        model_path.write_text(json.dumps(replaced if corrupt is _wrap_in_list else doc))
        out = tmp_path / "p.csv"
        assert main(["predict", "--model-file", str(model_path),
                     "--data", str(data), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, corrupt, field", [
        ("ridge", lambda m: m["weights"].__setitem__(0, [1.0, 2.0]), "ridge model: weights"),
        ("ridge", lambda m: m["weights"].__setitem__(0, "abc"), "ridge model: weights"),
        ("dt", lambda m: m["value"].__setitem__(0, [1.0, 2.0]), "tree: value"),
        ("dt", lambda m: m["value"].__setitem__(0, "abc"), "tree: value"),
        ("dt", lambda m: m["feature"].__setitem__(0, "abc"), "tree: feature"),
        ("chebypoly", lambda m: m["weights"][0].__setitem__(0, [1.0, 2.0]),
         "chebyshev model: weights"),
        ("chebypoly", lambda m: m["weights"][0].__setitem__(0, "abc"),
         "chebyshev model: weights"),
        ("chebytree", lambda m: m["weights"].__setitem__(_poly_row(m), [1.0, 2.0]),
         "chebyshev model: weights"),
        ("chebytree", lambda m: m["weights"][_poly_row(m)].__setitem__(0, "abc"),
         "chebyshev model: weights"),
        ("erbf", lambda m: m["centers"][2].pop(), "erbf model: centers"),
        ("erbf", lambda m: m["centers"][2].__setitem__(0, "abc"), "erbf model: centers"),
    ], ids=["ridge-ragged", "ridge-string", "dt-ragged", "dt-string", "dt-string-index",
            "chebypoly-ragged", "chebypoly-string", "chebytree-ragged", "chebytree-string",
            "erbf-ragged", "erbf-string"])
    def test_predict_names_the_field_of_a_ragged_or_string_array(self, tmp_path, capsys,
                                                                 kind, corrupt, field):
        data = tmp_path / "train.csv"
        _write_dataset(data, n=80)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--model", kind, "--data", str(data), "--target", "y",
                     "--out", str(model_path)]) == 0
        doc = json.loads(model_path.read_text())
        corrupt(doc["model"])
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        assert main(["predict", "--model-file", str(model_path),
                     "--data", str(data), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{field} is not a number or a regular array of numbers" in err
        assert not out.exists()

    def test_predict_rejects_wrong_schema(self, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps({"schema_version": 99, "kind": "ridge"}))
        data = tmp_path / "d.csv"
        _write_dataset(data, n=50)
        assert main(["predict", "--model-file", str(bad),
                     "--data", str(data), "--out", str(tmp_path / "p.csv")]) == 1
        assert "schema" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes


class TestExitCodes:
    def test_usage_errors_exit_2(self):
        for argv in [[], ["fit"], ["predict"], ["frobnicate"],
                     ["fit", "--model", "nope", "--data", "x", "--target",
                      "y", "--out", "z"]]:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_runtime_errors_exit_1(self, tmp_path, capsys):
        code = main(["fit", "--model", "ridge", "--data",
                     str(tmp_path / "missing.csv"), "--target", "y",
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_budget_without_tune_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        _write_dataset(data, n=50)
        model_path = tmp_path / "m.json"
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--model", "ridge", "--data", str(data), "--target", "y",
                  "--budget", "2", "--out", str(model_path)])
        assert exc.value.code == 2
        assert "--budget needs --tune" in capsys.readouterr().err
        assert not model_path.exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "smoothbench" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# outputs: data.open_output replaces a file instead of truncating it


def _fit_ridge(data, out, alpha=0.5):
    return main(["fit", "--model", "ridge", "--data", str(data), "--target", "y",
                 "--out", str(out), "--param", f"alpha={alpha}"])


def _predict(model, data, out):
    return main(["predict", "--model-file", str(model), "--data", str(data),
                 "--out", str(out)])


class TestOutputs:
    def test_a_rewrite_replaces_the_file_with_the_same_bytes(self, tmp_path):
        data = tmp_path / "train.csv"
        _write_dataset(data)
        model, preds = tmp_path / "model.json", tmp_path / "preds.csv"

        def run(alpha):
            assert _fit_ridge(data, model, alpha) == 0
            assert _predict(model, data, preds) == 0
            return model.read_bytes(), preds.read_bytes()

        first = run(0.5)
        with open(model, "rb") as old_model, open(preds, "rb") as old_preds:
            other = run(50.0)
            assert other[0] != first[0] and other[1] != first[1]
            # a truncated and rewritten file would show these handles the new bytes
            assert (old_model.read(), old_preds.read()) == first
        assert run(0.5) == first

    def test_bench_and_report_rewrite_their_outputs_with_the_same_bytes(self, tmp_path):
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({
            "datasets": [{"synthetic": "friedman1", "name": "syn", "n": 40, "seed": 3}],
            "models": ["ridge", "dt"], "outer_k": 2, "trial_budgets": {"ridge": 1, "dt": 1},
        }))
        out = tmp_path / "out"
        names = ("report.json", "rank_table.csv", "scores_table.csv")
        assert main(["bench", "--config", str(config), "--out-dir", str(out)]) == 0
        first = {name: (out / name).read_bytes() for name in names}
        records = _masked_records(out)
        for _ in range(2):  # onto bench's report files, then onto report's own
            assert main(["report", "--results", str(out / "results.jsonl"),
                         "--out-dir", str(out)]) == 0
            assert {name: (out / name).read_bytes() for name in names} == first
        assert main(["bench", "--config", str(config), "--out-dir", str(out)]) == 0
        assert _masked_records(out) == records
        # report.json holds the run's timings; the tables do not
        for name in ("rank_table.csv", "scores_table.csv"):
            assert (out / name).read_bytes() == first[name], name

    def test_out_may_be_the_null_device(self, tmp_path):
        data = tmp_path / "train.csv"
        _write_dataset(data)
        model = tmp_path / "model.json"
        assert _fit_ridge(data, model) == 0
        assert _fit_ridge(data, os.devnull) == 0
        assert _predict(model, data, os.devnull) == 0
        assert main(["gen", "--kind", "friedman1", "--n", "20", "--out", os.devnull]) == 0
        assert stat.S_ISCHR(os.lstat(os.devnull).st_mode)

    @pytest.mark.parametrize("link", ["symlink", "hard link"])
    def test_a_linked_out_is_written_in_place(self, tmp_path, link):
        data = tmp_path / "train.csv"
        _write_dataset(data)
        model, plain = tmp_path / "model.json", tmp_path / "plain.csv"
        assert _fit_ridge(data, model) == 0
        assert _predict(model, data, plain) == 0
        target, out = tmp_path / "target.csv", tmp_path / "out.csv"
        target.write_text("old\n")
        if link == "symlink":
            out.symlink_to(target)
        else:
            os.link(target, out)
        assert _predict(model, data, out) == 0
        assert out.is_symlink() == (link == "symlink")
        assert target.read_bytes() == out.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("command", ["gen", "fit", "predict"])
    def test_an_out_that_cannot_be_a_file_exits_1_naming_it(self, tmp_path, capsys, command):
        data, model = tmp_path / "train.csv", tmp_path / "model.json"
        _write_dataset(data)
        assert _fit_ridge(data, model) == 0
        (tmp_path / "adir").mkdir()
        for out in (tmp_path / "adir", tmp_path / "missing" / "out.csv"):
            argv = {"gen": ["gen", "--kind", "friedman1", "--n", "20", "--out", str(out)],
                    "fit": ["fit", "--model", "ridge", "--data", str(data), "--target", "y",
                            "--out", str(out)],
                    "predict": ["predict", "--model-file", str(model), "--data", str(data),
                                "--out", str(out)]}[command]
            capsys.readouterr()
            assert main(argv) == 1
            assert str(out) in capsys.readouterr().err
        assert (tmp_path / "adir").is_dir() and not any((tmp_path / "adir").iterdir())
        assert not (tmp_path / "missing").exists()


# ---------------------------------------------------------------------------
# bench / report


def _bench_config(tmp_path, csv_path):
    return {
        "datasets": [
            {"synthetic": "friedman1", "name": "syn", "n": 45,
             "noise_std": 0.3, "seed": 3},
            {"path": str(csv_path), "target": "y", "name": "filed"},
        ],
        # neither list is alphabetical, so a rebuilt report that reorders
        # names cannot match the original
        "models": ["ridge", "dt"],
        "outer_k": 3,
        "outer_seed": 5,
        "search_seed": 2,
        "trial_budgets": {"ridge": 2, "dt": 2},
    }


def _masked_records(out_dir):
    """The records of out_dir/results.jsonl without their timing fields."""
    recs = []
    for line in (out_dir / "results.jsonl").read_text().splitlines():
        rec = json.loads(line)
        for field in ("tune_seconds", "train_seconds", "predict_ms_per_1k"):
            rec.pop(field, None)
        recs.append(rec)
    return recs


class TestBenchReport:
    def test_bench_writes_all_outputs(self, tmp_path, capsys):
        csv_path = tmp_path / "file_ds.csv"
        _write_dataset(csv_path, kind="synthetic_piecewise", n=45, seed=8)
        config = tmp_path / "bench.json"
        config.write_text(json.dumps(_bench_config(tmp_path, csv_path)))
        out_dir = tmp_path / "out"
        code = main(["bench", "--config", str(config), "--out-dir", str(out_dir)])
        assert code == 0
        for fname in ("results.jsonl", "report.json", "rank_table.csv",
                      "scores_table.csv"):
            assert (out_dir / fname).is_file()
        report = json.loads((out_dir / "report.json").read_text())
        assert report["datasets"] == ["syn", "filed"]
        assert report["models"] == ["ridge", "dt"]
        assert report["failures"] == {}
        n_lines = len((out_dir / "results.jsonl").read_text().splitlines())
        assert n_lines == 2 * 2 * 3  # datasets x models x folds
        assert "mean rank" in capsys.readouterr().out

    def test_report_recomputes_identical_report(self, tmp_path):
        csv_path = tmp_path / "file_ds.csv"
        _write_dataset(csv_path, kind="synthetic_piecewise", n=45, seed=8)
        config = tmp_path / "bench.json"
        config.write_text(json.dumps(_bench_config(tmp_path, csv_path)))
        out_dir = tmp_path / "out"
        assert main(["bench", "--config", str(config),
                     "--out-dir", str(out_dir)]) == 0
        redo = tmp_path / "redo"
        assert main(["report", "--results", str(out_dir / "results.jsonl"),
                     "--out-dir", str(redo)]) == 0
        for fname in ("report.json", "rank_table.csv", "scores_table.csv"):
            assert (redo / fname).read_bytes() == (out_dir / fname).read_bytes(), fname
        report = json.loads((redo / "report.json").read_text())
        assert report["datasets"] == ["syn", "filed"]
        assert report["models"] == ["ridge", "dt"]

    def test_two_runs_identical_after_masking_timings(self, tmp_path):
        csv_path = tmp_path / "file_ds.csv"
        _write_dataset(csv_path, kind="synthetic_piecewise", n=45, seed=8)
        config = tmp_path / "bench.json"
        cfg = _bench_config(tmp_path, csv_path)
        cfg["datasets"] = cfg["datasets"][:1]  # keep it quick
        config.write_text(json.dumps(cfg))
        outs = []
        for run in ("a", "b"):
            out_dir = tmp_path / run
            assert main(["bench", "--config", str(config),
                         "--out-dir", str(out_dir)]) == 0
            outs.append(_masked_records(out_dir))
        assert outs[0] == outs[1]
        assert (tmp_path / "a" / "rank_table.csv").read_bytes() == \
               (tmp_path / "b" / "rank_table.csv").read_bytes()
        assert (tmp_path / "a" / "scores_table.csv").read_bytes() == \
               (tmp_path / "b" / "scores_table.csv").read_bytes()

    def test_bench_reads_a_config_with_a_utf8_byte_order_mark(self, tmp_path):
        text = json.dumps({
            "datasets": [{"synthetic": "friedman1", "name": "syn", "n": 40, "seed": 3}],
            "models": ["ridge"], "outer_k": 2, "trial_budgets": {"ridge": 1},
        }).encode("utf-8")
        outs = []
        for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            config = tmp_path / f"{name}.json"
            config.write_bytes(data)
            out_dir = tmp_path / name
            assert main(["bench", "--config", str(config), "--out-dir", str(out_dir)]) == 0
            outs.append(_masked_records(out_dir))
        assert len(outs[0]) == 2 and outs[0] == outs[1]

    def test_report_model_filter(self, tmp_path):
        csv_path = tmp_path / "file_ds.csv"
        _write_dataset(csv_path, kind="synthetic_piecewise", n=45, seed=8)
        config = tmp_path / "bench.json"
        cfg = _bench_config(tmp_path, csv_path)
        cfg["datasets"] = cfg["datasets"][:1]
        config.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert main(["bench", "--config", str(config),
                     "--out-dir", str(out_dir)]) == 0
        only = tmp_path / "only_dt"
        assert main(["report", "--results", str(out_dir / "results.jsonl"),
                     "--out-dir", str(only), "--models", "dt"]) == 0
        report = json.loads((only / "report.json").read_text())
        assert report["models"] == ["dt"]

    def test_report_refuses_a_model_no_record_has(self, tmp_path, capsys):
        # a misspelt model used to drop out of the report without a word
        csv_path = tmp_path / "file_ds.csv"
        _write_dataset(csv_path, kind="synthetic_piecewise", n=45, seed=8)
        config = tmp_path / "bench.json"
        cfg = _bench_config(tmp_path, csv_path)
        cfg["datasets"] = cfg["datasets"][:1]
        config.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert main(["bench", "--config", str(config),
                     "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        rebuilt = tmp_path / "rebuilt"
        code = main(["report", "--results", str(out_dir / "results.jsonl"),
                     "--out-dir", str(rebuilt), "--models", "dt,ghost,chebpoly"])
        assert code == 1
        err = capsys.readouterr().err
        assert "['ghost', 'chebpoly']" in err and "['ridge', 'dt']" in err
        assert not rebuilt.exists()

    def test_report_filter_to_nothing_fails(self, tmp_path, capsys):
        csv_path = tmp_path / "file_ds.csv"
        _write_dataset(csv_path, kind="synthetic_piecewise", n=45, seed=8)
        config = tmp_path / "bench.json"
        cfg = _bench_config(tmp_path, csv_path)
        cfg["datasets"] = cfg["datasets"][:1]
        config.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert main(["bench", "--config", str(config),
                     "--out-dir", str(out_dir)]) == 0
        code = main(["report", "--results", str(out_dir / "results.jsonl"),
                     "--out-dir", str(tmp_path / "x"), "--models", "ghost"])
        assert code == 1
        assert "no records left" in capsys.readouterr().err

    def test_config_validation(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"datasets": []}))
        assert main(["bench", "--config", str(bad),
                     "--out-dir", str(tmp_path / "o")]) == 1

        bad.write_text(json.dumps({
            "datasets": [{"synthetic": "friedman1", "n": 45}],
            "models": ["ridge", "mystery"],
        }))
        assert main(["bench", "--config", str(bad),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert "unknown model kind" in capsys.readouterr().err

        bad.write_text(json.dumps({
            "datasets": [
                {"synthetic": "friedman1", "name": "dup", "n": 45},
                {"synthetic": "synthetic_step", "name": "dup", "n": 45},
            ],
            "models": ["ridge"],
        }))
        assert main(["bench", "--config", str(bad),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert "unique" in capsys.readouterr().err

        bad.write_text(json.dumps({
            "datasets": [{"path": str(tmp_path / "nope.csv")}],
            "models": ["ridge"],
        }))
        assert main(["bench", "--config", str(bad),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert "target" in capsys.readouterr().err

    def test_bench_refuses_a_path_dataset_with_a_repeated_header_name(self, tmp_path, capsys):
        data = tmp_path / "dup.csv"
        data.write_text("a,b,a,y\n" + "".join(f"{i},{i % 3},{i * i % 7},{2 * i}\n"
                                               for i in range(40)))
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({"datasets": [{"path": str(data), "target": "y"}],
                                      "models": ["ridge"], "outer_k": 2,
                                      "trial_budgets": {"ridge": 1}}))
        out_dir = tmp_path / "out"
        assert main(["bench", "--config", str(config), "--out-dir", str(out_dir)]) == 1
        assert f"{data}: column 'a' appears more than once in the header" in \
            capsys.readouterr().err
        assert not (out_dir / "results.jsonl").exists()

    @pytest.mark.parametrize("noise", [math.inf, math.nan])
    def test_bench_refuses_a_non_finite_noise_std(self, tmp_path, capsys, noise):
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({
            "datasets": [{"synthetic": "friedman1", "n": 45, "noise_std": noise}],
            "models": ["ridge"], "outer_k": 2, "trial_budgets": {"ridge": 1}}))
        out_dir = tmp_path / "out"
        assert main(["bench", "--config", str(config), "--out-dir", str(out_dir)]) == 1
        assert f"noise_std must be non-negative and finite, got {noise}" in \
            capsys.readouterr().err
        assert not (out_dir / "results.jsonl").exists()

    def test_bench_refuses_parallel_below_one(self, tmp_path, capsys):
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({
            "datasets": [{"synthetic": "friedman1", "n": 45}],
            "models": ["ridge"], "outer_k": 2, "trial_budgets": {"ridge": 1}}))
        out_dir = tmp_path / "out"
        assert main(["bench", "--config", str(config), "--out-dir", str(out_dir),
                     "--parallel", "0"]) == 1
        assert "parallel must be >= 1, got 0" in capsys.readouterr().err
        assert not (out_dir / "results.jsonl").exists()

    @pytest.mark.parametrize("edit, message", [
        ({"datasets": ["synthetic"]}, "datasets[0] needs either 'synthetic' or 'path'"),
        ({"trial_budgets": [2]}, "trial_budgets must be a JSON object, got [2]"),
        ({"trial_budgets": {"ridge": "2"}}, "trial_budgets.ridge must be an integer >= 1"),
        ({"trial_budgets": {"ridg": 2}}, "unknown key(s) ['ridg'] in trial_budgets;"),
        ({"outer_kk": 3}, "unknown key(s) ['outer_kk']"),
        ({"trial_budget": {"ridge": 2}}, "unknown key(s) ['trial_budget']"),
        ({"datasets": [{"synthetic": "friedman1", "n_samples": 45}]},
         "unknown key(s) ['n_samples'] in datasets[0];"),
        ({"outer_k": 3.7}, "outer_k must be an integer >= 2, got 3.7"),
        ({"outer_seed": True}, "outer_seed must be an integer >= 0, got True"),
        ({"datasets": [{"synthetic": "friedman1", "n": 45.5}]},
         "datasets[0].n must be an integer >= 2"),
        ({"datasets": [{"path": 3, "target": "y"}]}, "datasets[0].path must be a string"),
        ({"models": ["ridge", "ridge"]}, "model kinds must be unique"),
        ({"models": []}, "bench config needs a non-empty 'models' list, got []"),
        ({"models": "ridge"}, "bench config needs a non-empty 'models' list, got 'ridge'"),
    ], ids=["dataset-not-object", "budgets-not-object", "budget-not-int",
            "budget-unknown-kind", "misspelt-outer_k", "misspelt-trial_budgets",
            "misspelt-dataset-n", "fractional-outer_k", "bool-seed", "fractional-n",
            "path-not-string", "duplicate-model", "empty-models", "models-not-list"])
    def test_malformed_config_exits_1_naming_the_key(self, tmp_path, capsys, edit, message):
        cfg = {"datasets": [{"synthetic": "friedman1", "n": 45}], "models": ["ridge"],
               "outer_k": 2, "trial_budgets": {"ridge": 1}}
        cfg.update(edit)
        config = tmp_path / "bench.json"
        config.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert main(["bench", "--config", str(config), "--out-dir", str(out_dir)]) == 1
        assert message in capsys.readouterr().err
        assert not (out_dir / "results.jsonl").exists()

    @pytest.mark.parametrize("line, message", [
        ("[]", ":2: expected a JSON object, got list"),
        ("{not json", ":2: not a JSON record"),
        ('{"record": "fold", "schema_version": 1, "dataset": "d", "fold": 0}',
         ":2: fold record is missing ['model', "),
        ('{"record": "failure", "schema_version": 1, "dataset": "d", "model": "m"}',
         ":2: failure record is missing ['error']"),
        # values of the wrong JSON type, checked against FoldResult's annotations
        (_fold_line(test_r2_adj="0.7"), ":2: test_r2_adj must be a number, got '0.7'"),
        (_fold_line(fold="0"), ":2: fold must be an integer, got '0'"),
        (_fold_line(fold=1.0), ":2: fold must be an integer, got 1.0"),
        (_fold_line(fold=False), ":2: fold must be an integer, got False"),
        (_fold_line(gap=True), ":2: gap must be a number, got True"),
        (_fold_line(model=3), ":2: model must be a string, got 3"),
        (_fold_line(best_params=[]), ":2: best_params must be an object, got []"),
        ('{"record": "failure", "schema_version": 1, "dataset": "d", "model": "m", '
         '"error": 5}', ":2: error must be a string, got 5"),
        # a record type that is not a string, a schema version that is a bool
        (_fold_line(record={"fold": 1}), ":2: unknown record type {'fold': 1}"),
        (_fold_line(record=["fold"]), ":2: unknown record type ['fold']"),
        (_fold_line(schema_version=True), ":2: unsupported results schema: True"),
        # non-finite numbers, which json reads by default and bench never writes
        (_fold_line(test_r2_adj=float("nan")), ":2: test_r2_adj must be finite, got nan"),
        (_fold_line(test_r2=float("inf")), ":2: test_r2 must be finite, got inf"),
        (_fold_line(gap=float("-inf")), ":2: gap must be finite, got -inf"),
        (_fold_line(best_params={"alpha": float("nan")}),
         ":2: best_params must be finite, got {'alpha': nan}"),
        (_fold_line(best_params={"n_rbf": [8, float("inf")]}),
         ":2: best_params must be finite, got {'n_rbf': [8, inf]}"),
    ], ids=["list", "not-json", "fold-without-model", "failure-without-error", "string-score",
            "string-fold", "float-fold", "bool-fold", "bool-gap", "number-model",
            "list-params", "number-error", "object-record", "list-record", "bool-schema",
            "nan-score", "inf-score", "minus-inf-gap", "nan-param", "nested-inf-param"])
    def test_report_on_malformed_results_exits_1_naming_the_line(self, tmp_path, capsys,
                                                                 line, message):
        results = tmp_path / "results.jsonl"
        results.write_text('{"record": "failure", "schema_version": 1, "dataset": "d", '
                           '"model": "m", "error": "boom"}\n' + line + "\n")
        assert main(["report", "--results", str(results),
                     "--out-dir", str(tmp_path / "rep")]) == 1
        assert f"{results}{message}" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank-lines"])
    def test_report_on_a_results_file_without_records_exits_1(self, tmp_path, capsys, text):
        results = tmp_path / "results.jsonl"
        results.write_text(text)
        assert main(["report", "--results", str(results),
                     "--out-dir", str(tmp_path / "rep")]) == 1
        assert f"{results}: no records" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_report_refuses_a_string_fold_beside_an_integer_one(self, tmp_path, capsys):
        # "0" and 0 would make two folds, and score both pairs null as missing folds
        results = tmp_path / "results.jsonl"
        results.write_text(_fold_line(model="a") + "\n" + _fold_line(model="b", fold="0") + "\n")
        assert main(["report", "--results", str(results),
                     "--out-dir", str(tmp_path / "rep")]) == 1
        assert f"{results}:2: fold must be an integer, got '0'" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()
