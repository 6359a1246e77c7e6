"""What the traced run wraps, and how spans and counters become per-layer metrics.

Each target is (module where the call is made, attribute, span name, hook).
A span name may be a function of the call's arguments, which is how
``registry.fit_model.<kind>`` splits by model kind.
"""

from __future__ import annotations

from typing import Dict

from tracer import Tracer

MODEL_KINDS = ("ridge", "dt", "chebypoly", "chebytree", "erbf")


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _elements(key: str, x_pos: int, c_pos: int):
    """Count n*K*d elements per call: rows of X times the size of the centres."""
    def hook(tr: Tracer, args, kwargs, result):
        X = _arg(args, kwargs, x_pos, "X")
        centers = _arg(args, kwargs, c_pos, "centers")
        tr.add(key + ".elems", X.shape[0] * centers.size)
    return hook


def _distinct(key: str):
    def hook(tr: Tracer, args, kwargs, result):
        tr.note_input(key, args, kwargs)
    return hook


def _lbfgs(tr: Tracer, args, kwargs, result):
    tr.add("numkit.lbfgs_minimize.iterations", result.iterations)
    tr.add("numkit.lbfgs_minimize.converged", bool(result.converged))


def _ridge(tr: Tracer, args, kwargs, result):
    n, p = _arg(args, kwargs, 0, "Phi").shape
    # computed, not counted: Gram matrix n*p^2 plus Cholesky p^3/3
    tr.add("numkit.ridge_solve.flop", n * p * p + p ** 3 / 3.0)
    key = "numkit.ridge_solve.p_max"
    tr.counters[key] = max(tr.counters[key], p)


def _design(tr: Tracer, args, kwargs, result):
    tr.add("chebyshev.build_design_matrix.cells", result.matrix.size)


def _cart(tr: Tracer, args, kwargs, result):
    tr.add("cart.cart_fit.nodes", result.n_nodes)


def _chebytree(tr: Tracer, args, kwargs, result):
    leaves = list(result.leaf_models.values())
    tr.add("chebytree.leaves", len(leaves))
    tr.add("chebytree.const_leaves", sum(isinstance(m, float) for m in leaves))


def _predict_rows(tr: Tracer, args, kwargs, result):
    kind = _arg(args, kwargs, 0, "kind")
    tr.add(f"registry.predict_model.{kind}.rows", _arg(args, kwargs, 2, "X").shape[0])


def _search(tr: Tracer, args, kwargs, result):
    from smoothbench.harness import FAILURE_SCORE

    trials = result[2]
    tr.add("search.trials", len(trials))
    tr.add("search.trials_failed", sum(t.score == FAILURE_SCORE for t in trials))


def _by_kind(prefix: str):
    return lambda args, kwargs: f"{prefix}.{_arg(args, kwargs, 0, 'kind')}"


TARGETS = [
    # harness: nested CV, search, registry dispatch, reports
    ("smoothbench.harness", "run_benchmark", "nested_cv.run_benchmark", None),
    ("smoothbench.harness.nested_cv", "run_outer_fold", "nested_cv.run_outer_fold", None),
    ("smoothbench.harness.nested_cv", "impute_median", "nested_cv.impute_median", None),
    ("smoothbench.harness.nested_cv", "random_search", "search.random_search", _search),
    ("smoothbench.harness.nested_cv", "fit_model", _by_kind("registry.fit_model"), None),
    ("smoothbench.harness.nested_cv", "predict_model", _by_kind("registry.predict_model"),
     _predict_rows),
    ("smoothbench.harness", "build_report", "report.build_report", None),
    ("smoothbench.harness", "write_results_jsonl", "report.write_results_jsonl", None),
    ("smoothbench.harness", "write_report_files", "report.write_report_files", None),
    # command line
    ("smoothbench.cli", "cmd_gen", "cli.cmd_gen", None),
    ("smoothbench.cli", "cmd_fit", "cli.cmd_fit", None),
    ("smoothbench.cli", "cmd_predict", "cli.cmd_predict", None),
    ("smoothbench.cli", "_tune_params", "cli._tune_params", None),
    ("smoothbench.cli", "random_search", "search.random_search", _search),
    ("smoothbench.cli", "fit_model", _by_kind("registry.fit_model"), None),
    ("smoothbench.cli", "predict_model", _by_kind("registry.predict_model"), _predict_rows),
    ("smoothbench.cli", "model_from_dict", "registry.model_from_dict", None),
    ("smoothbench.cli", "load_csv", "data.load_csv", None),
    ("smoothbench.cli", "_load_feature_matrix", "cli._load_feature_matrix", None),
    ("smoothbench.cli", "write_csv", "data.write_csv", None),
    ("smoothbench.cli", "gen", "synth.gen", None),
    # model fits as the registry dispatches them
    ("smoothbench.registry", "fit_ridge", "linear.fit_ridge", None),
    ("smoothbench.registry", "cart_fit", "cart.cart_fit", _cart),
    ("smoothbench.registry", "cart_predict", "cart.cart_predict", None),
    ("smoothbench.registry", "fit_chebypoly", "chebypoly.fit_chebypoly", None),
    ("smoothbench.registry", "fit_chebytree", "chebytree.fit_chebytree", _chebytree),
    ("smoothbench.registry", "fit_erbf", "erbf.fit_erbf", None),
    # trees
    ("smoothbench.chebytree", "cart_fit", "cart.cart_fit", _cart),
    ("smoothbench.chebytree", "cart_route", "cart.cart_route", None),
    ("smoothbench.chebytree", "fit_chebypoly", "chebypoly.fit_chebypoly", None),
    ("smoothbench.cart", "cart_route", "cart.cart_route", None),
    # Chebyshev design matrices and ridge
    ("smoothbench.chebypoly", "build_design_matrix", "chebyshev.build_design_matrix", _design),
    ("smoothbench.chebypoly", "ridge_solve", "numkit.ridge_solve", _ridge),
    ("smoothbench.linear", "ridge_solve", "numkit.ridge_solve", _ridge),
    # erbf stages and their numkit kernels
    ("smoothbench.erbf", "place_centers", "erbf.place_centers", None),
    ("smoothbench.erbf", "local_lipschitz", "erbf.local_lipschitz",
     _distinct("erbf.local_lipschitz")),
    ("smoothbench.erbf", "kmeans", "numkit.kmeans", _distinct("numkit.kmeans")),
    ("smoothbench.erbf", "init_widths", "erbf.init_widths", None),
    ("smoothbench.erbf", "knn_indices", "numkit.knn_indices", None),
    ("smoothbench.erbf", "erbf_activations", "erbf.erbf_activations",
     _elements("erbf.erbf_activations", 0, 1)),
    ("smoothbench.erbf", "erbf_loss_and_grad", "erbf.erbf_loss_and_grad",
     _elements("erbf.erbf_loss_and_grad", 1, 3)),
    ("smoothbench.erbf", "lbfgs_minimize", "numkit.lbfgs_minimize", _lbfgs),
    ("smoothbench.erbf", "ridge_solve", "numkit.ridge_solve", _ridge),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (names as in BENCHMARK.json)."""
    spans = tr.summary()
    c = tr.counters

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def busy_s(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    m: Dict[str, float] = {}
    for name in ("erbf.erbf_loss_and_grad", "erbf.erbf_activations"):
        m[name + ".calls"] = calls(name)
        m[name + ".self_s"] = self_s(name)
        m[name + ".ns_per_elem"] = _ratio(self_s(name) * 1e9, c[name + ".elems"])
    m["erbf.place_centers.self_s"] = self_s("erbf.place_centers")
    for name in ("erbf.local_lipschitz", "numkit.kmeans"):
        m[name + ".calls"] = calls(name)
        m[name + ".self_s"] = self_s(name)
        m[name + ".distinct_frac"] = _ratio(len(tr.distinct[name]), calls(name))
    m["erbf.init_widths.self_s"] = self_s("erbf.init_widths")
    m["numkit.knn_indices.calls"] = calls("numkit.knn_indices")
    m["numkit.knn_indices.self_s"] = self_s("numkit.knn_indices")
    lb = "numkit.lbfgs_minimize"
    m[lb + ".calls"] = calls(lb)
    m[lb + ".self_s"] = self_s(lb)
    m[lb + ".iterations_mean"] = _ratio(c[lb + ".iterations"], calls(lb))
    m[lb + ".converged_frac"] = _ratio(c[lb + ".converged"], calls(lb))
    # loss evaluations per accepted L-BFGS step: the excess is line-search work
    m["erbf.evals_per_iter"] = _ratio(calls("erbf.erbf_loss_and_grad"), c[lb + ".iterations"])

    rs = "numkit.ridge_solve"
    m[rs + ".calls"] = calls(rs)
    m[rs + ".self_s"] = self_s(rs)
    m[rs + ".p_max"] = c[rs + ".p_max"]
    m[rs + ".gflop"] = c[rs + ".flop"] * 1e-9
    m[rs + ".gflop_per_s"] = _ratio(c[rs + ".flop"] * 1e-9, self_s(rs))
    dm = "chebyshev.build_design_matrix"
    m[dm + ".calls"] = calls(dm)
    m[dm + ".self_s"] = self_s(dm)
    m[dm + ".mcells"] = c[dm + ".cells"] * 1e-6

    m["cart.cart_fit.calls"] = calls("cart.cart_fit")
    m["cart.cart_fit.self_s"] = self_s("cart.cart_fit")
    m["cart.cart_fit.nodes"] = c["cart.cart_fit.nodes"]
    m["cart.cart_route.self_s"] = self_s("cart.cart_route")
    m["chebytree.fit_chebytree.self_s"] = self_s("chebytree.fit_chebytree")
    m["chebytree.const_leaf_frac"] = _ratio(c["chebytree.const_leaves"], c["chebytree.leaves"])
    m["chebypoly.fit_chebypoly.self_s"] = self_s("chebypoly.fit_chebypoly")

    for kind in MODEL_KINDS:
        fit, pred = f"registry.fit_model.{kind}", f"registry.predict_model.{kind}"
        m[fit + ".calls"] = calls(fit)
        m[fit + ".busy_s"] = busy_s(fit)
        m[pred + ".rows"] = c[pred + ".rows"]
        m[pred + ".busy_s"] = busy_s(pred)
    m["search.random_search.self_s"] = self_s("search.random_search")
    m["search.trials"] = c["search.trials"]
    m["search.trials_failed"] = c["search.trials_failed"]
    m["nested_cv.run_outer_fold.self_s"] = self_s("nested_cv.run_outer_fold")
    m["nested_cv.impute_s"] = busy_s("nested_cv.impute_median")
    for name in ("build_report", "write_results_jsonl", "write_report_files"):
        m[f"report.{name}.self_s"] = self_s(f"report.{name}")

    # every CSV reader the CLI uses, so the metric survives merging them
    m["data.csv_read_s"] = self_s("data.load_csv") + self_s("cli._load_feature_matrix")
    m["data.write_csv.self_s"] = self_s("data.write_csv")
    m["registry.model_from_dict.self_s"] = self_s("registry.model_from_dict")
    m["cli.cmd_fit.self_s"] = self_s("cli.cmd_fit")
    m["cli.cmd_predict.self_s"] = self_s("cli.cmd_predict")
    m["trace.spans"] = len(tr.spans)
    m["trace.absent"] = len(tr.absent)
    return m
