"""Nested cross-validation benchmark loop.

Outer folds estimate generalisation; each outer training split runs its own
random hyperparameter search scored by inner cross-validation, then refits the
winning configuration on the full outer training split. All per-fold work is
independent and deterministic given the config seeds, so folds can run in
parallel processes and merge by key.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..data import Dataset, Standardizer, impute_median, inner_fold_count, kfold_split
from ..registry import HARNESS_STANDARDIZED, fit_model, predict_model
from .metrics import FAILURE_SCORE, adjusted_r2, clip_predictions, r2
from .search import random_search, search_space


@dataclass(frozen=True)
class BenchRunConfig:
    outer_k: int = 5
    outer_seed: int = 42
    search_seed: int = 0
    # optional per-model trial budget overrides (handy for smoke tests)
    trial_budgets: Optional[Dict[str, int]] = None

    def budget_for(self, kind: str) -> Optional[int]:
        if self.trial_budgets is None:
            return None
        return self.trial_budgets.get(kind)


@dataclass
class FoldResult:
    dataset: str
    model: str
    fold: int
    train_r2: float
    test_r2: float
    test_r2_adj: float
    gap: float
    tune_seconds: float
    train_seconds: float
    predict_ms_per_1k: float
    best_params: Dict[str, Any] = field(default_factory=dict)


def _fit_seed(config: BenchRunConfig, fold: int) -> int:
    # one model seed per outer fold, shared by every trial and the refit
    return config.outer_seed + 7919 * (fold + 1)


def run_outer_fold(
    name: str,
    ds: Dataset,
    kind: str,
    fold: int,
    assignments: np.ndarray,
    config: BenchRunConfig,
) -> FoldResult:
    """Tune, refit and score one (dataset, model, outer-fold) cell."""
    train_idx = np.flatnonzero(assignments != fold)
    test_idx = np.flatnonzero(assignments == fold)
    train_raw = ds.select_rows(train_idx)
    test_raw = ds.select_rows(test_idx)
    train = impute_median(train_raw, train_raw)
    test = impute_median(train_raw, test_raw)
    train.require_finite()
    test.require_finite()

    if kind in HARNESS_STANDARDIZED:
        std = Standardizer().fit(train.X)
        X_tr, X_te = std.apply(train.X), std.apply(test.X)
    else:
        X_tr, X_te = train.X, test.X
    y_tr, y_te = train.y, test.y
    n_tr = X_tr.shape[0]

    inner_k = inner_fold_count(n_tr)
    inner_plan = kfold_split(n_tr, inner_k, seed=config.outer_seed + 1000 * (fold + 1))
    fit_seed = _fit_seed(config, fold)

    def objective(params: Dict[str, Any]) -> float:
        scores = []
        for inner in range(inner_k):
            itr = inner_plan.train_indices(inner)
            ival = inner_plan.test_indices(inner)
            model = fit_model(kind, X_tr[itr], y_tr[itr], params, seed=fit_seed)
            preds = predict_model(kind, model, X_tr[ival])
            preds = clip_predictions(preds, y_tr[itr])
            scores.append(adjusted_r2(r2(y_tr[ival], preds), len(ival), ds.d))
        return float(np.mean(scores))

    space = search_space(kind)
    t0 = time.perf_counter()
    best_params, _, trials = random_search(
        objective, space, seed=config.search_seed + fold,
        budget=config.budget_for(kind),
    )
    tune_seconds = time.perf_counter() - t0
    if all(t.score == FAILURE_SCORE for t in trials):
        # refitting trial 0's params would score a failed search as a success
        raise RuntimeError(f"all {len(trials)} search trials failed")

    t0 = time.perf_counter()
    model = fit_model(kind, X_tr, y_tr, best_params, seed=fit_seed)
    train_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    preds_te = predict_model(kind, model, X_te)
    predict_ms_per_1k = (time.perf_counter() - t0) * 1e6 / max(1, len(y_te))

    preds_te = clip_predictions(preds_te, y_tr)
    preds_tr = clip_predictions(predict_model(kind, model, X_tr), y_tr)
    train_r2 = r2(y_tr, preds_tr)
    test_r2 = r2(y_te, preds_te)
    return FoldResult(
        dataset=name,
        model=kind,
        fold=fold,
        train_r2=train_r2,
        test_r2=test_r2,
        test_r2_adj=adjusted_r2(test_r2, len(y_te), ds.d),
        gap=train_r2 - test_r2,
        tune_seconds=tune_seconds,
        train_seconds=train_seconds,
        predict_ms_per_1k=predict_ms_per_1k,
        best_params=dict(best_params),
    )


def nested_cv_run(
    name: str,
    ds: Dataset,
    kind: str,
    config: BenchRunConfig = BenchRunConfig(),
) -> Tuple[List[FoldResult], Optional[str]]:
    """All outer folds of one (dataset, model) pair, serially.

    Returns (fold_results, error). Any fold failure marks the whole pair
    failed for ranking; successfully completed folds are still returned.
    """
    plan = kfold_split(ds.n, config.outer_k, config.outer_seed)
    results: List[FoldResult] = []
    error: Optional[str] = None
    for fold in range(config.outer_k):
        try:
            results.append(run_outer_fold(name, ds, kind, fold, plan.assignments, config))
        except Exception as exc:  # noqa: BLE001 - failure is data here
            error = f"fold {fold}: {exc}"
            break
    return results, error


def run_benchmark(
    datasets: List[Tuple[str, Dataset]],
    kinds: List[str],
    config: BenchRunConfig = BenchRunConfig(),
    parallel: int = 1,
) -> Tuple[List[FoldResult], Dict[Tuple[str, str], str]]:
    """Run every (dataset, model, outer fold) cell, optionally in parallel.

    Returns fold results sorted by (dataset order, model order, fold) plus a
    map of failed (dataset, model) pairs to their first error message.
    """
    tasks = []
    plans = {}
    for name, ds in datasets:
        plans[name] = kfold_split(ds.n, config.outer_k, config.outer_seed)
        for kind in kinds:
            for fold in range(config.outer_k):
                tasks.append((name, ds, kind, fold))

    outcomes: Dict[Tuple[str, str, int], FoldResult] = {}
    failures: Dict[Tuple[str, str], str] = {}

    def record_failure(name: str, kind: str, fold: int, exc: Exception) -> None:
        key = (name, kind)
        if key not in failures:
            failures[key] = f"fold {fold}: {exc}"

    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            futures = {
                pool.submit(run_outer_fold, name, ds, kind, fold,
                            plans[name].assignments, config): (name, kind, fold)
                for name, ds, kind, fold in tasks
            }
            for fut, (name, kind, fold) in futures.items():
                try:
                    outcomes[(name, kind, fold)] = fut.result()
                except Exception as exc:  # noqa: BLE001
                    record_failure(name, kind, fold, exc)
    else:
        for name, ds, kind, fold in tasks:
            try:
                outcomes[(name, kind, fold)] = run_outer_fold(
                    name, ds, kind, fold, plans[name].assignments, config)
            except Exception as exc:  # noqa: BLE001
                record_failure(name, kind, fold, exc)

    ds_order = {name: i for i, (name, _) in enumerate(datasets)}
    kind_order = {k: i for i, k in enumerate(kinds)}
    results = [
        outcomes[key] for key in sorted(
            outcomes, key=lambda k: (ds_order[k[0]], kind_order[k[1]], k[2]))
    ]
    # keep failure ordering deterministic too
    failures = {
        key: failures[key] for key in sorted(
            failures, key=lambda k: (ds_order[k[0]], kind_order[k[1]]))
    }
    return results, failures
