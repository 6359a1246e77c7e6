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

from ..data import Dataset, FoldPlan, impute_median, inner_fold_count, kfold_split
from ..registry import fit_model, predict_model
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


def tune(kind: str, X: np.ndarray, y: np.ndarray, plan: FoldPlan, fit_seed: int,
         search_seed: int, budget: Optional[int]) -> Dict[str, Any]:
    """Random search over kind's space; each trial scores its mean inner-CV adjusted R².

    Every fit uses fit_seed, and every fold's predictions are clipped to its
    own training targets. Raises ValueError when every trial failed.
    """
    d = X.shape[1]

    def objective(params: Dict[str, Any]) -> float:
        scores = []
        for fold in range(plan.outer_k):
            itr, ival = plan.train_indices(fold), plan.test_indices(fold)
            model = fit_model(kind, X[itr], y[itr], params, seed=fit_seed)
            preds = clip_predictions(predict_model(kind, model, X[ival]), y[itr])
            scores.append(adjusted_r2(r2(y[ival], preds), len(ival), d))
        return float(np.mean(scores))

    best_params, _, trials = random_search(objective, search_space(kind), seed=search_seed,
                                           budget=budget)
    if all(t.score == FAILURE_SCORE for t in trials):
        # refitting trial 0's params would score a failed search as a success
        raise ValueError(f"all {len(trials)} search trials failed")
    return best_params


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

    X_tr, y_tr = train.X, train.y
    X_te, y_te = test.X, test.y
    n_tr = X_tr.shape[0]
    inner_plan = kfold_split(n_tr, inner_fold_count(n_tr),
                             seed=config.outer_seed + 1000 * (fold + 1))
    fit_seed = _fit_seed(config, fold)

    t0 = time.perf_counter()
    best_params = tune(kind, X_tr, y_tr, inner_plan, fit_seed,
                       config.search_seed + fold, config.budget_for(kind))
    tune_seconds = time.perf_counter() - t0

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
