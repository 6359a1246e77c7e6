"""Nested cross-validation benchmark loop.

Outer folds estimate generalisation; each outer training split runs its own
random hyperparameter search scored by inner cross-validation, then refits the
winning configuration on the full outer training split. All per-fold work is
independent and deterministic given the config seeds, so folds can run in
parallel processes; results are collected in cell order either way.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..context import FitContext
from ..data import Dataset, FoldPlan, column_medians, impute_median, inner_fold_count, kfold_split
from ..registry import fit_model, predict_model
from .metrics import FAILURE_SCORE, adjusted_r2, clip_bounds, r2
from .search import random_search, search_space


@dataclass(frozen=True)
class BenchRunConfig:
    outer_k: int = 5
    outer_seed: int = 42
    search_seed: int = 0
    # per-model trial budget overrides (handy for smoke tests)
    trial_budgets: Dict[str, int] = field(default_factory=dict)


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


def tune(kind: str, X: np.ndarray, y: np.ndarray, plan_seed: int, fit_seed: int,
         search_seed: int, budget: Optional[int]) -> Dict[str, Any]:
    """Random search over kind's space; each trial scores its mean inner-CV adjusted R².

    The inner folds are kfold_split(n, inner_fold_count(n), plan_seed) over
    the n rows of X. Every fit uses fit_seed, and every fold's predictions
    are clipped to its own training targets. Each fold's arrays and bounds
    are built once for all trials and are read-only, so a fit that writes
    into its inputs fails instead of changing later trials. Each fold's
    training arrays get one FitContext, which every trial's fit on them
    shares and which is dropped when the search ends. Raises ValueError
    when every trial failed.
    """
    n, d = X.shape
    plan = kfold_split(n, inner_fold_count(n), plan_seed)
    folds = []
    for fold in range(plan.outer_k):
        itr, ival = plan.train_indices(fold), plan.test_indices(fold)
        arrays = X[itr], y[itr], X[ival], y[ival]
        for a in arrays:
            a.flags.writeable = False
        folds.append((*arrays, clip_bounds(y[itr]), FitContext(arrays[0], arrays[1])))

    def objective(params: Dict[str, Any]) -> float:
        scores = []
        for X_tr, y_tr, X_val, y_val, bounds, ctx in folds:
            model = fit_model(kind, X_tr, y_tr, params, seed=fit_seed, ctx=ctx)
            preds = predict_model(kind, model, X_val, bounds)
            scores.append(adjusted_r2(r2(y_val, preds), len(y_val), d))
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
    plan: FoldPlan,
    config: BenchRunConfig,
) -> FoldResult:
    """Tune, refit and score one (dataset, model, outer-fold) cell of the outer plan.

    A constant training or test target (R² undefined), or a non-finite
    test_r2_adj or gap, raises ValueError, so the cell becomes a failure
    record instead of a score.
    """
    train_raw = ds.select_rows(plan.train_indices(fold))
    medians = column_medians(train_raw)
    train = impute_median(train_raw, medians)
    test = impute_median(ds.select_rows(plan.test_indices(fold)), medians)
    train.require_finite()
    test.require_finite()

    X_tr, y_tr = train.X, train.y
    X_te, y_te = test.X, test.y
    # one model seed per outer fold, shared by every trial and the refit
    fit_seed = config.outer_seed + 7919 * (fold + 1)

    t0 = time.perf_counter()
    best_params = tune(kind, X_tr, y_tr, config.outer_seed + 1000 * (fold + 1), fit_seed,
                       config.search_seed + fold, config.trial_budgets.get(kind))
    tune_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    model = fit_model(kind, X_tr, y_tr, best_params, seed=fit_seed)
    train_seconds = time.perf_counter() - t0

    bounds = clip_bounds(y_tr)
    t0 = time.perf_counter()
    preds_te = predict_model(kind, model, X_te, bounds)
    predict_ms_per_1k = (time.perf_counter() - t0) * 1e6 / max(1, len(y_te))

    preds_tr = predict_model(kind, model, X_tr, bounds)
    train_r2 = r2(y_tr, preds_tr)
    test_r2 = r2(y_te, preds_te)
    for split, score in (("test", test_r2), ("training", train_r2)):
        if score == FAILURE_SCORE:
            # r2's sentinel for a constant target would rank and average as a number
            raise ValueError(f"R² is undefined: the {split} target is constant")
    test_r2_adj = adjusted_r2(test_r2, len(y_te), ds.d)
    gap = train_r2 - test_r2
    if not (math.isfinite(test_r2_adj) and math.isfinite(gap)):
        # a non-finite score would rank and average as a number
        raise ValueError(f"non-finite score: test_r2_adj={test_r2_adj}, gap={gap}")
    return FoldResult(
        dataset=name,
        model=kind,
        fold=fold,
        train_r2=train_r2,
        test_r2=test_r2,
        test_r2_adj=test_r2_adj,
        gap=gap,
        tune_seconds=tune_seconds,
        train_seconds=train_seconds,
        predict_ms_per_1k=predict_ms_per_1k,
        best_params=dict(best_params),
    )


def _finished(fn, *args) -> Future:
    """Call fn(*args) in this process and return its outcome as a finished Future."""
    fut: Future = Future()
    try:
        fut.set_result(fn(*args))
    except Exception as exc:  # noqa: BLE001
        fut.set_exception(exc)
    return fut


def run_benchmark(
    datasets: List[Tuple[str, Dataset]],
    kinds: List[str],
    config: BenchRunConfig = BenchRunConfig(),
    parallel: int = 1,
) -> Tuple[List[FoldResult], Dict[Tuple[str, str], str]]:
    """Run every (dataset, model, outer fold) cell, optionally in parallel.

    Cells run and are collected in the given order: datasets, then models,
    then folds. Returns the fold results in that order plus the failed
    (dataset, model) pairs, in the same order, each with its first error.
    Dataset names and model kinds must be unique.
    """
    names = [name for name, _ in datasets]
    for what, items in (("dataset names", names), ("model kinds", list(kinds))):
        if len(set(items)) != len(items):
            raise ValueError(f"{what} must be unique, got {items}")
    cells = []
    for name, ds in datasets:
        plan = kfold_split(ds.n, config.outer_k, config.outer_seed)
        cells += [(name, ds, kind, fold, plan)
                  for kind in kinds for fold in range(config.outer_k)]

    results: List[FoldResult] = []
    failures: Dict[Tuple[str, str], str] = {}
    # a serial run calls run_outer_fold in this process through this module's global
    # name, so a wrapper patched over it sees every cell
    with ProcessPoolExecutor(max_workers=parallel) if parallel > 1 else nullcontext() as pool:
        submit = pool.submit if pool is not None else _finished
        futures = [submit(run_outer_fold, *cell, config) for cell in cells]
        for (name, _, kind, fold, _), fut in zip(cells, futures):
            try:
                results.append(fut.result())
            except Exception as exc:  # noqa: BLE001
                failures.setdefault((name, kind), f"fold {fold}: {exc}")
    return results, failures
