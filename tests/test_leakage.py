"""Leakage relations: no outer-test row reaches a fold's fit, and no cell
reads what an earlier cell left behind.

A leak is deterministic and well-formed, so the serial-versus-parallel and
corruption suites cannot see one; it only shows as better-looking scores
(Kaufman, Rosset, Perlich & Stitelman, "Leakage in Data Mining", ACM TKDD
6(4), 2012). Each relation compares bits, on friedman1 (n = 240), outer_k 3
and two search trials per kind, for all five kinds and every outer fold,
through run_outer_fold:

- outer: replacing the outer-test rows' X and y by noise times 2^10, some of
  them with a NaN feature, leaves the fold's best_params, train_r2 and refit
  model file bytes as they were. Some training rows hold a NaN in both runs,
  so a median taken over test rows would show;
- cell order: a cell run alone, from a fresh import of the package, equals
  the same cell run in this process after every other cell ran, timing
  fields masked. A module-level cache would make them differ.

A third relation works on one split, through registry.fit_model:

- context transparency: each trial of a seeded search sequence fits the same
  model file bytes over one FitContext that all the trials share as with
  ctx=None. It runs for every kind, so a kind whose fit joins the context
  later is covered too.
"""

import dataclasses
import importlib
import json
import sys

import numpy as np
import pytest

import smoothbench.harness.nested_cv as nested_cv
from smoothbench.context import FitContext
from smoothbench.data import Dataset, kfold_split
from smoothbench.harness import TIMING_FIELDS, BenchRunConfig, search_space
from smoothbench.registry import MODEL_KINDS, fit_model
from smoothbench.synth import gen

OUTER_K = 3
CONFIG = BenchRunConfig(outer_k=OUTER_K, outer_seed=5, search_seed=6,
                        trial_budgets={kind: 2 for kind in MODEL_KINDS})


def _dataset() -> Dataset:
    ds = gen("friedman1", n=240, seed=3)
    X = ds.X.copy()
    rows = np.arange(0, ds.n, 9)
    X[rows, rows % ds.d] = np.nan  # blank cells in every fold's training rows
    return Dataset(X, ds.y, ds.feature_names)


DS = _dataset()
PLAN = kfold_split(DS.n, OUTER_K, CONFIG.outer_seed)


def _run(module, ds: Dataset, kind: str, fold: int):
    """module.run_outer_fold's record, timing fields masked, and its refit model's
    to_dict() as JSON bytes; the refit is the cell's last fit_model call."""
    fits = []
    fit_model = module.fit_model

    def recording_fit_model(*args, **kwargs):
        fits.append(fit_model(*args, **kwargs))
        return fits[-1]

    module.fit_model = recording_fit_model
    try:
        result = module.run_outer_fold("friedman1", ds, kind, fold, PLAN, CONFIG)
    finally:
        module.fit_model = fit_model
    record = {k: (None if k in TIMING_FIELDS else v)
              for k, v in dataclasses.asdict(result).items()}
    return record, json.dumps(fits[-1].to_dict()).encode()


def _fresh_nested_cv():
    """smoothbench.harness.nested_cv imported anew with every module of the package,
    so it holds no module state an earlier cell left; sys.modules is then restored."""
    saved = {name: mod for name, mod in sys.modules.items()
             if name.split(".")[0] == "smoothbench"}
    for name in saved:
        del sys.modules[name]
    try:
        return importlib.import_module("smoothbench.harness.nested_cv")
    finally:
        sys.modules.update(saved)


def _noisy_test_rows(ds: Dataset, fold: int) -> Dataset:
    test = PLAN.test_indices(fold)
    rng = np.random.default_rng(fold)
    X, y = ds.X.copy(), ds.y.copy()
    X[test] = rng.normal(size=(test.size, ds.d)) * 2.0 ** 10
    y[test] = rng.normal(size=test.size) * 2.0 ** 10
    X[test[::5], 1] = np.nan
    return Dataset(X, y, ds.feature_names)


@pytest.fixture(scope="module")
def every_cell():
    """Every cell run once in this process, on the unchanged rows."""
    return {(kind, fold): _run(nested_cv, DS, kind, fold)
            for kind in MODEL_KINDS for fold in range(OUTER_K)}


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_outer_test_rows_reach_no_fit(kind, every_cell):
    for fold in range(OUTER_K):
        record, model = every_cell[kind, fold]
        noisy_record, noisy_model = _run(nested_cv, _noisy_test_rows(DS, fold), kind, fold)
        assert noisy_record["best_params"] == record["best_params"], fold
        assert noisy_record["train_r2"] == record["train_r2"], fold
        assert noisy_model == model, fold


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_a_cell_alone_equals_it_after_every_other_cell(kind, every_cell):
    for fold in range(OUTER_K):
        after_all = _run(nested_cv, DS, kind, fold)
        assert _run(_fresh_nested_cv(), DS, kind, fold) == after_all, fold


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_a_shared_context_fits_what_no_context_fits(kind):
    ds = gen("friedman1", n=160, seed=4)
    train = kfold_split(ds.n, 3, 7).train_indices(0)
    X, y = ds.X[train], ds.y[train]
    X.flags.writeable = y.flags.writeable = False
    ctx = FitContext(X, y)
    space, rng = search_space(kind), np.random.default_rng(8)
    for trial in range(6):
        params = space.sample_trial(rng)
        shared, alone = (json.dumps(fit_model(kind, X, y, params, seed=9, ctx=c).to_dict())
                         for c in (ctx, None))
        assert shared == alone, (trial, params)
