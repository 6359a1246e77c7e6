"""Benchmark result persistence (JSONL) and report construction (JSON + CSV)."""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..data import open_output
from .nested_cv import FoldResult
from .stats import MATCH_THRESHOLD, friedman_test, matched_gap_wins, nemenyi_cd, rank_matrix

SCHEMA_VERSION = 1

# timing fields are masked when comparing runs for determinism
TIMING_FIELDS = ("tune_seconds", "train_seconds", "predict_ms_per_1k")

# smooth-side models for the gap analysis; the tree side is the dt baseline
SMOOTH_MODELS = ("chebypoly", "chebytree", "erbf")
TREE_MODELS = ("dt",)


def write_results_jsonl(
    path: str,
    fold_results: List[FoldResult],
    failures: Dict[Tuple[str, str], str],
) -> None:
    """One JSON object per line: fold records, then failure records, each in the given order.

    run_benchmark returns both in cell order, so the files of identical runs
    differ only in their timing fields. The file is strict JSON: a NaN or
    infinite number raises ValueError.
    """
    head = {"schema_version": SCHEMA_VERSION}
    # every line is serialised before the file is opened, so a refused number
    # leaves any earlier file as it was
    lines = [json.dumps({"record": "fold", **head, **asdict(fr)}, allow_nan=False) + "\n"
             for fr in fold_results]
    lines += [json.dumps({"record": "failure", **head, "dataset": ds_name, "model": model,
                          "error": error}) + "\n" for (ds_name, model), error in failures.items()]
    with open_output(path) as fh:
        fh.writelines(lines)


# JSON types, with their names, of FoldResult's field annotations
_JSON_TYPES = {"str": (str, "a string"), "int": (int, "an integer"),
               "float": ((int, float), "a number"), "Dict[str, Any]": (dict, "an object")}

# the keys each record type must carry, and the JSON type of each value
RECORD_KEYS = {
    "fold": {f.name: _JSON_TYPES[f.type] for f in fields(FoldResult)},
    "failure": {key: _JSON_TYPES["str"] for key in ("dataset", "model", "error")},
}


def _is_finite(value) -> bool:
    """False when value is, or holds at any depth, a NaN or infinite number."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_is_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_is_finite(v) for v in value)
    return True


def read_results_jsonl(path: str) -> Tuple[List[FoldResult], Dict[Tuple[str, str], str]]:
    """Fold records and failures, in file order.

    A malformed line, a value of the wrong JSON type for its key (a bool
    is not a number) or a non-finite number (NaN, Infinity), also one
    inside best_params, raises ValueError naming path:line and the key. The
    record type must be a string and the schema version an integer.
    """
    fold_results: List[FoldResult] = []
    failures: Dict[Tuple[str, str], str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: not a JSON record ({exc})") from None
            if not isinstance(rec, dict):
                raise ValueError(f"{where}: expected a JSON object, got {type(rec).__name__}")
            version = rec.get("schema_version")
            if isinstance(version, bool) or not isinstance(version, int) \
                    or version != SCHEMA_VERSION:
                raise ValueError(f"{where}: unsupported results schema: {version!r}")
            kind = rec.get("record")
            if not isinstance(kind, str) or kind not in RECORD_KEYS:
                raise ValueError(f"{where}: unknown record type {kind!r}")
            missing = [key for key in RECORD_KEYS[kind] if key not in rec]
            if missing:
                raise ValueError(f"{where}: {kind} record is missing {missing}")
            for key, (types, what) in RECORD_KEYS[kind].items():
                if isinstance(rec[key], bool) or not isinstance(rec[key], types):
                    raise ValueError(f"{where}: {key} must be {what}, got {rec[key]!r}")
                if not _is_finite(rec[key]):
                    raise ValueError(f"{where}: {key} must be finite, got {rec[key]!r}")
            if kind == "fold":
                fold_results.append(FoldResult(**{key: rec[key] for key in RECORD_KEYS[kind]}))
            else:
                failures[(rec["dataset"], rec["model"])] = rec["error"]
    return fold_results, failures


def build_report(
    fold_results: List[FoldResult],
    failures: Dict[Tuple[str, str], str],
    dataset_order: Optional[List[str]] = None,
    model_order: Optional[List[str]] = None,
) -> dict:
    """Aggregate fold records into the benchmark report structure.

    Mean adjusted test R^2 and mean gap per (dataset, model); average ranks
    per dataset with failures pinned to the worst rank; Friedman test and
    Nemenyi critical difference where defined; matched-accuracy gap analysis
    when at least 2 models and 3 datasets are present.

    A pair in failures gets no score and no gap even if some of its folds
    completed, so it ranks last and the gap analysis skips it: scores, ranks
    and gaps all rest on complete pairs. So does a pair that lacks a fold
    which another pair on its dataset has (a truncated results file); the
    report lists it under failures with the missing folds. timing still
    averages every completed fold, failed pairs' included, because it
    measures cost.

    Without explicit orders, datasets and models are listed in the order they
    are first seen in fold_results, then in failures. A fold record whose
    test_r2_adj or gap is not finite raises ValueError: failure is read from
    failures, never from a score's value.
    """
    datasets = dataset_order or list(dict.fromkeys(
        [fr.dataset for fr in fold_results] + [k[0] for k in failures]))
    models = model_order or list(dict.fromkeys(
        [fr.model for fr in fold_results] + [k[1] for k in failures]))

    by_pair: Dict[Tuple[str, str], List[FoldResult]] = {}
    ds_folds: Dict[str, set] = {}
    for fr in fold_results:
        if not (math.isfinite(fr.test_r2_adj) and math.isfinite(fr.gap)):
            raise ValueError(f"{fr.dataset}/{fr.model} fold {fr.fold}: non-finite score: "
                             f"test_r2_adj={fr.test_r2_adj}, gap={fr.gap}")
        by_pair.setdefault((fr.dataset, fr.model), []).append(fr)
        ds_folds.setdefault(fr.dataset, set()).add(fr.fold)
    failures = dict(failures)

    # failed[i, j]: the pair has a failure record, lacks a fold, or has no records;
    # scores, gaps, ranks and the gap analysis all read the tables through it
    n_ds, k = len(datasets), len(models)
    score_table, gap_table = np.zeros((n_ds, k)), np.zeros((n_ds, k))
    failed = np.zeros((n_ds, k), bool)
    for i, ds_name in enumerate(datasets):
        for j, m in enumerate(models):
            frs = by_pair.get((ds_name, m), [])
            missing = sorted(ds_folds.get(ds_name, set()) - {fr.fold for fr in frs})
            if missing and (ds_name, m) not in failures:
                failures[(ds_name, m)] = f"missing folds {missing}"
            failed[i, j] = (ds_name, m) in failures or not frs
            if not failed[i, j]:
                score_table[i, j] = np.mean([fr.test_r2_adj for fr in frs])
                gap_table[i, j] = np.mean([fr.gap for fr in frs])

    def by_name(table: np.ndarray) -> Dict[str, Dict[str, Optional[float]]]:
        return {d: {m: None if failed[i, j] else float(table[i, j])
                    for j, m in enumerate(models)} for i, d in enumerate(datasets)}

    ranks = rank_matrix(score_table, failed)
    mean_ranks = {m: float(ranks[:, j].mean()) for j, m in enumerate(models)} if n_ds else {}
    rank1 = {m: int(np.sum(ranks[:, j] == 1.0)) for j, m in enumerate(models)}
    rank2 = {m: int(np.sum(ranks[:, j] == 2.0)) for j, m in enumerate(models)}

    friedman = None
    if k >= 2 and n_ds >= 2 and (k - 1) <= 10:
        friedman = asdict(friedman_test(ranks))
    cd = nemenyi_cd(k, n_ds) if (2 <= k <= 10 and n_ds >= 1) else None

    matched = None
    pairs = [(s, t) for s in SMOOTH_MODELS if s in models
             for t in TREE_MODELS if t in models]
    if k >= 2 and n_ds >= 3 and pairs:
        summaries = matched_gap_wins(score_table, gap_table, failed, models, pairs)
        matched = {
            "threshold": MATCH_THRESHOLD,
            "pairs": [asdict(s) for s in summaries],
            "matched_total": int(sum(s.matched for s in summaries)),
            "smooth_wins_total": float(sum(s.smooth_wins for s in summaries)),
        }
        total = matched["matched_total"]
        matched["fraction_overall"] = (
            matched["smooth_wins_total"] / total if total else None)

    # fsum is exactly rounded, so these means do not depend on record order
    timing: Dict[str, dict] = {}
    for m in models:
        frs = [fr for fr in fold_results if fr.model == m]
        if frs:
            timing[m] = {f"{name}_mean": math.fsum(getattr(fr, name) for fr in frs) / len(frs)
                         for name in TIMING_FIELDS}

    return {
        "schema_version": SCHEMA_VERSION,
        "datasets": list(datasets),
        "models": list(models),
        "scores": by_name(score_table),
        "gaps": by_name(gap_table),
        "ranks": {d: {m: float(ranks[i, j]) for j, m in enumerate(models)}
                  for i, d in enumerate(datasets)},
        "mean_ranks": mean_ranks,
        "rank1_counts": rank1,
        "rank2_counts": rank2,
        "friedman": friedman,
        "nemenyi_cd": cd,
        "matched_gap": matched,
        "failures": {f"{d}/{m}": msg for (d, m), msg in sorted(failures.items())},
        "timing": timing,
    }


def report_model_columns(report: dict) -> List[str]:
    """Models sorted by mean rank ascending (name breaks ties)."""
    mean_ranks = report["mean_ranks"]
    return sorted(report["models"], key=lambda m: (mean_ranks.get(m, float("inf")), m))


def write_report_files(out_dir: str, report: dict) -> List[str]:
    """Write report.json plus rank/score CSV tables; returns the paths.

    report.json is strict JSON: a NaN or infinite number raises ValueError.
    """
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "report.json")
    with open_output(report_path) as fh:
        fh.write(text)
    paths = [report_path]

    cols = report_model_columns(report)
    for fname, table in (("rank_table.csv", report["ranks"]),
                         ("scores_table.csv", report["scores"])):
        path = os.path.join(out_dir, fname)
        with open_output(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dataset"] + cols)
            for d in report["datasets"]:
                writer.writerow([d] + ["" if table[d][m] is None else repr(table[d][m])
                                       for m in cols])
        paths.append(path)
    return paths
