"""Command-line interface: fit, predict, gen, bench, report.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors (argparse's
own convention).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .data import (Dataset, FeatureError, column_medians, drop_quasi_constant, error_message,
                   impute_median, load_csv, open_output, read_array, subsample, write_csv,
                   write_table)
from .harness import (
    BenchRunConfig,
    build_report,
    clip_bounds,
    r2,
    read_results_jsonl,
    run_benchmark,
    tune,
    write_report_files,
    write_results_jsonl,
)
from .registry import MODEL_KINDS, fit_model, hyperparameters, model_from_dict, predict_model
from .synth import CATALOG, gen

MODEL_FILE_SCHEMA = 7


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "fit" and args.budget is not None and not args.tune:
        parser.error("--budget needs --tune")
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothbench",
        description="Smooth-basis regression models and a nested-CV benchmark harness.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one model on a CSV dataset")
    p_fit.add_argument("--model", required=True, choices=MODEL_KINDS)
    p_fit.add_argument("--data", required=True, help="training CSV with a header row")
    p_fit.add_argument("--target", required=True, help="target column name")
    p_fit.add_argument("--out", required=True, help="output model JSON path")
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--max-samples", type=int, default=None,
                       help="subsample the training data to at most this many rows")
    p_fit.add_argument("--tune", action="store_true",
                       help="pick hyperparameters by random search with inner CV")
    p_fit.add_argument("--budget", type=int, default=None,
                       help="override the trial budget used with --tune")
    p_fit.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                       help="explicit hyperparameter (repeatable), e.g. --param alpha=0.5; "
                            "the names are the keyword parameters of the model's fit")
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="predict with a saved model JSON")
    p_pred.add_argument("--model-file", required=True)
    p_pred.add_argument("--data", required=True, help="CSV with the model's feature columns")
    p_pred.add_argument("--out", required=True, help="output CSV of predictions")
    p_pred.set_defaults(func=cmd_predict)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    p_gen.add_argument("--kind", required=True, choices=sorted(CATALOG))
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--noise-std", type=float, default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="run the nested-CV benchmark from a config file")
    p_bench.add_argument("--config", required=True, help="JSON benchmark config")
    p_bench.add_argument("--out-dir", required=True)
    p_bench.add_argument("--parallel", type=int, default=None,
                         help="worker processes for outer folds (overrides config)")
    p_bench.set_defaults(func=cmd_bench)

    p_rep = sub.add_parser("report", help="rebuild report files from results.jsonl")
    p_rep.add_argument("--results", required=True)
    p_rep.add_argument("--out-dir", required=True)
    p_rep.add_argument("--models", default=None,
                       help="comma-separated subset of models to include")
    p_rep.set_defaults(func=cmd_report)
    return parser


# ---------------------------------------------------------------------------


def _parse_params(pairs: List[str]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--param expects KEY=VALUE, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def cmd_fit(args: argparse.Namespace) -> int:
    ds = load_csv(args.data, args.target)
    ds = drop_quasi_constant(ds)
    if args.max_samples is not None:
        ds = subsample(ds, args.max_samples, args.seed)
    medians = column_medians(ds)
    ds = impute_median(ds, medians)

    if args.tune:
        params = tune(args.model, ds.X, ds.y, args.seed, args.seed, args.seed, args.budget,
                      ds.feature_names)
        params.update(_parse_params(args.param))  # explicit flags win
    else:
        params = _parse_params(args.param)
    try:
        model = fit_model(args.model, ds.X, ds.y, params, seed=args.seed)
    except FeatureError as exc:  # its index counts only the columns drop_quasi_constant kept
        raise ValueError(error_message(exc, ds.feature_names)) from None
    clip = clip_bounds(ds.y)

    doc = {
        "schema_version": MODEL_FILE_SCHEMA,
        "kind": args.model,
        "target": ds.target_name,
        "feature_names": list(ds.feature_names),
        "medians": medians.tolist(),
        # every hyperparameter value the fit used, defaults included
        "params": {**hyperparameters(args.model), **params},
        "tuned": bool(args.tune),
        "seed": args.seed,
        # the bound the benchmark clips scored predictions to, for predict to apply
        "clip": list(clip),
        "model": model.to_dict(),
    }
    try:  # strict JSON: a NaN or infinity is refused before --out is touched
        text = json.dumps(doc, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"model file: {exc}; {args.out} not written") from None
    with open_output(args.out) as fh:
        fh.write(text + "\n")
    preds = predict_model(args.model, model, ds.X, clip)
    print(f"fit {args.model} on {args.data}: n={ds.n} d={ds.d} "
          f"train_r2={r2(ds.y, preds):.4f} -> {args.out}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    with open(args.model_file, "r", encoding="utf-8-sig") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"model file: expected a JSON object, got {type(doc).__name__}")
    if doc.get("schema_version") != MODEL_FILE_SCHEMA:
        raise ValueError(f"model file schema {doc.get('schema_version')!r} is not supported: "
                         f"predict reads schema {MODEL_FILE_SCHEMA}; refit the model")
    for key in ("kind", "model", "feature_names", "medians", "clip"):
        if key not in doc:
            raise ValueError(f"model file: missing field {key!r}")
    kind = doc["kind"]
    if kind not in MODEL_KINDS:
        raise ValueError(f"model file: kind must be one of {MODEL_KINDS}, got {kind!r}")
    names = doc["feature_names"]
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise ValueError(f"model file: feature_names must be a list of strings, got {names!r}")
    model = model_from_dict(kind, doc["model"], len(names))
    clip = read_array("model file", doc, "clip", (2,))
    if not clip[0] <= clip[1]:
        raise ValueError(f"model file: clip must be lo <= hi, got {doc['clip']!r}")
    medians = read_array("model file", doc, "medians", (len(names),))
    X = impute_median(load_csv(args.data, columns=names), medians).X
    preds = predict_model(kind, model, X, clip)
    write_table(args.out, ["prediction"], preds[:, None])
    print(f"wrote {len(preds)} predictions -> {args.out}")
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    ds = gen(args.kind, n=args.n, noise_std=args.noise_std, seed=args.seed)
    write_csv(ds, args.out)
    print(f"generated {args.kind}: n={ds.n} d={ds.d} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------


# bench config keys besides BenchRunConfig's fields, and each dataset entry kind's keys
BENCH_KEYS = ("datasets", "models", "parallel", "max_samples")
DATASET_KEYS = {"synthetic": ("synthetic", "name", "n", "noise_std", "seed"),
                "path": ("path", "target", "name")}
# lower bounds of the integer values (a model kind's value is its trial budget);
# max_samples may also be null, for no subsampling
INT_KEYS = {"outer_k": 2, "outer_seed": 0, "search_seed": 0, "parallel": 1,
            "max_samples": 1, "n": 2, "seed": 0, **{kind: 1 for kind in MODEL_KINDS}}
STR_KEYS = ("synthetic", "path", "target", "name")


def _check_keys(where: str, obj: Any, allowed: List[str]) -> None:
    """Refuse a non-object, an unknown key, or a value of the wrong type for its key."""
    name = where.rstrip(".") or "the file"
    if not isinstance(obj, dict):
        raise ValueError(f"bench config: {name} must be a JSON object, got {obj!r}")
    unknown = [key for key in obj if key not in allowed]
    if unknown:
        raise ValueError(f"bench config: unknown key(s) {unknown} in {name}; "
                         f"expected some of {allowed}")
    for key, value in obj.items():
        low = INT_KEYS.get(key)
        if low is not None and not (key == "max_samples" and value is None) and (
                isinstance(value, bool) or not isinstance(value, int) or value < low):
            raise ValueError(f"bench config: {where}{key} must be an integer >= {low}, "
                             f"got {value!r}")
        if key in STR_KEYS and not isinstance(value, str):
            raise ValueError(f"bench config: {where}{key} must be a string, got {value!r}")
        if key == "noise_std" and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ValueError(f"bench config: {where}{key} must be a number, got {value!r}")


def _load_bench_config(path: str) -> Tuple[dict, BenchRunConfig]:
    """The checked config, and a BenchRunConfig from its keys named like its fields.

    An unknown key or a value of the wrong type raises ValueError naming the key.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        cfg = json.load(fh)
    run_keys = [f.name for f in fields(BenchRunConfig)]
    _check_keys("", cfg, list(BENCH_KEYS) + run_keys)
    if not isinstance(cfg.get("datasets"), list) or not cfg["datasets"]:
        raise ValueError("bench config needs a non-empty 'datasets' list")
    for i, entry in enumerate(cfg["datasets"]):
        kind = next((k for k in DATASET_KEYS if isinstance(entry, dict) and k in entry), None)
        if kind is None:
            raise ValueError(f"bench config: datasets[{i}] needs either 'synthetic' or 'path'")
        _check_keys(f"datasets[{i}].", entry, list(DATASET_KEYS[kind]))
        if kind == "path" and "target" not in entry:
            raise ValueError(f"dataset entry for {entry['path']!r} needs a 'target'")
    _check_keys("trial_budgets.", cfg.get("trial_budgets", {}), list(MODEL_KINDS))
    models = cfg.setdefault("models", list(MODEL_KINDS))
    if not isinstance(models, list) or not models:
        raise ValueError(f"bench config needs a non-empty 'models' list, got {models!r}")
    for m in models:
        if m not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {m!r} in config; choose from {MODEL_KINDS}")
    return cfg, BenchRunConfig(**{key: cfg[key] for key in run_keys if key in cfg})


def _materialize_dataset(entry: dict, max_samples: Optional[int], seed: int) -> Tuple[str, Dataset]:
    if "synthetic" in entry:
        kind = entry["synthetic"]
        name = entry.get("name", kind)
        ds = gen(kind, n=entry.get("n"), noise_std=entry.get("noise_std"),
                 seed=entry.get("seed", 0))
    else:
        name = entry.get("name") or os.path.splitext(os.path.basename(entry["path"]))[0]
        ds = load_csv(entry["path"], entry["target"])
    ds = drop_quasi_constant(ds)
    if max_samples is not None:
        ds = subsample(ds, max_samples, seed)
    return name, ds


def cmd_bench(args: argparse.Namespace) -> int:
    cfg, run_config = _load_bench_config(args.config)
    datasets = [
        _materialize_dataset(entry, cfg.get("max_samples"), run_config.outer_seed)
        for entry in cfg["datasets"]
    ]
    parallel = args.parallel if args.parallel is not None else cfg.get("parallel", 1)

    results, failures = run_benchmark(datasets, cfg["models"], run_config, parallel)
    os.makedirs(args.out_dir, exist_ok=True)
    write_results_jsonl(os.path.join(args.out_dir, "results.jsonl"), results, failures)
    report = build_report(results, failures)
    write_report_files(args.out_dir, report)

    print(f"benchmark: {len(datasets)} dataset(s) x {len(cfg['models'])} model(s), "
          f"outer_k={run_config.outer_k}")
    for m in sorted(report["mean_ranks"], key=report["mean_ranks"].get):
        print(f"  {m}: mean rank {report['mean_ranks'][m]:.2f}")
    for (d, m), msg in failures.items():
        print(f"FAILED {d}/{m}: {msg}", file=sys.stderr)
    return 1 if failures else 0


def cmd_report(args: argparse.Namespace) -> int:
    fold_results, failures = read_results_jsonl(args.results)
    if not fold_results and not failures:
        raise ValueError(f"{args.results}: no records")
    if args.models:
        keep = [m.strip() for m in args.models.split(",") if m.strip()]
        present = list(dict.fromkeys([fr.model for fr in fold_results]
                                     + [model for _, model in failures]))
        unknown = [m for m in keep if m not in present]
        if unknown:  # a misspelt name would silently drop its model from the report
            raise ValueError(f"no records left for model(s) {unknown} of --models; "
                             f"{args.results} holds {present}")
        fold_results = [fr for fr in fold_results if fr.model in keep]
        failures = {k: v for k, v in failures.items() if k[1] in keep}
        if not fold_results and not failures:
            raise ValueError(f"no records left after filtering to models {keep}")
    report = build_report(fold_results, failures)
    paths = write_report_files(args.out_dir, report)
    print("wrote " + ", ".join(paths))
    return 0


if __name__ == "__main__":
    sys.exit(main())
