"""The workloads: inputs made from a seed, and one repetition on them.

A repetition drives smoothbench from outside, through its public harness API
(``smoothbench.harness``) or through its command line (``smoothbench.cli.main``),
and returns what it produced: the wall time, per-model timings taken from the
program's own records, accuracy, and a digest of the outputs with timing
fields masked. Functions are looked up on their modules at call time so the
tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import smoothbench.cli
import smoothbench.data
import smoothbench.harness
import smoothbench.synth


def sub_seed(seed: int, label: str) -> int:
    """A 31-bit seed for one input, derived from the workload seed."""
    digest = hashlib.blake2b(f"{seed}/{label}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little") & 0x7FFFFFFF


def rep_seed(seed: int, rep: int) -> int:
    """Seed of the inputs of repetition ``rep`` of a run with workload seed ``seed``."""
    return sub_seed(seed, f"rep{rep}")


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@dataclass
class Rep:
    """What one repetition produced."""

    wall_s: float
    digest: str
    attempted: int
    failed: int
    tuned_fit_s: Dict[str, float]
    predict_rows_per_s: float
    test_r2_adj_mean: float
    gap_mean: float
    worker_util: float = 0.0
    model_json_kb: float = 0.0
    problems: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Harness:
    """Nested CV over generated datasets through ``run_benchmark``."""

    name: str
    why: str
    datasets: Tuple[Tuple[str, Optional[int]], ...]  # (catalogue kind, n or None)
    models: Tuple[str, ...]
    outer_k: int
    budgets: Dict[str, int]

    def pool_workers(self) -> int:
        """Workers of the traced run's process-pool check."""
        return nproc()

    def setup(self, seed: int, workdir: str):
        os.makedirs(workdir, exist_ok=True)
        datasets = [(kind, smoothbench.synth.gen(kind, n=n, seed=sub_seed(seed, kind)))
                    for kind, n in self.datasets]
        config = smoothbench.harness.BenchRunConfig(
            outer_k=self.outer_k,
            outer_seed=sub_seed(seed, "outer"),
            search_seed=sub_seed(seed, "search"),
            trial_budgets=dict(self.budgets),
        )
        return datasets, config

    def run(self, inputs, workers: int, workdir: str) -> Rep:
        datasets, config = inputs
        h = smoothbench.harness
        names = [name for name, _ in datasets]
        out_dir = os.path.join(workdir, "report")
        results_path = os.path.join(workdir, "results.jsonl")
        t0 = time.perf_counter()
        results, failures = h.run_benchmark(datasets, list(self.models), config,
                                            parallel=workers)
        report = h.build_report(results, failures, names, list(self.models))
        h.write_results_jsonl(results_path, results, failures)
        h.write_report_files(out_dir, report)
        wall = time.perf_counter() - t0

        with open(results_path, "r", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        folds = [r for r in records if r["record"] == "fold"]
        attempted = len(datasets) * len(self.models) * config.outer_k
        problems = [f"{r['dataset']}/{r['model']}: {r['error']}"
                    for r in records if r["record"] == "failure"]

        n_test = {}
        for name, ds in datasets:
            plan = smoothbench.data.kfold_split(ds.n, config.outer_k, config.outer_seed)
            for fold in range(config.outer_k):
                n_test[name, fold] = plan.test_indices(fold).size
        rows = pred_s = busy = 0.0
        cell_s: Dict[str, List[float]] = {}
        for r in folds:
            n = n_test[r["dataset"], r["fold"]]
            secs = r["predict_ms_per_1k"] * n * 1e-6
            rows += n
            pred_s += secs
            fit = r["tune_seconds"] + r["train_seconds"]
            busy += fit + secs
            cell_s.setdefault(r["model"], []).append(fit)
        return Rep(
            wall_s=wall,
            digest=_masked_digest(records),
            attempted=attempted,
            failed=attempted - len(folds),
            tuned_fit_s={k: statistics.median(v) for k, v in cell_s.items()},
            predict_rows_per_s=rows / pred_s if pred_s else 0.0,
            test_r2_adj_mean=_mean(r["test_r2_adj"] for r in folds),
            gap_mean=_mean(r["gap"] for r in folds),
            worker_util=busy / (workers * wall),
            problems=problems,
        )


@dataclass(frozen=True)
class Serve:
    """The command-line path: gen CSVs, ``fit --tune`` each model, ``predict``."""

    name: str
    why: str
    kind: str
    replicates: int  # training CSVs, each fitted with its own seed
    train_n: int
    score_n: int
    budgets: Dict[str, int]

    def pool_workers(self) -> int:
        return 1  # the command line has no process pool

    def setup(self, seed: int, workdir: str):
        os.makedirs(workdir, exist_ok=True)
        files = [("score", self.score_n)]
        files += [(f"train{r}", self.train_n) for r in range(self.replicates)]
        paths = {}
        for role, n in files:
            paths[role] = os.path.join(workdir, f"{role}.csv")
            _cli(["gen", "--kind", self.kind, "--n", str(n),
                  "--seed", str(sub_seed(seed, role)), "--out", paths[role]])
        return paths, seed

    def run(self, inputs, workers: int, workdir: str) -> Rep:
        paths, seed = inputs
        fit_s: Dict[str, List[float]] = {}
        served: List[Tuple[str, str, str]] = []  # (model file, role, predictions file)
        problems: List[str] = []
        pred_s = 0.0
        t0 = time.perf_counter()
        for r in range(self.replicates):
            train = f"train{r}"
            for kind, budget in self.budgets.items():
                model = os.path.join(workdir, f"{kind}-{r}.json")
                t = time.perf_counter()
                if _cli(["fit", "--model", kind, "--data", paths[train], "--target", "y",
                         "--tune", "--budget", str(budget),
                         "--seed", str(sub_seed(seed, f"fit{r}")), "--out", model]):
                    problems.append(f"fit {kind} on {train} failed")
                    continue
                fit_s.setdefault(kind, []).append(time.perf_counter() - t)
                for role in ("score", train):
                    out = os.path.join(workdir, f"{kind}-{r}-{role}.csv")
                    t = time.perf_counter()
                    if _cli(["predict", "--model-file", model, "--data", paths[role],
                             "--out", out]):
                        problems.append(f"predict {kind}-{r} on {role} failed")
                        continue
                    pred_s += time.perf_counter() - t
                    served.append((model, role, out))
        wall = time.perf_counter() - t0

        d = smoothbench.synth.CATALOG[self.kind].d
        digest = hashlib.sha256()
        rows = 0
        r2s: Dict[str, Dict[str, float]] = {}
        for model, role, out in served:
            with open(out, "rb") as fh:
                data = fh.read()
            digest.update(data)
            preds = np.loadtxt(io.StringIO(data.decode()), skiprows=1, ndmin=1)
            y = _csv_column(paths[role], "y")
            rows += preds.size
            if preds.size != y.size or not np.isfinite(preds).all():
                problems.append(f"{out}: {preds.size} predictions for {y.size} rows, "
                                "or non-finite ones")
                continue
            r2s.setdefault(model, {})["score" if role == "score" else "train"] = \
                smoothbench.harness.r2(y, preds)
        pairs = [v for v in r2s.values() if len(v) == 2]
        attempted = 3 * self.replicates * len(self.budgets)  # one fit, two predicts
        return Rep(
            wall_s=wall,
            digest=digest.hexdigest(),
            attempted=attempted,
            failed=len(problems),
            tuned_fit_s={k: statistics.median(v) for k, v in fit_s.items()},
            predict_rows_per_s=rows / pred_s if pred_s else 0.0,
            test_r2_adj_mean=_mean(smoothbench.harness.adjusted_r2(v["score"], self.score_n, d)
                                   for v in pairs),
            gap_mean=_mean(v["train"] - v["score"] for v in pairs),
            model_json_kb=sum(os.path.getsize(m) for m in {m for m, _, _ in served}) / 1024.0,
            problems=problems,
        )


def _cli(argv: List[str]) -> int:
    """Run one ``smoothbench`` command in this process, keeping its stdout quiet."""
    with contextlib.redirect_stdout(io.StringIO()):
        return smoothbench.cli.main(argv)


def _csv_column(path: str, column: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=header.index(column), ndmin=1)


def _masked_digest(records: List[dict]) -> str:
    masked = [{k: (None if k in smoothbench.harness.TIMING_FIELDS else v)
               for k, v in r.items()} for r in records]
    return hashlib.sha256(json.dumps(masked, sort_keys=True).encode()).hexdigest()


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


WORKLOADS = {w.name: w for w in (
    Harness(
        name="f1-all",
        why="friedman1 d=5 with all five models, serial: the paper's main table on one "
            "dataset; the erbf workload; its traced run also checks the process pool",
        datasets=(("friedman1", 1500),),
        models=("ridge", "dt", "chebypoly", "chebytree", "erbf"),
        outer_k=3,
        budgets={"ridge": 10, "dt": 12, "chebypoly": 15, "chebytree": 12, "erbf": 2},
    ),
    Serve(
        name="serve",
        why="the CLI path: gen CSVs, fit --tune each model, write model JSON, predict a "
            "large CSV; the only workload with CSV parsing and model files",
        kind="friedman1",
        replicates=2,
        train_n=1000,
        score_n=10000,
        budgets={"ridge": 20, "dt": 25, "chebypoly": 30, "chebytree": 30},
    ),
)}
