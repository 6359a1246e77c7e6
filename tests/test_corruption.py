"""Corrupted inputs: every key of a results file and of a bench config, mutated.

Each key of each record of a small real results.jsonl (two datasets, two
models, plus a failure record), and each key of a bench config, is set to a
value of the wrong JSON type or deleted. `report` must exit 1 naming the
file and line, and `bench` must exit 1 without writing results.jsonl. A
mutation that leaves the input valid (a string where a string belongs) is not
made.
"""

from __future__ import annotations

import copy
import json
import math

import pytest

from smoothbench.cli import main

DELETE = object()
# one value of each JSON type, NaN and the infinities, and deletion; no large
# integer, which as parallel would start that many processes
MUTATIONS = (None, True, {}, [], math.nan, math.inf, -math.inf, "x", 2.5, DELETE)

# the JSON type of each results key that more than one value of is valid for
STRING_KEYS = ("dataset", "model", "error")
NUMBER_KEYS = ("train_r2", "test_r2", "test_r2_adj", "gap", "tune_seconds",
               "train_seconds", "predict_ms_per_1k")
OBJECT_KEYS = ("best_params",)

BENCH_CONFIG = {
    "datasets": [{"synthetic": "friedman1", "name": "f", "n": 30, "noise_std": 0.1,
                  "seed": 0}],
    "models": ["ridge", "dt"],
    "outer_k": 2,
    "outer_seed": 0,
    "search_seed": 0,
    "trial_budgets": {"ridge": 1, "dt": 1},
    "parallel": 1,
    "max_samples": 30,
}
# keys a bench config may leave out (a default applies), and mutated values it accepts
OPTIONAL_BENCH_KEYS = ("models", "outer_k", "outer_seed", "search_seed", "trial_budgets",
                       "parallel", "max_samples", "name", "n", "noise_std", "seed",
                       "ridge", "dt")
VALID_BENCH_VALUES = {("trial_budgets", "{}"), ("max_samples", "None"),
                      ("noise_std", "2.5"), ("name", "'x'")}


def _mutate(obj: dict, key: str, value) -> None:
    if value is DELETE:
        del obj[key]
    else:
        obj[key] = value


def _valid_results_value(key: str, value) -> bool:
    return ((key in STRING_KEYS and isinstance(value, str))
            or (key in NUMBER_KEYS and isinstance(value, float) and math.isfinite(value))
            or (key in OBJECT_KEYS and isinstance(value, dict)))


@pytest.fixture(scope="module")
def results_lines(tmp_path_factory):
    """The lines of a two-dataset, two-model bench's results.jsonl, plus a failure record."""
    work = tmp_path_factory.mktemp("bench")
    config = {**BENCH_CONFIG, "datasets": [
        {"synthetic": "friedman1", "name": "f1", "n": 30, "seed": 0},
        {"synthetic": "synthetic_piecewise", "name": "pw", "n": 30, "seed": 1}]}
    (work / "bench.json").write_text(json.dumps(config))
    assert main(["bench", "--config", str(work / "bench.json"),
                 "--out-dir", str(work / "out")]) == 0
    lines = (work / "out" / "results.jsonl").read_text().splitlines()
    failure = {"record": "failure", "schema_version": 1, "dataset": "pw",
               "model": "chebypoly", "error": "fold 0: boom"}
    return lines + [json.dumps(failure)]


def test_report_refuses_every_mutated_results_key(results_lines, tmp_path, capsys):
    path = tmp_path / "results.jsonl"
    out_dir = tmp_path / "rep"
    path.write_text("\n".join(results_lines) + "\n")
    assert main(["report", "--results", str(path), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    report_file = out_dir / "report.json"
    report_file.unlink()
    count = 0
    for i, line in enumerate(results_lines):
        for key in json.loads(line):
            for value in MUTATIONS:
                if _valid_results_value(key, value):
                    continue
                record = json.loads(line)
                _mutate(record, key, value)
                lines = list(results_lines)
                lines[i] = json.dumps(record)
                path.write_text("\n".join(lines) + "\n")
                case = f"line {i + 1}, {key} -> {value!r}"
                assert main(["report", "--results", str(path),
                             "--out-dir", str(out_dir)]) == 1, case
                assert f"{path}:{i + 1}: " in capsys.readouterr().err, case
                assert not report_file.exists(), case
                count += 1
    assert count > 1000


def _bench_key_paths(config: dict):
    """(key, getter of the object that holds it) for every key of a bench config."""
    yield from ((key, lambda cfg: cfg) for key in config)
    yield from ((key, lambda cfg: cfg["datasets"][0]) for key in config["datasets"][0])
    yield from ((key, lambda cfg: cfg["trial_budgets"]) for key in config["trial_budgets"])


def test_bench_refuses_every_mutated_config_key(tmp_path, capsys):
    config_path = tmp_path / "bench.json"
    out_dir = tmp_path / "out"
    count = 0
    for key, holder in _bench_key_paths(BENCH_CONFIG):
        for value in MUTATIONS:
            if (value is DELETE and key in OPTIONAL_BENCH_KEYS) or \
                    (key, repr(value)) in VALID_BENCH_VALUES:
                continue
            config = copy.deepcopy(BENCH_CONFIG)
            _mutate(holder(config), key, value)
            config_path.write_text(json.dumps(config))
            case = f"{key} -> {'deleted' if value is DELETE else repr(value)}"
            assert main(["bench", "--config", str(config_path),
                         "--out-dir", str(out_dir)]) == 1, case
            assert "error: " in capsys.readouterr().err, case
            assert not (out_dir / "results.jsonl").exists(), case
            count += 1
    assert count > 100
