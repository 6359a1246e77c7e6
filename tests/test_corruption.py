"""Corrupted inputs: every key of a results file and of a bench config, mutated,
and a seeded sample of every field of one model file per kind.

Each key of each record of a small real results.jsonl (two datasets, two
models, plus a failure record), and each key of a bench config, is set to a
value of the wrong JSON type or deleted. `report` must exit 1 naming the
file and line, and `bench` must exit 1 without writing results.jsonl. A
mutation that leaves the input valid (a string where a string belongs) is not
made.

Model files get a fixed menu of mutations at a fixed-seed sample of their
JSON paths. No exception may escape `predict`, and a structural mutation (a
change of JSON type or of length, a deletion, a non-finite number) of a
field that `predict` reads must exit 1 without writing predictions.
"""

from __future__ import annotations

import copy
import json
import math
import random

import pytest

from smoothbench.cli import main
from smoothbench.registry import MODEL_KINDS

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


# ---------------------------------------------------------------------------
# model files

# name -> the corrupted value, given the original; None where it does not apply
MODEL_MUTATIONS = {
    "null": lambda v: None,
    "string": lambda v: "x",
    "bool": lambda v: True,
    "object": lambda v: {},
    "list-wrap": lambda v: [v],
    "empty list": lambda v: [],
    "nan": lambda v: math.nan,
    "+inf": lambda v: math.inf,
    "-inf": lambda v: -math.inf,
    "negative": lambda v: -v - 1 if _is_number(v) else -1,
    "zero": lambda v: 0,
    "1e308": lambda v: 1e308,
    "10**30": lambda v: 10 ** 30,
    "fraction": lambda v: 2.5,
    "delete": lambda v: DELETE,
    "truncate": lambda v: v[:-1] if isinstance(v, list) and v else None,
    "extend": lambda v: v + [v[-1]] if isinstance(v, list) and v else None,
}
# small fits: every kind's file has a few leaves, centres or weights per field
FIT_PARAMS = {"ridge": [], "dt": ["max_depth=2"], "chebypoly": ["complexity=2"],
              "chebytree": ["max_depth=1", "complexity=1"], "erbf": ["n_rbf=3"]}
# top-level fields predict does not read; erbf's fit_info is never read either
UNREAD = ("target", "params", "tuned", "seed")
CASES_PER_KIND = 300  # of 731 to 1734 (path, mutation) pairs per kind


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _json_type(v) -> str:
    return "number" if _is_number(v) else type(v).__name__


def _paths(obj, prefix=()):
    """Every path into a JSON document: dict keys and list indices."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) \
        if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _structural(old, new) -> bool:
    if new is DELETE or (_is_number(new) and not math.isfinite(new)):
        return True
    if _json_type(old) != _json_type(new):
        return True
    return isinstance(old, list) and len(old) != len(new)


def _read_by_predict(path) -> bool:
    return path[0] not in UNREAD and not (path[:2] == ("model", "fit_info"))


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """One fitted model file per kind, with the CSV it was fitted on."""
    work = tmp_path_factory.mktemp("models")
    data = work / "train.csv"
    assert main(["gen", "--kind", "friedman1", "--n", "40", "--seed", "3",
                 "--out", str(data)]) == 0
    docs = {}
    for kind in MODEL_KINDS:
        path = work / f"{kind}.json"
        params = [arg for p in FIT_PARAMS[kind] for arg in ("--param", p)]
        assert main(["fit", "--model", kind, "--data", str(data), "--target", "y",
                     "--out", str(path), *params]) == 0
        docs[kind] = json.loads(path.read_text())
    return data, docs


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # 1e308 weights, on purpose
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_predict_survives_and_refuses_mutated_model_files(kind, model_files, tmp_path,
                                                           capsys):
    data, docs = model_files
    doc = docs[kind]
    cases = [(path, name) for path in _paths(doc) for name in MODEL_MUTATIONS]
    cases = random.Random(f"model-file {kind}").sample(cases, min(CASES_PER_KIND, len(cases)))
    model_path, out = tmp_path / "model.json", tmp_path / "preds.csv"
    refused = 0
    for path, name in cases:
        corrupted = copy.deepcopy(doc)
        holder = corrupted
        for key in path[:-1]:
            holder = holder[key]
        old = holder[path[-1]]
        new = MODEL_MUTATIONS[name](old)
        if new is None and name != "null":
            continue
        if new is DELETE:
            del holder[path[-1]]
        else:
            holder[path[-1]] = new
        model_path.write_text(json.dumps(corrupted))
        case = f"{kind}: {'/'.join(map(str, path))} -> {name}"
        code = main(["predict", "--model-file", str(model_path), "--data", str(data),
                     "--out", str(out)])  # an exception escaping main fails here
        capsys.readouterr()
        assert code in (0, 1), case
        if _read_by_predict(path) and _structural(old, new):
            assert code == 1, case
            assert not out.exists(), case
            refused += 1
        out.unlink(missing_ok=True)
    assert refused > CASES_PER_KIND // 4
