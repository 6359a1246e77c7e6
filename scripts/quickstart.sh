#!/usr/bin/env bash
# Runs the README quick start from this source checkout, in a temporary
# directory, as `python -m smoothbench.cli`; stops at the first command that
# fails. It also checks that `report` rebuilds `bench`'s three report files
# byte for byte, that a --param the model does not have exits 1, that a
# bench config with a misspelt key exits 1 and writes no results, that every
# model file is strict JSON (no NaN or Infinity token), and that predict
# refuses a model file with a feature name dropped, a ragged erbf centers row,
# a truncated chebytree weights row or a negative chebypoly range, naming the
# field and writing no predictions.
#
# Usage: scripts/quickstart.sh   (needs python with numpy)
set -euo pipefail
export PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"
smoothbench() { python -m smoothbench.cli "$@"; }

smoothbench gen --kind friedman1 --n 300 --seed 0 --out train.csv
smoothbench fit --model chebypoly --data train.csv --target y \
    --param complexity=6 --param alpha=0.01 --out model.json
smoothbench fit --model erbf --data train.csv --target y --tune --budget 2 \
    --seed 0 --out tuned.json
smoothbench fit --model erbf --data train.csv --target y \
    --param n_rbf_mode=fixed --param n_rbf=8 --out erbf.json
smoothbench predict --model-file tuned.json --data train.csv --out preds.csv
smoothbench predict --model-file model.json --data train.csv --out poly-preds.csv
smoothbench predict --model-file erbf.json --data train.csv --out erbf-preds.csv
smoothbench fit --model chebytree --data train.csv --target y \
    --param complexity=2 --param max_depth=4 --out tree.json
smoothbench predict --model-file tree.json --data train.csv --out tree-preds.csv
smoothbench fit --model dt --data train.csv --target y --out dt.json
smoothbench fit --model chebypoly --data train.csv --target y \
    --param complexity=2 --param include_interactions=true \
    --param max_interaction_complexity=2 --out pairs.json
smoothbench predict --model-file pairs.json --data train.csv --out pairs-preds.csv
# every model file is strict JSON: a NaN or Infinity token fails here
python - model.json tuned.json erbf.json tree.json dt.json pairs.json <<'PY'
import json
import sys


def refuse(token):
    raise ValueError(f"non-finite token {token}")


for path in sys.argv[1:]:
    with open(path) as fh:
        json.load(fh, parse_constant=refuse)
PY
cat > bench.json <<'JSON'
{"datasets": [{"synthetic": "friedman1", "n": 150, "seed": 0}],
 "models": ["ridge", "dt"], "outer_k": 3,
 "trial_budgets": {"ridge": 2, "dt": 2}}
JSON
smoothbench bench --config bench.json --out-dir results/
smoothbench report --results results/results.jsonl --out-dir rebuilt/
for f in report.json rank_table.csv scores_table.csv; do
    cmp "results/$f" "rebuilt/$f"
done

# a misspelt hyperparameter is refused, not ignored
status=0
smoothbench fit --model chebypoly --data train.csv --target y \
    --param complexty=6 --out typo.json || status=$?
if [ "$status" -ne 1 ] || [ -e typo.json ]; then
    echo "fit --param complexty=6 exited $status; expected 1 and no model file" >&2
    exit 1
fi

# a misspelt bench config key is refused, not ignored
sed 's/"outer_k"/"outer_kk"/' bench.json > typo-bench.json
status=0
smoothbench bench --config typo-bench.json --out-dir typo-results/ || status=$?
if [ "$status" -ne 1 ] || [ -e typo-results/results.jsonl ]; then
    echo "bench with key outer_kk exited $status; expected 1 and no results.jsonl" >&2
    exit 1
fi
# a model file that does not match its feature names, or holds a ragged
# array, is refused with the field named, and no predictions are written
python - <<'PY'
import json
for name, source, corrupt in (
        ("short-names", "erbf.json", lambda d: d["feature_names"].pop()),
        ("ragged-centers", "erbf.json", lambda d: d["model"]["centers"][0].pop()),
        ("short-weights-row", "tree.json", lambda d: d["model"]["weights"][0].pop()),
        ("negative-range", "pairs.json",
         lambda d: d["model"]["ranges"][0].__setitem__(1, -0.5))):
    with open(source) as fh:
        doc = json.load(fh)
    corrupt(doc)
    with open(f"{name}.json", "w") as fh:
        json.dump(doc, fh)
PY
for case in "short-names:erbf model: centers" "ragged-centers:erbf model: centers" \
        "short-weights-row:chebyshev model: weights" \
        "negative-range:chebyshev model: ranges"; do
    broken="${case%%:*}" field="${case#*:}"
    status=0
    smoothbench predict --model-file "$broken.json" --data train.csv \
        --out "$broken-preds.csv" 2> "$broken.err" || status=$?
    if [ "$status" -ne 1 ] || [ -e "$broken-preds.csv" ] \
            || ! grep -q "$field" "$broken.err"; then
        echo "predict on $broken.json exited $status; expected 1, a message naming" \
             "$field, and no predictions" >&2
        exit 1
    fi
done
echo "quick start: every command behaved as documented"
