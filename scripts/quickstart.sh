#!/usr/bin/env bash
# Runs the README quick start from this source checkout, in a temporary
# directory, as `python -m smoothbench.cli`; stops at the first command that
# fails. It also checks that `report` rebuilds `bench`'s three report files
# byte for byte, that a --param the model does not have exits 1, that a
# bench config with a misspelt key exits 1 and writes no results, and that
# predict refuses a model file with a feature name dropped or a ragged erbf
# centers row, naming the field and writing no predictions.
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
for name, corrupt in (("short-names", lambda d: d["feature_names"].pop()),
                      ("ragged-centers", lambda d: d["model"]["centers"][0].pop())):
    with open("erbf.json") as fh:
        doc = json.load(fh)
    corrupt(doc)
    with open(f"{name}.json", "w") as fh:
        json.dump(doc, fh)
PY
for broken in short-names ragged-centers; do
    status=0
    smoothbench predict --model-file "$broken.json" --data train.csv \
        --out "$broken-preds.csv" 2> "$broken.err" || status=$?
    if [ "$status" -ne 1 ] || [ -e "$broken-preds.csv" ] \
            || ! grep -q "erbf model: centers" "$broken.err"; then
        echo "predict on $broken.json exited $status; expected 1, a message naming" \
             "erbf model: centers, and no predictions" >&2
        exit 1
    fi
done
echo "quick start: every command behaved as documented"
