#!/usr/bin/env bash
# Runs the README quick start from this source checkout, in a temporary
# directory, as `python -m smoothbench.cli`; stops at the first command that
# fails. It also checks that `report` rebuilds `bench`'s three report files
# byte for byte, and that `predict`, `bench` and `report`, run again onto
# their existing outputs, write the bytes of their first outputs.
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
    --param n_rbf=8 --out erbf.json
smoothbench predict --model-file tuned.json --data train.csv --out preds.csv
smoothbench predict --model-file model.json --data train.csv --out poly-preds.csv
smoothbench predict --model-file erbf.json --data train.csv --out erbf-preds.csv
cat > bench.json <<'EOF'
{"datasets": [{"synthetic": "friedman1", "n": 150, "seed": 0}],
 "models": ["ridge", "dt"], "outer_k": 3,
 "trial_budgets": {"ridge": 2, "dt": 2}}
EOF
smoothbench bench --config bench.json --out-dir results/
smoothbench report --results results/results.jsonl --out-dir rebuilt/
for f in report.json rank_table.csv scores_table.csv; do
    cmp "results/$f" "rebuilt/$f"
done

cp preds.csv first-preds.csv
cp -r results first-results
cp -r rebuilt first-rebuilt
smoothbench predict --model-file tuned.json --data train.csv --out preds.csv
cmp first-preds.csv preds.csv
smoothbench bench --config bench.json --out-dir results/
# results.jsonl and report.json hold the run's timings; the tables do not
for f in rank_table.csv scores_table.csv; do
    cmp "first-results/$f" "results/$f"
done
smoothbench report --results first-results/results.jsonl --out-dir rebuilt/
for f in report.json rank_table.csv scores_table.csv; do
    cmp "first-rebuilt/$f" "rebuilt/$f"
done
echo "quick start: every command behaved as documented"
