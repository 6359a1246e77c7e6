#!/usr/bin/env bash
# Runs the README quick start from this source checkout, in a temporary
# directory, as `python -m smoothbench.cli`; stops at the first command that
# fails. It also checks that `report` rebuilds `bench`'s three report files
# byte for byte, that an erbf with k-means centres and local-variance widths
# fits and predicts, that fit and predict fill blank feature cells and write
# one prediction per input row, that a blank cell beside values whose middle
# two sum past float64 gets a finite median, that ridge predicts features
# scaled by 2^-900 with the same bits, that dt fits a column near -1.6e308,
# that a --param the model does not have exits 1 (a misspelt name, and
# n_rbf_mode, which n_rbf replaced),
# that --budget without --tune exits 2, that a bench config with a misspelt
# key or an empty models list exits 1 and writes no results,
# that dt and chebytree tune (their trials share each inner split's tree
# nodes) and predict, that report --models with a model no record has exits 1
# and writes no report files,
# that every model file is strict JSON (no NaN or Infinity token), and that
# predict refuses a model file with a feature name dropped, a ragged erbf
# centers row, a truncated chebytree weights row or a negative chebypoly
# range, naming the field and writing no predictions.
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
smoothbench fit --model erbf --data train.csv --target y \
    --param center_init=kmeans --param width_init=local_variance --out erbf-km.json
smoothbench predict --model-file erbf-km.json --data train.csv --out erbf-km-preds.csv
# blank x1 in every 7th row and x3 in every 11th: fit and predict fill them by medians
awk -F, -v OFS=, 'NR % 7 == 0 {$2 = ""} NR % 11 == 0 {$4 = ""} {print}' train.csv > blanks.csv
grep -q ',,' blanks.csv
smoothbench fit --model ridge --data blanks.csv --target y --out blanks.json
smoothbench predict --model-file blanks.json --data blanks.csv --out blanks-preds.csv
if [ "$(wc -l < blanks-preds.csv)" -ne "$(wc -l < blanks.csv)" ]; then
    echo "predict on blanks.csv wrote $(wc -l < blanks-preds.csv) lines for" \
         "$(wc -l < blanks.csv) input lines; expected one prediction per row" >&2
    exit 1
fi
# a blank column whose two middle values sum past float64: its median stays
# finite, so fit and predict fill it and every prediction is finite
python - <<'PY'
import numpy as np
rng = np.random.default_rng(0)
a = 1.6e308 + rng.uniform(0.0, 1e307, size=200)
b = rng.normal(size=200)
with open("huge.csv", "w") as fh:
    fh.write("a,b,y\n")
    for i in range(200):
        cell = "" if i % 10 == 0 else repr(float(a[i]))
        fh.write(f"{cell},{float(b[i])!r},{2.0 * float(b[i])!r}\n")
PY
smoothbench fit --model ridge --data huge.csv --target y --out huge.json
smoothbench predict --model-file huge.json --data huge.csv --out huge-preds.csv
python - huge-preds.csv <<'PY'
import math
import sys
with open(sys.argv[1]) as fh:
    preds = [float(line) for line in fh.read().split()[1:]]
if len(preds) != 200 or not all(math.isfinite(p) for p in preds):
    sys.exit(f"predict on huge.csv wrote {len(preds)} predictions, not 200 finite ones")
PY
# features scaled by 2^-900, whose squares underflow: ridge predicts the same bits
python - <<'PY'
with open("train.csv") as src, open("tiny.csv", "w") as dst:
    dst.write(src.readline())
    for line in src:
        *x, y = line.strip().split(",")
        dst.write(",".join([repr(float(v) * 2.0 ** -900) for v in x] + [y]) + "\n")
PY
smoothbench fit --model ridge --data train.csv --target y --out ridge.json
smoothbench predict --model-file ridge.json --data train.csv --out ridge-preds.csv
smoothbench fit --model ridge --data tiny.csv --target y --out tiny.json
smoothbench predict --model-file tiny.json --data tiny.csv --out tiny-preds.csv
cmp ridge-preds.csv tiny-preds.csv
# a dt split between two values near -1.6e308, whose sum overflows, gets a finite threshold
python - <<'PY'
import numpy as np
rng = np.random.default_rng(0)
a = -1.6e308 - rng.uniform(0.0, 1e307, size=200)
y = (a < -1.605e308) + 0.1 * rng.normal(size=200)
with open("low.csv", "w") as fh:
    fh.write("a,y\n")
    fh.writelines(f"{float(ai)!r},{float(yi)!r}\n" for ai, yi in zip(a, y))
PY
smoothbench fit --model dt --data low.csv --target y --out low.json
smoothbench fit --model chebytree --data train.csv --target y \
    --param complexity=2 --param max_depth=4 --out tree.json
smoothbench predict --model-file tree.json --data train.csv --out tree-preds.csv
smoothbench fit --model dt --data train.csv --target y --out dt.json
smoothbench fit --model chebypoly --data train.csv --target y \
    --param complexity=2 --param interactions=2 --out pairs.json
for model in dt chebytree; do
    smoothbench fit --model "$model" --data train.csv --target y --tune --budget 6 \
        --seed 0 --out "tuned-$model.json"
    smoothbench predict --model-file "tuned-$model.json" --data train.csv \
        --out "tuned-$model-preds.csv"
done
smoothbench predict --model-file pairs.json --data train.csv --out pairs-preds.csv
# every model file is strict JSON: a NaN or Infinity token fails here
python - model.json tuned.json erbf.json erbf-km.json tree.json dt.json pairs.json \
    blanks.json tuned-dt.json tuned-chebytree.json <<'PY'
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
# a model name that no record has is refused, not dropped from the report
status=0
smoothbench report --results results/results.jsonl --out-dir ghost/ \
    --models dt,ghost 2> ghost.err || status=$?
if [ "$status" -ne 1 ] || [ -e ghost ] || ! grep -q "ghost" ghost.err; then
    echo "report --models dt,ghost exited $status; expected 1, a message naming" \
         "ghost and no report files" >&2
    exit 1
fi

# a misspelt hyperparameter, or one that n_rbf replaced, is refused, not ignored
for case in "chebypoly:complexty=6" "erbf:n_rbf_mode=fixed"; do
    model="${case%%:*}" param="${case#*:}"
    status=0
    smoothbench fit --model "$model" --data train.csv --target y \
        --param "$param" --out typo.json || status=$?
    if [ "$status" -ne 1 ] || [ -e typo.json ]; then
        echo "fit --model $model --param $param exited $status;" \
             "expected 1 and no model file" >&2
        exit 1
    fi
done

# --budget without --tune is a usage error, not a silent default fit
status=0
smoothbench fit --model ridge --data train.csv --target y --budget 2 \
    --out budget.json 2> budget.err || status=$?
if [ "$status" -ne 2 ] || [ -e budget.json ] || ! grep -q -- "--budget needs --tune" budget.err; then
    echo "fit --budget 2 without --tune exited $status; expected 2, the message" \
         "'--budget needs --tune' and no model file" >&2
    exit 1
fi

# a misspelt bench config key, or an empty models list, is refused, not ignored
sed 's/"outer_k"/"outer_kk"/' bench.json > typo-bench.json
sed 's/"models": \[[^]]*\]/"models": []/' bench.json > no-models-bench.json
grep -q '"models": \[\]' no-models-bench.json
for case in "typo-bench:key outer_kk" "no-models-bench:models []"; do
    config="${case%%:*}" what="${case#*:}"
    status=0
    smoothbench bench --config "$config.json" --out-dir "$config-results/" || status=$?
    if [ "$status" -ne 1 ] || [ -e "$config-results/results.jsonl" ]; then
        echo "bench with $what exited $status; expected 1 and no results.jsonl" >&2
        exit 1
    fi
done
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
