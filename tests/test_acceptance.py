"""Acceptance gate: eleven end-to-end checks, one test per criterion.

Each test prints exactly one `ACCEPTANCE nn PASS/FAIL` line (visible in the
pytest output via the -rP report summary configured in pyproject.toml).
The numbered checks:

 1. The design matrix's Chebyshev recurrence vs the cos(n arccos x) closed
    form.
 2. Ridge solver vs explicit normal-equations solutions.
 3. Analytic RBF log-width gradient vs central finite differences.
 4. Nemenyi critical-difference anchor values.
 5. friedman1 benchmark accuracy floors and model ordering.
 6. synthetic_step ordering: split-based models beat the global polynomial.
 7. Generalisation-gap direction on the five-dataset synthetic suite,
    plus hand-recomputation of the matched-accuracy gap table.
 8. Friedman test null calibration by Monte-Carlo rank permutations.
 9. Module invariant/property suites all green (run as a subprocess).
10. Benchmark determinism: two identical runs byte-match after masking
    timing fields.
11. CART root split equals the exhaustive brute-force argmax.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from smoothbench.cart import cart_fit
from smoothbench.chebyshev import BasisConfig, build_design_matrix
from smoothbench.cli import main as cli_main
from smoothbench.erbf import erbf_loss_and_grad
from smoothbench.harness.nested_cv import BenchRunConfig, run_benchmark
from smoothbench.harness.report import TIMING_FIELDS, build_report
from smoothbench.harness.stats import friedman_test, nemenyi_cd
from smoothbench.numkit import ridge_solve
from smoothbench.synth import gen

REPO_ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def verdict(num: int, label: str):
    """Print one PASS/FAIL line for the criterion; detail[0] may add numbers."""
    detail = [""]
    try:
        yield detail
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL — {label}")
        raise
    suffix = f" ({detail[0]})" if detail[0] else ""
    print(f"ACCEPTANCE {num:02d} PASS — {label}{suffix}")


# ---------------------------------------------------------------------------


def test_criterion_01_chebyshev_closed_form():
    with verdict(1, "design-matrix Chebyshev columns match cos(n arccos x), "
                    "degrees 0-14 x 1000 points, tol 1e-12") as detail:
        t0 = time.perf_counter()
        xs = np.linspace(-1.0, 1.0, 1000)
        # the models' own recurrence: on one feature, column n of the design
        # matrix is T_n (column 0, the constant, is T_0)
        design = build_design_matrix(xs[:, None], BasisConfig(complexity=14), ())
        worst = 0.0
        for degree in range(15):
            want = np.cos(degree * np.arccos(xs))
            worst = max(worst, float(np.max(np.abs(design[:, degree] - want))))
        elapsed = time.perf_counter() - t0
        assert worst < 1e-12, f"max abs error {worst:.3e}"
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
        detail[0] = f"max err {worst:.2e}, {elapsed:.3f}s"


def test_criterion_02_ridge_oracle_equivalence():
    with verdict(2, "ridge solver matches normal-equations brute force on "
                    "100 systems, rel tol 1e-8") as detail:
        rng = np.random.default_rng(42)
        alphas = [0.0, 0.3, 10.0]
        worst = 0.0
        for case in range(100):
            p = int(rng.integers(1, 11))
            n = int(rng.integers(p + 2, 51))
            alpha = alphas[case % 3]
            Phi = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            w, b = ridge_solve(Phi, y, alpha)
            # brute force: augment with a ones column, penalise only the
            # first p coefficients, solve the normal equations directly
            A = np.hstack([Phi, np.ones((n, 1))])
            D = np.eye(p + 1)
            D[p, p] = 0.0
            z = np.linalg.solve(A.T @ A + alpha * D, A.T @ y)
            got = np.append(w, b)
            rel = float(np.linalg.norm(got - z) / max(1.0, np.linalg.norm(z)))
            worst = max(worst, rel)
        assert worst < 1e-8, f"worst relative error {worst:.3e}"
        detail[0] = f"worst rel err {worst:.2e}"


def test_criterion_03_rbf_gradient_check():
    with verdict(3, "analytic log-width gradient matches central differences "
                    "on 20 instances, rel tol 1e-5") as detail:
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        h = 1e-6
        worst = 0.0
        for _ in range(20):
            K = int(rng.integers(1, 6))
            d = int(rng.integers(1, 4))
            n = int(rng.integers(5, 41))
            X = rng.normal(size=(n, d))
            y = rng.normal(size=n)
            centers = rng.normal(size=(K, d))
            weights = rng.normal(size=K)
            bias = float(rng.normal())
            theta = np.log(rng.uniform(0.3, 3.0, size=K * d))
            _, grad = erbf_loss_and_grad(theta, X, y, centers, weights, bias)
            fd = np.empty_like(theta)
            for i in range(theta.size):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                fp, _ = erbf_loss_and_grad(tp, X, y, centers, weights, bias)
                fm, _ = erbf_loss_and_grad(tm, X, y, centers, weights, bias)
                fd[i] = (fp - fm) / (2.0 * h)
            rel = float(np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12))
            worst = max(worst, rel)
        elapsed = time.perf_counter() - t0
        assert worst < 1e-5, f"worst relative error {worst:.3e}"
        assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
        detail[0] = f"worst rel err {worst:.2e}, {elapsed:.2f}s"


def test_criterion_04_nemenyi_cd_anchors():
    with verdict(4, "Nemenyi CD anchors: cd(8,54)=1.43 and cd(7,55)=1.21, "
                    "tol 0.01") as detail:
        cd8 = nemenyi_cd(8, 54)
        cd7 = nemenyi_cd(7, 55)
        assert abs(cd8 - 1.43) <= 0.01, f"cd(8,54) = {cd8:.4f}"
        assert abs(cd7 - 1.21) <= 0.01, f"cd(7,55) = {cd7:.4f}"
        detail[0] = f"cd(8,54)={cd8:.4f}, cd(7,55)={cd7:.4f}"


def test_criterion_05_friedman1_accuracy_and_ordering():
    with verdict(5, "friedman1 (n=2000, d=5) benchmark: erbf>=0.95, "
                    "chebypoly>=0.85, chebytree>=0.88, smooth models between "
                    "erbf and the baselines") as detail:
        t0 = time.perf_counter()
        ds = gen("friedman1")  # catalogue defaults: n=2000, d=5, noise-free
        kinds = ["ridge", "dt", "chebypoly", "chebytree", "erbf"]
        config = BenchRunConfig()  # outer_k=5, seed 42, full trial budgets
        results, failures = run_benchmark([("friedman1", ds)], kinds, config,
                                          parallel=min(4, os.cpu_count() or 1))
        elapsed = time.perf_counter() - t0
        assert failures == {}, f"failed pairs: {failures}"
        report = build_report(results, failures, ["friedman1"], kinds)
        s = report["scores"]["friedman1"]

        assert s["erbf"] >= 0.95, f"erbf {s['erbf']:.4f} < 0.95"
        assert s["chebypoly"] >= 0.85, f"chebypoly {s['chebypoly']:.4f} < 0.85"
        assert s["chebytree"] >= 0.88, f"chebytree {s['chebytree']:.4f} < 0.88"
        for smooth in ("chebypoly", "chebytree"):
            assert s["erbf"] > s[smooth], \
                f"erbf {s['erbf']:.4f} not above {smooth} {s[smooth]:.4f}"
            for baseline in ("ridge", "dt"):
                assert s[smooth] > s[baseline], \
                    f"{smooth} {s[smooth]:.4f} not above {baseline} {s[baseline]:.4f}"
        assert elapsed < 600.0, f"took {elapsed:.0f}s, budget 600s"
        detail[0] = ("erbf={erbf:.3f} chebytree={chebytree:.3f} "
                     "chebypoly={chebypoly:.3f} ridge={ridge:.3f} dt={dt:.3f}, "
                     "{secs:.0f}s").format(secs=elapsed, **s)


def test_criterion_06_step_dataset_favours_split_models():
    with verdict(6, "synthetic_step benchmark: dt and chebytree each beat "
                    "chebypoly by >= 0.03, chebytree >= 0.85") as detail:
        t0 = time.perf_counter()
        ds = gen("synthetic_step")  # n=2000, d=8, noise 0.3
        kinds = ["dt", "chebypoly", "chebytree"]
        config = BenchRunConfig()
        results, failures = run_benchmark([("synthetic_step", ds)], kinds, config,
                                          parallel=min(4, os.cpu_count() or 1))
        elapsed = time.perf_counter() - t0
        assert failures == {}, f"failed pairs: {failures}"
        report = build_report(results, failures, ["synthetic_step"], kinds)
        s = report["scores"]["synthetic_step"]

        assert s["dt"] - s["chebypoly"] >= 0.03, \
            f"dt {s['dt']:.4f} vs chebypoly {s['chebypoly']:.4f}"
        assert s["chebytree"] - s["chebypoly"] >= 0.03, \
            f"chebytree {s['chebytree']:.4f} vs chebypoly {s['chebypoly']:.4f}"
        assert s["chebytree"] >= 0.85, f"chebytree {s['chebytree']:.4f} < 0.85"
        assert elapsed < 300.0, f"took {elapsed:.0f}s, budget 300s"
        detail[0] = ("dt={dt:.3f} chebytree={chebytree:.3f} "
                     "chebypoly={chebypoly:.3f}, {secs:.0f}s").format(
                         secs=elapsed, **s)


def test_criterion_07_gap_direction_and_matched_table():
    with verdict(7, "five-dataset suite: chebypoly mean generalisation gap "
                    "below dt's; matched-gap table equals hand "
                    "recomputation") as detail:
        names = ["friedman1", "friedman1_d100", "synthetic_step",
                 "synthetic_piecewise", "synthetic_multithreshold"]
        datasets = [(k, gen(k, seed=0)) for k in names]  # catalogue sizes
        kinds = ["chebypoly", "dt"]
        config = BenchRunConfig(trial_budgets={"chebypoly": 10, "dt": 15})
        results, failures = run_benchmark(datasets, kinds, config,
                                          parallel=min(4, os.cpu_count() or 1))
        assert failures == {}, f"failed pairs: {failures}"
        report = build_report(results, failures, names, kinds)

        cheb_gap = float(np.mean([report["gaps"][d]["chebypoly"] for d in names]))
        dt_gap = float(np.mean([report["gaps"][d]["dt"] for d in names]))
        assert cheb_gap < dt_gap, \
            f"chebypoly mean gap {cheb_gap:.4f} not below dt {dt_gap:.4f}"

        # hand recomputation from the raw fold records, no report machinery
        def mean_of(field, ds_name, model):
            vals = [getattr(fr, field) for fr in results
                    if fr.dataset == ds_name and fr.model == model]
            assert len(vals) == config.outer_k
            return float(np.mean(vals))

        matched = 0
        wins = 0.0
        for ds_name in names:
            s_score = mean_of("test_r2_adj", ds_name, "chebypoly")
            t_score = mean_of("test_r2_adj", ds_name, "dt")
            assert report["scores"][ds_name]["chebypoly"] == s_score
            assert report["scores"][ds_name]["dt"] == t_score
            s_gap = mean_of("gap", ds_name, "chebypoly")
            t_gap = mean_of("gap", ds_name, "dt")
            assert report["gaps"][ds_name]["chebypoly"] == s_gap
            assert report["gaps"][ds_name]["dt"] == t_gap
            if abs(s_score - t_score) <= 0.02:
                matched += 1
                if s_gap < t_gap:
                    wins += 1.0
                elif s_gap == t_gap:
                    wins += 0.5

        block = report["matched_gap"]
        assert block is not None, "matched-gap table missing"
        (pair,) = block["pairs"]
        assert pair["smooth"] == "chebypoly" and pair["tree"] == "dt"
        assert pair["matched"] == matched
        assert pair["smooth_wins"] == wins
        if matched:
            assert pair["fraction"] == wins / matched
        else:
            assert pair["fraction"] is None
        detail[0] = (f"mean gap chebypoly={cheb_gap:.4f} < dt={dt_gap:.4f}; "
                     f"matched={matched}, wins={wins}")


def test_criterion_08_friedman_null_calibration():
    with verdict(8, "Friedman test null rejection rate (k=5, n=20, 1000 "
                    "draws) within 0.05 +/- 0.02") as detail:
        rng = np.random.default_rng(0)
        n, k, draws = 20, 5, 1000
        rejections = 0
        for _ in range(draws):
            ranks = np.array([rng.permutation(k) + 1.0 for _ in range(n)])
            rejections += friedman_test(ranks).significant
        rate = rejections / draws
        assert 0.03 <= rate <= 0.07, f"rejection rate {rate:.3f}"
        detail[0] = f"rate {rate:.3f}"


def test_criterion_09_invariant_suites_green():
    with verdict(9, "module invariant/property suites pass with zero "
                    "failures") as detail:
        module_files = sorted(
            str(p.relative_to(REPO_ROOT)) for p in (REPO_ROOT / "tests").glob("test_*.py")
            if p.name != "test_acceptance.py"
        )
        assert module_files, "module test files missing"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             *module_files],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=900,
        )
        tail = "\n".join(proc.stdout.strip().splitlines()[-3:])
        assert proc.returncode == 0, f"module suites failed:\n{tail}"
        detail[0] = tail.splitlines()[-1] if tail else "green"


def test_criterion_10_benchmark_determinism(tmp_path):
    with verdict(10, "two identical bench runs produce identical artifacts "
                     "after masking timing fields") as detail:
        config = {
            "datasets": [
                {"synthetic": "friedman1", "name": "f1", "n": 60,
                 "noise_std": 0.2, "seed": 11},
                {"synthetic": "synthetic_piecewise", "name": "pw", "n": 60,
                 "noise_std": 0.2, "seed": 12},
            ],
            "models": ["ridge", "dt", "chebypoly"],
            "outer_k": 3,
            "outer_seed": 42,
            "search_seed": 0,
            "trial_budgets": {"ridge": 2, "dt": 2, "chebypoly": 2},
        }
        config_path = tmp_path / "bench.json"
        config_path.write_text(json.dumps(config))

        def masked_results(out_dir: Path) -> bytes:
            lines = []
            for line in (out_dir / "results.jsonl").read_text().splitlines():
                rec = json.loads(line)
                for field in TIMING_FIELDS:
                    rec.pop(field, None)
                lines.append(json.dumps(rec, sort_keys=True))
            return "\n".join(lines).encode()

        def masked_report(out_dir: Path) -> bytes:
            rep = json.loads((out_dir / "report.json").read_text())
            rep.pop("timing", None)
            return json.dumps(rep, sort_keys=True).encode()

        blobs = []
        for run in ("a", "b"):
            out_dir = tmp_path / run
            code = cli_main(["bench", "--config", str(config_path),
                             "--out-dir", str(out_dir)])
            assert code == 0
            blobs.append((
                masked_results(out_dir),
                masked_report(out_dir),
                (out_dir / "rank_table.csv").read_bytes(),
                (out_dir / "scores_table.csv").read_bytes(),
            ))
        assert blobs[0] == blobs[1], "runs differ beyond timing fields"
        n_lines = blobs[0][0].decode().count("\n") + 1
        detail[0] = f"{n_lines} result records byte-identical"


def test_criterion_11_cart_root_split_matches_brute_force():
    with verdict(11, "CART root split equals exhaustive brute-force argmax "
                     "on 50 random datasets") as detail:

        def brute_force_root(X, y):
            """Direct-SSE scan over every admissible midpoint candidate.

            Returns (feature, threshold, gain, runner_up_gain).
            """
            m = X.shape[0]
            parent = float(((y - y.mean()) ** 2).sum())
            best = None
            gains = []
            for j in range(X.shape[1]):
                vals = np.unique(X[:, j])
                for a, b in zip(vals[:-1], vals[1:]):
                    thr = 0.5 * (a + b)
                    if thr >= b:
                        thr = float(a)
                    left = X[:, j] <= thr
                    yl, yr = y[left], y[~left]
                    gain = parent - float(((yl - yl.mean()) ** 2).sum()) \
                                  - float(((yr - yr.mean()) ** 2).sum())
                    gains.append(gain)
                    if best is None or gain > best[2]:
                        best = (j, float(thr), gain)
            gains.sort(reverse=True)
            runner_up = gains[1] if len(gains) > 1 else -math.inf
            return best[0], best[1], best[2], runner_up

        # master seed chosen so every dataset has a strictly unique argmax,
        # making exact (feature, threshold) equality well-defined;
        # uniqueness is re-verified below rather than assumed
        rng = np.random.default_rng(9)
        for case in range(50):
            n = int(rng.integers(10, 51))
            d = int(rng.integers(1, 7))
            X = rng.normal(size=(n, d))
            y = rng.normal(size=n)
            feat, thr, gain, runner_up = brute_force_root(X, y)
            assert gain > 0
            assert (gain - runner_up) > 1e-9 * gain, \
                f"case {case}: tied brute-force optimum, seed invalid"
            tree = cart_fit(X, y, max_depth=1, min_samples_leaf=1,
                            min_samples_split=2)
            got = (int(tree.feature[0]), float(tree.threshold[0]))
            assert got == (feat, thr), \
                f"case {case}: got {got}, brute force {(feat, thr)}"
        detail[0] = "50/50 exact matches"
