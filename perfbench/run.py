"""smoothbench benchmark: one workload, end-to-end or traced, checked and timed.

    python3 perfbench/run.py --workload f1-all --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. Each
repetition gets fresh inputs made from the seed and the repetition number,
after one warm-up repetition on the inputs of the first. With ``--trace 0``
the run repeats the workload untraced and serially for about ``--seconds`` and
reports the end-to-end metrics of BENCHMARK.json. With ``--trace 1`` each round
runs the workload untraced, on the program's process pool where it has one,
then traced, and reports the per-layer metrics plus the tracing overhead. Every
run checks its outputs; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

# One BLAS thread unless the caller chose otherwise: on a shared machine, BLAS
# threads that spin while another tenant holds the core swing the timings, and
# the traced run's pool check would run nproc workers times nproc threads. Set
# before numpy is imported; pool workers and set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9  # cold set-ups a run makes at least
MIN_REPS = 3  # measured repetitions after the warm-up
NOTE = ("runs are neither pinned to CPUs nor cache-dropped, and the machine may be "
        "shared: timings carry noise")


def _die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Import smoothbench from this checkout's src/, or stop with exit code 2."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import smoothbench
    except ImportError as exc:
        _die(f"cannot import smoothbench from {ROOT / 'src'}: {exc}")
    if Path(smoothbench.__file__).resolve().parent != ROOT / "src" / "smoothbench":
        _die(f"smoothbench imported from {smoothbench.__file__}, not from {ROOT / 'src'}")


def _load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        _die(f"cannot read BENCHMARK.json: {exc}")


def _median(values):
    return statistics.median(values) if values else 0.0


def _setup_once(workload: str, seed: int, workdir: Path) -> float:
    """One cold set-up: imports, inputs and CSV writes in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
        check=True, capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _repeat(step, seconds: float, start: float, at_least: int) -> list:
    """step(0), step(1), ... until another step would end after ``seconds``.

    ``start`` is taken before the warm-up, which counts as one more step when
    the mean step time is estimated.
    """
    out = []
    while True:
        out.append(step(len(out)))
        elapsed = time.perf_counter() - start
        if len(out) >= at_least and elapsed + elapsed / (len(out) + 1) > seconds:
            return out


def _check(reps, same_inputs, problems):
    """Record failed cells, and outputs that differ where the inputs were the same."""
    for rep in reps:
        problems.extend(rep.problems)
        if rep.failed:
            problems.append(f"{rep.failed} of {rep.attempted} cells failed")
    for what, group in same_inputs:
        digests = {rep.digest for rep in group}
        if len(digests) > 1:
            problems.append(f"outputs differ between {what}: {sorted(digests)}")


def measure(w, inputs, seconds: float, workdir: Path, seed: int):
    """A warm-up repetition, then repetitions on fresh inputs until the time is up.

    Cold set-ups run between the repetitions, so ``setup_s`` samples the same
    stretch of machine time as ``wall_s``. They start after the peak RSS is
    read, because a set-up interpreter is a child process too.
    """
    start = time.perf_counter()
    warm = w.run(inputs(0), 1, str(workdir))
    peak, setups = [], []

    def set_up():
        setups.append(_setup_once(w.name, seed, workdir / f"setup{len(setups)}"))

    def step(i):
        rep = w.run(inputs(i), 1, str(workdir))
        if i == MIN_REPS - 1:
            # memory and accuracy over the same inputs however fast the machine
            peak.append(_peak_rss_mb())
        if peak:
            set_up()
        return rep

    reps = _repeat(step, seconds, start, MIN_REPS)
    while len(setups) < SETUP_REPEATS:
        set_up()
    problems = []
    _check([warm] + reps, [("two runs of the same inputs", [warm, reps[0]])], problems)
    metrics = {
        # means, not medians: the host's speed switches between a fast and a
        # slow state, and a median jumps between the two while a mean follows
        # the share of time spent in each (perfbench/README.md, Steadiness)
        "wall_s": statistics.fmean(r.wall_s for r in reps),
        "setup_s": statistics.fmean(setups),
        "test_r2_adj_mean": _median([r.test_r2_adj_mean for r in reps[:MIN_REPS]]),
        "peak_rss_mb": peak[0],
    }
    return metrics, [warm] + reps, problems, [vars(r) for r in [warm] + reps] + [
        {"setup_s": setups}]


class Round(NamedTuple):
    untraced: object  # serial, as the end-to-end run
    pool: object  # on the program's process pool; untraced itself where there is none
    traced: object  # serial: wrappers patched here are not seen by pool workers
    layers: dict
    tracer: object


def measure_traced(w, inputs, seed: int, seconds: float, workdir: str):
    """Rounds of: untraced serial, untraced on the process pool, traced serial."""
    from layers import TARGETS, layer_metrics
    from tracer import Tracer
    from workloads import rep_seed

    # set-up traced once, for the CSV writers it calls
    with Tracer(TARGETS) as tr_setup:
        w.setup(rep_seed(seed, 0), os.path.join(workdir, "traced-setup"))
    write_csv_s = layer_metrics(tr_setup)["data.write_csv.self_s"]

    def one_round(i):
        untraced = w.run(inputs(i), 1, workdir)
        workers = w.pool_workers()
        pool = w.run(inputs(i), workers, workdir) if workers > 1 else untraced
        with Tracer(TARGETS) as tr:
            traced = w.run(inputs(i), 1, workdir)
        return Round(untraced, pool, traced, layer_metrics(tr), tr)

    start = time.perf_counter()
    warm = w.run(inputs(0), 1, workdir)
    rounds = _repeat(one_round, seconds, start, 1)
    reps = [warm]
    same = [("two untraced runs of the same inputs", [warm, rounds[0].untraced])]
    for r in rounds:
        reps += [r.untraced, r.traced] + ([r.pool] if r.pool is not r.untraced else [])
        same.append(("the traced and untraced runs", [r.untraced, r.traced]))
        same.append(("the parallel and serial runs", [r.untraced, r.pool]))
    problems = []
    _check(reps, same, problems)

    last = rounds[-1].tracer
    if last.absent:
        print("perfbench: traced functions absent in this version: " + ", ".join(last.absent))

    def median_of(value):
        return _median([value(r) for r in rounds])

    metrics = {k: median_of(lambda r: r.layers[k]) for k in rounds[0].layers}
    metrics["data.write_csv.self_s"] = write_csv_s
    metrics["trace.overhead_s"] = median_of(lambda r: r.traced.wall_s - r.untraced.wall_s)
    metrics["trace.overhead_frac"] = median_of(lambda r: r.traced.wall_s / r.untraced.wall_s - 1)
    metrics["nested_cv.worker_util"] = median_of(lambda r: r.pool.worker_util)
    for kind in ("dt", "chebypoly", "chebytree", "erbf"):
        metrics[f"tuned_fit_s.{kind}"] = median_of(lambda r: r.untraced.tuned_fit_s.get(kind, 0.0))
    metrics["gap_mean"] = median_of(lambda r: r.untraced.gap_mean)
    metrics["predict_rows_per_s"] = median_of(lambda r: r.untraced.predict_rows_per_s)
    metrics["serve.model_json_kb"] = median_of(lambda r: r.untraced.model_json_kb)
    metrics["fail_frac"] = sum(r.failed for r in reps) / sum(r.attempted for r in reps)

    with open(Path(workdir).parent / f"spans-{w.name}.jsonl", "w", encoding="utf-8") as fh:
        for span in last.spans:
            fh.write(json.dumps(span) + "\n")
    raw = [vars(warm)] + [{"untraced": vars(r.untraced), "pool": vars(r.pool),
                           "traced": vars(r.traced)} for r in rounds]
    return metrics, reps, problems, raw


def metadata(args, w) -> dict:
    import numpy as np

    from workloads import nproc

    def git_sha():
        try:
            # the ceiling keeps git from looking for a repository above the checkout
            env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                 capture_output=True, text=True, timeout=10)
        except OSError:
            return None
        return out.stdout.strip() or None

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": nproc(),
        "pool_workers": w.pool_workers(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "note": NOTE,
    }


def _blas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded (None if unknown)."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = _load_spec()
    _import_package()
    from workloads import WORKLOADS, rep_seed

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{w.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    @functools.lru_cache(maxsize=None)
    def inputs(rep: int):
        return w.setup(rep_seed(args.seed, rep), str(workdir / f"in{rep}"))

    try:
        if args.trace:
            metrics, reps, problems, raw = measure_traced(w, inputs, args.seed,
                                                          args.seconds, str(workdir))
            wanted = spec["per_layer"]
        else:
            metrics, reps, problems, raw = measure(w, inputs, args.seconds, workdir, args.seed)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        problems.append(f"benchmark computed no value for {missing}")
    meta = metadata(args, w)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    with open(work_root / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result, "problems": problems, "reps": raw},
                  fh, indent=1)
    print("meta " + json.dumps(meta))
    for m in wanted:
        print(f"{m['name']:44s} {metrics.get(m['name'], 0.0):>16.6g} {m['unit']}")
    for p in problems:
        print(f"perfbench: FAILED CHECK: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
