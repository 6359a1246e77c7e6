"""The bits ledger: one command that says whether a change kept the bits.

    python3 scripts/ledger.py write   # replay and rewrite scripts/ledger.json
    python3 scripts/ledger.py check   # replay and compare with scripts/ledger.json

Replays perfbench's workloads (perfbench/workloads.py: ``setup`` and ``run``,
repetition 0, serially) at seeds 501-510, at one BLAS thread, in a temporary
directory outside the checkout. One entry per workload and seed:

- f1-all: the masked results.jsonl digest that ``Harness.run`` returns;
- serve: the sha256 of every model file and every prediction file that
  ``Serve.run`` writes, by file name.

The ledger also records the platform: the numpy version, the BLAS name and
version where numpy reports them, the BLAS threads and the CPU model name.

check exits 0 when every entry matches, and 1 listing every entry that
differs. When the platform differs from the ledger's, it names the fields
and exits 2 without a verdict: on another CPU or BLAS, a kernel choice alone
can move the last bits. A change that moves bits on purpose runs write and
names the moved entries.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple, Union

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "scripts" / "ledger.json"
SEEDS = range(501, 511)
WORKLOADS = ("f1-all", "serve")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# an entry is one digest, or one digest per file name
Entry = Union[str, Dict[str, str]]


def _flat(entries: Dict[str, Entry]) -> Dict[str, str]:
    """Every digest under its entry key, a file's under 'key file'."""
    out = {}
    for key, value in entries.items():
        if isinstance(value, dict):
            out.update({f"{key} {name}": digest for name, digest in value.items()})
        else:
            out[key] = value
    return out


def platform_differences(expected: dict, actual: dict) -> List[str]:
    """The platform fields whose values differ, in sorted order."""
    return sorted(k for k in set(expected) | set(actual) if expected.get(k) != actual.get(k))


def entry_differences(expected: Dict[str, Entry], actual: Dict[str, Entry]) -> List[str]:
    """One line for each digest that differs, is missing or is new, in sorted order."""
    want, got = _flat(expected), _flat(actual)
    lines = []
    for key in sorted(set(want) | set(got)):
        if key not in got:
            lines.append(f"{key}: missing from the replay")
        elif key not in want:
            lines.append(f"{key}: not in the ledger")
        elif want[key] != got[key]:
            lines.append(f"{key}: differs")
    return lines


def verdict(ledger: dict, platform: dict, entries: Dict[str, Entry]) -> Tuple[int, List[str]]:
    """check's exit code and lines: 2 on another platform, 1 on any differing entry."""
    fields = platform_differences(ledger["platform"], platform)
    if fields:
        return 2, [f"platform field {f!r}: ledger {ledger['platform'].get(f)!r}, "
                   f"here {platform.get(f)!r}" for f in fields]
    lines = entry_differences(ledger["entries"], entries)
    return (1 if lines else 0), lines


def _platform() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its configuration
        blas = {}
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"numpy": np.__version__, "blas_name": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS}, "cpu": cpu}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _replay() -> Dict[str, Entry]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import smoothbench
    from workloads import WORKLOADS as SPECS, rep_seed

    if Path(smoothbench.__file__).resolve().parent != ROOT / "src" / "smoothbench":
        sys.exit(f"ledger: smoothbench imported from {smoothbench.__file__}, not {ROOT / 'src'}")
    entries: Dict[str, Entry] = {}
    with tempfile.TemporaryDirectory(prefix="smoothbench-ledger-") as tmp:
        for name in WORKLOADS:
            w = SPECS[name]
            for seed in SEEDS:
                run_dir = Path(tmp, f"{name}-{seed}")
                run_dir.mkdir()
                inputs = w.setup(rep_seed(seed, 0), str(Path(tmp, f"{name}-{seed}-in")))
                rep = w.run(inputs, 1, str(run_dir))
                # Serve.run writes only model and prediction files into its directory
                entries[f"{name}/{seed}"] = rep.digest if name == "f1-all" else {
                    p.name: _sha256(p) for p in sorted(run_dir.iterdir())}
    return entries


def main(argv: List[str]) -> int:
    if argv not in (["write"], ["check"]):
        print("usage: python3 scripts/ledger.py write|check", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    platform = _platform()
    if argv == ["write"]:
        entries = _replay()
        LEDGER.write_text(json.dumps({"platform": platform, "entries": entries},
                                     indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"ledger: wrote {len(entries)} entries to {LEDGER}")
        return 0
    ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
    entries = {} if platform_differences(ledger["platform"], platform) else _replay()
    code, lines = verdict(ledger, platform, entries)
    for line in lines:
        print(f"ledger: {line}", file=sys.stderr)
    outcome = {0: "every entry matches", 1: f"{len(lines)} digest(s) differ",
               2: "another platform, no verdict"}[code]
    print(f"ledger: {outcome} ({len(ledger['entries'])} entries)")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
