"""scripts/ledger.py's comparison and exit codes, on fixed ledgers.

No replay runs here: the replay takes about half a minute, and its digests
hold only on the ledger's platform.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
_spec = importlib.util.spec_from_file_location("ledger", SCRIPTS / "ledger.py")
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)

PLATFORM = {"numpy": "2.4.6", "blas_name": "scipy-openblas", "blas_version": "0.3.31",
            "blas_threads": {"OPENBLAS_NUM_THREADS": "1"}, "cpu": "some cpu"}
ENTRIES = {"f1-all/501": "aa", "f1-all/502": "bb",
           "serve/501": {"ridge-0.json": "cc", "ridge-0-score.csv": "dd"}}
LEDGER = {"platform": PLATFORM, "entries": ENTRIES}


def test_matching_entries_pass():
    assert ledger.verdict(LEDGER, dict(PLATFORM), copy.deepcopy(ENTRIES)) == (0, [])


def test_every_differing_entry_is_listed():
    got = copy.deepcopy(ENTRIES)
    got["f1-all/502"] = "xx"
    got["serve/501"]["ridge-0.json"] = "yy"
    assert ledger.verdict(LEDGER, PLATFORM, got) == (
        1, ["f1-all/502: differs", "serve/501 ridge-0.json: differs"])


def test_missing_and_new_entries_differ():
    got = copy.deepcopy(ENTRIES)
    del got["f1-all/501"]
    got["serve/501"]["dt-0.json"] = "ee"
    assert ledger.verdict(LEDGER, PLATFORM, got) == (
        1, ["f1-all/501: missing from the replay", "serve/501 dt-0.json: not in the ledger"])


@pytest.mark.parametrize("field", sorted(PLATFORM))
def test_another_platform_gives_no_verdict_and_names_the_field(field):
    here = dict(PLATFORM, **{field: "other"})
    code, lines = ledger.verdict(LEDGER, here, {})
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith(f"platform field {field!r}")


def test_a_platform_field_the_ledger_lacks_differs():
    assert ledger.platform_differences(PLATFORM, dict(PLATFORM, python="3.11")) == ["python"]


def test_usage_error_exits_2():
    assert ledger.main([]) == 2
    assert ledger.main(["verify"]) == 2


def test_the_committed_ledger_covers_every_workload_and_seed():
    doc = json.loads((SCRIPTS / "ledger.json").read_text(encoding="utf-8"))
    assert set(doc["platform"]) == set(PLATFORM)
    assert set(doc["entries"]) == {f"{w}/{s}" for w in ledger.WORKLOADS for s in ledger.SEEDS}
    for seed in ledger.SEEDS:
        files = doc["entries"][f"serve/{seed}"]
        assert any(name.endswith(".json") for name in files)
        assert any(name.endswith(".csv") for name in files)
