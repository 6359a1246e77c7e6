"""Tests for CSV ingestion, imputation, scaling, and fold plans.

Property tests run seeded loops (200 random cases where the invariant is
cheap to check); oracles are computed independently of the library code.
"""

import csv
import io
import json
import math
import os

import numpy as np
import pytest

from smoothbench import data
from smoothbench.data import (
    BLOCK_ROWS,
    Dataset,
    Standardizer,
    column_medians,
    drop_quasi_constant,
    impute_median,
    inner_fold_count,
    kfold_split,
    load_csv,
    minmax_scale,
    read_array,
    read_int_array,
    subsample,
    write_csv,
    write_table,
)
from smoothbench.registry import fit_model
from smoothbench.synth import gen


# ---------------------------------------------------------------------------
# Dataset container


def test_dataset_coerces_and_validates():
    ds = Dataset(X=[[1, 2], [3, 4]], y=[1.0, 2.0], feature_names=("a", "b"))
    assert ds.X.dtype == np.float64
    assert ds.n == 2 and ds.d == 2

    with pytest.raises(ValueError):
        Dataset(X=np.zeros((3, 2)), y=np.zeros(2), feature_names=("a", "b"))
    with pytest.raises(ValueError):
        Dataset(X=np.zeros((2, 2)), y=np.zeros(2), feature_names=("a",))
    with pytest.raises(ValueError):
        Dataset(X=np.zeros(4), y=np.zeros(4), feature_names=("a",))


def test_select_rows_and_require_finite():
    ds = Dataset(np.arange(8.0).reshape(4, 2), np.arange(4.0), ("a", "b"))
    sub = ds.select_rows(np.array([2, 0]))
    assert np.array_equal(sub.X, [[4.0, 5.0], [0.0, 1.0]])
    assert np.array_equal(sub.y, [2.0, 0.0])

    ds.require_finite()
    bad = Dataset([[1.0], [np.nan]], [0.0, 1.0], ("a",))
    with pytest.raises(ValueError, match="impute"):
        bad.require_finite()
    bad_y = Dataset([[1.0], [2.0]], [0.0, np.inf], ("a",))
    with pytest.raises(ValueError, match="target"):
        bad_y.require_finite()


# ---------------------------------------------------------------------------
# CSV loading


def test_load_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    ds = Dataset(rng.normal(size=(20, 3)), rng.normal(size=20), ("a", "b", "c"), "t")
    path = os.path.join(tmp_path, "ds.csv")
    write_csv(ds, path)
    back = load_csv(path, "t")
    assert back.feature_names == ("a", "b", "c")
    assert back.target_name == "t"
    # repr round-trips float64 exactly
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)


def test_load_csv_missing_cells_and_target_drop(tmp_path):
    path = os.path.join(tmp_path, "m.csv")
    with open(path, "w") as fh:
        fh.write("a,b,y\n1,2,3\n,5,6\n7,8,\n9,10,11\n")
    ds = load_csv(path, "y")
    # row with empty target dropped; empty feature cell -> NaN
    assert ds.n == 3
    assert np.isnan(ds.X[1, 0])
    assert np.array_equal(ds.y, [3.0, 6.0, 11.0])


def test_load_csv_target_column_positions(tmp_path):
    # target not last: features keep their header order
    path = os.path.join(tmp_path, "p.csv")
    with open(path, "w") as fh:
        fh.write("y,a,b\n1,2,3\n4,5,6\n")
    ds = load_csv(path, "y")
    assert ds.feature_names == ("a", "b")
    assert np.array_equal(ds.X, [[2.0, 3.0], [5.0, 6.0]])
    assert np.array_equal(ds.y, [1.0, 4.0])


def test_load_csv_rejects_categorical(tmp_path):
    path = os.path.join(tmp_path, "cat.csv")
    with open(path, "w") as fh:
        fh.write("a,y\nred,1\nblue,2\n")
    with pytest.raises(ValueError, match="categorical"):
        load_csv(path, "y")


def test_load_csv_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(os.path.join(tmp_path, "nope.csv"), "y")

    empty = os.path.join(tmp_path, "empty.csv")
    open(empty, "w").close()
    with pytest.raises(ValueError, match="header"):
        load_csv(empty, "y")

    missing_t = os.path.join(tmp_path, "mt.csv")
    with open(missing_t, "w") as fh:
        fh.write("a,b\n1,2\n3,4\n")
    with pytest.raises(ValueError, match="target column"):
        load_csv(missing_t, "y")

    ragged = os.path.join(tmp_path, "rag.csv")
    with open(ragged, "w") as fh:
        fh.write("a,y\n1,2\n3\n")
    with pytest.raises(ValueError, match="expected 2 cells"):
        load_csv(ragged, "y")

    allnan = os.path.join(tmp_path, "an.csv")
    with open(allnan, "w") as fh:
        fh.write("a,b,y\n,1,2\n,3,4\n")
    with pytest.raises(ValueError, match="no parseable"):
        load_csv(allnan, "y")

    one_row = os.path.join(tmp_path, "one.csv")
    with open(one_row, "w") as fh:
        fh.write("a,y\n1,2\n")
    with pytest.raises(ValueError, match="at least 2"):
        load_csv(one_row, "y")


def test_load_csv_refuses_a_repeated_parsed_name(tmp_path):
    # a parsed name read twice would give one of its columns in place of the other
    def write(name, text):
        path = os.path.join(tmp_path, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    dup = write("dup.csv", "x0,x0,y\n1,2,3\n4,5,6\n")
    with pytest.raises(ValueError, match=f"{dup}: column 'x0' appears more than once"):
        load_csv(dup, "y")
    with pytest.raises(ValueError, match="column 'x0' appears more than once"):
        load_csv(dup, columns=["x0"])
    two_targets = write("yy.csv", "y,a,y\n1,2,3\n4,5,6\n")
    with pytest.raises(ValueError, match="column 'y' appears more than once"):
        load_csv(two_targets, "y", columns=["a"])
    plain = write("plain.csv", "a,b,y\n1,2,3\n4,5,6\n")
    with pytest.raises(ValueError, match=f"{plain}: feature column 'a' is listed more than once"):
        load_csv(plain, columns=["a", "b", "a"])
    # columns that are not parsed may share names
    shared = write("shared.csv", "note,a,note,y\nx,1,z,3\nw,4,v,6\n")
    ds = load_csv(shared, "y", columns=["a"])
    assert ds.feature_names == ("a",) and ds.X[:, 0].tolist() == [1.0, 4.0]


def test_load_csv_skips_blank_lines(tmp_path):
    path = os.path.join(tmp_path, "blank.csv")
    with open(path, "w") as fh:
        fh.write("a,y\n1,2\n\n3,4\n")
    ds = load_csv(path, "y")
    assert ds.n == 2


# ---------------------------------------------------------------------------
# The block reader against the row-by-row reader it replaced


def reference_load_csv(path, target_column=None, columns=None):
    """The row-by-row load_csv that the block reader replaced, kept as its oracle."""
    try:
        fh = open(path, "r", newline="", encoding="utf-8")
    except FileNotFoundError:
        raise FileNotFoundError(f"dataset file not found: {path}")
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row")
        header = [h.strip() for h in header]
        t_pos = None
        if target_column is not None:
            if target_column not in header:
                raise ValueError(
                    f"{path}: target column {target_column!r} not in header {header}"
                )
            t_pos = header.index(target_column)
        if columns is None:
            pos = [i for i in range(len(header)) if i != t_pos]
        else:
            missing = [c for c in columns if c not in header]
            if missing:
                raise ValueError(f"{path}: missing feature columns {missing}")
            pos = [header.index(c) for c in columns]
        feature_names = tuple(header[i] for i in pos)
        rows = []
        targets = []
        for lineno, rec in enumerate(reader, start=2):
            if not rec or (len(rec) == 1 and rec[0].strip() == ""):
                continue  # blank line
            if len(rec) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(rec)}"
                )
            if t_pos is not None:
                t_val = _reference_parse_cell(rec[t_pos].strip(), target_column, path, lineno)
                if not math.isfinite(t_val):
                    continue  # missing target: drop the row
                targets.append(t_val)
            vals = []
            for i in pos:
                v = _reference_parse_cell(rec[i].strip(), header[i], path, lineno)
                vals.append(v if math.isfinite(v) else math.nan)
            rows.append(vals)

    if target_column is None:
        if not rows:
            raise ValueError(f"{path}: no data rows")
        return Dataset(np.asarray(rows, dtype=np.float64), np.full(len(rows), math.nan),
                       feature_names, "")
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 usable rows, got {len(rows)}")
    X = np.asarray(rows, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    for j, name in enumerate(feature_names):
        if np.isnan(X[:, j]).all():
            raise ValueError(f"{path}: column {name!r} has no parseable numeric values")
    return Dataset(X, y, feature_names, target_column)


def _reference_parse_cell(cell, column, path, lineno):
    if cell == "":
        return math.nan
    try:
        return float(cell)
    except ValueError:
        raise ValueError(
            f"{path}:{lineno}: column {column!r} has non-numeric value {cell!r}; "
            "categorical columns are not supported"
        )


def _outcome(reader, path, target, columns):
    try:
        ds = reader(path, target, columns)
    except Exception as exc:  # the oracle's exception type and text are the spec
        return type(exc), str(exc)
    return (ds.X.shape, ds.X.tobytes(), ds.y.tobytes(), ds.feature_names, ds.target_name,
            ds.X.flags.c_contiguous)


def assert_reads_like_reference(path, target="y", columns=None):
    want = _outcome(reference_load_csv, path, target, columns)
    got = _outcome(load_csv, path, target, columns)
    assert got == want


def _rows(n, width=4, seed=0):
    rng = np.random.default_rng(seed)
    return [[repr(float(v)) for v in rng.normal(size=width)] for _ in range(n)]


def _csv_text(header, rows):
    return "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"


def _corpus():
    """(name, file text, [(target, columns), ...]) cases for the oracle comparison."""
    header = ["a", "b", "c", "y"]
    two_blocks = 2 * BLOCK_ROWS + 50
    both = [("y", None), (None, ["a", "b", "c"]), (None, ["c", "a"]), ("y", ["c", "b"])]

    rows = _rows(two_blocks)
    lines = [",".join(header)] + [",".join(r) for r in rows]
    for at in (BLOCK_ROWS + 1, BLOCK_ROWS, BLOCK_ROWS - 1, 5):  # after records 1024/1025
        lines.insert(at, ["", "   ", "\t", " \t "][at % 4])
    lines.insert(BLOCK_ROWS + 3, "   ")
    yield "blank-lines-at-block-edges", "\n".join(lines) + "\n", both

    rows = [["\"1.5\"", " 2.0 ", "inf", "1"], ["-inf", "nan", "1_0", "2"],
            ["\" 3 \"", "\u2003 4\u00a0", "\x1c5\x1f", "3"], ["1e308", "1e309", "-0.0", "4"],
            ["+NaN", "Infinity", "  ", "\"5\""]]
    yield "quoted-padded-special", _csv_text(header, rows), both

    rows = _rows(40)
    rows[3][3] = ""
    rows[4][3] = "nan"
    rows[5][3] = "-inf"
    rows[3][0] = "junk"  # never parsed: its target is missing
    rows[4][1] = "red"
    rows[5][2] = "x"
    yield "junk-features-in-dropped-rows", _csv_text(header, rows), [("y", None)]

    rows = _rows(30)
    rows[7][3] = "oops"
    rows[7][1] = "bad"
    yield "bad-target-and-feature-in-one-row", _csv_text(header, rows), both

    rows = _rows(two_blocks, seed=1)
    rows[BLOCK_ROWS + 300][0] = "late"
    rows[BLOCK_ROWS + 200][2] = "first"
    rows[BLOCK_ROWS + 200][1] = "same-row"
    rows[BLOCK_ROWS + 250][3] = "target"
    rows[2 * BLOCK_ROWS + 10][1] = "third-block"
    yield "first-bad-cell-in-second-block", _csv_text(header, rows), both

    rows = _rows(two_blocks, seed=2)
    rows[BLOCK_ROWS + 100][3] = "bad-target"
    rows[BLOCK_ROWS + 150][0] = "bad-feature"
    yield "bad-target-before-bad-feature", _csv_text(header, rows), both

    rows = _rows(60, seed=3)
    rows[10] = rows[10][:3]
    rows[20][1] = "bad"
    yield "ragged-before-bad-cell", _csv_text(header, rows), both

    rows = _rows(60, seed=4)
    rows[10][1] = "bad"
    rows[20] = rows[20] + ["extra"]
    yield "ragged-after-bad-cell", _csv_text(header, rows), both

    rows = _rows(two_blocks, seed=5)
    rows[BLOCK_ROWS] = rows[BLOCK_ROWS][:2]  # ends the first block exactly
    yield "ragged-at-block-edge", _csv_text(header, rows), both
    rows[BLOCK_ROWS - 1][0] = "bad"
    yield "bad-cell-just-before-ragged-block-edge", _csv_text(header, rows), both

    rows = [r + ["lbl", "", "n/a"] for r in _rows(50, seed=6)]
    yield "columns-with-junk-elsewhere", _csv_text(header + ["label", "empty", "note"], rows), [
        ("y", ["a", "b", "c"]), (None, ["b", "a"]), (None, ["a", "b", "c"])]

    rows = _rows(60, seed=7)
    rows[30][2] = "9" * (csv.field_size_limit() + 1)  # the csv module refuses this record
    yield "csv-error", _csv_text(header, rows), both
    rows[10][0] = "bad"
    yield "bad-cell-before-csv-error", _csv_text(header, rows), both

    yield "header-only", _csv_text(header, []), both
    yield "one-row", _csv_text(header, _rows(1)), both
    yield "one-usable-row", _csv_text(header, _rows(1) + [["1", "2", "3", ""]]), both
    yield "all-empty-feature-column", _csv_text(header, [["", "1", "2", "3"], ["", "4", "5", "6"]]), both
    yield "target-only", "y\n1\n \n\n2\n", [("y", None), (None, [])]
    yield "target-first-spaced-header", " y , a ,b\n1,2,3\n4,,6\n7,8,9\n", [("y", None)]

    # seeded random files: rare junk, blanks, quotes and ragged rows anywhere
    pool = ["1.25", "-3", " 7 ", "\"2.5\"", "", "nan", "inf", "1_0", "\u30001\u3000"]
    for case in range(12):
        rng = np.random.default_rng(100 + case)
        n = int(rng.integers(1, two_blocks))
        lines = [",".join(header)]
        for _ in range(n):
            cells = [pool[int(rng.integers(len(pool)))] for _ in range(4)]
            u = rng.random()
            if u < 0.0015:
                cells[int(rng.integers(4))] = "junk"
            elif u < 0.002:
                cells = cells[:3]
            elif u < 0.02:
                cells = [" "]
            lines.append(",".join(cells))
        yield f"random-{case}", "\n".join(lines) + "\n", both


@pytest.mark.parametrize("name, text, reads", list(_corpus()), ids=[c[0] for c in _corpus()])
def test_block_reader_matches_row_reader(tmp_path, name, text, reads):
    path = os.path.join(tmp_path, f"{name}.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    for target, columns in reads:
        assert_reads_like_reference(path, target, columns)


def test_float_accepts_no_padding_that_strip_would_keep():
    # the block reader first tries float(cell) on unstripped cells; that is
    # only safe if every padded cell float() accepts parses as its stripped
    # form does. float() strips fewer characters (not \x1c-\x1f): those
    # cells fail the fast path and the cell-by-cell path strips them.
    spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()] + ["\x00", "\u200b"]
    refused = []
    for c in spaces:
        for cell in (f"{c}2.5{c}", f"{c}-inf", f"nan{c}{c}", f"{c}1_0"):
            try:
                fast = float(cell)
            except ValueError:
                refused.append(c)
                continue
            assert fast == float(cell.strip()) or (math.isnan(fast) and math.isnan(
                float(cell.strip())))
    assert set(refused) == {"\x1c", "\x1d", "\x1e", "\x1f", "\x00", "\u200b"}


def test_write_table_bytes_equal_csv_writer(tmp_path):
    values = np.array([[0.1, -0.0, np.nan], [np.inf, -np.inf, 5e-324],
                       [1e300, -2.5e-308, 3.0]] * (BLOCK_ROWS // 2))
    header = ["plain", "with,comma", "with \"quote\""]
    path = os.path.join(tmp_path, "t.csv")
    write_table(path, header, values)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(header)
    for row in values:
        writer.writerow([repr(float(v)) for v in row])
    with open(path, "rb") as fh:
        assert fh.read() == want.getvalue().encode("utf-8")

    ds = Dataset(values[:, :2], values[:, 2], ("a", "b"), "t")
    write_csv(ds, path)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["a", "b", "t"])
    for i in range(ds.n):
        writer.writerow([repr(float(v)) for v in ds.X[i]] + [repr(float(ds.y[i]))])
    with open(path, "rb") as fh:
        assert fh.read() == want.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# Imputation


def test_impute_median_oracle():
    # median fit on train, applied to a separate frame
    train = Dataset(
        np.array([[1.0, 10.0], [3.0, np.nan], [5.0, 30.0], [np.nan, 50.0]]),
        np.zeros(4), ("a", "b"))
    test = Dataset(np.array([[np.nan, np.nan]]), np.zeros(1), ("a", "b"))
    out = impute_median(test, column_medians(train))
    assert out.X[0, 0] == 3.0           # median of 1,3,5
    assert out.X[0, 1] == 30.0          # median of 10,30,50


def test_impute_median_even_count_is_midpoint_mean():
    train = Dataset(np.array([[1.0], [2.0], [7.0], [100.0]]), np.zeros(4), ("a",))
    test = Dataset(np.array([[np.nan]]), np.zeros(1), ("a",))
    out = impute_median(test, column_medians(train))
    assert out.X[0, 0] == (2.0 + 7.0) / 2.0


def _huge_column_with_blanks(rows=200, seed=13):
    """Column a = 1.6e308 + U(0, 1e307) with every 10th cell blank, beside a normal b:
    180 finite entries of a, so its median averages two values whose sum overflows."""
    rng = np.random.default_rng(seed)
    a = 1.6e308 + rng.uniform(0.0, 1e307, size=rows)
    a[::10] = np.nan
    return np.column_stack([a, rng.normal(size=rows)])


def test_impute_median_of_two_huge_middle_values_is_finite():
    X = _huge_column_with_blanks()
    medians = column_medians(Dataset(X, np.zeros(len(X)), ("a", "b")))
    mid = np.sort(X[~np.isnan(X[:, 0]), 0])[89:91]
    with np.errstate(over="ignore"):
        assert np.isinf(mid.sum())
    assert medians[0] == mid[0] / 2.0 + mid[1] / 2.0
    assert medians[1] == np.median(X[:, 1])  # a finite median keeps its bits
    out = impute_median(Dataset(X, np.zeros(len(X)), ("a", "b")), medians)
    assert np.isfinite(out.X).all()


def test_median_of_tiny_middle_values_beside_a_huge_one_keeps_them():
    # scaled by the largest entry, 1e-30 / 2^997 would round to 0
    cols = {(1e300, 1e-30, 1e-30): 1e-30, (1e300, 1e-30, 3e-30, -1e300): 2e-30,
            (-1e300, -2e-310, -4e-310, 1e300): -3e-310, (1.7e308, -1.7e308): 0.0}
    for col, want in cols.items():
        X = np.array(col)[:, None]
        assert column_medians(Dataset(X, np.zeros(len(col)), ("a",)))[0] == want


def test_median_has_np_median_bits_wherever_the_middle_sum_fits():
    rng = np.random.default_rng(5)
    for m in range(1, 30):
        X = rng.normal(size=(m, 4)) * 10.0 ** rng.uniform(-300, 300, size=4)
        X[:, 3] = np.round(X[:, 3] / X[:, 3].std())  # ties and negative zeros
        X[rng.random(size=(m, 4)) < 0.2] = np.nan
        X[0] = 1.0
        medians = column_medians(Dataset(X, np.zeros(m), tuple("abcd")))
        want = [np.median(c[~np.isnan(c)]) for c in X.T]
        assert medians.tobytes() == np.array(want).tobytes()


def test_impute_median_passthrough_bitwise():
    # non-NaN entries must be bit-identical after imputation (200 random cases)
    rng = np.random.default_rng(11)
    for case in range(200):
        n, d = int(rng.integers(2, 12)), int(rng.integers(1, 5))
        X = rng.normal(size=(n, d))
        mask = rng.random((n, d)) < 0.3
        # keep at least one finite value per column so the median exists
        mask[rng.integers(n), :] = False
        Xm = X.copy()
        Xm[mask] = np.nan
        ds = Dataset(Xm, np.zeros(n), tuple(f"f{j}" for j in range(d)))
        out = impute_median(ds, column_medians(ds))
        same = ~mask
        assert np.array_equal(
            out.X[same].view(np.uint64), Xm[same].view(np.uint64))
        assert np.isfinite(out.X).all()


def test_impute_median_all_missing_column_errors():
    train = Dataset(np.array([[np.nan], [np.nan]]), np.zeros(2), ("a",))
    with pytest.raises(ValueError, match="entirely missing"):
        column_medians(train)


def test_impute_median_schema_mismatch():
    a = Dataset(np.zeros((2, 1)), np.zeros(2), ("a",))
    b = Dataset(np.zeros((2, 2)), np.zeros(2), ("a", "b"))
    with pytest.raises(ValueError, match="schema"):
        impute_median(b, column_medians(a))


# ---------------------------------------------------------------------------
# Quasi-constant filter


def test_drop_quasi_constant_boundary(monkeypatch):
    # 19 of 20 rows share a value -> 0.95 fraction: kept at the default
    # threshold (strict inequality), dropped just above it.
    col = np.ones(20)
    col[0] = 2.0
    X = np.column_stack([col, np.arange(20.0)])
    ds = Dataset(X, np.zeros(20), ("q", "ramp"))
    assert data.QUASI_CONSTANT_THRESHOLD == 0.95
    assert drop_quasi_constant(ds).feature_names == ("q", "ramp")
    monkeypatch.setattr(data, "QUASI_CONSTANT_THRESHOLD", 0.9499)
    assert drop_quasi_constant(ds).feature_names == ("ramp",)


def test_drop_quasi_constant_nan_not_a_value(monkeypatch):
    # NaNs never count toward the mode; a half-NaN constant column still has
    # mode fraction 10/20 = 0.5 and survives a 0.6 threshold.
    col = np.full(20, 7.0)
    col[10:] = np.nan
    ds = Dataset(np.column_stack([col, np.arange(20.0)]), np.zeros(20), ("h", "r"))
    monkeypatch.setattr(data, "QUASI_CONSTANT_THRESHOLD", 0.6)
    assert drop_quasi_constant(ds).feature_names == ("h", "r")


def test_drop_quasi_constant_all_dropped_errors(monkeypatch):
    ds = Dataset(np.ones((10, 2)), np.zeros(10), ("a", "b"))
    monkeypatch.setattr(data, "QUASI_CONSTANT_THRESHOLD", 0.5)
    with pytest.raises(ValueError, match="quasi-constant"):
        drop_quasi_constant(ds)


# ---------------------------------------------------------------------------
# Fold plans


def test_kfold_partition_property():
    # union of test folds covers every index exactly once (200 random cases)
    rng = np.random.default_rng(5)
    for case in range(200):
        n = int(rng.integers(4, 200))
        k = int(rng.integers(2, min(n, 10) + 1))
        plan = kfold_split(n, k, seed=int(rng.integers(1 << 30)))
        seen = np.concatenate([plan.test_indices(f) for f in range(k)])
        assert np.array_equal(np.sort(seen), np.arange(n))
        sizes = [plan.test_indices(f).size for f in range(k)]
        assert max(sizes) - min(sizes) <= 1
        # train/test complement for a sampled fold
        f = int(rng.integers(k))
        tr, te = plan.train_indices(f), plan.test_indices(f)
        assert np.array_equal(np.sort(np.concatenate([tr, te])), np.arange(n))


def test_kfold_deterministic_and_shuffled():
    a = kfold_split(100, 5, seed=9)
    b = kfold_split(100, 5, seed=9)
    assert np.array_equal(a.assignments, b.assignments)
    c = kfold_split(100, 5, seed=10)
    assert not np.array_equal(a.assignments, c.assignments)
    # shuffling: fold 0 is not simply the first n//k indices
    assert not np.array_equal(a.test_indices(0), np.arange(20))


def test_kfold_validation():
    with pytest.raises(ValueError):
        kfold_split(5, 1, seed=0)
    with pytest.raises(ValueError):
        kfold_split(3, 4, seed=0)


def test_inner_fold_count_rule():
    assert inner_fold_count(999) == 5
    assert inner_fold_count(1000) == 3
    assert inner_fold_count(10) == 5
    with pytest.raises(ValueError):
        inner_fold_count(9)


# ---------------------------------------------------------------------------
# Scalers


def test_standardizer_round_trip_property():
    # applying a fitted standardizer to its own training data yields columns
    # with |mean| < 1e-9 and (for non-constant columns) unit variance
    rng = np.random.default_rng(21)
    for case in range(200):
        n, d = int(rng.integers(2, 50)), int(rng.integers(1, 6))
        X = rng.normal(loc=rng.uniform(-100, 100), scale=rng.uniform(0.01, 50),
                       size=(n, d))
        Z = Standardizer.fit(X).apply(X)
        assert np.abs(Z.mean(axis=0)).max() < 1e-9
        if n >= 2:
            spread = X.std(axis=0) > 1e-8
            assert np.allclose(Z.std(axis=0)[spread], 1.0)


def test_standardizer_constant_column_floor():
    X = np.column_stack([np.full(5, 3.0), np.arange(5.0)])
    s = Standardizer.fit(X)
    assert s.stds[0] == 4.0 * Standardizer.STD_FLOOR  # relative to the scale 2^2 of 3.0
    Z = s.apply(X)
    assert np.all(Z[:, 0] == 0.0)
    assert np.isfinite(Z).all()


@pytest.mark.parametrize("kind", ["ridge", "erbf"])
def test_feature_scale_past_std_overflow_keeps_predictions(kind):
    # multiplying X by 2^k is exact, and so is every step of the fit and the
    # predictions; from k = 510 on, X.std(axis=0) overflows float64, and at
    # k = 1016 on these 600 rows so does X.mean(axis=0)
    ds = gen("friedman1", n=600, noise_std=0.3, seed=4)
    Xq = gen("friedman1", n=50, noise_std=0.3, seed=5).X
    ref = fit_model(kind, ds.X, ds.y, {}, seed=0).predict(Xq)
    for k in (510, 520, 530, 1016):
        with np.errstate(over="ignore"):
            assert np.isinf((ds.X * 2.0 ** k).std(axis=0)).all()
            assert np.isinf((ds.X * 2.0 ** k).mean(axis=0)).all() == (k == 1016)
        model = fit_model(kind, ds.X * 2.0 ** k, ds.y, {}, seed=0)
        assert model.predict(Xq * 2.0 ** k).tobytes() == ref.tobytes()


def test_standardizer_takes_the_mean_of_a_column_whose_sum_overflows():
    # 1e308 + 1.7e308 overflows, but the mean of finite values always fits
    s = Standardizer.fit(np.array([[1.0, 1e308], [2.0, 1.7e308]]))
    assert s.means.tolist() == [1.5, 1.35e308]
    assert s.stds[0] == 0.5 and s.stds[1] == pytest.approx(3.5e307, rel=1e-15)
    # summed in partial sums that overflow to +inf and -inf, the mean reads
    # nan (numpy's std sums the same way), though it is 0 and the std 8e307
    x = np.tile([8e307, -8e307], 12)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(x.mean(axis=0)).any()
        assert not np.isfinite(x.std(axis=0)).any()
    s = Standardizer.fit(x)
    assert s.means.tolist() == [0.0] and s.stds[0] == pytest.approx(8e307, rel=1e-15)


def test_standardizer_scales_a_column_whose_std_nears_the_float_max():
    # the mean is 0 and max |x - mean| rounds up to 2^1024, but the column is
    # scaled by 2^1023, and a population std never exceeds max |x|
    s = Standardizer.fit(np.array([[-1.7e308, 1.0], [1.7e308, 2.0]]))
    assert s.means.tolist() == [0.0, 1.5] and s.stds.tolist() == [1.7e308, 0.5]
    # an infinite entry has no finite mean to scale back to
    with pytest.raises(ValueError, match="column 1: its mean overflows"):
        Standardizer.fit(np.array([[1.0, np.inf], [2.0, 1.0]]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_standardizer_applies_where_x_minus_the_mean_overflows():
    # -1.7e308 - 5.7e307 overflows, but the column is worked over 2^1023,
    # as its copy over 2^1023 is, bit for bit
    x = np.array([[-1.7e308], [1.7e308], [1.7e308]])
    Z = Standardizer.fit(x).apply(x)
    assert Z[:, 0].tolist() == pytest.approx([-2.0 ** 0.5, 0.5 ** 0.5, 0.5 ** 0.5], rel=1e-15)
    small = x * 2.0 ** -1023
    assert Z.tobytes() == Standardizer.fit(small).apply(small).tobytes()


def test_standardizer_serialization():
    X = np.random.default_rng(0).normal(size=(10, 3))
    s = Standardizer.fit(X)
    s2 = Standardizer.from_dict(s.to_dict(), 3)
    assert np.allclose(s.apply(X), s2.apply(X))


def _minmax(X):
    """The mins and ranges a fit takes from its training rows."""
    mins = X.min(axis=0)
    return mins, X.max(axis=0) - mins


def test_minmax_maps_training_extremes_to_endpoints():
    X = np.array([[0.0, -5.0], [10.0, 5.0], [5.0, 0.0]])
    Z = minmax_scale(X, *_minmax(X))
    assert Z.min(axis=0).tolist() == [-1.0, -1.0]
    assert Z.max(axis=0).tolist() == [1.0, 1.0]
    assert Z[2, 0] == 0.0 and Z[2, 1] == 0.0


def test_minmax_clip_property():
    # arbitrary out-of-range queries land in [-1, 1]
    rng = np.random.default_rng(31)
    for case in range(200):
        n, d = int(rng.integers(2, 30)), int(rng.integers(1, 5))
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10)
        mins, ranges = _minmax(X)
        Q = rng.normal(size=(int(rng.integers(1, 20)), d)) * 100
        Z = minmax_scale(Q, mins, ranges)
        assert np.all(Z >= -1.0) and np.all(Z <= 1.0)


def test_minmax_constant_column_maps_to_zero():
    X = np.column_stack([np.full(4, 2.0), np.arange(4.0)])
    Z = minmax_scale(np.array([[2.0, 1.5], [99.0, 1.5]]), *_minmax(X))
    assert Z[0, 0] == 0.0 and Z[1, 0] == 0.0


def test_minmax_per_row_scaling_equals_per_column_scaling_of_each_row():
    # one row of mins and ranges per row of X, as chebytree scales its leaves
    rng = np.random.default_rng(33)
    X = rng.normal(size=(30, 3)) * 4
    mins = rng.normal(size=(30, 3))
    ranges = rng.uniform(0.0, 2.0, size=(30, 3))
    ranges[::4, 1] = 0.0
    Z = minmax_scale(X, mins, ranges)
    for i in range(30):
        assert np.array_equal(Z[i], minmax_scale(X[i:i + 1], mins[i], ranges[i])[0])


# ---------------------------------------------------------------------------
# The model-file array reader


def test_read_array_returns_float64_of_the_shape():
    d = {"w": [1, 2.5, -3], "c": [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], "b": 7}
    w = read_array("m", d, "w", (3,))
    assert w.dtype == np.float64 and w.tolist() == [1.0, 2.5, -3.0]
    # None matches any length
    assert read_array("m", d, "c", (None, 2)).shape == (3, 2)
    assert read_array("m", d, "w", (None,)).shape == (3,)
    # () is a scalar
    b = read_array("m", d, "b", ())
    assert b.shape == () and b.dtype == np.float64 and float(b) == 7.0
    assert read_array("m", {"e": []}, "e", (None,)).shape == (0,)


@pytest.mark.parametrize("value, shape, message", [
    ([1.0, 2.0], (3,), "m: w has shape (2,), expected (3,)"),
    ([[1.0, 2.0]], (None, 3), "m: w has shape (1, 2), expected (n, 3)"),
    ([1.0], (), "m: w has shape (1,), expected ()"),
    (1.0, (None,), "m: w has shape (), expected (n,)"),
    ([1.0, float("nan")], (2,), "m: w holds a non-finite number"),
    (float("inf"), (), "m: w holds a non-finite number"),
    ([[1.0, 2.0], [3.0]], (None, 2), "m: w is not a number or a regular array of numbers"),
    ([1.0, [2.0, 3.0]], (2,), "m: w is not a number or a regular array of numbers"),
    ([1.0, "abc"], (2,), "m: w is not a number or a regular array of numbers"),
    ("1.5", (), "m: w is not a number or a regular array of numbers"),
    ([1.0, None], (2,), "m: w is not a number or a regular array of numbers"),
    (True, (), "m: w is not a number or a regular array of numbers"),
    ([1.0, True], (2,), "m: w is not a number or a regular array of numbers"),
    ([[1.0], [False]], (2, 1), "m: w is not a number or a regular array of numbers"),
    ({"a": 1.0}, (), "m: w is not a number or a regular array of numbers"),
], ids=["short", "wide", "list-for-scalar", "scalar-for-list", "nan", "inf", "ragged-rows",
        "ragged-entry", "string-entry", "string-scalar", "null-entry", "bool", "bool-entry",
        "nested-bool", "object"])
def test_read_array_rejects_naming_owner_and_key(value, shape, message):
    with pytest.raises(ValueError) as exc:
        read_array("m", {"w": value}, "w", shape)
    assert message in str(exc.value)


def test_read_int_array_reads_integers_and_refuses_the_rest():
    got = read_int_array("m", {"w": [0, 3.0, -2]}, "w", (None,))
    assert got.dtype == np.int64 and got.tolist() == [0, 3, -2]
    assert read_int_array("m", {"c": 2}, "c", ()).tolist() == 2
    for value, shape, message in [
        ([0, 1.7, 2], (None,), "m: w[1] = 1.7 is not an integer"),
        (2.9, (), "m: w = 2.9 is not an integer"),
        ([0, 1, 2.0 ** 63], (None,), "m: w[2] = 9.223372036854776e+18 is not an integer"),
        ([0, 1.7, "2"], (None,), "m: w is not a number or a regular array of numbers"),
        ([0, True], (None,), "m: w is not a number or a regular array of numbers"),
        (True, (), "m: w is not a number or a regular array of numbers"),
    ]:
        with pytest.raises(ValueError) as exc:
            read_int_array("m", {"w": value}, "w", shape)
        assert message in str(exc.value)


def test_read_array_missing_key_is_a_key_error():
    with pytest.raises(KeyError):
        read_array("m", {}, "w", (2,))


def test_minmax_serialization():
    # mins and ranges as a model file stores them (tolist) and reads them
    # (read_array) scale queries to the same bits
    X = np.random.default_rng(1).normal(size=(8, 2))
    mins, ranges = _minmax(X)
    d = json.loads(json.dumps({"mins": mins.tolist(), "ranges": ranges.tolist()}))
    back = (read_array("m", d, "mins", (2,)), read_array("m", d, "ranges", (2,)))
    Q = np.random.default_rng(2).normal(size=(5, 2)) * 10
    assert np.array_equal(minmax_scale(Q, mins, ranges), minmax_scale(Q, *back))


# ---------------------------------------------------------------------------
# Subsampling


def test_subsample_cap_and_determinism():
    ds = Dataset(np.arange(40.0).reshape(20, 2), np.arange(20.0), ("a", "b"))
    small = subsample(ds, 7, seed=4)
    assert small.n == 7
    again = subsample(ds, 7, seed=4)
    assert np.array_equal(small.X, again.X)
    # rows are drawn without replacement and keep the original order
    assert np.all(np.diff(small.y) > 0)
    # no-op when the dataset is already small enough
    assert subsample(ds, 20, seed=4) is ds
    with pytest.raises(ValueError):
        subsample(ds, 0, seed=1)
