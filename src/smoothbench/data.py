"""Tabular dataset handling: CSV ingestion, imputation, scaling, fold plans.

All datasets are dense float64 feature matrices with a single numeric target.
Categorical columns are rejected at ingestion; missing cells become NaN and are
resolved by median imputation before any model sees the data.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .numkit import pow2_scale


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix + target vector with column names.

    Treat instances as read-only: every transformation returns a new Dataset.
    """

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    target_name: str = "y"

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("feature matrix must be 2-dimensional")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError("target length must match feature rows")
        if len(self.feature_names) != X.shape[1]:
            raise ValueError("feature_names length must match feature columns")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def select_rows(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.X[idx], self.y[idx], self.feature_names, self.target_name)

    def require_finite(self) -> None:
        """Raise if any feature or target entry is NaN or infinite."""
        if not np.isfinite(self.X).all():
            raise ValueError("feature matrix contains NaN or infinite entries; impute first")
        if not np.isfinite(self.y).all():
            raise ValueError("target contains NaN or infinite entries")


# records parsed per block: the columns of one block stay small, so the
# reader's peak memory does not grow with the file
BLOCK_ROWS = 1024


def load_csv(path: str, target_column: Optional[str] = None,
             columns: Optional[Sequence[str]] = None) -> Dataset:
    """Load a headered CSV into a Dataset.

    The features are `columns`, matched by header name, or else every column
    but the target. Only they and the target are parsed, so other columns may
    hold anything and share names. A parsed name must appear once in the
    header, and `columns` must not repeat a name. Empty cells and non-finite
    numbers become NaN; any other cell that does not parse as a number is
    treated as categorical and rejected with an error naming the column.

    With a target column, rows whose target is missing (or not a finite
    number) are dropped, at least 2 rows must remain, and a feature column
    with no numeric value is rejected. Without one, as for rows to predict,
    y is NaN, every row is kept and one row is enough.

    Records are parsed column by column in blocks of BLOCK_ROWS. Errors are
    reported as a row-by-row reader would: the first offending row in file
    order, and within a row the target before the features in column order.
    The feature cells of a dropped row are never parsed.
    """
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
        # a repeated name would read one of its columns in place of another
        parsed = feature_names + (() if target_column is None else (target_column,))
        for i, name in enumerate(parsed):
            if header.count(name) > 1:
                raise ValueError(f"{path}: column {name!r} appears more than once in the header")
            if name in parsed[:i]:
                raise ValueError(f"{path}: feature column {name!r} is listed more than once")
        X_blocks: list[np.ndarray] = []
        y_blocks: list[np.ndarray] = []
        for linenos, records in _record_blocks(reader, len(header), path):
            Xb, yb = _parse_block(list(zip(*records)), linenos, header, t_pos, pos, path)
            X_blocks.append(Xb)
            y_blocks.append(yb)
    X = np.concatenate(X_blocks) if X_blocks else np.empty((0, len(pos)))
    y = np.concatenate(y_blocks) if y_blocks else np.empty(0)
    if target_column is None:
        if y.shape[0] == 0:
            raise ValueError(f"{path}: no data rows")
        return Dataset(X, y, feature_names, "")
    if y.shape[0] < 2:
        raise ValueError(f"{path}: need at least 2 usable rows, got {y.shape[0]}")
    for j, name in enumerate(feature_names):
        if np.isnan(X[:, j]).all():
            raise ValueError(f"{path}: column {name!r} has no parseable numeric values")
    return Dataset(X, y, feature_names, target_column)


def _parse_block(cols: list, linenos: list[int], header: list[str], t_pos: Optional[int],
                 pos: list[int], path: str) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows and targets of one block of records, given as its columns.

    Rows whose target is not a finite number are dropped before their
    feature cells are parsed. Raises the error of the first bad cell in row
    order, the target's before the features' (in `pos` order) within a row.
    """
    keep = None  # rows with a finite target; None keeps them all
    t_error = None
    yb = np.full(len(linenos), math.nan)
    if t_pos is not None:
        yb, bad = _parse_column(cols[t_pos])
        if bad is not None:
            t_error = _cell_error(path, linenos[bad], header[t_pos], cols[t_pos][bad])
            yb = yb[:bad]  # a bad feature cell in an earlier row comes first
        finite = np.isfinite(yb)
        if t_error is not None or not finite.all():
            keep = np.flatnonzero(finite)
            yb = yb[keep]
    Xb = np.empty((yb.shape[0], len(pos)))
    f_error = None  # (row, error) of the first bad feature cell
    for j, i in enumerate(pos):
        cells = cols[i] if keep is None else [cols[i][k] for k in keep]
        v, bad = _parse_column(cells)
        if bad is not None:
            row = bad if keep is None else int(keep[bad])
            if f_error is None or row < f_error[0]:
                f_error = (row, _cell_error(path, linenos[row], header[i], cells[bad]))
            continue
        Xb[:, j] = np.where(np.isfinite(v), v, math.nan)
    if f_error is not None:
        raise f_error[1]
    if t_error is not None:
        raise t_error
    return Xb, yb


def _record_blocks(reader, width: int, path: str):
    """Yield (line numbers, records) of up to BLOCK_ROWS non-blank records.

    A record without `width` cells, or a record the csv module cannot read,
    ends the block before it; its error is raised once that block has been
    parsed, so a bad cell in an earlier row is reported first.
    """
    linenos: list[int] = []
    records: list[list[str]] = []
    stop: Optional[Exception] = None
    try:
        for lineno, rec in enumerate(reader, start=2):
            if not rec or (len(rec) == 1 and rec[0].strip() == ""):
                continue  # blank line
            if len(rec) != width:
                stop = ValueError(f"{path}:{lineno}: expected {width} cells, got {len(rec)}")
                break
            linenos.append(lineno)
            records.append(rec)
            if len(records) == BLOCK_ROWS:
                yield linenos, records
                linenos, records = [], []
    except csv.Error as exc:
        stop = exc
    if records:
        yield linenos, records
    if stop is not None:
        raise stop


def _parse_column(cells: Sequence[str]) -> tuple[np.ndarray, Optional[int]]:
    """Parse a column of cells as floats, empty cells as NaN.

    Returns the values and the index of the first cell that is not a number,
    or None; values from that cell on are not filled in. The first pass
    calls float() on unstripped cells. float() ignores part of the padding
    str.strip() removes (not \\x1c-\\x1f), so a cell it refuses is parsed
    stripped by the cell-by-cell pass, and both passes give the same values.
    """
    try:
        return np.array(list(map(float, cells)), dtype=np.float64), None
    except ValueError:
        pass
    out = np.empty(len(cells))
    for k, cell in enumerate(cells):
        cell = cell.strip()
        if cell == "":
            out[k] = math.nan
            continue
        try:
            out[k] = float(cell)
        except ValueError:
            return out, k
    return out, None


def _cell_error(path: str, lineno: int, column: str, cell: str) -> ValueError:
    return ValueError(
        f"{path}:{lineno}: column {column!r} has non-numeric value {cell.strip()!r}; "
        "categorical columns are not supported"
    )


def write_csv(ds: Dataset, path: str) -> None:
    """Write a Dataset to CSV with the target as the last column."""
    write_table(path, list(ds.feature_names) + [ds.target_name],
                np.column_stack([ds.X, ds.y]))


def write_table(path: str, header: Sequence[str], values: np.ndarray) -> None:
    """Write a header and the rows of a 2-D float array as CSV, each cell repr(float).

    The bytes equal those of csv.writer: a float's repr never needs quoting,
    and rows end in the writer's CRLF. Rows go out BLOCK_ROWS at a time.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        values = np.asarray(values, dtype=np.float64)
        for start in range(0, values.shape[0], BLOCK_ROWS):
            block = values[start:start + BLOCK_ROWS].tolist()
            fh.write("".join(",".join(map(repr, row)) + "\r\n" for row in block))


def column_medians(train: Dataset) -> np.ndarray:
    """Per-column medians of train's non-NaN entries; an entirely NaN column is an error.

    Each is s * np.median(col / s), s = numkit.pow2_scale(max |col|), so the
    two middle values that an even count averages never sum past float64.
    """
    medians = np.empty(train.d)
    for j in range(train.d):
        col = train.X[:, j]
        finite = col[~np.isnan(col)]
        if finite.size == 0:
            raise ValueError(
                f"column {train.feature_names[j]!r} is entirely missing in the training split"
            )
        s = pow2_scale(np.abs(finite).max())
        medians[j] = s * np.median(finite / s)
    return medians


def impute_median(ds: Dataset, medians: np.ndarray) -> Dataset:
    """Fill each NaN of ds with its column's entry of medians; other entries keep their bits."""
    if medians.shape != (ds.d,):
        raise ValueError(f"medians have shape {medians.shape}, not the feature schema's")
    X = ds.X.copy()
    mask = np.isnan(X)
    X[mask] = np.broadcast_to(medians, X.shape)[mask]
    return Dataset(X, ds.y, ds.feature_names, ds.target_name)


# the largest share of the rows that one value of a kept feature may cover
QUASI_CONSTANT_THRESHOLD = 0.95


def drop_quasi_constant(ds: Dataset) -> Dataset:
    """Drop features whose most frequent value covers > QUASI_CONSTANT_THRESHOLD of the rows.

    The boundary is strict: a column at exactly the threshold fraction is kept.
    NaNs do not count as a value. Dropping every feature is an error.
    """
    keep = []
    for j in range(ds.d):
        col = ds.X[:, j]
        finite = col[~np.isnan(col)]
        if finite.size == 0:
            keep.append(j)  # all-missing column: imputation's problem, not ours
            continue
        _, counts = np.unique(finite, return_counts=True)
        if counts.max() / ds.n <= QUASI_CONSTANT_THRESHOLD:
            keep.append(j)
    if not keep:
        raise ValueError("every feature is quasi-constant at threshold "
                         f"{QUASI_CONSTANT_THRESHOLD}; nothing left to model")
    names = tuple(ds.feature_names[j] for j in keep)
    return Dataset(ds.X[:, keep], ds.y, names, ds.target_name)


@dataclass(frozen=True)
class FoldPlan:
    """Cross-validation fold assignments for n rows.

    assignments[i] is the fold index of row i.
    """

    outer_k: int
    assignments: np.ndarray

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def kfold_split(n: int, k: int, seed: int) -> FoldPlan:
    """Partition n rows into k shuffled folds with sizes differing by at most 1."""
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    assignments = np.empty(n, dtype=np.int64)
    base, extra = divmod(n, k)
    start = 0
    for f in range(k):
        size = base + (1 if f < extra else 0)
        assignments[perm[start:start + size]] = f
        start += size
    return FoldPlan(outer_k=k, assignments=assignments)


def inner_fold_count(n: int) -> int:
    """Inner CV fold count for a training split of size n: 3 if n >= 1000 else 5."""
    if n < 10:
        raise ValueError(f"training split too small for inner CV: n={n}")
    return 3 if n >= 1000 else 5


@dataclass
class Standardizer:
    """Per-column zero-mean unit-variance scaling, worked over numkit.pow2_scale of
    each column's max |x| (fit) or max(|means|, stds) (apply), so every step stays
    finite; the std floor is STD_FLOOR times that scale. An infinite x raises ValueError."""

    means: np.ndarray
    stds: np.ndarray

    STD_FLOOR = 1e-12

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        X = np.asarray(X, dtype=np.float64)
        bad = np.flatnonzero(np.isinf(X).any(axis=0))
        if bad.size:
            raise ValueError(f"column {int(bad[0])}: its mean overflows float64")
        s = pow2_scale(np.abs(X).max(axis=0))
        scaled = X / s
        return cls(means=s * scaled.mean(axis=0),
                   stds=s * np.maximum(scaled.std(axis=0), cls.STD_FLOOR))

    def apply(self, X: np.ndarray) -> np.ndarray:
        s = pow2_scale(np.maximum(np.abs(self.means), self.stds))
        out = np.divide(X, s, dtype=np.float64)  # then in place: one (n, d) buffer
        out -= self.means / s
        out /= self.stds / s
        return out

    def to_dict(self) -> dict:
        return {"means": self.means.tolist(), "stds": self.stds.tolist()}

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "Standardizer":
        means = read_array("standardizer", d, "means", (n_features,))
        stds = read_array("standardizer", d, "stds", (n_features,))
        if not (stds > 0).all():
            raise ValueError("standardizer: stds must be > 0")
        return cls(means=means, stds=stds)


def read_array(owner: str, d: dict, key: str, shape: tuple) -> np.ndarray:
    """d[key] as a float64 array of the given shape, every entry finite.

    In shape, None matches any length and () means a scalar. A value of
    another shape, a non-finite entry, or a value that is not a number or a
    regular array of numbers (ragged, a string, null, an object) raises a
    ValueError naming owner and key; so does a bool at any depth, which numpy
    would otherwise promote to 0 or 1 beside numbers. A missing key raises
    KeyError.
    """
    value = d[key]
    try:
        a = np.asarray(value)
    except ValueError:  # ragged nesting, on numpy versions that refuse it
        a = None
    if a is None or a.dtype.kind not in "iuf" or _holds_bool(value):
        raise ValueError(f"{owner}: {key} is not a number or a regular array of numbers: "
                         f"{value!r:.60}")
    if a.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, a.shape)):
        want = str(tuple(shape)).replace("None", "n")
        raise ValueError(f"{owner}: {key} has shape {a.shape}, expected {want}")
    a = a.astype(np.float64, copy=False)
    if not np.isfinite(a).all():
        raise ValueError(f"{owner}: {key} holds a non-finite number")
    return a


def _holds_bool(value) -> bool:
    """Whether a regular nest of lists (or a scalar) holds a bool.

    One C-level type scan per depth, not one Python call per entry.
    """
    level = [value]
    while level:
        types = set(map(type, level))
        if bool in types or np.bool_ in types:
            return True
        if list not in types and tuple not in types:
            return False
        level = list(chain.from_iterable(level))
    return False


def read_int_array(owner: str, d: dict, key: str, shape: tuple) -> np.ndarray:
    """read_array's scalar or 1-D d[key] as int64.

    An entry that an int cast would truncate or wrap (a fraction, or beyond
    the int64 range) raises a ValueError naming owner, key and the entry.
    """
    values = read_array(owner, d, key, shape)
    bad = np.flatnonzero(~(np.abs(values) < 2.0 ** 63) | (values != np.trunc(values)))
    if bad.size:
        i = int(bad[0])
        at = f"[{i}]" if values.ndim else ""
        raise ValueError(f"{owner}: {key}{at} = {values.flat[i]} is not an integer")
    return values.astype(np.int64)


def minmax_scale(X: np.ndarray, mins: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    """2 (X - mins) / ranges - 1 clipped to [-1, 1], with 0 where the range is 0.

    mins and ranges broadcast against X: one entry per column, or one row of
    them per row of X (rows scaled by different fits).
    """
    nz = ranges > 0
    out = np.subtract(X, mins, dtype=np.float64)  # then in place: one (n, d) buffer
    out /= np.where(nz, ranges, np.inf)  # before the exact doubling: nothing overflows
    out *= 2.0
    out -= 1.0
    np.copyto(out, 0.0, where=~nz)
    return np.clip(out, -1.0, 1.0, out=out)


def subsample(ds: Dataset, max_samples: int, seed: int) -> Dataset:
    """Return at most max_samples rows, drawn without replacement (seeded)."""
    if max_samples <= 0:
        raise ValueError("max_samples must be positive")
    if ds.n <= max_samples:
        return ds
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(ds.n, size=max_samples, replace=False))
    return ds.select_rows(idx)
