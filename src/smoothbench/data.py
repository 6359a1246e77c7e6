"""Tabular dataset handling: CSV ingestion, imputation, scaling, fold plans.

All datasets are dense float64 feature matrices with a single numeric target.
Categorical columns are rejected at ingestion; missing cells become NaN and are
resolved by median imputation before any model sees the data.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


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


def load_csv(path: str, target_column: Optional[str] = None,
             columns: Optional[Sequence[str]] = None) -> Dataset:
    """Load a headered CSV into a Dataset.

    The features are `columns`, matched by header name, or else every column
    but the target. Only they and the target are parsed, so other columns may
    hold anything. Empty cells and non-finite numbers become NaN; any other
    cell that does not parse as a number is treated as categorical and
    rejected with an error naming the column.

    With a target column, rows whose target is missing (or not a finite
    number) are dropped, at least 2 rows must remain, and a feature column
    with no numeric value is rejected. Without one, as for rows to predict,
    y is NaN, every row is kept and one row is enough.
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
        rows: list[list[float]] = []
        targets: list[float] = []
        for lineno, rec in enumerate(reader, start=2):
            if not rec or (len(rec) == 1 and rec[0].strip() == ""):
                continue  # blank line
            if len(rec) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(rec)}"
                )
            if t_pos is not None:
                t_val = _parse_cell(rec[t_pos].strip(), target_column, path, lineno)
                if not math.isfinite(t_val):
                    continue  # missing target: drop the row
                targets.append(t_val)
            vals = []
            for i in pos:
                v = _parse_cell(rec[i].strip(), header[i], path, lineno)
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


def _parse_cell(cell: str, column: str, path: str, lineno: int) -> float:
    if cell == "":
        return math.nan
    try:
        return float(cell)
    except ValueError:
        raise ValueError(
            f"{path}:{lineno}: column {column!r} has non-numeric value {cell!r}; "
            "categorical columns are not supported"
        )


def write_csv(ds: Dataset, path: str) -> None:
    """Write a Dataset to CSV with the target as the last column."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + [ds.target_name])
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.X[i]]
            row.append(repr(float(ds.y[i])))
            writer.writerow(row)


def impute_median(train: Dataset, apply_to: Dataset) -> Dataset:
    """Fill NaNs in apply_to with per-column medians computed on train.

    Non-NaN entries pass through bitwise unchanged. A train column that is
    entirely NaN is an error.
    """
    if train.d != apply_to.d:
        raise ValueError("train and apply_to must share the feature schema")
    medians = np.empty(train.d)
    for j in range(train.d):
        col = train.X[:, j]
        finite = col[~np.isnan(col)]
        if finite.size == 0:
            raise ValueError(
                f"column {train.feature_names[j]!r} is entirely missing in the training split"
            )
        medians[j] = np.median(finite)
    X = apply_to.X.copy()
    mask = np.isnan(X)
    X[mask] = np.broadcast_to(medians, X.shape)[mask]
    return Dataset(X, apply_to.y, apply_to.feature_names, apply_to.target_name)


def drop_quasi_constant(ds: Dataset, threshold: float = 0.95) -> Dataset:
    """Drop features whose most frequent value covers > threshold of the rows.

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
        if counts.max() / ds.n <= threshold:
            keep.append(j)
    if not keep:
        raise ValueError("every feature is quasi-constant at threshold "
                         f"{threshold}; nothing left to model")
    names = tuple(ds.feature_names[j] for j in keep)
    return Dataset(ds.X[:, keep], ds.y, names, ds.target_name)


@dataclass(frozen=True)
class FoldPlan:
    """Cross-validation fold assignments for n rows.

    assignments[i] is the fold index of row i.
    """

    outer_k: int
    seed: int
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
    return FoldPlan(outer_k=k, seed=seed, assignments=assignments)


def inner_fold_count(n: int) -> int:
    """Inner CV fold count for a training split of size n: 3 if n >= 1000 else 5."""
    if n < 10:
        raise ValueError(f"training split too small for inner CV: n={n}")
    return 3 if n >= 1000 else 5


@dataclass
class Standardizer:
    """Per-column zero-mean unit-variance scaling with a std floor of 1e-12."""

    means: Optional[np.ndarray] = None
    stds: Optional[np.ndarray] = None

    STD_FLOOR = 1e-12

    def fit(self, X: np.ndarray) -> "Standardizer":
        X = np.asarray(X, dtype=np.float64)
        self.means = X.mean(axis=0)
        self.stds = np.maximum(X.std(axis=0), self.STD_FLOOR)
        return self

    def apply(self, X: np.ndarray) -> np.ndarray:
        if self.means is None:
            raise ValueError("Standardizer.apply called before fit")
        return (np.asarray(X, dtype=np.float64) - self.means) / self.stds

    def to_dict(self) -> dict:
        return {"means": self.means.tolist(), "stds": self.stds.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Standardizer":
        return cls(means=np.asarray(d["means"], dtype=np.float64),
                   stds=np.asarray(d["stds"], dtype=np.float64))


def minmax_scale(X: np.ndarray, mins: np.ndarray, ranges: np.ndarray,
                 clip: bool = True) -> np.ndarray:
    """2 (X - mins) / ranges - 1, with 0 where the range is 0, optionally clipped.

    mins and ranges broadcast against X: one entry per column, or one row of
    them per row of X (rows scaled by different fits).
    """
    X = np.asarray(X, dtype=np.float64)
    nz = ranges > 0
    out = np.where(nz, 2.0 * (X - mins) / np.where(nz, ranges, 1.0) - 1.0, 0.0)
    if clip:
        np.clip(out, -1.0, 1.0, out=out)
    return out


@dataclass
class MinMaxScaler:
    """Per-column affine map of the training range onto [-1, 1].

    Constant columns map to 0. With clip=True (the default), out-of-range
    queries are clamped to [-1, 1] after the affine map.
    """

    clip: bool = True
    mins: Optional[np.ndarray] = None
    ranges: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray) -> "MinMaxScaler":
        X = np.asarray(X, dtype=np.float64)
        self.mins = X.min(axis=0)
        self.ranges = X.max(axis=0) - self.mins
        return self

    def apply(self, X: np.ndarray) -> np.ndarray:
        if self.mins is None:
            raise ValueError("MinMaxScaler.apply called before fit")
        return minmax_scale(X, self.mins, self.ranges, self.clip)

    def to_dict(self) -> dict:
        return {"clip": self.clip, "mins": self.mins.tolist(),
                "ranges": self.ranges.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "MinMaxScaler":
        return cls(clip=bool(d["clip"]), mins=np.asarray(d["mins"]),
                   ranges=np.asarray(d["ranges"]))


def subsample(ds: Dataset, max_samples: int, seed: int) -> Dataset:
    """Return at most max_samples rows, drawn without replacement (seeded)."""
    if max_samples <= 0:
        raise ValueError("max_samples must be positive")
    if ds.n <= max_samples:
        return ds
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(ds.n, size=max_samples, replace=False))
    return ds.select_rows(idx)
