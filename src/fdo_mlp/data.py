"""Dataset handling: CSV ingestion, normalization, splits, synthetic data.

Datasets are immutable-by-convention pairs of a float feature matrix and a
binary label vector. Normalization is min-max to [0, 1] per column, with the
fitted (min, max) recorded so the same transform can be replayed onto held
out data (test rows may then land slightly outside [0, 1], which is fine and
avoids leaking test statistics into training).
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np


@dataclass(frozen=True, eq=False)
class NormalizationState:
    """Per-column (min, max) fitted by :func:`min_max_normalize`."""

    mins: np.ndarray
    maxs: np.ndarray


@dataclass(eq=False)
class LabeledDataset:
    features: np.ndarray
    labels: np.ndarray
    column_names: tuple[str, ...]
    normalization: NormalizationState | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels length does not match the number of rows")
        if self.labels.size and not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be binary (0 or 1)")
        if len(self.column_names) != self.features.shape[1]:
            raise ValueError("column_names length does not match feature width")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        """Row subset sharing column metadata and normalization state."""
        indices = np.asarray(indices)
        return LabeledDataset(self.features[indices].copy(),
                              self.labels[indices].copy(),
                              self.column_names, self.normalization)


def load_csv(path, label_column: str) -> LabeledDataset:
    """Read a comma-separated file with a header row into a dataset.

    All cells must parse as finite decimal numbers; the label column must
    contain only 0 and 1. Parse failures report the file line and column
    name; a feature column whose max - min overflows is rejected by name.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        header = [name.strip() for name in header]
        if label_column not in header:
            raise ValueError(f"{path}: no column named {label_column!r} in header")
        label_idx = header.index(label_column)
        feature_names = tuple(name for i, name in enumerate(header) if i != label_idx)
        if not feature_names:
            raise ValueError(f"{path}: no feature columns besides the label")
        rows: list[list[float]] = []
        labels: list[int] = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {line_no} has {len(row)} cells, expected {len(header)}")
            values = []
            for idx, cell in enumerate(row):
                try:
                    value = float(cell)
                    if not math.isfinite(value):
                        raise ValueError
                except ValueError:
                    raise ValueError(
                        f"{path}: line {line_no}, column {header[idx]!r}: "
                        f"cannot parse {cell.strip()!r} as a finite number") from None
                values.append(value)
            label = values.pop(label_idx)
            if label not in (0.0, 1.0):
                raise ValueError(
                    f"{path}: line {line_no}, column {label_column!r}: "
                    f"label must be 0 or 1, got {label!r}")
            rows.append(values)
            labels.append(int(label))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    features = np.array(rows, dtype=float)
    with np.errstate(over="ignore"):
        spans = features.max(axis=0) - features.min(axis=0)
    for name, span in zip(feature_names, spans):
        if not math.isfinite(span):
            raise ValueError(f"{path}: column {name!r}: max - min is not finite")
    return LabeledDataset(features, np.array(labels, dtype=int), feature_names)


def save_csv(data: LabeledDataset, path, label_column: str = "label") -> None:
    """Write a dataset as CSV with full repr precision (reload is exact)."""
    lines = [",".join(list(data.column_names) + [label_column])]
    for row, label in zip(data.features, data.labels):
        lines.append(",".join(repr(float(v)) for v in row) + f",{int(label)}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` via ``.<name>.<pid>.tmp`` renamed into place,
    creating parent directories; the pid keeps concurrent writers apart and
    the temporary file is removed on failure."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def min_max_normalize(data: LabeledDataset) -> LabeledDataset:
    """Rescale every column to [0, 1], constant columns mapping to 0."""
    mins = data.features.min(axis=0)
    maxs = data.features.max(axis=0)
    state = NormalizationState(mins=mins, maxs=maxs)
    return LabeledDataset(_apply_state(data.features, state), data.labels.copy(),
                          data.column_names, state)


def normalize_with(data: LabeledDataset, state: NormalizationState) -> LabeledDataset:
    """Replay a previously fitted min-max transform onto another dataset.

    Values outside the fitted range land outside [0, 1]; they are not
    clipped.
    """
    if state.mins.shape != (data.n_features,):
        raise ValueError("normalization state does not match feature width")
    return LabeledDataset(_apply_state(data.features, state), data.labels.copy(),
                          data.column_names, state)


def _apply_state(features: np.ndarray, state: NormalizationState) -> np.ndarray:
    span = state.maxs - state.mins
    safe = np.where(span == 0.0, 1.0, span)
    scaled = (features - state.mins) / safe
    return np.where(span == 0.0, 0.0, scaled)


def select_features(data: LabeledDataset, keep: Sequence[str]) -> LabeledDataset:
    """Column-filter a dataset, preserving the order of ``keep``."""
    if not keep:
        raise ValueError("keep must name at least one column")
    indices = []
    for name in keep:
        if name not in data.column_names:
            raise ValueError(f"unknown column {name!r}")
        indices.append(data.column_names.index(name))
    state = data.normalization
    if state is not None:
        state = NormalizationState(mins=state.mins[indices], maxs=state.maxs[indices])
    return LabeledDataset(data.features[:, indices].copy(), data.labels.copy(),
                          tuple(keep), state)


def holdout_split(data: LabeledDataset, train_fraction: float,
                  rng: np.random.Generator) -> tuple[LabeledDataset, LabeledDataset]:
    """Shuffled train/test split with train size round(fraction * n)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    n = data.n_samples
    train_size = int(round(train_fraction * n))
    if train_size == 0 or train_size == n:
        raise ValueError(
            f"train_fraction {train_fraction} leaves an empty side for {n} samples")
    order = rng.permutation(n)
    return data.subset(order[:train_size]), data.subset(order[train_size:])


def generate_synthetic(samples: int, features: int, class_separation: float,
                       class_balance: float, rng: np.random.Generator) -> LabeledDataset:
    """Two isotropic Gaussian clusters a fixed distance apart.

    Cluster means sit ``class_separation`` apart along one random unit
    direction; every feature has unit variance. ``class_balance`` is the
    fraction of class-1 rows: the class-1 count is round(balance * samples).
    Rows are shuffled so sequential splits mix both classes.
    """
    if samples < 2 or features < 1:
        raise ValueError("need at least 2 samples and 1 feature")
    if class_separation < 0.0:
        raise ValueError("class_separation must be non-negative")
    n_pos = int(round(class_balance * samples))
    if n_pos < 1 or n_pos > samples - 1:
        raise ValueError(
            f"class_balance {class_balance} gives a single-class dataset of {samples} samples")
    direction = rng.normal(size=features)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        direction = np.zeros(features)
        direction[0] = 1.0
    else:
        direction = direction / norm
    offset = direction * (class_separation / 2.0)
    labels = np.array([1] * n_pos + [0] * (samples - n_pos), dtype=int)
    points = rng.normal(size=(samples, features))
    points[labels == 1] += offset
    points[labels == 0] -= offset
    order = rng.permutation(samples)
    names = tuple(f"f{i + 1:02d}" for i in range(features))
    return LabeledDataset(points[order], labels[order], names)


def xor_csv_path() -> Path:
    """Path to the bundled four-row XOR sample dataset."""
    return Path(__file__).parent / "data" / "xor.csv"
