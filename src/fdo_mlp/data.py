"""Dataset handling: CSV ingestion, normalization, synthetic data.

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


class ScaleOverflowError(ValueError):
    """A feature value that a replayed min-max transform scales past the
    float range, with its 0-based data row, its column and the value."""

    def __init__(self, row: int, column: str, value: float):
        super().__init__(f"row {row}, column {column!r}: value {value!r} "
                         "scales past the float range")
        self.row, self.column, self.value = row, column, value


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
        bad = np.argwhere(~np.isfinite(self.features))
        if bad.size:
            row, col = bad[0]
            raise ValueError(f"row {row}, column {self.column_names[col]!r}: "
                             f"feature {self.features[row, col]} is not finite")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        """Row subset sharing column metadata and normalization state."""
        indices = np.asarray(indices)
        return LabeledDataset(self.features[indices], self.labels[indices],
                              self.column_names, self.normalization)


def load_csv(path, label_column: str) -> LabeledDataset:
    """Read a comma-separated file with a header row into a dataset.

    Column names must be distinct. All cells must parse as finite decimal
    numbers; the label column must contain only 0 and 1. Parse failures
    report the file line the row starts on and the column name, and a file
    the csv module or the UTF-8 decoder cannot read fails naming the file.
    A leading byte-order mark is not part of the first column's name.
    Whether a column's values can be scaled is not judged here: that is
    :func:`normalize_with`'s rule, applied to the columns a caller keeps.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = _csv_rows(path, handle)
        try:
            _, header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        header = [name.strip() for name in header]
        for i, name in enumerate(header):
            if name in header[:i]:
                raise ValueError(f"{path}: column {name!r} appears twice in the header")
        if label_column not in header:
            raise ValueError(f"{path}: no column named {label_column!r} in header")
        label_idx = header.index(label_column)
        feature_names = tuple(name for i, name in enumerate(header) if i != label_idx)
        if not feature_names:
            raise ValueError(f"{path}: no feature columns besides the label")
        rows: list[list[float]] = []
        labels: list[int] = []
        for line_no, row in reader:
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
    return LabeledDataset(np.array(rows, dtype=float), np.array(labels, dtype=int),
                          feature_names)


def _csv_rows(path: Path, handle):
    """Each row of a CSV file with the file line it starts on, which runs
    ahead of the record count after a quoted field that spans lines; a
    malformed or non-UTF-8 file fails naming it."""
    reader = csv.reader(handle)
    try:
        line_no = 1
        for row in reader:
            yield line_no, row
            line_no = reader.line_num + 1
    except csv.Error as err:
        raise ValueError(f"{path}: line {reader.line_num}: {err}") from None
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 text: {err}") from None


def csv_data_line(path, row: int) -> int:
    """The file line on which the 0-based data row ``row`` of a CSV file
    starts, counted as :func:`load_csv` counts lines."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as handle:
        rows = _csv_rows(path, handle)
        next(rows, None)
        for index, (line_no, _) in enumerate(rows):
            if index == row:
                return line_no
    raise ValueError(f"{path}: no data row {row}")


def read_text(path) -> str:
    """The text of a UTF-8 file without a leading byte-order mark; a file
    that is not UTF-8 fails naming it."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 text: {err}") from None


def parse_key_values(lines, source: str, first_line: int = 1) -> dict:
    """Each key's destination (``-`` read as ``_``) mapped to (line, key, raw
    value), skipping blank and ``#`` lines. A line without ``=`` and a
    repeated key raise ValueError naming ``source`` and the line."""
    entries: dict[str, tuple[int, str, str]] = {}
    for line_no, line in enumerate(lines, start=first_line):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{source}: line {line_no}: expected 'key = value'")
        key, _, value = (part.strip() for part in stripped.partition("="))
        dest = key.replace("-", "_")
        if dest in entries:
            first, first_key, _ = entries[dest]
            raise ValueError(f"{source}: line {line_no}: configuration key {key!r} "
                             f"repeats {first_key!r} from line {first}")
        entries[dest] = (line_no, key, value)
    return entries


def save_csv(data: LabeledDataset, path) -> None:
    """Write a dataset as CSV with full repr precision (reload is exact)."""
    lines = [",".join(list(data.column_names) + ["label"])]
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
    state = NormalizationState(mins=data.features.min(axis=0),
                               maxs=data.features.max(axis=0))
    return normalize_with(data, state)


def normalize_with(data: LabeledDataset, state: NormalizationState) -> LabeledDataset:
    """Replay a previously fitted min-max transform onto another dataset.

    Values outside the fitted range land outside [0, 1]; they are not
    clipped. One so far outside a narrow range that it scales past the
    float range raises :class:`ScaleOverflowError`, without a numpy warning.
    """
    if state.mins.shape != (data.n_features,):
        raise ValueError("normalization state does not match feature width")
    with np.errstate(over="ignore", invalid="ignore"):
        span = state.maxs - state.mins
        scaled = (data.features - state.mins) / np.where(span == 0.0, 1.0, span)
    features = np.where(span == 0.0, 0.0, scaled)
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        row, col = bad[0].tolist()
        raise ScaleOverflowError(row, data.column_names[col], data.features[row, col].item())
    return LabeledDataset(features, data.labels.copy(), data.column_names, state)


def select_features(data: LabeledDataset, keep: Sequence[str]) -> LabeledDataset:
    """Column-filter a dataset before normalization, preserving the order of
    ``keep``."""
    if not keep:
        raise ValueError("keep must name at least one column")
    indices = []
    for name in keep:
        if name not in data.column_names:
            raise ValueError(f"unknown column {name!r}")
        if keep.count(name) > 1:
            raise ValueError(f"column {name!r} is kept more than once")
        indices.append(data.column_names.index(name))
    return LabeledDataset(data.features[:, indices].copy(), data.labels.copy(),
                          tuple(keep))


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
    direction = direction / np.linalg.norm(direction)
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
