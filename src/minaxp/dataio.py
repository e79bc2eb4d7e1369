"""File formats: delimited datasets, serialized models, explanation reports.

The model file is a single JSON object with the fields ``weights``, ``bias``,
``t_minus``, ``t_plus``, ``domains`` and ``scaling`` (thresholds and scaling
may be null).  Reports are JSON lines, one record per explained instance,
followed by a single trailing aggregate object.  Numbers round-trip at full
precision.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .model import LinearModel, RejectClassifier

class ModelFormatError(ValueError):
    """A model file is missing fields or violates an invariant."""


@dataclass(frozen=True)
class ScalingInfo:
    """Per-feature min-max ranges recorded on the training split.

    ``transform`` maps a training feature into [0, 1]; unseen data may land
    outside that interval and is deliberately not clipped here.  Constant
    features map to 0 by convention.  Data of another width is refused.
    """

    mins: np.ndarray
    maxs: np.ndarray

    @classmethod
    def fit(cls, features: np.ndarray) -> "ScalingInfo":
        X = np.asarray(features, dtype=float)
        mins = X.min(axis=0)
        maxs = X.max(axis=0)
        constant = mins == maxs
        if np.any(constant):
            warnings.warn(
                f"{int(constant.sum())} constant feature(s) under scaling; mapped to 0",
                RuntimeWarning,
                stacklevel=2,
            )
        return cls(mins=mins, maxs=maxs)

    def transform(self, features: np.ndarray) -> np.ndarray:
        X = np.asarray(features, dtype=float)
        if X.shape[-1] != self.mins.size:
            raise ValueError(f"scaling covers {self.mins.size} features, data has {X.shape[-1]}")
        span = self.maxs - self.mins
        safe = np.where(span == 0.0, 1.0, span)
        out = (X - self.mins) / safe
        out[..., span == 0.0] = 0.0
        return out


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray  # values in {-1, +1}
    feature_names: tuple[str, ...]
    label_name: str
    scaling: ScalingInfo | None = None

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def _normalize_labels(raw: np.ndarray, column: str, path: Path) -> np.ndarray:
    finite = np.isfinite(raw)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"{path}: non-finite label value {raw[row]} at row {row + 2}, column {column!r}")
    values = sorted(set(raw.tolist()))
    if len(values) > 2:
        raise ValueError(
            f"label column {column!r} has {len(values)} distinct values, expected two"
        )
    if set(values) <= {-1.0, 1.0}:
        return raw.astype(int)
    # Two arbitrary numeric labels: smaller becomes -1, larger +1.
    out = np.where(raw == values[-1], 1, -1) if len(values) == 2 else np.full(raw.size, -1)
    return out.astype(int)


# Separators numpy's reader strips from a cell as whitespace and ``float()`` refuses.
_NUMPY_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


def _body_lines(fh):
    """The lines of ``fh`` for numpy's reader, which fails on a line holding
    one of ``_NUMPY_ONLY_SPACES`` and on a body of line ends only (the
    input it would warn about)."""
    blank = True
    for line in fh:
        if any(c in line for c in _NUMPY_ONLY_SPACES):
            raise ValueError("a cell only numpy reads as spaced")
        blank = blank and not line.strip("\r\n")
        yield line
    if blank:
        raise ValueError("no data rows")


def _read_numeric_table(path: Path, delimiter: str) -> tuple[list[str], np.ndarray]:
    """Header and float matrix of a delimited file.

    The header goes through ``csv``; the body through numpy's C reader on the
    same handle.  Its matrix is kept only when it parsed without error, has a
    row and has the header's width.  Otherwise :func:`_read_rows` parses the
    file again, so every error, and every cell that only Python ``float()``
    takes (digit underscores, non-ASCII digits), comes from there; so does
    every file that holds one of ``_NUMPY_ONLY_SPACES``.  Where both readers
    give a matrix, they give the same bits.  An error of the ``csv`` module
    is raised as a ``ValueError`` naming the file.
    """
    with path.open(newline="") as fh:
        try:
            header = [h.strip() for h in next(csv.reader(fh, delimiter=delimiter), [])]
            matrix = np.loadtxt(_body_lines(fh), delimiter=delimiter, comments=None,
                                quotechar='"', ndmin=2, dtype=float)
        except (ValueError, TypeError, csv.Error):
            matrix = None
    if matrix is not None and matrix.shape[0] and matrix.shape[1] == len(header):
        return header, matrix
    try:
        return _read_rows(path, delimiter)
    except csv.Error as exc:  # such as a field past csv's size limit
        raise ValueError(f"{path}: {exc}") from None


def _read_rows(path: Path, delimiter: str) -> tuple[list[str], np.ndarray]:
    """:func:`_read_numeric_table` parsed row by row.

    Cells go through Python ``float()``, so surrounding whitespace, ``nan``
    and digit underscores behave as they do there.  Blank lines are skipped.
    A failing row is re-read cell by cell to name the offending column.
    """
    with path.open(newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        width = len(header)
        parsed = []
        for row in reader:
            if not row or not any(cell.strip() for cell in row):
                continue
            line = len(parsed) + 2
            if len(row) != width:
                raise ValueError(f"{path}: row {line} has {len(row)} cells, expected {width}")
            try:
                parsed.append(np.fromiter(map(float, row), float, count=width))
            except ValueError:
                for j, cell in enumerate(row):
                    try:
                        float(cell)
                    except ValueError:
                        raise ValueError(
                            f"{path}: non-numeric cell {cell!r} at row {line}, column {header[j]!r}"
                        ) from None
                raise
    if not parsed:
        raise ValueError(f"{path}: no data rows")
    return header, np.vstack(parsed)


def load_feature_matrix(path, delimiter: str = ",") -> tuple[np.ndarray, tuple[str, ...]]:
    """Read a header-plus-rows text file where every column is a feature."""
    header, matrix = _read_numeric_table(Path(path), delimiter)
    return matrix, tuple(header)


def load_dataset(
    path,
    delimiter: str = ",",
    label_column: str | int | None = None,
    scaling: ScalingInfo | None = None,
) -> Dataset:
    """Read a delimited text file with a header row into features and labels.

    ``label_column`` selects the label by header name or position (default:
    last column).  A ``scaling`` (fitted with :meth:`ScalingInfo.fit`) is
    applied to the features.
    """
    path = Path(path)
    header, matrix = _read_numeric_table(path, delimiter)

    if label_column is None:
        label_idx = len(header) - 1
    elif isinstance(label_column, int):
        label_idx = label_column if label_column >= 0 else len(header) + label_column
    else:
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise ValueError(
                f"{path}: label column {label_column!r} not in header {header}"
            ) from None
    if not 0 <= label_idx < len(header):
        raise ValueError(f"{path}: label column index {label_column} out of range")

    features = np.delete(matrix, label_idx, axis=1)
    labels = _normalize_labels(matrix[:, label_idx], header[label_idx], path)

    if scaling is not None:
        features = scaling.transform(features)

    return Dataset(
        features=features,
        labels=labels,
        feature_names=tuple(header[:label_idx] + header[label_idx + 1 :]),
        label_name=header[label_idx],
        scaling=scaling,
    )


@dataclass(frozen=True)
class ModelBundle:
    """A linear model plus optional thresholds and scaling metadata."""

    model: LinearModel
    t_minus: float | None = None
    t_plus: float | None = None
    scaling: ScalingInfo | None = None

    def classifier(self) -> RejectClassifier:
        if self.t_minus is None or self.t_plus is None:
            raise ModelFormatError("model has no calibrated thresholds yet")
        return RejectClassifier(self.model, self.t_minus, self.t_plus)

    def with_thresholds(self, t_minus: float, t_plus: float) -> "ModelBundle":
        return ModelBundle(self.model, float(t_minus), float(t_plus), self.scaling)


def save_model(bundle: ModelBundle, path) -> None:
    """Write a model bundle as JSON; floats keep shortest round-trip precision."""
    payload = {
        "weights": bundle.model.weights.tolist(),
        "bias": bundle.model.bias,
        "t_minus": bundle.t_minus,
        "t_plus": bundle.t_plus,
        "domains": bundle.model.domains.tolist(),
        "scaling": None
        if bundle.scaling is None
        else {"mins": bundle.scaling.mins.tolist(), "maxs": bundle.scaling.maxs.tolist()},
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _model_number(payload: dict, field: str, path: Path, nullable: bool = False):
    value = payload[field]
    if value is None and nullable:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"{path}: {field} must be a number, got {value!r}")
    return float(value)


def _model_array(value, field: str, path: Path) -> np.ndarray:
    try:
        arr = np.asarray(value)
    except ValueError:
        raise ModelFormatError(f"{path}: {field} is not a rectangular array of numbers") from None
    if arr.dtype.kind not in "iuf":
        raise ModelFormatError(f"{path}: {field} must hold numbers only")
    return arr.astype(float)


def load_model(path) -> ModelBundle:
    """Read a model bundle, validating presence and consistency of all fields."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ModelFormatError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    for field in ("weights", "bias", "t_minus", "t_plus", "domains", "scaling"):
        if field not in payload:
            raise ModelFormatError(f"{path}: missing field {field!r}")
    weights = _model_array(payload["weights"], "weights", path)
    domains = _model_array(payload["domains"], "domains", path)
    if domains.ndim != 2 or domains.shape != (weights.size, 2):
        raise ModelFormatError(
            f"{path}: domains shape {domains.shape} does not match {weights.size} weights"
        )
    bias = _model_number(payload, "bias", path)
    t_minus = _model_number(payload, "t_minus", path, nullable=True)
    t_plus = _model_number(payload, "t_plus", path, nullable=True)
    if (t_minus is None) != (t_plus is None):
        raise ModelFormatError(f"{path}: thresholds must both be set or both null")
    if t_minus is not None and not t_minus < t_plus:
        raise ModelFormatError(f"{path}: t_minus ({t_minus}) must be strictly below t_plus ({t_plus})")
    scaling = None
    if payload["scaling"] is not None:
        raw = payload["scaling"]
        if not isinstance(raw, dict) or "mins" not in raw or "maxs" not in raw:
            raise ModelFormatError(f"{path}: scaling must provide mins and maxs")
        mins = _model_array(raw["mins"], "scaling mins", path)
        maxs = _model_array(raw["maxs"], "scaling maxs", path)
        if mins.shape != weights.shape or maxs.shape != weights.shape:
            raise ModelFormatError(f"{path}: scaling length does not match weights")
        if not (np.isfinite(mins).all() and np.isfinite(maxs).all()):
            raise ModelFormatError(f"{path}: scaling mins and maxs must be finite")
        if (maxs < mins).any():
            j = int(np.argmax(maxs < mins))
            raise ModelFormatError(f"{path}: scaling max {maxs[j]} below min {mins[j]} at feature {j}")
        scaling = ScalingInfo(mins=mins, maxs=maxs)
    try:
        model = LinearModel(weights, bias, domains)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
    return ModelBundle(model=model, t_minus=t_minus, t_plus=t_plus, scaling=scaling)


@dataclass(frozen=True)
class ExplanationRecord:
    """One explained instance, as written to a report."""

    instance_id: int | str
    label: str
    score: float
    kind: str
    indices: tuple[int, ...]
    size: int
    certified_minimum: bool
    method: str  # "minabro" or "baseline"
    time_ms: float
    nodes: int | None = None
    boundary_tight: bool = False


REPORT_RECORD_FIELDS = tuple(field.name for field in fields(ExplanationRecord))


def _group_stats(records: list[ExplanationRecord]) -> dict:
    if not records:
        return {
            "count": 0,
            "size_mean": None,
            "size_std": None,
            "time_mean_ms": None,
            "time_std_ms": None,
        }
    sizes = np.array([r.size for r in records], dtype=float)
    times = np.array([r.time_ms for r in records], dtype=float)
    return {
        "count": len(records),
        "size_mean": float(sizes.mean()),
        "size_std": float(sizes.std()),
        "time_mean_ms": float(times.mean()),
        "time_std_ms": float(times.std()),
    }


def aggregate_records(records: list[ExplanationRecord]) -> dict:
    """Mean and standard deviation of size and time, split by method and by
    classified versus rejected."""
    groups = {}
    for method in ("minabro", "baseline"):
        for split in ("classified", "rejected"):
            if split == "rejected":
                members = [r for r in records if r.method == method and r.kind == "REJECTION"]
            else:
                members = [r for r in records if r.method == method and r.kind != "REJECTION"]
            groups[f"{method}/{split}"] = _group_stats(members)
    return groups


def write_explanation_report(
    records: list[ExplanationRecord],
    path,
    skipped_out_of_domain: int = 0,
    note: str | None = None,
) -> None:
    """Write one JSON record per line plus a trailing aggregate object."""
    aggregate = {
        "by_group": aggregate_records(records),
        "skipped_out_of_domain": skipped_out_of_domain,
    }
    if note is not None:
        aggregate["note"] = note
    with Path(path).open("w") as fh:
        for record in records:
            payload = {field: getattr(record, field) for field in REPORT_RECORD_FIELDS}
            fh.write(json.dumps(payload) + "\n")
        fh.write(json.dumps({"aggregate": aggregate}) + "\n")


def read_explanation_report(path) -> tuple[list[ExplanationRecord], dict]:
    """Parse a report back into records and the aggregate block."""
    records = []
    aggregate = None
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        payload = json.loads(line)
        if "aggregate" in payload:
            aggregate = payload["aggregate"]
            continue
        payload["indices"] = tuple(payload["indices"])
        records.append(ExplanationRecord(**payload))
    if aggregate is None:
        raise ValueError(f"{path}: report is missing its aggregate line")
    return records, aggregate
