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
import math
import operator
import warnings
from dataclasses import dataclass, fields
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .model import LinearModel, RejectClassifier, _index_array, _index_value, _IndexField

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


# The most bytes of rows ``_drop_column`` moves in one step.
_PACK_BYTES = 1 << 20


def _drop_column(matrix: np.ndarray, j: int) -> np.ndarray:
    """``np.delete(matrix, j, axis=1)`` as a C-ordered matrix in ``matrix``'s
    own buffer, which it overwrites: each block of rows is copied without
    column ``j``, then moves down over the cells of the column dropped
    before it.  No block's destination reaches a later row's cells.
    """
    m, width = matrix.shape
    packed = matrix.reshape(-1)[: m * (width - 1)].reshape(m, width - 1)
    step = max(1, _PACK_BYTES // (matrix.itemsize * width))
    for start in range(0, m, step):
        packed[start : start + step] = np.delete(matrix[start : start + step], j, axis=1)
    return packed


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

    labels = _normalize_labels(matrix[:, label_idx], header[label_idx], path)
    features = _drop_column(matrix, label_idx)

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
    try:
        return float(value)
    except OverflowError:
        raise ModelFormatError(f"{path}: {field} is too large for a float") from None


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


@dataclass(frozen=True, init=False)
class ExplanationRecord:
    """One explained instance, as written to a report."""

    instance_id: int | str
    label: str
    score: float
    kind: str
    indices: tuple[int, ...] = _IndexField()
    size: int
    certified_minimum: bool
    method: str  # "minabro" or "baseline"
    time_ms: float
    nodes: int | None = None
    boundary_tight: bool = False

    index_array = _index_array

    # Written out, filling ``__dict__`` in field order: the generated frozen
    # ``__init__`` sets each field through ``object.__setattr__``.
    def __init__(self, instance_id: int | str, label: str, score: float, kind: str, indices, size: int,
                 certified_minimum: bool, method: str, time_ms: float, nodes: int | None = None,
                 boundary_tight: bool = False):
        self.__dict__.update(
            instance_id=instance_id, label=label, score=score, kind=kind, indices=_index_value(indices),
            size=size, certified_minimum=certified_minimum, method=method, time_ms=time_ms,
            nodes=nodes, boundary_tight=boundary_tight,
        )


REPORT_RECORD_FIELDS = tuple(field.name for field in fields(ExplanationRecord))


class RecordColumns:
    """Report records held as columns: ``fields`` maps each field of
    :class:`ExplanationRecord`, in field order, to the list of its values,
    one per record in report order, the index sets as intp arrays.

    ``RecordColumns(records)`` holds ``records``; ``extend`` appends columns
    of values.
    """

    def __init__(self, records=()):
        records = list(records)
        self.fields = {
            name: list(map(operator.attrgetter("index_array" if name == "indices" else name), records))
            for name in REPORT_RECORD_FIELDS
        }

    def __len__(self) -> int:
        return len(self.fields["method"])

    def extend(self, **columns: list) -> None:
        """Append one list of values per field, every field given, all of one length."""
        for name, column in self.fields.items():
            column += columns[name]


def _as_columns(records) -> RecordColumns:
    return records if isinstance(records, RecordColumns) else RecordColumns(records)


def _group_stats(sizes: list, times: list) -> dict:
    if not sizes:
        return {
            "count": 0,
            "size_mean": None,
            "size_std": None,
            "time_mean_ms": None,
            "time_std_ms": None,
        }
    sizes, times = np.array(sizes, dtype=float), np.array(times, dtype=float)
    return {
        "count": sizes.size,
        "size_mean": float(sizes.mean()),
        "size_std": float(sizes.std()),
        "time_mean_ms": float(times.mean()),
        "time_std_ms": float(times.std()),
    }


def aggregate_records(records: list[ExplanationRecord] | RecordColumns) -> dict:
    """Mean and standard deviation of size and time, split by method and by
    classified versus rejected, of a list of records or their columns."""
    fields = _as_columns(records).fields
    rejected = np.fromiter(map(operator.eq, fields["kind"], repeat("REJECTION")), dtype=bool)
    groups = {}
    for method in ("minabro", "baseline"):
        ours = np.fromiter(map(operator.eq, fields["method"], repeat(method)), dtype=bool)
        for split, members in (("classified", ours & ~rejected), ("rejected", ours & rejected)):
            groups[f"{method}/{split}"] = _group_stats(
                list(compress(fields["size"], members)), list(compress(fields["time_ms"], members))
            )
    return groups


_JSON_CONSTANTS = {True: "true", False: "false", None: "null"}


def _json_column(values: list) -> list[str]:
    """``json.dumps`` of each value of one field.  A column of strings, of
    finite floats, or of ints, bools and None is written in one pass without
    ``json.dumps``'s per-call set-up; any other goes through it, so a value
    it refuses is still refused.  A float column's text is made once per
    distinct value, unless it holds a zero (0.0 and -0.0 are one dict key)."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return list(map(encode_basestring_ascii, values))
    if kinds == {float} and all(map(math.isfinite, values)):  # json writes NaN and Infinity itself
        texts = dict.fromkeys(values)
        if 0.0 in texts:
            return list(map(float.__repr__, values))
        texts = dict(zip(texts, map(float.__repr__, texts)))
        return list(map(texts.__getitem__, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {bool}:
        return list(map(_JSON_CONSTANTS.__getitem__, values))
    if kinds <= {int, bool, type(None)}:
        return [int.__repr__(v) if type(v) is int else _JSON_CONSTANTS[v] for v in values]
    return list(map(json.dumps, values))


# A record line is one %-template per (label, kind, method), those three
# texts written in, filled with the texts of the other fields in field order.
_TEMPLATE_KEYS = ("label", "kind", "method")
_FILLED_FIELDS = tuple(name for name in REPORT_RECORD_FIELDS if name not in _TEMPLATE_KEYS)


def _line_template(texts: dict) -> str:
    """The line template given the JSON texts of the template's key fields."""
    return "{" + ", ".join(
        f"{json.dumps(name)}: " + (texts[name].replace("%", "%%") if name in texts else "%s")
        for name in REPORT_RECORD_FIELDS
    ) + "}\n"


class _LineTemplates:
    """Each record's line template, made once per report for each (label,
    kind, method).  Columns of strings key the templates as they are; any
    other column is keyed by its values' JSON texts, in a table of its own."""

    def __init__(self):
        self.by_value, self.by_text = {}, {}

    def __call__(self, keys: list[list]) -> list[str]:
        if all(set(map(type, column)) <= {str} for column in keys):
            table, encode = self.by_value, encode_basestring_ascii
        else:
            keys, table, encode = [_json_column(column) for column in keys], self.by_text, str
        for key in set(zip(*keys)) - table.keys():
            table[key] = _line_template({name: encode(v) for name, v in zip(_TEMPLATE_KEYS, key)})
        return list(map(table.__getitem__, zip(*keys)))


# The most records whose fields are encoded, and their texts held, at once.
_WRITE_CHUNK = 1024


# The widest index ``_IndexLists`` looks up in its table; wider ones are
# written one ``str`` at a time.
_INDEX_TABLE_LIMIT = 1 << 18


# Index lists of at most this many indices are written once per report for
# each distinct set; a record's set often recurs, the other method's included.
_INDEX_MEMO_SIZE = 64


class _IndexLists:
    """Index arrays as ``json.dumps`` writes a list of their values, each
    value's decimal taken from one table instead of made anew.

    The table holds ``str(j)`` at each position ``j < size`` and None at the
    ``size`` positions after.  An index outside ``range(size)``, a negative
    one included, then reads None or lies past the end, and the lookup or
    the join fails.  The table then grows, at least doubling, to the widest
    index seen, up to ``_INDEX_TABLE_LIMIT``; an array it cannot hold (a
    negative or wider index) is written one ``str`` at a time.  The text of
    a short array is kept, by its bytes, for the next array equal to it.
    """

    def __init__(self):
        self.size = 0
        self.table = np.empty(0, dtype=object)
        self.memo = {}

    def __call__(self, idx: np.ndarray) -> str:
        if idx.size > _INDEX_MEMO_SIZE:
            return self._text(idx)
        key = idx.tobytes()
        text = self.memo.get(key)
        if text is None:
            text = self.memo[key] = self._text(idx)
        return text

    def _text(self, idx: np.ndarray) -> str:
        try:
            return "[" + ", ".join(self.table[idx].tolist()) + "]"
        except (IndexError, TypeError):
            pass
        need = int(idx.max()) + 1
        if idx.min() < 0 or need > _INDEX_TABLE_LIMIT:
            return "[" + ", ".join(map(str, idx.tolist())) + "]"
        self.size = min(max(2 * self.size, need), _INDEX_TABLE_LIMIT)
        self.table = np.array(list(map(str, range(self.size))) + [None] * self.size, dtype=object)
        return self._text(idx)


def write_explanation_report(
    records: list[ExplanationRecord] | RecordColumns,
    path,
    skipped_out_of_domain: int = 0,
    note: str | None = None,
) -> None:
    """Write one JSON record per line plus a trailing aggregate object, from
    a list of records or their columns.

    Each record line has the bytes of ``json.dumps`` of its fields in field
    order; the index list is written from the record's index array.
    """
    columns = _as_columns(records)
    aggregate = {
        "by_group": aggregate_records(columns),
        "skipped_out_of_domain": skipped_out_of_domain,
    }
    if note is not None:
        aggregate["note"] = note
    templates, index_list = _LineTemplates(), _IndexLists()
    with Path(path).open("w") as fh:
        for start in range(0, len(columns), _WRITE_CHUNK):
            chunk = {name: column[start : start + _WRITE_CHUNK] for name, column in columns.fields.items()}
            lines = templates([chunk[name] for name in _TEMPLATE_KEYS])
            texts = [_json_column(chunk[name]) for name in _FILLED_FIELDS if name != "indices"]
            texts.insert(_FILLED_FIELDS.index("indices"), map(index_list, chunk["indices"]))
            fh.writelines(map(operator.mod, lines, zip(*texts)))
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
        records.append(ExplanationRecord(**payload))
    if aggregate is None:
        raise ValueError(f"{path}: report is missing its aggregate line")
    return records, aggregate
