"""Seeded inputs of the benchmark's three workloads.

Each workload is one fixed model, drawn from its own constant model seed, and
a CSV of rows drawn from the run's ``--seed``: every seed explains the same
model over different traffic, so the spread between seeds is the spread of
the rows alone.  Cells are written with six decimals and rounded to them
before they are written, so the matrix kept here is exactly what a parser
reads back from the file.

Only ``pipeline-n30`` uses the program to build its inputs (``train_logistic``
and ``calibrate_thresholds``, through the package's public API); the other
models are drawn directly.  Every model file is written by ``save_model``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from minaxp import (
    LinearModel,
    ModelBundle,
    RiskConfig,
    ScalingInfo,
    TrainConfig,
    calibrate_thresholds,
    save_model,
    train_logistic,
    unit_box,
)

DECIMALS = 6
# Rows whose score lies this close to a threshold are redrawn, so that no
# label hangs on rounding.
LABEL_MARGIN = 1e-6


@dataclass(frozen=True)
class Spec:
    """The make-up of one workload; the README's table is built from these."""

    name: str
    model_seed: int
    n_features: int
    n_rows: int


SPECS = {
    spec.name: spec
    for spec in (
        Spec("pipeline-n30", model_seed=30, n_features=30, n_rows=3000),
        Spec("reject-pack", model_seed=200, n_features=200, n_rows=1200),
        Spec("wide-16k", model_seed=16384, n_features=16384, n_rows=200),
    )
}
NAMES = tuple(SPECS)


@dataclass(frozen=True)
class Inputs:
    """Generated files plus the values written to them, for the checks."""

    spec: Spec
    model_path: Path
    csv_path: Path
    raw: np.ndarray  # the feature cells exactly as written, before any scaling


def build(name: str, seed: int, out_dir: Path, n_rows: int | None = None) -> Inputs:
    """Write the model and the rows of workload ``name`` under ``out_dir``.

    ``n_rows`` overrides the workload's row count, for quick smoke runs.
    """
    spec = SPECS[name]
    rows = spec.n_rows if n_rows is None else n_rows
    model_rng = np.random.default_rng(spec.model_seed)
    row_rng = np.random.default_rng([seed, spec.model_seed])
    bundle, raw, labels = _GENERATORS[name](spec, rows, model_rng, row_rng)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out_dir / "model.json"
    csv_path = out_dir / "rows.csv"
    save_model(bundle, model_path)
    _write_csv(csv_path, raw, labels)
    return Inputs(spec=spec, model_path=model_path, csv_path=csv_path, raw=raw)


def _round(values: np.ndarray) -> np.ndarray:
    return np.round(values, DECIMALS)


def _write_csv(path: Path, raw: np.ndarray, labels: np.ndarray) -> None:
    fmt = f"%.{DECIMALS}f"
    header = ",".join([f"f{j}" for j in range(raw.shape[1])] + ["label"])
    with path.open("w") as fh:
        fh.write(header + "\n")
        for row, label in zip(raw.tolist(), labels.tolist()):
            fh.write(",".join([fmt % v for v in row]) + f",{label}\n")


def _scores(model: LinearModel, X: np.ndarray) -> np.ndarray:
    return X @ model.weights + model.bias


def _band_rows(model, t_minus, t_plus, rows, row_rng, draw, inside: bool):
    """Draw rows with ``draw`` until ``rows`` of them score inside the band
    (``inside``) or outside it, each clear of both thresholds."""
    kept = []
    count = 0
    while count < rows:
        X = _round(draw(row_rng))
        s = _scores(model, X)
        clear = (np.abs(s - t_minus) > LABEL_MARGIN) & (np.abs(s - t_plus) > LABEL_MARGIN)
        in_band = (s > t_minus) & (s < t_plus)
        X = X[clear & (in_band if inside else ~in_band)]
        kept.append(X)
        count += X.shape[0]
    X = np.vstack(kept)[:rows]
    return X, np.where(_scores(model, X) >= 0.5 * (t_minus + t_plus), 1, -1)


def _centred_model(weights: np.ndarray) -> LinearModel:
    """Unit-box model whose score is zero at the centre of the box."""
    return LinearModel(weights, -0.5 * float(weights.sum()), unit_box(weights.size))


def _pipeline(spec, rows, model_rng, row_rng):
    """Two overlapping Gaussian classes; train, scale and calibrate as the CLI does."""
    n = spec.n_features
    centre = model_rng.normal(0.0, 1.0, n)
    shift = 0.31 * 3.0 / np.sqrt(n)

    def draw(rng, m):
        y = np.where(rng.random(m) < 0.5, 1, -1)
        X = rng.normal(0.0, 1.0, (m, n)) + centre + shift * y[:, None]
        return _round(X), y

    X_train, y_train = draw(model_rng, 3000)
    scaling = ScalingInfo.fit(X_train)
    model = train_logistic(
        scaling.transform(X_train), y_train, TrainConfig(l2=1.0, grad_tol=1e-4)
    )
    risk = calibrate_thresholds(
        _scores(model, scaling.transform(X_train)), y_train, RiskConfig(0.24)
    )
    bundle = ModelBundle(model, risk.t_minus, risk.t_plus, scaling)
    # Held-out rows are clipped to the training range so that every one of
    # them scales into the model's unit-box domain.
    X, y = draw(row_rng, rows)
    return bundle, np.clip(X, scaling.mins, scaling.maxs), y


def _reject_pack(spec, rows, model_rng, row_rng):
    """Uniform weights and a narrow band: every row rejected, most features pinned."""
    n = spec.n_features
    model = _centred_model(model_rng.uniform(-1.0, 1.0, n))
    t_minus, t_plus = -0.125, 0.125
    X, y = _band_rows(
        model, t_minus, t_plus, rows, row_rng, lambda r: r.uniform(0.0, 1.0, (512, n)), True
    )
    return ModelBundle(model, t_minus, t_plus), X, y


def _wide(spec, rows, model_rng, row_rng):
    """Many features, every row accepted, both classes present.

    Each row leans towards its class: half of every cell is uniform noise,
    the other half pushes the score towards the class's side of the band.
    """
    n = spec.n_features
    weights = model_rng.normal(0.0, 1.0, n)
    model = _centred_model(weights)
    half_width = 0.5 * float(np.sqrt((weights**2).sum() / 12.0))
    lean = np.sign(weights)

    def draw(rng):
        y = np.where(np.arange(16) % 2 == 0, 1.0, -1.0)[:, None]
        noise = rng.uniform(-0.25, 0.25, (16, n))
        return 0.5 + y * lean * rng.uniform(0.0, 0.25, (16, n)) + noise

    X, y = _band_rows(model, -half_width, half_width, rows, row_rng, draw, False)
    return ModelBundle(model, -half_width, half_width), X, y


_GENERATORS = {
    "pipeline-n30": _pipeline,
    "reject-pack": _reject_pack,
    "wide-16k": _wide,
}
