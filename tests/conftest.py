import csv
from pathlib import Path

import numpy as np
import pytest

from minaxp import DEFAULT_EPSILON, Instance, LinearModel, RejectClassifier, score, unit_box


@pytest.fixture
def band_case():
    """w=(2,-2), b=0, unit box, thresholds +/-1, x=(0.5, 0.5): a rejected instance."""
    model = LinearModel(np.array([2.0, -2.0]), 0.0, unit_box(2))
    clf = RejectClassifier(model, -1.0, 1.0)
    instance = Instance.validated(model, [0.5, 0.5])
    return clf, instance


@pytest.fixture
def pos3_case():
    """w=(3,-2,1), b=0, unit box, t_plus=1, x=(1,0,1): a positive instance."""
    model = LinearModel(np.array([3.0, -2.0, 1.0]), 0.0, unit_box(3))
    clf = RejectClassifier(model, -1.0, 1.0)
    instance = Instance.validated(model, [1.0, 0.0, 1.0])
    return clf, instance


@pytest.fixture
def neg3_case():
    """Sign-flipped mirror of pos3_case: a negative instance."""
    model = LinearModel(np.array([-3.0, 2.0, -1.0]), 0.0, unit_box(3))
    clf = RejectClassifier(model, -1.0, 1.0)
    instance = Instance.validated(model, [1.0, 0.0, 1.0])
    return clf, instance


def make_overlap_dataset(seed: int, n_rows: int, n_features: int, shift: float = 0.12):
    """Two overlapping Gaussian blobs clipped to the unit box, labels in {-1, +1}."""
    rng = np.random.default_rng(seed)
    half = n_rows // 2
    neg = np.clip(rng.normal(0.5 - shift, 0.16, size=(half, n_features)), 0.0, 1.0)
    pos = np.clip(rng.normal(0.5 + shift, 0.16, size=(n_rows - half, n_features)), 0.0, 1.0)
    X = np.vstack([neg, pos])
    y = np.array([-1] * half + [1] * (n_rows - half))
    perm = rng.permutation(n_rows)
    return X[perm], y[perm]


def write_csv(path: Path, X: np.ndarray, y: np.ndarray, delimiter: str = ","):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow([f"f{i}" for i in range(X.shape[1])] + ["label"])
        for row, label in zip(X, y):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


BOUNDARY_CASES = ("REJECT on t_plus", "REJECT on t_minus", "POSITIVE", "NEGATIVE")


def boundary_case(rng, case: int):
    """A row whose score sits on a threshold, on weights U(-1, 1) * 1e4 over
    [0, 1e4] domains, so that bounds summed over its gains round by more
    than the default tolerance.  ``BOUNDARY_CASES[case]`` says where: a
    rejected row's own score is one edge of its band; an accepted row's
    score is one ulp past ``t_plus + eps`` or ``t_minus - eps``."""
    n = int(rng.integers(2, 13))
    scale = 1e4
    model = LinearModel(rng.uniform(-1.0, 1.0, n) * scale, 0.0, unit_box(n) * scale)
    instance = Instance(rng.uniform(0.0, scale, n))
    s = score(model, instance)
    width = scale * scale * rng.uniform(0.05, 1.0)
    if case == 0:
        return RejectClassifier(model, s - width, s), instance
    if case == 1:
        return RejectClassifier(model, s, s + width), instance
    eps = DEFAULT_EPSILON
    if case == 2:  # the prediction rule's own comparisons, stepped one ulp at a time
        t = s - eps
        while not s > t + eps:
            t = float(np.nextafter(t, -np.inf))
        return RejectClassifier(model, t - width, t), instance
    t = s + eps
    while not s < t - eps:
        t = float(np.nextafter(t, np.inf))
    return RejectClassifier(model, t, t + width), instance
