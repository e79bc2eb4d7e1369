"""Brute-force ground truth and randomized sufficiency checks for small instances.

Everything here exists to keep the fast explainers honest: exhaustive
minimum-size search over all subsets, a sampling check that validity really
means "every completion keeps the label", and a seeded generator of random
classifier/instance pairs covering all three labels.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

import numpy as np

from .model import (
    DEFAULT_EPSILON,
    Explanation,
    ExplanationKind,
    Instance,
    Label,
    LinearModel,
    RejectClassifier,
    _as_index_array,
    cover_problem,
    predict,
    validate_instance,
)

MAX_ORACLE_FEATURES = 20


def brute_force_minimum(clf: RejectClassifier, instance: Instance) -> Explanation:
    """Smallest valid explanation found by exhaustive subset enumeration.

    Subsets are visited in order of increasing cardinality and
    lexicographically within each cardinality, so the returned set is the
    lexicographically first among the minimum-size ones.  Refuses models
    beyond MAX_ORACLE_FEATURES features.
    """
    n = clf.model.n_features
    if n > MAX_ORACLE_FEATURES:
        raise ValueError(
            f"brute force enumeration refused for n={n} > {MAX_ORACLE_FEATURES}"
        )
    problem = cover_problem(clf, instance)
    # Each kind reduces to covering demands with the per-feature gains; a
    # side the label leaves free needs -inf and is not checked.
    pairs = ((problem.gain_down, problem.need_down), (problem.gain_up, problem.need_up))
    sides = [(gains.tolist(), need - DEFAULT_EPSILON) for gains, need in pairs if need != -np.inf]
    for k in range(n + 1):
        for subset in combinations(range(n), k):
            if all(sum(gains[j] for j in subset) >= need for gains, need in sides):
                return Explanation(indices=subset, kind=problem.kind, certified_minimum=True)
    raise AssertionError("unreachable: the full feature set is always valid")


def _corner_completions(model: LinearModel, values: np.ndarray, free: np.ndarray) -> np.ndarray:
    """The two completions attaining the closed-form score extrema."""
    w = model.weights[free]
    hi = np.where(w >= 0.0, model.upper[free], model.lower[free])
    lo = np.where(w >= 0.0, model.lower[free], model.upper[free])
    corners = np.tile(values, (2, 1))
    corners[0, free] = hi
    corners[1, free] = lo
    return corners


def sampled_sufficiency_check(
    clf: RejectClassifier,
    instance: Instance,
    fixed: Iterable[int],
    kind: ExplanationKind,
    trials: int = 1000,
    seed: int = 0,
) -> bool:
    """Randomized validation that a fixed set really forces the prediction.

    Draws ``trials`` uniform completions of the free features plus the two
    extremal corner completions and checks that every completed score lands
    on the expected side of the thresholds, with ``DEFAULT_EPSILON`` slack
    at the boundary.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    model = clf.model
    validate_instance(model, instance)
    n = model.n_features
    fixed_mask = np.zeros(n, dtype=bool)
    fixed_mask[_as_index_array(fixed, n)] = True
    free = np.flatnonzero(~fixed_mask)

    points = _corner_completions(model, instance.values, free)
    if free.size:
        rng = np.random.default_rng(seed)
        draws = rng.uniform(model.lower[free], model.upper[free], size=(trials, free.size))
        sampled = np.tile(instance.values, (trials, 1))
        sampled[:, free] = draws
        points = np.vstack([points, sampled])

    scores = points @ model.weights + model.bias
    slack = 2 * DEFAULT_EPSILON  # validity guarantees one tolerance; allow one more for roundoff
    if kind is ExplanationKind.POSITIVE:
        ok = scores >= clf.t_plus - slack
    elif kind is ExplanationKind.NEGATIVE:
        ok = scores <= clf.t_minus + slack
    else:
        ok = (scores >= clf.t_minus - slack) & (scores <= clf.t_plus + slack)
    return bool(np.all(ok))


def random_case(
    rng: np.random.Generator,
    n_features: int,
    label: Label | None = None,
    max_tries: int = 10_000,
) -> tuple[RejectClassifier, Instance]:
    """One random classifier/instance pair, optionally resampled until the
    prediction carries the requested label.

    Weights are uniform in [-1, 1], bias in [-0.5, 0.5], domains fixed at
    [0, 1], instances uniform in the box, and the rejection band is centered
    at zero with width uniform in [0.05, 1.0].
    """
    for _ in range(max_tries):
        weights = rng.uniform(-1.0, 1.0, n_features)
        bias = float(rng.uniform(-0.5, 0.5))
        values = rng.uniform(0.0, 1.0, n_features)
        width = float(rng.uniform(0.05, 1.0))
        model = LinearModel(weights, bias, np.column_stack([np.zeros(n_features), np.ones(n_features)]))
        clf = RejectClassifier(model, -width / 2.0, width / 2.0)
        instance = Instance(values)
        if label is None or predict(clf, instance).label is label:
            return clf, instance
    raise RuntimeError(f"no {label} case found in {max_tries} draws")
