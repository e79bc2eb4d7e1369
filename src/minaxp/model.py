"""Core types and closed-form score bounds for linear classifiers with a reject option.

A linear model over bounded feature domains assigns each instance the score
``w . x + b``.  A reject classifier maps the score to one of three labels:
POSITIVE above ``t_plus``, NEGATIVE below ``t_minus``, and REJECT on the
closed band in between.  Every explainer in this package rests on two
closed-form quantities: the largest and smallest score reachable when a
chosen subset of features is pinned to its observed values while all the
others range freely over their domains.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np


def _epsilon_from_env() -> float:
    """The ``MINAXP_EPSILON`` override, or ``1e-9`` when it is unset.

    A NaN, infinite or negative tolerance would silently flip labels and
    certify insufficient explanations, so such values are refused.
    """
    raw = os.environ.get("MINAXP_EPSILON", "1e-9")
    try:
        eps = float(raw)
    except ValueError:
        raise ValueError(f"MINAXP_EPSILON={raw!r} is not a number") from None
    if not (np.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"MINAXP_EPSILON={raw!r} must be a finite number >= 0")
    return eps


# Single global comparison tolerance for all threshold checks.  Overridable
# through the environment so downstream pipelines can tighten or relax it
# without touching call sites.
DEFAULT_EPSILON = _epsilon_from_env()


class DomainError(ValueError):
    """An instance value lies outside its feature domain."""


class LabelMismatchError(ValueError):
    """The requested explanation kind does not match the classifier's prediction."""


class Label(Enum):
    POSITIVE = "POSITIVE"
    NEGATIVE = "NEGATIVE"
    REJECT = "REJECT"


class ExplanationKind(Enum):
    POSITIVE = "POSITIVE"
    NEGATIVE = "NEGATIVE"
    REJECTION = "REJECTION"


_KIND_FOR_LABEL = {
    Label.POSITIVE: ExplanationKind.POSITIVE,
    Label.NEGATIVE: ExplanationKind.NEGATIVE,
    Label.REJECT: ExplanationKind.REJECTION,
}


def kind_for_label(label: Label) -> ExplanationKind:
    """The explanation kind that certifies the given prediction label."""
    return _KIND_FOR_LABEL[label]


@dataclass(frozen=True)
class FeatureDomain:
    """Closed real interval a feature may take values in."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValueError("feature domain bounds must be finite")
        if self.lower > self.upper:
            raise ValueError(f"empty feature domain [{self.lower}, {self.upper}]")

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def _as_domain_array(domains) -> np.ndarray:
    """Normalize domains given as FeatureDomain objects or an (n, 2) array."""
    if isinstance(domains, np.ndarray) and domains.ndim == 2 and domains.shape[1] == 2:
        arr = np.asarray(domains, dtype=float)
    else:
        items = list(domains)
        if items and isinstance(items[0], FeatureDomain):
            arr = np.array([(d.lower, d.upper) for d in items], dtype=float)
        else:
            arr = np.asarray(items, dtype=float)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ValueError("domains must be FeatureDomain objects or (lower, upper) pairs")
    if not np.all(np.isfinite(arr)):
        raise ValueError("feature domain bounds must be finite")
    if np.any(arr[:, 0] > arr[:, 1]):
        bad = int(np.argmax(arr[:, 0] > arr[:, 1]))
        raise ValueError(f"empty feature domain at index {bad}")
    return arr


@dataclass(frozen=True)
class LinearModel:
    """Weight vector, bias and per-feature bounded domains.

    Arrays are not copied defensively; treat a constructed model as immutable.
    """

    weights: np.ndarray
    bias: float
    domains: np.ndarray  # shape (n, 2): lower / upper per feature

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a non-empty 1-d vector")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if not np.isfinite(self.bias):
            raise ValueError("bias must be finite")
        dom = _as_domain_array(self.domains)
        if dom.shape[0] != w.size:
            raise ValueError(
                f"weights ({w.size}) and domains ({dom.shape[0]}) must have identical length"
            )
        # Every reachable score lies between the worst-case bounds and every
        # sum of gains is at most their span: all finite once these three are.
        with np.errstate(over="ignore", invalid="ignore"):
            at_lower, at_upper = w * dom[:, 0], w * dom[:, 1]
            highs = np.maximum(at_lower, at_upper)
            lows = np.minimum(at_lower, at_upper)
            top = self.bias + highs.sum()
            bottom = self.bias + lows.sum()
            span = (highs - lows).sum()
        if not (np.isfinite(top) and np.isfinite(bottom) and np.isfinite(span)):
            raise ValueError(
                "worst-case score bounds overflow: "
                f"max {top}, min {bottom}, span {span}; rescale weights or domains"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", float(self.bias))
        object.__setattr__(self, "domains", dom)

    @property
    def n_features(self) -> int:
        return self.weights.size

    @property
    def lower(self) -> np.ndarray:
        return self.domains[:, 0]

    @property
    def upper(self) -> np.ndarray:
        return self.domains[:, 1]

    def feature_domain(self, j: int) -> FeatureDomain:
        return FeatureDomain(float(self.domains[j, 0]), float(self.domains[j, 1]))


def unit_box(n_features: int) -> np.ndarray:
    """Domains for features scaled to [0, 1]."""
    dom = np.zeros((n_features, 2))
    dom[:, 1] = 1.0
    return dom


@dataclass(frozen=True)
class Instance:
    """A full feature assignment.

    Use :meth:`validated` (or :func:`validate_instance`) to enforce that all
    values lie inside the paired model's domains; out-of-domain values are a
    hard error, never clamped.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("instance values must be a 1-d vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("instance values must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def validated(cls, model: LinearModel, values) -> "Instance":
        inst = cls(np.asarray(values, dtype=float))
        validate_instance(model, inst)
        return inst


def validate_instance(model: LinearModel, instance: Instance) -> None:
    """Raise unless the instance matches the model's arity and domains."""
    v = instance.values
    if v.size != model.n_features:
        raise ValueError(
            f"instance has {v.size} values but model expects {model.n_features}"
        )
    below = v < model.lower
    above = v > model.upper
    if np.any(below) or np.any(above):
        j = int(np.argmax(below | above))
        raise DomainError(
            f"value {v[j]} of feature {j} outside domain "
            f"[{model.lower[j]}, {model.upper[j]}]"
        )


@dataclass(frozen=True)
class RejectClassifier:
    """A linear model plus calibrated rejection thresholds ``t_minus < t_plus``."""

    model: LinearModel
    t_minus: float
    t_plus: float

    def __post_init__(self):
        if not (np.isfinite(self.t_minus) and np.isfinite(self.t_plus)):
            raise ValueError("thresholds must be finite")
        if not self.t_minus < self.t_plus:
            raise ValueError(
                f"t_minus ({self.t_minus}) must be strictly below t_plus ({self.t_plus})"
            )
        object.__setattr__(self, "t_minus", float(self.t_minus))
        object.__setattr__(self, "t_plus", float(self.t_plus))


@dataclass(frozen=True)
class Prediction:
    label: Label
    score: float


@dataclass(frozen=True)
class CoefficientProfile:
    """Per-feature worst-case and observed score contributions for one instance.

    ``alpha_max[j]`` / ``alpha_min[j]`` are the extreme contributions of
    feature ``j`` when it varies freely over its domain, ``beta[j]`` its
    contribution when pinned to the observed value.  ``delta_plus`` is the
    raise in the worst-case lower score bound gained by pinning a feature,
    ``delta_minus`` the corresponding drop in the upper bound.  The baselines
    are the two bounds with no feature pinned.
    """

    alpha_max: np.ndarray
    alpha_min: np.ndarray
    beta: np.ndarray
    delta_plus: np.ndarray
    delta_minus: np.ndarray
    baseline_max: float
    baseline_min: float

    @property
    def n_features(self) -> int:
        return self.beta.size


@dataclass(frozen=True)
class Explanation:
    """A set of pinned feature indices sufficient to lock in a prediction.

    ``indices`` may be any sorted, duplicate-free integer sequence, an index
    array included; it is stored as a tuple of Python ints.
    """

    indices: tuple[int, ...]
    kind: ExplanationKind
    certified_minimum: bool

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("explanation indices must be a flat sequence")
        if (idx[1:] <= idx[:-1]).any():
            raise ValueError("explanation indices must be sorted and duplicate-free")
        if idx.size and idx[0] < 0:
            raise ValueError("explanation indices must be non-negative")
        object.__setattr__(self, "indices", tuple(idx.tolist()))

    @property
    def size(self) -> int:
        return len(self.indices)


def score(model: LinearModel, instance: Instance) -> float:
    """Linear score ``w . x + b``."""
    validate_instance(model, instance)
    return float(model.weights @ instance.values + model.bias)


def label_for_score(
    s: float, t_minus: float, t_plus: float, eps: float = DEFAULT_EPSILON
) -> Label:
    """Three-way label of a score: strict threshold crossings classify, the
    closed middle band rejects."""
    if s > t_plus + eps:
        return Label.POSITIVE
    if s < t_minus - eps:
        return Label.NEGATIVE
    return Label.REJECT


def predict(
    clf: RejectClassifier, instance: Instance, eps: float = DEFAULT_EPSILON
) -> Prediction:
    """Classify or reject an instance."""
    s = score(clf.model, instance)
    return Prediction(label_for_score(s, clf.t_minus, clf.t_plus, eps), s)


def coefficient_profile(clf: RejectClassifier, instance: Instance) -> CoefficientProfile:
    """Precompute per-feature contribution bounds for one instance.

    For ``w_j >= 0`` the free maximum is attained at the domain's upper end
    and the free minimum at the lower end; signs flip for negative weights.
    IEEE multiplication is monotone, so the resulting gains are non-negative
    in floating point as well, no clamping needed.
    """
    model = clf.model
    validate_instance(model, instance)
    w = model.weights
    nonneg = w >= 0.0
    alpha_max = np.where(nonneg, w * model.upper, w * model.lower)
    alpha_min = np.where(nonneg, w * model.lower, w * model.upper)
    beta = w * instance.values
    return CoefficientProfile(
        alpha_max=alpha_max,
        alpha_min=alpha_min,
        beta=beta,
        delta_plus=beta - alpha_min,
        delta_minus=alpha_max - beta,
        baseline_max=float(model.bias + alpha_max.sum()),
        baseline_min=float(model.bias + alpha_min.sum()),
    )


def _as_index_array(fixed: Iterable[int], n: int) -> np.ndarray:
    idx = np.unique(np.asarray(list(fixed), dtype=int))
    if idx.size and (idx[0] < 0 or idx[-1] >= n):
        raise IndexError(f"fixed index out of range for {n} features")
    return idx


def s_max(profile: CoefficientProfile, fixed: Iterable[int]) -> float:
    """Largest score reachable when ``fixed`` features are pinned."""
    idx = _as_index_array(fixed, profile.n_features)
    return float(profile.baseline_max - profile.delta_minus[idx].sum())


def s_min(profile: CoefficientProfile, fixed: Iterable[int]) -> float:
    """Smallest score reachable when ``fixed`` features are pinned."""
    idx = _as_index_array(fixed, profile.n_features)
    return float(profile.baseline_min + profile.delta_plus[idx].sum())


def _bounds_satisfy_kind(
    smax: float,
    smin: float,
    kind: ExplanationKind,
    t_minus: float,
    t_plus: float,
    eps: float,
) -> bool:
    if kind is ExplanationKind.POSITIVE:
        return smin >= t_plus - eps
    if kind is ExplanationKind.NEGATIVE:
        return smax <= t_minus + eps
    return smax <= t_plus + eps and smin >= t_minus - eps


def is_valid_explanation(
    clf: RejectClassifier,
    instance: Instance,
    fixed: Iterable[int],
    kind: ExplanationKind,
    eps: float = DEFAULT_EPSILON,
) -> bool:
    """Whether pinning ``fixed`` forces the prediction of the given kind.

    POSITIVE requires the worst-case lower bound to stay at or above
    ``t_plus``, NEGATIVE the upper bound at or below ``t_minus``, and
    REJECTION confines both bounds to the rejection band.  The instance's
    own prediction must already match ``kind``.
    """
    pred = predict(clf, instance, eps)
    if kind_for_label(pred.label) is not kind:
        raise LabelMismatchError(
            f"instance is predicted {pred.label.value}, cannot check a {kind.value} explanation"
        )
    profile = coefficient_profile(clf, instance)
    return _bounds_satisfy_kind(
        s_max(profile, fixed), s_min(profile, fixed), kind, clf.t_minus, clf.t_plus, eps
    )
