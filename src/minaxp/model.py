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
from array import array
from dataclasses import dataclass, field
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


# Single global comparison tolerance for all threshold checks.  Every stage
# reads this constant; ``MINAXP_EPSILON``, read once at import, is the only
# way to set it.
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


def _as_domain_array(domains) -> np.ndarray:
    """Normalize domains given as an (n, 2) array or a sequence of (lower, upper) pairs."""
    arr = np.asarray(domains if isinstance(domains, np.ndarray) else list(domains), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("domains must be (lower, upper) pairs")
    if not np.all(np.isfinite(arr)):
        raise ValueError("feature domain bounds must be finite")
    if np.any(arr[:, 0] > arr[:, 1]):
        bad = int(np.argmax(arr[:, 0] > arr[:, 1]))
        raise ValueError(f"empty feature domain at index {bad}")
    return arr


@dataclass(frozen=True)
class LinearModel:
    """Weight vector, bias and per-feature bounded domains.

    Construction also works out, once per model, the domain ends as
    contiguous arrays (``lower`` / ``upper``), each feature's extreme
    contributions when free (``alpha_max`` / ``alpha_min``) and the score
    bounds with nothing pinned (``top`` / ``bottom``).  Arrays are not
    copied defensively; treat a constructed model as immutable.
    """

    weights: np.ndarray
    bias: float
    domains: np.ndarray  # shape (n, 2): lower / upper per feature
    lower: np.ndarray = field(init=False, repr=False, compare=False)
    upper: np.ndarray = field(init=False, repr=False, compare=False)
    alpha_max: np.ndarray = field(init=False, repr=False, compare=False)
    alpha_min: np.ndarray = field(init=False, repr=False, compare=False)
    top: float = field(init=False, repr=False, compare=False)
    bottom: float = field(init=False, repr=False, compare=False)

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
        bias = float(self.bias)
        lower, upper = dom[:, 0].copy(), dom[:, 1].copy()  # contiguous, for the per-row domain check
        # The free maximum of w_j * x_j is at the upper end of the domain for
        # w_j >= 0, at the lower end otherwise.  Every reachable score lies
        # between top and bottom and every sum of gains is at most their
        # span: all finite once these three are.
        with np.errstate(over="ignore", invalid="ignore"):
            nonneg = w >= 0.0
            alpha_max = np.where(nonneg, w * upper, w * lower)
            alpha_min = np.where(nonneg, w * lower, w * upper)
            top = float(bias + alpha_max.sum())
            bottom = float(bias + alpha_min.sum())
            span = (alpha_max - alpha_min).sum()
        if not (np.isfinite(top) and np.isfinite(bottom) and np.isfinite(span)):
            raise ValueError(
                "worst-case score bounds overflow: "
                f"max {top}, min {bottom}, span {span}; rescale weights or domains"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", bias)
        object.__setattr__(self, "domains", dom)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "alpha_max", alpha_max)
        object.__setattr__(self, "alpha_min", alpha_min)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)

    @property
    def n_features(self) -> int:
        return self.weights.size


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


@dataclass(frozen=True, init=False, eq=False)
class Explanation:
    """A set of pinned feature indices sufficient to lock in a prediction.

    ``indices`` may be any sorted, duplicate-free integer sequence, an index
    array included.  It is kept as the intp array ``index_array``; ``indices``
    builds its tuple of Python ints on first read.
    """

    index_array: np.ndarray
    kind: ExplanationKind
    certified_minimum: bool

    def __init__(self, indices: Iterable[int], kind: ExplanationKind, certified_minimum: bool):
        idx = _as_index_array(indices)
        if (idx[1:] <= idx[:-1]).any():
            raise ValueError("explanation indices must be sorted and duplicate-free")
        if idx.size and idx[0] < 0:
            raise ValueError("explanation indices must be non-negative")
        object.__setattr__(self, "index_array", idx)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "certified_minimum", certified_minimum)

    @property
    def indices(self) -> tuple[int, ...]:
        if "_indices" not in self.__dict__:  # by hand: cached_property locks on first read
            self.__dict__["_indices"] = tuple(self.index_array.tolist())
        return self.__dict__["_indices"]

    @property
    def size(self) -> int:
        return self.index_array.size

    def _key(self):
        return self.indices, self.kind, self.certified_minimum

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())


def score_from_products(products: np.ndarray, bias: float):
    """The score ``w . x + b`` of each row of ``products = w * x``: numpy's
    pairwise sum along the last axis, plus ``bias``.

    This is the one definition of the score.  Given contiguous rows (a 1-d
    array or a C-ordered matrix), a row's bits depend on its values alone:
    a matrix gives each row the bits that row gets on its own.
    """
    return products.sum(axis=-1) + bias


def score(model: LinearModel, instance: Instance) -> float:
    """Validate the instance and return its score ``w . x + b``, as
    :func:`score_from_products` defines it."""
    validate_instance(model, instance)
    return float(score_from_products(model.weights * instance.values, model.bias))


def label_for_score(s: float, t_minus: float, t_plus: float) -> Label:
    """Three-way label of a score: strict threshold crossings classify, the
    closed middle band rejects."""
    if s > t_plus + DEFAULT_EPSILON:
        return Label.POSITIVE
    if s < t_minus - DEFAULT_EPSILON:
        return Label.NEGATIVE
    return Label.REJECT


def predict(clf: RejectClassifier, instance: Instance) -> Prediction:
    """Classify or reject an instance."""
    s = score(clf.model, instance)
    return Prediction(label_for_score(s, clf.t_minus, clf.t_plus), s)


@dataclass(frozen=True)
class CoverProblem:
    """One instance's explanation problem, built once by :func:`cover_problem`.

    Pinning feature ``j`` lowers the largest reachable score by
    ``gain_up[j]`` and raises the smallest by ``gain_down[j]``; with nothing
    pinned they sit at ``top`` and ``bottom``.  An explanation of ``kind``
    must hold them at or below ``ceiling`` and at or above ``floor`` (within
    ``DEFAULT_EPSILON``), that is, its pinned gains must add up to
    ``need_up`` and ``need_down``.  A side the label leaves free has an
    infinite limit, so every check reads the same for all three kinds.
    """

    label: Label
    kind: ExplanationKind
    score: float
    gain_up: np.ndarray
    gain_down: np.ndarray
    top: float
    bottom: float
    ceiling: float
    floor: float
    work: tuple[np.ndarray, np.ndarray] = field(repr=False)  # the greedy's rows: one thread at a time

    def expect(self, kind: ExplanationKind) -> "CoverProblem":
        """This problem, once its label is known to call for ``kind``."""
        if self.kind is not kind:
            raise LabelMismatchError(
                f"instance is predicted {self.label.value}, cannot take a {kind.value} explanation"
            )
        return self

    @property
    def need_up(self) -> float:
        return self.top - self.ceiling

    @property
    def need_down(self) -> float:
        return self.floor - self.bottom

    def bounds(self, fixed: Iterable[int]) -> tuple[float, float]:
        """``(s_max, s_min)``: the largest and smallest score reachable with the
        ``fixed`` features pinned and every other one free."""
        return self._bounds(_as_index_array(fixed, self.gain_up.size))

    def _bounds(self, idx: np.ndarray) -> tuple[float, float]:
        """:meth:`bounds` of an index array already sorted, unique and in range."""
        return (
            float(self.top - self.gain_up[idx].sum()),
            float(self.bottom + self.gain_down[idx].sum()),
        )

    def holds(self, idx: np.ndarray) -> bool:
        """Whether pinning ``idx`` (sorted, unique, in range) forces the label."""
        smax, smin = self._bounds(idx)
        return smax <= self.ceiling + DEFAULT_EPSILON and smin >= self.floor - DEFAULT_EPSILON

    def tight(self, idx: np.ndarray) -> bool:
        """Whether a bound with ``idx`` pinned sits within the tolerance of its limit."""
        smax, smin = self._bounds(idx)
        return abs(smax - self.ceiling) <= DEFAULT_EPSILON or abs(smin - self.floor) <= DEFAULT_EPSILON


def cover_problem(clf: RejectClassifier, instance: Instance) -> CoverProblem:
    """Validate, score and label one instance and work out its gains, once."""
    model = clf.model
    validate_instance(model, instance)
    # The gains and the greedy's work rows share one block: separate n-length
    # arrays get trimmed off the heap and faulted back in on every call.  IEEE
    # multiplication is monotone, so the gains are non-negative as computed.
    block = np.empty((4, model.n_features))
    beta = np.multiply(model.weights, instance.values, block[2])
    s = float(score_from_products(beta, model.bias))
    label = label_for_score(s, clf.t_minus, clf.t_plus)
    if label is Label.POSITIVE:
        ceiling, floor = np.inf, clf.t_plus
    elif label is Label.NEGATIVE:
        ceiling, floor = clf.t_minus, -np.inf
    else:
        ceiling, floor = clf.t_plus, clf.t_minus
    return CoverProblem(
        label, _KIND_FOR_LABEL[label], s,
        np.subtract(model.alpha_max, beta, block[0]), np.subtract(beta, model.alpha_min, block[1]),
        model.top, model.bottom, ceiling, floor, (beta, block[3]),
    )


def _as_index_array(values: Iterable[int], n: int | None = None) -> np.ndarray:
    """``values`` as a flat intp array, refusing floats and booleans rather than
    truncating them; given ``n``, made distinct and checked against ``range(n)``."""
    if not isinstance(values, (np.ndarray, array)):
        values = list(values)
        if {bool, np.bool_} & set(map(type, values)):
            raise ValueError("feature indices must be integers, not booleans")
    idx = np.asarray(values)
    if idx.ndim != 1:
        raise ValueError("feature indices must be a flat sequence")
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"feature indices must be integers, got {idx.dtype} values")
    idx = idx.astype(np.intp, copy=False)
    if n is not None:
        idx = np.unique(idx)
        if idx.size and (idx[0] < 0 or idx[-1] >= n):
            raise IndexError(f"fixed index out of range for {n} features")
    return idx


def is_valid_explanation(
    clf: RejectClassifier,
    instance: Instance,
    fixed: Iterable[int],
    kind: ExplanationKind,
) -> bool:
    """Whether pinning ``fixed`` forces the prediction of the given kind.

    POSITIVE requires the worst-case lower bound to stay at or above
    ``t_plus``, NEGATIVE the upper bound at or below ``t_minus``, and
    REJECTION confines both bounds to the rejection band.  The instance's
    own prediction must already match ``kind``.
    """
    problem = cover_problem(clf, instance).expect(kind)
    return problem.holds(_as_index_array(fixed, problem.gain_up.size))
