"""Rejection-threshold calibration and a small logistic trainer.

Thresholds are picked the classic way: choose the band (t_minus, t_plus)
that minimizes the empirical risk E + w_r * R on training scores, where E is
the misclassified fraction among accepted instances (over all instances),
R the rejected fraction, and w_r the cost of a rejection.

The risk is piecewise constant in the thresholds, changing only when a
threshold crosses a score.  The candidate grid therefore places two cut
points inside every gap between consecutive distinct scores (so bands that
reject nothing are representable) plus two sentinels beyond each end (so
"accept everything as one class" and "reject everything" are representable),
and the sweep over all ordered grid pairs is exhaustive.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import DEFAULT_EPSILON, LinearModel, unit_box

_TIE_TOL = 1e-12


@dataclass(frozen=True)
class RiskConfig:
    """Cost of rejecting an instance, in (0, 1]."""

    rejection_cost: float

    def __post_init__(self):
        if not (0.0 < self.rejection_cost <= 1.0):
            raise ValueError(
                f"rejection cost must lie in (0, 1], got {self.rejection_cost}"
            )


@dataclass(frozen=True)
class RiskReport:
    error_ratio: float
    rejection_ratio: float
    empirical_risk: float
    t_minus: float
    t_plus: float


def evaluate_risk(
    scores,
    labels,
    t_minus: float,
    t_plus: float,
    config: RiskConfig,
) -> RiskReport:
    """Empirical risk of one threshold pair on labeled scores."""
    if not t_minus < t_plus:
        raise ValueError("t_minus must be strictly below t_plus")
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be 1-d and of equal length")
    pos_pred = s > t_plus + DEFAULT_EPSILON
    neg_pred = s < t_minus - DEFAULT_EPSILON
    rejected = ~(pos_pred | neg_pred)
    m = s.size
    errors = int(np.count_nonzero(pos_pred & (y == -1))) + int(
        np.count_nonzero(neg_pred & (y == 1))
    )
    e = errors / m
    r = int(np.count_nonzero(rejected)) / m
    return RiskReport(
        error_ratio=e,
        rejection_ratio=r,
        empirical_risk=e + config.rejection_cost * r,
        t_minus=float(t_minus),
        t_plus=float(t_plus),
    )


def candidate_grid(scores) -> np.ndarray:
    """Candidate threshold positions for the calibration sweep."""
    uniq = np.unique(np.asarray(scores, dtype=float))
    points = [uniq[0] - 2.0, uniq[0] - 1.0, uniq[-1] + 1.0, uniq[-1] + 2.0]
    gaps = np.diff(uniq)
    points.extend(uniq[:-1] + gaps / 3.0)
    points.extend(uniq[:-1] + 2.0 * gaps / 3.0)
    return np.unique(np.asarray(points, dtype=float))


def calibrate_thresholds(
    scores,
    labels,
    config: RiskConfig,
) -> RiskReport:
    """Threshold pair of minimum empirical risk over the candidate grid.

    Ties are broken by the smallest rejection width, then the smallest
    t_plus.  The risk of any pair splits into one term per threshold, so a
    prefix-minimum scan finds the optimum in linear time over the grid; the
    tie-break pass then only inspects pairs within tolerance of it.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    if s.ndim != 1 or s.shape != y.shape:
        raise ValueError("scores and labels must be 1-d and of equal length")
    if s.size < 2:
        raise ValueError("calibration needs at least two scores")
    label_values = set(np.unique(y).tolist())
    if not label_values <= {-1, 1}:
        raise ValueError(f"labels must be -1 or +1, got {sorted(label_values)}")
    if len(label_values) < 2:
        raise ValueError("calibration needs both classes present")

    grid = candidate_grid(s)
    m = s.size
    wr = config.rejection_cost
    s_sorted = np.sort(s)
    pos_sorted = np.sort(s[y == 1])
    neg_sorted = np.sort(s[y == -1])

    # Counts under the same strict-vs-band rule used by prediction:
    # a score is accepted negative iff score < t - eps, positive iff
    # score > t + eps, with eps the global DEFAULT_EPSILON.
    below_all = np.searchsorted(s_sorted, grid - DEFAULT_EPSILON, side="left")
    below_pos = np.searchsorted(pos_sorted, grid - DEFAULT_EPSILON, side="left")
    above_all = m - np.searchsorted(s_sorted, grid + DEFAULT_EPSILON, side="right")
    above_neg = neg_sorted.size - np.searchsorted(neg_sorted, grid + DEFAULT_EPSILON, side="right")

    # risk(i, j) = f[i] + h[j] + wr for grid indices i < j.
    f = (below_pos - wr * below_all) / m
    h = (above_neg - wr * above_all) / m

    prefix_min_f = np.minimum.accumulate(f)
    j_all = np.arange(1, grid.size)
    pair_risk = prefix_min_f[j_all - 1] + h[j_all] + wr
    best_risk = float(pair_risk.min())

    # Among all pairs within tolerance of the optimum pick the narrowest
    # band, then the smallest t_plus.
    best = None  # (width, t_plus, i, j)
    for j in j_all[pair_risk <= best_risk + _TIE_TOL]:
        limit = best_risk + _TIE_TOL - h[j] - wr
        candidates_i = np.flatnonzero(f[:j] <= limit)
        i = int(candidates_i[-1])  # largest grid point: narrowest band for this j
        key = (float(grid[j] - grid[i]), float(grid[j]), i, int(j))
        if best is None or key[:2] < best[:2]:
            best = key
    assert best is not None
    t_minus, t_plus = float(grid[best[2]]), float(grid[best[3]])
    return evaluate_risk(s, y, t_minus, t_plus, config)


@dataclass(frozen=True)
class TrainConfig:
    """Batch gradient-descent settings for the logistic trainer; settings
    that would train silently to a meaningless model are refused."""

    l2: float = 1.0
    learning_rate: float = 0.1
    max_iter: int = 10_000
    grad_tol: float = 1e-6

    def __post_init__(self):
        for name in ("l2", "grad_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be a finite number > 0, got {self.learning_rate}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be at least 0, got {self.max_iter}")


def _sigmoid(t: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def train_logistic(
    features,
    labels,
    config: TrainConfig = TrainConfig(),
    domains: np.ndarray | None = None,
) -> LinearModel:
    """L2-regularized logistic regression by batch gradient descent.

    The step size is halved whenever a step would increase the loss and
    grows gently after accepted steps; training stops once the gradient norm
    falls below ``config.grad_tol``.  Zero iterations return the zero model.
    Non-convergence within the iteration cap returns the best iterate seen,
    with a warning.  The returned model carries the supplied domains,
    defaulting to the unit box for data scaled to [0, 1].
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise ValueError("features must be (m, n) with one label per row")
    classes = set(np.unique(y).tolist())
    if not classes <= {-1.0, 1.0} or len(classes) < 2:
        raise ValueError("labels must contain both -1 and +1")

    m, n = X.shape
    w = np.zeros(n)
    b = 0.0

    def loss(wv, bv):
        margins = y * (X @ wv + bv)
        return float(
            np.mean(np.logaddexp(0.0, -margins)) + 0.5 * config.l2 * (wv @ wv) / m
        )

    lr = config.learning_rate
    current = loss(w, b)
    best_w, best_b, best_loss = w, b, current
    converged = config.max_iter == 0
    for _ in range(config.max_iter):
        margins = y * (X @ w + b)
        residual = -y * _sigmoid(-margins)  # d loss / d score, per sample
        grad_w = X.T @ residual / m + config.l2 * w / m
        grad_b = float(residual.mean())
        grad_norm = float(np.sqrt(grad_w @ grad_w + grad_b * grad_b))
        if grad_norm <= config.grad_tol:
            converged = True
            break
        stepped = False
        while lr >= 1e-12:
            w_new = w - lr * grad_w
            b_new = b - lr * grad_b
            new_loss = loss(w_new, b_new)
            if new_loss <= current:
                w, b, current = w_new, b_new, new_loss
                stepped = True
                lr *= 1.25
                break
            lr *= 0.5
        if not stepped:
            break  # step size exhausted; gradient direction no longer improves
        if current < best_loss:
            best_w, best_b, best_loss = w, b, current
    else:
        converged = False

    if not converged and config.max_iter > 0:
        warnings.warn(
            "logistic training stopped before reaching the gradient tolerance; "
            "returning the best iterate",
            RuntimeWarning,
            stacklevel=2,
        )
    if domains is None:
        domains = unit_box(n)
    return LinearModel(best_w, float(best_b), domains)
