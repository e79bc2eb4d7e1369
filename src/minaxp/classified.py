"""Greedy minimum-size explanations for accepted (classified) predictions.

Pinning a feature raises the worst-case lower score bound by its gain
``gain_down`` (positive case) or lowers the upper bound by ``gain_up``
(negative case).  Because every feature costs one unit and gains add up
independently, sorting features by gain and taking the shortest prefix that
covers the required margin yields an explanation of provably minimum size,
at O(n log n) cost dominated by the sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    DEFAULT_EPSILON,
    CoverProblem,
    Explanation,
    ExplanationKind,
    Instance,
    Label,
    LabelMismatchError,
    RejectClassifier,
    cover_problem,
)


@dataclass(frozen=True)
class GreedyTrace:
    """Diagnostic record of one greedy run.

    ``ordered_indices`` is the full feature permutation in selection order
    (gain descending, index ascending on ties), ``gains`` the gain values in
    that order, and ``prefix_length`` the number of leading features needed
    to cover ``required_margin``.
    """

    ordered_indices: np.ndarray
    gains: np.ndarray
    required_margin: float
    prefix_length: int


def _greedy_prefix(
    gains: np.ndarray, required_margin: float, kind: ExplanationKind, eps: float
) -> tuple[Explanation, GreedyTrace]:
    n = gains.size
    # Primary key: gain descending; tie-break: index ascending, which a
    # stable sort keeps from the input order.
    keys = -gains
    order = np.argsort(keys, kind="stable")
    ordered_gains = gains[order]
    if required_margin <= eps:
        k = 0
    else:
        # The sort keys are spent; their buffer takes the prefix sums.
        prefix_sums = np.cumsum(ordered_gains, out=keys)
        pos = int(np.searchsorted(prefix_sums, required_margin - eps, side="left"))
        if pos >= n:
            raise LabelMismatchError(
                "margin not coverable by any feature subset; instance cannot carry this label"
            )
        k = pos + 1
    explanation = Explanation(indices=np.sort(order[:k]), kind=kind, certified_minimum=True)
    trace = GreedyTrace(
        ordered_indices=order,
        gains=ordered_gains,
        required_margin=float(required_margin),
        prefix_length=k,
    )
    return explanation, trace


def greedy_explanation(
    problem: CoverProblem, eps: float = DEFAULT_EPSILON
) -> tuple[Explanation, GreedyTrace]:
    """Minimum-size explanation of a classified problem: the greedy over its
    one constrained side, ``gain_down`` for POSITIVE and ``gain_up`` for NEGATIVE."""
    if problem.label is Label.POSITIVE:
        return _greedy_prefix(problem.gain_down, problem.need_down, ExplanationKind.POSITIVE, eps)
    return _greedy_prefix(problem.gain_up, problem.need_up, ExplanationKind.NEGATIVE, eps)


def explain_positive(
    clf: RejectClassifier, instance: Instance, eps: float = DEFAULT_EPSILON
) -> tuple[Explanation, GreedyTrace]:
    """Minimum-size explanation of a POSITIVE prediction.

    The smallest gain-ordered prefix whose summed gains cover
    ``t_plus - baseline_min``; the pinned set keeps the worst-case lower
    score bound at or above ``t_plus``.
    """
    problem = cover_problem(clf, instance, eps).expect(ExplanationKind.POSITIVE)
    return greedy_explanation(problem, eps)


def explain_negative(
    clf: RejectClassifier, instance: Instance, eps: float = DEFAULT_EPSILON
) -> tuple[Explanation, GreedyTrace]:
    """Minimum-size explanation of a NEGATIVE prediction (mirror of the positive case)."""
    problem = cover_problem(clf, instance, eps).expect(ExplanationKind.NEGATIVE)
    return greedy_explanation(problem, eps)
