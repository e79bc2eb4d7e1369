"""Greedy minimum-size explanations for accepted (classified) predictions.

Pinning a feature raises the worst-case lower score bound by its gain
``gain_down`` (positive case) or lowers the upper bound by ``gain_up``
(negative case).  Because every feature costs one unit and gains add up
independently, the shortest prefix of the gains sorted largest first that
covers the required margin is an explanation of provably minimum size, at
O(n log n) cost: one sort of the values.  Equal gains are equal floats, so
the prefix length k does not depend on the tie order.  The explanation is
every gain above the k-th largest plus the lowest-indexed ones equal to it,
the first k of the order by gain descending, index ascending.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    """Diagnostic record of one greedy run: the gains by feature index, the
    margin they must cover and the number of leading features that cover it.
    ``ordered_indices``, the selection order (gain descending, index ascending
    on ties), and ``gains`` in that order are sorted out on first read.
    """

    feature_gains: np.ndarray
    required_margin: float
    prefix_length: int

    @cached_property
    def ordered_indices(self) -> np.ndarray:
        return np.argsort(-self.feature_gains, kind="stable")

    @cached_property
    def gains(self) -> np.ndarray:
        return self.feature_gains[self.ordered_indices]


def _greedy_prefix(
    gains: np.ndarray, work: tuple, required_margin: float, kind: ExplanationKind, eps: float
) -> tuple[Explanation, GreedyTrace]:
    if required_margin <= eps:
        chosen = np.empty(0, dtype=np.intp)
    else:
        # The work rows share one block with the gains, so a call
        # allocates nothing of length n but the index set.
        ascending, prefix_sums = work
        np.copyto(ascending, gains)
        ascending.sort()
        np.add.accumulate(ascending[::-1], out=prefix_sums)
        k = int(np.searchsorted(prefix_sums, required_margin - eps, side="left")) + 1
        if k > gains.size:
            raise LabelMismatchError(
                "margin not coverable by any feature subset; instance cannot carry this label"
            )
        kth = ascending[-k]
        # The prefix sums are spent; their row takes the mask.
        mask = np.greater_equal(gains, kth, out=prefix_sums.view(np.bool_)[: gains.size])
        chosen = mask.nonzero()[0]
        if chosen.size > k:  # surplus ties at the k-th value: keep the lowest-indexed
            ties = chosen[gains[chosen] == kth]
            mask[ties[k - chosen.size :]] = False
            chosen = mask.nonzero()[0]
    trace = GreedyTrace(gains, float(required_margin), chosen.size)
    return Explanation(indices=chosen, kind=kind, certified_minimum=True), trace


def greedy_explanation(problem: CoverProblem) -> tuple[Explanation, GreedyTrace]:
    """Minimum-size explanation of a classified problem: the greedy over its
    one constrained side, ``gain_down`` for POSITIVE and ``gain_up`` for NEGATIVE."""
    if problem.label is Label.POSITIVE:
        gains, need, kind = problem.gain_down, problem.need_down, ExplanationKind.POSITIVE
    else:
        gains, need, kind = problem.gain_up, problem.need_up, ExplanationKind.NEGATIVE
    return _greedy_prefix(gains, problem.work, need, kind, DEFAULT_EPSILON)


def explain_positive(clf: RejectClassifier, instance: Instance) -> tuple[Explanation, GreedyTrace]:
    """Minimum-size explanation of a POSITIVE prediction.

    The smallest gain-ordered prefix whose summed ``gain_down`` covers
    ``need_down = t_plus - bottom``; the pinned set keeps the worst-case
    lower score bound at or above ``t_plus``.
    """
    return greedy_explanation(cover_problem(clf, instance).expect(ExplanationKind.POSITIVE))


def explain_negative(clf: RejectClassifier, instance: Instance) -> tuple[Explanation, GreedyTrace]:
    """Minimum-size explanation of a NEGATIVE prediction (mirror of the positive case)."""
    return greedy_explanation(cover_problem(clf, instance).expect(ExplanationKind.NEGATIVE))
