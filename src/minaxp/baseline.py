"""Deletion-based subset-minimal explainer, the comparison baseline.

Starts from the full feature set and walks indices in ascending order,
dropping every feature whose removal keeps the explanation valid.  The
result is irredundant (no single remaining feature can be dropped) but not
necessarily of minimum size, which is exactly the contrast the exact
explainers are measured against.
"""

from __future__ import annotations

from array import array

from .model import (
    DEFAULT_EPSILON,
    CoverProblem,
    Explanation,
    Label,
)


def _walk_down(start: float, gains: list, limit: float) -> array:
    """Indices kept by dropping, in order, every gain ``start`` can lose and stay >= ``limit``."""
    kept = array("q")
    for j, gain in enumerate(gains):
        if start - gain >= limit:
            start -= gain
        else:
            kept.append(j)
    return kept


def deletion_explanation(problem: CoverProblem) -> Explanation:
    """Subset-minimal explanation of the problem's label.

    Validity under a removal is tracked incrementally: dropping feature j
    raises the reachable maximum by ``gain_up[j]`` and lowers the reachable
    minimum by ``gain_down[j]``, so each trial costs O(1).  With every
    feature pinned both bounds collapse onto the score itself.  Python
    floats round exactly as numpy float64 scalars do, so the walk over plain
    lists keeps the same features.
    """
    ceiling = problem.ceiling + DEFAULT_EPSILON
    floor = problem.floor - DEFAULT_EPSILON
    if problem.label is Label.POSITIVE:
        kept = _walk_down(problem.score, problem.gain_down.tolist(), floor)
    elif problem.label is Label.NEGATIVE:
        # The upper bound, negated: -(s + g) <= -c is exactly s + g <= c.
        kept = _walk_down(-problem.score, problem.gain_up.tolist(), -ceiling)
    else:
        smax = smin = problem.score
        kept = array("q")
        gains = zip(problem.gain_up.tolist(), problem.gain_down.tolist())
        for j, (up, down) in enumerate(gains):
            trial_max = smax + up
            trial_min = smin - down
            if trial_max <= ceiling and trial_min >= floor:
                smax = trial_max
                smin = trial_min
            else:
                kept.append(j)
    return Explanation(indices=kept, kind=problem.kind, certified_minimum=False)
