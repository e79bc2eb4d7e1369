"""The deletion baseline, frozen as it stood before its walk became a numpy
first fit.

``deletion_explanation`` below walked the features in index order over
plain Python floats, one comparison per feature.  The code from
``_walk_down`` to the end is verbatim; only the imports are absolute.
``tests/test_baseline.py`` checks that the vectorised walk keeps the same
index sets as this one.
"""

from __future__ import annotations

from array import array

from minaxp.model import DEFAULT_EPSILON, CoverProblem, Explanation, Label


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
