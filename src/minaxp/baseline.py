"""Deletion-based subset-minimal explainer, the comparison baseline.

Starts from the full feature set and walks indices in ascending order,
dropping every feature whose removal keeps the explanation valid.  The
result is irredundant (no single remaining feature can be dropped) but not
necessarily of minimum size, which is exactly the contrast the exact
explainers are measured against.
"""

from __future__ import annotations

from .model import (
    DEFAULT_EPSILON,
    Explanation,
    ExplanationKind,
    Instance,
    RejectClassifier,
    coefficient_profile,
    kind_for_label,
    predict,
)


def subset_minimal_explanation(
    clf: RejectClassifier, instance: Instance, eps: float = DEFAULT_EPSILON
) -> Explanation:
    """Subset-minimal explanation for whatever the instance's prediction is.

    Validity under a removal is tracked incrementally: dropping feature j
    raises the reachable maximum by ``delta_minus[j]`` and lowers the
    reachable minimum by ``delta_plus[j]``, so each trial costs O(1).
    """
    pred = predict(clf, instance, eps)
    kind = kind_for_label(pred.label)
    profile = coefficient_profile(clf, instance)
    t_minus, t_plus = clf.t_minus, clf.t_plus

    # With every feature pinned both bounds collapse onto the score itself.
    # Python floats round exactly as numpy float64 scalars do, so the walk
    # over plain lists keeps the same features.
    smax = pred.score
    smin = pred.score
    kept = []
    if kind is ExplanationKind.POSITIVE:
        floor = t_plus - eps
        for j, up in enumerate(profile.delta_plus.tolist()):
            if smin - up >= floor:
                smin -= up
            else:
                kept.append(j)
    elif kind is ExplanationKind.NEGATIVE:
        ceiling = t_minus + eps
        for j, down in enumerate(profile.delta_minus.tolist()):
            if smax + down <= ceiling:
                smax += down
            else:
                kept.append(j)
    else:
        ceiling = t_plus + eps
        floor = t_minus - eps
        gains = zip(profile.delta_minus.tolist(), profile.delta_plus.tolist())
        for j, (down, up) in enumerate(gains):
            trial_max = smax + down
            trial_min = smin - up
            if trial_max <= ceiling and trial_min >= floor:
                smax = trial_max
                smin = trial_min
            else:
                kept.append(j)
    return Explanation(indices=kept, kind=kind, certified_minimum=False)
