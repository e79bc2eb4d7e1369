"""Per-instance dispatch: predict, route to the right explainer, time it.

The exact route ("minabro") uses the greedy prefix for classified instances
and the branch-and-bound program for rejected ones; "baseline" runs the
deletion-based subset-minimal explainer on every label.
"""

from __future__ import annotations

import time

import numpy as np

from .baseline import subset_minimal_explanation
from .classified import explain_negative, explain_positive
from .dataio import ExplanationRecord
from .model import (
    DEFAULT_EPSILON,
    Explanation,
    ExplanationKind,
    Instance,
    Label,
    RejectClassifier,
    coefficient_profile,
    predict,
)
from .rejected import (
    DEFAULT_NODE_LIMIT,
    DEFAULT_TIME_LIMIT,
    build_rejection_ilp,
    explanation_from_solution,
    solve_rejection_ilp,
)

METHODS = ("minabro", "baseline", "both")


def boundary_tight(
    clf: RejectClassifier,
    instance: Instance,
    explanation: Explanation,
    eps: float = DEFAULT_EPSILON,
) -> bool:
    """Whether a bound of this explanation sits within eps of its threshold.

    Such explanations are valid under the non-strict reading but would be
    arguable under a strict one; reports flag them for inspection.
    """
    profile = coefficient_profile(clf, instance)
    # Explanation indices are sorted and unique: the array s_max / s_min build.
    idx = np.asarray(explanation.indices, dtype=np.intp)
    smax = float(profile.baseline_max - profile.delta_minus[idx].sum())
    smin = float(profile.baseline_min + profile.delta_plus[idx].sum())
    if explanation.kind is ExplanationKind.POSITIVE:
        return abs(smin - clf.t_plus) <= eps
    if explanation.kind is ExplanationKind.NEGATIVE:
        return abs(smax - clf.t_minus) <= eps
    return abs(smax - clf.t_plus) <= eps or abs(smin - clf.t_minus) <= eps


def explain_instance(
    clf: RejectClassifier,
    instance: Instance,
    instance_id: int | str,
    method: str = "minabro",
    node_limit: int = DEFAULT_NODE_LIMIT,
    time_limit: float = DEFAULT_TIME_LIMIT,
    eps: float = DEFAULT_EPSILON,
) -> list[ExplanationRecord]:
    """Explain one instance with the requested method(s), returning report records."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    pred = predict(clf, instance, eps)
    records = []
    if method in ("minabro", "both"):
        records.append(
            _run_exact(clf, instance, instance_id, pred, node_limit, time_limit, eps)
        )
    if method in ("baseline", "both"):
        start = time.perf_counter()
        explanation = subset_minimal_explanation(clf, instance, eps)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        records.append(
            _record(clf, instance, instance_id, pred, explanation, "baseline", elapsed_ms, None, eps)
        )
    return records


def _run_exact(clf, instance, instance_id, pred, node_limit, time_limit, eps):
    nodes = None
    start = time.perf_counter()
    if pred.label is Label.POSITIVE:
        explanation, _ = explain_positive(clf, instance, eps)
    elif pred.label is Label.NEGATIVE:
        explanation, _ = explain_negative(clf, instance, eps)
    else:
        ilp = build_rejection_ilp(clf, instance, eps)
        solution = solve_rejection_ilp(ilp, node_limit=node_limit, time_limit=time_limit, eps=eps)
        explanation = explanation_from_solution(clf, instance, solution, eps)
        nodes = solution.nodes_explored
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return _record(clf, instance, instance_id, pred, explanation, "minabro", elapsed_ms, nodes, eps)


def _record(clf, instance, instance_id, pred, explanation, method, elapsed_ms, nodes, eps):
    return ExplanationRecord(
        instance_id=instance_id,
        label=pred.label.value,
        score=pred.score,
        kind=explanation.kind.value,
        indices=explanation.indices,
        size=explanation.size,
        certified_minimum=explanation.certified_minimum,
        method=method,
        time_ms=elapsed_ms,
        nodes=nodes,
        boundary_tight=boundary_tight(clf, instance, explanation, eps),
    )
