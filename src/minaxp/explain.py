"""Per-instance dispatch: predict, route to the right explainer, time it.

The exact route ("minabro") uses the greedy prefix for classified instances
and the branch-and-bound program for rejected ones; "baseline" runs the
deletion-based subset-minimal explainer on every label.
"""

from __future__ import annotations

import time

from .baseline import deletion_explanation
from .classified import greedy_explanation
from .dataio import ExplanationRecord
from .model import Instance, Label, RejectClassifier, cover_problem
from .rejected import (
    DEFAULT_NODE_LIMIT,
    DEFAULT_TIME_LIMIT,
    lift_solution,
    solve_rejection_ilp,
)

METHODS = ("minabro", "baseline", "both")


def explain_instance(
    clf: RejectClassifier,
    instance: Instance,
    instance_id: int | str,
    method: str = "minabro",
    node_limit: int = DEFAULT_NODE_LIMIT,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> list[ExplanationRecord]:
    """Explain one instance with the requested method(s), returning report records.

    The instance is validated, scored and turned into its cover problem once;
    each record's ``time_ms`` covers its explainer working from that problem.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    problem = cover_problem(clf, instance)

    records = []
    for name in ("minabro", "baseline") if method == "both" else (method,):
        nodes = None
        start = time.perf_counter()
        if name == "baseline":
            explanation = deletion_explanation(problem)
        elif problem.label is Label.REJECT:
            solution = solve_rejection_ilp(problem, node_limit, time_limit)
            explanation = lift_solution(problem, solution)
            nodes = solution.nodes_explored
        else:
            explanation = greedy_explanation(problem)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        records.append(ExplanationRecord(
            instance_id, problem.label.value, problem.score, explanation.kind.value,
            explanation.indices, explanation.size, explanation.certified_minimum, name,
            elapsed_ms, nodes, problem.tight(explanation.index_array),
        ))
    return records
