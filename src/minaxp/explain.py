"""Per-instance dispatch: predict, route to the right explainer, time it.

The exact route ("minabro") uses the greedy prefix for classified instances
and the branch-and-bound program for rejected ones; "baseline" runs the
deletion-based subset-minimal explainer on every label.  No record leaves
here unless ``CoverProblem.holds`` passes on its index set.
"""

from __future__ import annotations

import time

from .baseline import deletion_explanation
from .classified import greedy_explanation
from .dataio import ExplanationRecord
from .model import (
    CoverProblem, Explanation, ExplanationKind, Instance, Label, RejectClassifier, cover_problem,
)
from .rejected import DEFAULT_NODE_LIMIT, DEFAULT_TIME_LIMIT, solve_rejection_ilp

METHODS = ("minabro", "baseline", "both")


def explain_instance(
    clf: RejectClassifier,
    instance: Instance | CoverProblem,
    instance_id: int | str,
    method: str = "minabro",
    node_limit: int = DEFAULT_NODE_LIMIT,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> list[ExplanationRecord]:
    """Explain one instance with the requested method(s), returning report records.

    The instance is validated, scored and turned into its cover problem once,
    unless it is given as that problem (``model.cover_problems`` builds them
    for a block of rows); each record's ``time_ms`` covers its explainer
    working from that problem.
    An explainer that finds no set, or a set that fails ``CoverProblem.holds``
    (a score within rounding of a threshold), raises ``ValueError`` naming the instance.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    problem = instance if isinstance(instance, CoverProblem) else cover_problem(clf, instance)

    records = []
    for name in ("minabro", "baseline") if method == "both" else (method,):
        nodes = None
        start = time.perf_counter()
        try:
            if name == "baseline":
                explanation = deletion_explanation(problem)
            elif problem.label is Label.REJECT:
                solution = solve_rejection_ilp(problem, node_limit, time_limit)
                explanation = Explanation(solution.selected, ExplanationKind.REJECTION, solution.optimal)
                nodes = solution.nodes_explored
            else:
                explanation = greedy_explanation(problem)
        except ValueError as exc:
            raise type(exc)(f"instance {instance_id}: {exc}") from exc
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        holds, tight = problem.verdict(explanation.index_array)
        if not holds:
            raise ValueError(
                f"instance {instance_id}: the {name} explanation does not force "
                f"{problem.label.value}: the score {problem.score!r} lies within rounding of a threshold"
            )
        records.append(ExplanationRecord(
            instance_id, problem.label.value, problem.score, explanation.kind.value,
            explanation.index_array, explanation.size, explanation.certified_minimum, name,
            elapsed_ms, nodes, tight,
        ))
    return records
