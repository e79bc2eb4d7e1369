"""Per-instance dispatch: predict, route to the right explainer, time it.

The exact route ("minabro") uses the greedy prefix for classified instances
and the branch-and-bound program for rejected ones; "baseline" runs the
deletion-based subset-minimal explainer on every label.  No record leaves
here unless ``CoverProblem.holds`` passes on its index set.

:func:`explain_block` works out, for a whole block of rows at once, the
explanations that closed-form arithmetic settles; :func:`explain_instance`
then makes each row's records from them, and runs a row's own explainer
only for what the block left open.
"""

from __future__ import annotations

import time

import numpy as np

from .baseline import deletion_block, deletion_explanation
from .classified import greedy_block, greedy_explanation
from .dataio import ExplanationRecord
from .model import CoverProblem, Instance, Label, RejectClassifier, cover_problem
from .rejected import (
    DEFAULT_NODE_LIMIT, DEFAULT_TIME_LIMIT, SearchRoot, root_block, solve_rejection_ilp,
)

METHODS = ("minabro", "baseline", "both")

# Blocks with fewer rows inside the domains than this are explained a row at
# a time.  The first fits' column walks cost a few numpy calls per feature,
# shared by the block's rows, against a few microseconds per row for a row's
# own walk.  On a 2-vCPU VM the walks broke even at about 11 rows of 30
# features, 36 of 200 and 16 to 32 of 100 to 1,000; the greedy's sort broke
# even at 3 rows.  Blocks of 16,384 features hold one row each.
_BLOCK_ROWS = 32

# What the block settled of one method for one row: the index array, whether
# it is certified minimum, the solver's node count and the row's share of the
# block's time.  In place of the array, a rejected row that needs the search
# has its ``SearchRoot``, and a row left to its own explainer has None.
_OPEN = (None, False, None, 0.0)


def explain_block(block: np.ndarray, problems: list, method: str = "minabro") -> list[dict]:
    """For each row of a block from ``model.cover_problem_blocks``, what
    whole-block kernels settle of its explanations, by method name, for
    :func:`explain_instance`'s ``settled``: the greedy's set of each accepted
    row, the solver's answer of each rejected row that needs no branching
    (and the root of each that does), and the first fit of every row.  Each
    kernel's time is split evenly over the rows it ran on.  A label's need
    and limits are read from its first row's problem, where
    ``model.cover_problem_blocks`` fixed them for every row of the label.
    Nothing here raises for a row: what fails is left open, and the row's
    own explainer raises.
    """
    settled = [{} for _ in problems]
    live = [i for i, problem in enumerate(problems) if problem is not None]
    if len(live) < _BLOCK_ROWS:
        return settled
    names = ("minabro", "baseline") if method == "both" else (method,)
    if "minabro" in names:
        by_label = {label: [] for label in Label}
        for i in live:
            by_label[problems[i].label].append(i)
        for label, rows in by_label.items():
            if not rows:
                continue
            first = problems[rows[0]]
            start = time.perf_counter()
            if label is Label.POSITIVE:
                found = greedy_block(block[rows, 1], first.need_down)
            elif label is Label.NEGATIVE:
                found = greedy_block(block[rows, 0], first.need_up)
            else:
                found = root_block(block[rows, 0], block[rows, 1], first.top, first.bottom,
                                   first.ceiling, first.floor)
            share = (time.perf_counter() - start) * 1000.0 / len(rows)
            nodes = 0 if label is Label.REJECT else None
            for i, idx in zip(rows, found):
                settled[i]["minabro"] = (idx, True, nodes, share)
    if "baseline" in names:
        start = time.perf_counter()
        kept = deletion_block(
            block[live, :2], np.array([problems[i].score for i in live]),
            np.array([problems[i].ceiling for i in live]), np.array([problems[i].floor for i in live]),
        )
        share = (time.perf_counter() - start) * 1000.0 / len(live)
        for i, idx in zip(live, kept):
            settled[i]["baseline"] = (idx, False, None, share)
    return settled


def explain_instance(
    clf: RejectClassifier,
    instance: Instance | CoverProblem,
    instance_id: int | str,
    method: str = "minabro",
    node_limit: int = DEFAULT_NODE_LIMIT,
    time_limit: float = DEFAULT_TIME_LIMIT,
    settled: dict | None = None,
) -> list[ExplanationRecord]:
    """Explain one instance with the requested method(s), returning report records.

    The instance is validated, scored and turned into its cover problem once,
    unless it is given as that problem (``model.cover_problem_blocks`` builds
    them for a block of rows); each record's ``time_ms`` covers its explainer
    working from that problem.  ``settled`` holds what :func:`explain_block`
    found for this row: a method's set is taken from there when it passes
    ``CoverProblem.holds``, and its ``time_ms`` is the row's share of the
    block's time (plus the row's own explainer's, when that has to run; a
    rejected row's search then starts from the root found there).
    An explainer that finds no set, or a set that fails ``CoverProblem.holds``
    (a score within rounding of a threshold), raises ``ValueError`` naming the instance.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    problem = instance if isinstance(instance, CoverProblem) else cover_problem(clf, instance)

    records = []
    for name in ("minabro", "baseline") if method == "both" else (method,):
        idx, certified, nodes, elapsed_ms = settled.get(name, _OPEN) if settled else _OPEN
        holds, tight = problem.verdict(idx) if isinstance(idx, np.ndarray) else (False, False)
        if not holds:
            root = idx if isinstance(idx, SearchRoot) else None
            start = time.perf_counter()
            idx, certified, nodes = _explain_alone(problem, name, node_limit, time_limit, instance_id, root)
            elapsed_ms += (time.perf_counter() - start) * 1000.0
            holds, tight = problem.verdict(idx)
            if not holds:
                raise ValueError(
                    f"instance {instance_id}: the {name} explanation does not force "
                    f"{problem.label.value}: the score {problem.score!r} lies within rounding of a threshold"
                )
        records.append(ExplanationRecord(
            instance_id, problem.label.value, problem.score, problem.kind.value,
            idx, idx.size, certified, name, elapsed_ms, nodes, tight,
        ))
    return records


def _explain_alone(problem: CoverProblem, name: str, node_limit: int, time_limit: float, instance_id,
                   root: SearchRoot | None):
    """``(index array, certified minimum, nodes)`` of the row's own explainer
    ``name``; a rejected row's search starts from ``root`` when given."""
    try:
        if name == "baseline":
            explanation = deletion_explanation(problem)
        elif problem.label is Label.REJECT:
            solution = solve_rejection_ilp(problem, node_limit, time_limit, root)
            return solution.selected, solution.optimal, solution.nodes_explored
        else:
            explanation = greedy_explanation(problem)
    except ValueError as exc:
        raise type(exc)(f"instance {instance_id}: {exc}") from exc
    return explanation.index_array, explanation.certified_minimum, None
