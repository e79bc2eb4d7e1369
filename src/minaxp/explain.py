"""Per-instance dispatch: predict, route to the right explainer, time it.

The exact route ("minabro") uses the greedy prefix for classified instances
and the branch-and-bound program for rejected ones; "baseline" runs the
deletion-based subset-minimal explainer on every label.  No record leaves
here unless ``CoverProblem.holds`` passes on its index set.

:func:`explain_block` gives the report records of a block of rows: it works
out and checks, for the whole block at once, the explanations that
closed-form arithmetic settles, and :func:`explain_instance` explains each
row the block left open, as it explains a row on its own.
"""

from __future__ import annotations

import time

import numpy as np

from .baseline import deletion_block, deletion_explanation
from .classified import greedy_block, greedy_explanation
from .dataio import ExplanationRecord, RecordColumns
from .model import (
    _KIND_FOR_LABEL, BlockProblems, CoverProblem, Instance, Label, RejectClassifier, block_verdicts,
    cover_problem,
)
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

# Report texts by label, read without ``Enum.value``'s per-read cost.
_LABEL_TEXT = {label: label.value for label in Label}
_KIND_TEXT = {label: kind.value for label, kind in _KIND_FOR_LABEL.items()}


def method_names(method: str) -> tuple[str, ...]:
    """The explainers ``method`` runs, in the order their records are written."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    return ("minabro", "baseline") if method == "both" else (method,)


def explain_block(problems: BlockProblems, method: str = "minabro", node_limit: int = DEFAULT_NODE_LIMIT,
                  time_limit: float = DEFAULT_TIME_LIMIT) -> RecordColumns:
    """The report records of the in-domain rows of a block from
    ``model.cover_problem_blocks``, as columns in report order: row by row,
    and within a row in ``method_names`` order.

    Whole-block kernels settle what they can first (:func:`_settle`).  Then
    each row they left open goes to :func:`explain_instance` in row order,
    for the methods left open and with its ``SearchRoot``, and adds its own
    explainer's time to the row's share of the kernels'.  The first row that
    fails raises its own error.
    """
    names = method_names(method)
    m = len(names)
    live = [i for i, label in enumerate(problems.labels) if label is not None]
    # Row k's record of names[j] is at k * m + j.
    indices, nodes, time_ms, tight = _settle(problems, live, names)
    certified = [name == "minabro" for name in names] * len(live)
    # Each row the kernels left open, once, in row order.
    for k in dict.fromkeys(at // m for at, idx in enumerate(indices) if idx.__class__ is not np.ndarray):
        left = [j for j in range(m) if indices[k * m + j].__class__ is not np.ndarray]
        root, i = indices[k * m + left[0]], live[k]
        records = explain_instance(
            problems.clf, problems[i], problems.start + i, method if len(left) == m else names[left[0]],
            node_limit, time_limit, root if isinstance(root, SearchRoot) else None,
        )
        for j, record in zip(left, records):
            at = k * m + j
            indices[at], certified[at], nodes[at] = record.index_array, record.certified_minimum, record.nodes
            time_ms[at] += record.time_ms
            tight[at] = record.boundary_tight
    labels = [problems.labels[i] for i in live]
    columns = RecordColumns()
    columns.extend(
        instance_id=[problems.start + i for i in live for _ in names],
        label=[_LABEL_TEXT[label] for label in labels for _ in names],
        score=[problems.scores[i] for i in live for _ in names],
        kind=[_KIND_TEXT[label] for label in labels for _ in names],
        indices=indices,
        size=list(map(len, indices)),
        certified_minimum=certified,
        method=list(names) * len(live),
        time_ms=time_ms,
        nodes=nodes,
        boundary_tight=tight,
    )
    return columns


def _settle(problems: BlockProblems, live: list[int], names: tuple[str, ...]):
    """What whole-block kernels settle of the explainers ``names`` for the
    in-domain rows ``live`` of a block: the greedy's set of each accepted
    row, the solver's answer of each rejected row that needs no branching
    (and the root of each that does), and the first fit of every row.  Every
    set is checked at once (``model.block_verdicts``), with the two fills of
    each root, which keeps the fills that hold (``SearchRoot.checked``).  A
    block with fewer than ``_BLOCK_ROWS`` such rows is left open whole.

    Returns four columns in :func:`explain_block`'s report order: the index
    array that passed the check, or what is left open (a ``SearchRoot`` or
    None); ``nodes``; ``time_ms``, each kernel's time split evenly over the
    rows it ran on; and ``boundary_tight``.  A label's need and limits are
    read from its first row's problem, where ``model.cover_problem_blocks``
    fixed them for every row of the label.  Nothing here raises for a row.
    """
    m, r = len(names), len(live)
    indices, nodes, time_ms, tight = [None] * (r * m), [None] * (r * m), [0.0] * (r * m), [False] * (r * m)
    if r < _BLOCK_ROWS:
        return indices, nodes, time_ms, tight
    block = problems.block
    by_label = {label: [] for label in Label}
    for k, i in enumerate(live):
        by_label[problems.labels[i]].append(k)
    firsts = {label: problems[live[ks[0]]] for label, ks in by_label.items() if ks}
    ceilings, floors = np.empty(r), np.empty(r)
    for label, first in firsts.items():
        ceilings[by_label[label]], floors[by_label[label]] = first.ceiling, first.floor
    found_at, found = [], []  # the slots of the sets found, and the sets, to check
    roots = []  # the slots of the rows left to the search
    if "minabro" in names:
        j = names.index("minabro")
        for label, first in firsts.items():
            ks = by_label[label]
            rows = [live[k] for k in ks]
            start = time.perf_counter()
            if label is Label.POSITIVE:
                sets = greedy_block(block[rows, 1], first.need_down)
            elif label is Label.NEGATIVE:
                sets = greedy_block(block[rows, 0], first.need_up)
            else:
                sets = root_block(block[rows, 0], block[rows, 1], first.top, first.bottom,
                                  first.ceiling, first.floor)
            share = (time.perf_counter() - start) * 1000.0 / len(ks)
            for k, idx in zip(ks, sets):
                time_ms[k * m + j] = share
                if label is Label.REJECT:
                    nodes[k * m + j] = 0
                    if isinstance(idx, SearchRoot):
                        indices[k * m + j] = idx
                        roots.append(k * m + j)
                if idx.__class__ is np.ndarray:
                    found_at.append(k * m + j)
                    found.append(idx)
    if "baseline" in names:
        j = names.index("baseline")
        start = time.perf_counter()
        columns = np.take(block[:, :2].transpose(2, 1, 0), live, axis=2)
        found += deletion_block(columns, np.array(problems.scores)[live], ceilings, floors)
        time_ms[j::m] = [(time.perf_counter() - start) * 1000.0 / r] * r
        found_at += range(j, r * m, m)
    fills = [(slot, pinned) for slot in roots for pinned in indices[slot].pinned]
    at = np.array(found_at + [slot for slot, _ in fills], dtype=np.intp) // m
    holds, on_limit = block_verdicts(
        block, np.array(live)[at], found + [pinned for _, pinned in fills], ceilings[at], floors[at],
        problems.clf.model.top, problems.clf.model.bottom,
    )
    holds = holds.tolist()
    for slot, idx, ok, is_tight in zip(found_at, found, holds, on_limit.tolist()):
        if ok:
            indices[slot], tight[slot] = idx, is_tight
    held = iter(holds[len(found):])
    for slot in roots:
        indices[slot] = indices[slot].checked([next(held) for _ in indices[slot].pinned])
    return indices, nodes, time_ms, tight


def explain_instance(
    clf: RejectClassifier,
    instance: Instance | CoverProblem,
    instance_id: int | str,
    method: str = "minabro",
    node_limit: int = DEFAULT_NODE_LIMIT,
    time_limit: float = DEFAULT_TIME_LIMIT,
    root: SearchRoot | None = None,
) -> list[ExplanationRecord]:
    """Explain one instance with the requested method(s), returning report records.

    The instance is validated, scored and turned into its cover problem once,
    unless it is given as that problem, as :func:`explain_block` gives each
    row its kernels left open; each record's ``time_ms`` covers its explainer
    working from that problem.  A rejected row's search starts from ``root``,
    the ``SearchRoot`` that the block's kernels found for it, when given.
    An explainer that finds no set, or a set that fails ``CoverProblem.holds``
    (a score within rounding of a threshold), raises ``ValueError`` naming the instance.
    """
    names = method_names(method)
    problem = instance if isinstance(instance, CoverProblem) else cover_problem(clf, instance)

    records = []
    for name in names:
        start = time.perf_counter()
        idx, certified, nodes = _explain_alone(problem, name, node_limit, time_limit, instance_id, root)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
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
