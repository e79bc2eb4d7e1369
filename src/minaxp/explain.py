"""Per-instance dispatch: predict, route to the right explainer, time it.

The exact route ("minabro") uses the greedy prefix for classified instances
and the branch-and-bound program for rejected ones; "baseline" runs the
deletion-based subset-minimal explainer on every label.  No record leaves
here unless ``CoverProblem.holds`` passes on its index set.

:func:`explain_block` works out and checks, for a whole block of rows at
once, the explanations that closed-form arithmetic settles;
:func:`explain_instance` explains one row on its own, and so each row the
block left open.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .baseline import deletion_block, deletion_explanation
from .classified import greedy_block, greedy_explanation
from .dataio import ExplanationRecord
from .model import (
    BlockProblems, CoverProblem, Instance, Label, RejectClassifier, block_verdicts, cover_problem,
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


def method_names(method: str) -> tuple[str, ...]:
    """The explainers ``method`` runs, in the order their records are written."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    return ("minabro", "baseline") if method == "both" else (method,)


@dataclass
class BlockRecords:
    """What :func:`explain_block` settled with one explainer, as the report
    fields of one record per in-domain row of the block, in row order.

    ``indices[k]`` is an index array that passed the check, or what is left
    open: the ``SearchRoot`` of a rejected row that needs the search, or
    None.  ``time_ms[k]`` is the row's share of its kernel's time.
    """

    indices: list
    certified_minimum: list[bool]
    nodes: list[int | None]
    time_ms: list[float]
    boundary_tight: list[bool]

    def extend(self, other: "BlockRecords") -> None:
        """Append ``other``'s rows after these."""
        for name, column in vars(self).items():
            column += getattr(other, name)

    def fill(self, k: int, record: ExplanationRecord) -> None:
        """Take row ``k``'s fields from the record its own explainer made,
        adding its time to the row's share."""
        self.indices[k] = record.index_array
        self.certified_minimum[k] = record.certified_minimum
        self.nodes[k] = record.nodes
        self.time_ms[k] += record.time_ms
        self.boundary_tight[k] = record.boundary_tight


def explain_block(block: np.ndarray, problems: BlockProblems, method: str = "minabro") -> dict[str, BlockRecords]:
    """For the in-domain rows of a block from ``model.cover_problem_blocks``,
    in row order, what whole-block kernels settle of each explainer that
    ``method`` runs: the greedy's set of each accepted row, the solver's
    answer of each rejected row that needs no branching (and the root of
    each that does), and the first fit of every row.  Every set is checked
    at once (``model.block_verdicts``); one that fails is left open.  Each
    kernel's time is split evenly over the rows it ran on.  A label's need
    and limits are read from its first row's problem, where
    ``model.cover_problem_blocks`` fixed them for every row of the label.
    Nothing here raises for a row: what fails is left open, and the row's
    own explainer raises.
    """
    live = [i for i, label in enumerate(problems.labels) if label is not None]
    r = len(live)
    found = {
        name: BlockRecords([None] * r, [name == "minabro"] * r, [None] * r, [0.0] * r, [False] * r)
        for name in method_names(method)
    }
    if r < _BLOCK_ROWS:
        return found
    by_label = {label: [] for label in Label}
    for k, i in enumerate(live):
        by_label[problems.labels[i]].append(k)
    firsts = {label: problems[live[ks[0]]] for label, ks in by_label.items() if ks}
    ceilings, floors = np.empty(r), np.empty(r)
    for label, first in firsts.items():
        ceilings[by_label[label]], floors[by_label[label]] = first.ceiling, first.floor
    checked = []  # (records, positions in live, their sets): the sets found, to check
    times = {name: np.zeros(r) for name in found}
    if "minabro" in found:
        records = found["minabro"]
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
            times["minabro"][ks] = (time.perf_counter() - start) * 1000.0 / len(ks)
            if label is Label.REJECT:
                for k, idx in zip(ks, sets):
                    records.nodes[k] = 0
                    if isinstance(idx, SearchRoot):
                        records.indices[k] = idx
            picked = [j for j, idx in enumerate(sets) if idx.__class__ is np.ndarray]
            checked.append((records, [ks[j] for j in picked], [sets[j] for j in picked]))
    if "baseline" in found:
        start = time.perf_counter()
        kept = deletion_block(block[live, :2], np.array(problems.scores)[live], ceilings, floors)
        times["baseline"][:] = (time.perf_counter() - start) * 1000.0 / r
        checked.append((found["baseline"], list(range(r)), kept))
    positions = np.concatenate([ks for _, ks, _ in checked]).astype(np.intp)
    holds, tight = block_verdicts(
        block, np.array(live)[positions], [idx for _, _, sets in checked for idx in sets],
        ceilings[positions], floors[positions], problems.clf.model.top, problems.clf.model.bottom,
    )
    holds, tight, at = holds.tolist(), tight.tolist(), 0
    for records, ks, sets in checked:
        for k, idx, ok, on_limit in zip(ks, sets, holds[at : at + len(ks)], tight[at : at + len(ks)]):
            if ok:
                records.indices[k], records.boundary_tight[k] = idx, on_limit
        at += len(ks)
    for name, records in found.items():
        records.time_ms = times[name].tolist()
    return found


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
    unless it is given as that problem (``model.cover_problem_blocks`` builds
    them for a block of rows); each record's ``time_ms`` covers its explainer
    working from that problem.  A rejected row's search starts from ``root``,
    the ``SearchRoot`` that :func:`explain_block` found for it, when given.
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
