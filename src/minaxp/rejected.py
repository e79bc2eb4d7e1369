"""Exact minimum-size explanations of rejection via a 0-1 program.

A rejected instance stays rejected only if the pinned features keep both
worst-case score bounds inside the rejection band.  Encoding "pin feature j"
as a binary variable turns that into two covering constraints over the
instance's :class:`~minaxp.model.CoverProblem`, with objective: pin as few
features as possible.  Pinning feature j lowers the upper bound by
``gain_up[j] >= 0`` and lifts the lower bound by ``gain_down[j] >= 0``; the
pinned gains must add up to ``need_up = top - t_plus`` and ``need_down =
t_minus - bottom`` (within ``DEFAULT_EPSILON``).  Pinning every feature
collapses both bounds onto the score, so the full set is feasible.

The built-in solver is a best-first branch and bound over the complement:
the sets of features that can be left free.  Freeing feature j spends
``gain_up[j]`` and ``gain_down[j]`` of the slacks ``sum(gain_up) - need_up``
and ``sum(gain_down) - need_down``, and the search frees as many as it can.
Its per-node upper bound is the smallest of four fitting counts over the
still-undecided features: the most of the cheapest costs that fit each
slack, the slacks' sum and the surrogate ``slack_up + lam * slack_down``
with ``lam = slack_up / slack_down`` (Glover 1968; Martello and Toth 1990,
ch. 3).  Any feasible removal fits all four, so an incumbent matched by the
best outstanding bound is provably optimal.  The counts come off prefix
sums of the undecided tail, built once per visited depth (one sort, one
cumulative sum) into an ``array('d')`` that ``bisect`` reads; the search
itself runs on plain floats and lists.  First-fit fills give the starting
incumbent; on most narrow-band rows it meets the root bound, and the row
is certified without branching.

Feasibility of candidate solutions is always confirmed on sums taken in
ascending feature order (numpy reductions), the same arithmetic the
closed-form validity check uses; the running per-node sums only steer the
search.  This keeps accepted solutions consistent with
``CoverProblem.bounds`` even when thousands of additions would otherwise
round differently.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .model import (
    DEFAULT_EPSILON,
    CoverProblem,
    Explanation,
    ExplanationKind,
)

DEFAULT_NODE_LIMIT = 10_000_000
DEFAULT_TIME_LIMIT = 30.0

# Exact per-depth suffix bounds are cached lazily up to this many undecided
# variables (quadratic memory in the worst case); larger problems fall back
# to a single global gain ranking, which is weaker but still admissible.
_SUFFIX_EXACT_LIMIT = 3000


@dataclass(frozen=True)
class IlpSolution:
    selected: np.ndarray  # sorted intp feature indices
    objective: int
    optimal: bool
    nodes_explored: int
    solve_time: float
    # Fewest pins the search has proved necessary: ``objective`` when
    # ``optimal``, otherwise the active count minus the best outstanding bound.
    lower_bound: int = 0


class _TailSums:
    """Sorted prefix sums over the undecided tail of the branch order, per depth.

    Four families: each constraint's costs alone, their sum and the
    surrogate ``up + lam * down`` (feasible removals must fit all four).  A
    visited depth costs one sort and one cumulative sum over all four,
    cheapest first.  The sums go into one ``array('d')``, 8 bytes per value,
    and ``bisect`` reads each family through a memoryview.  Beyond
    _SUFFIX_EXACT_LIMIT variables every depth uses the whole order's sums.
    """

    def __init__(self, up: np.ndarray, down: np.ndarray, lam: float):
        self.values = np.vstack((up, down, up + down, up + lam * down))
        self.exact = up.size <= _SUFFIX_EXACT_LIMIT
        self.cache: dict[int, tuple[memoryview, ...]] = {}

    def at(self, depth: int) -> tuple[memoryview, ...]:
        if not self.exact:
            depth = 0
        tail = self.cache.get(depth)
        if tail is None:
            families, width = self.values.shape[0], self.values.shape[1] - depth
            ordered = np.sort(self.values[:, depth:], axis=1)
            flat = array("d", [0.0]) * (families * width)  # allocated exactly, unlike frombytes
            sums = np.frombuffer(flat).reshape(families, width)
            np.add.accumulate(ordered, axis=1, out=sums)
            view = memoryview(flat)
            tail = self.cache[depth] = tuple(
                view[f * width : (f + 1) * width] for f in range(families)
            )
        return tail


def _pack_bound(tail, budget_up: float, budget_down: float, lam: float, eps: float) -> int:
    """Most further removals: the smallest of the four fitting counts is admissible.

    A removal within ``eps`` of both budgets is within ``eps * (a + b)`` of
    ``a * budget_up + b * budget_down``, so each weighted family gets that slack.
    """
    up, down, both, surrogate = tail
    best = bisect_right(surrogate, budget_up + lam * budget_down + (1.0 + lam) * eps)
    k = bisect_right(up, budget_up + eps)
    if k < best:
        best = k
    k = bisect_right(down, budget_down + eps)
    if k < best:
        best = k
    k = bisect_right(both, budget_up + budget_down + 2.0 * eps)
    return k if k < best else best


def _positions(link) -> list[int]:
    """The branch positions on a chain of ``(position, parent)`` links."""
    positions = []
    while link is not None:
        position, link = link
        positions.append(position)
    return positions


class _Feasibility:
    """Candidate acceptance on ascending-feature-index numpy sums.

    The search tracks running sums for speed, but rounding over thousands of
    sequential additions can disagree with the closed-form validity check
    near the tolerance boundary.  Candidates are therefore confirmed with
    the same values in the same reduction order the validity check uses:
    the original-index gain arrays, indices ascending.
    """

    def __init__(self, order, gain_up, gain_down, need_up, need_down, eps):
        self.order = order  # branch position -> original feature index
        self.gain_up = gain_up
        self.gain_down = gain_down
        self.need_up = need_up
        self.need_down = need_down
        self.eps = eps

    def pinned(self, removed) -> np.ndarray:
        """The sorted feature indices at every branch position but ``removed``."""
        keep = np.ones(self.order.size, dtype=bool)
        keep[removed] = False
        return np.sort(self.order[keep])

    def check(self, removed) -> bool:
        idx = self.pinned(removed)
        return bool(
            self.gain_up[idx].sum() >= self.need_up - self.eps
            and self.gain_down[idx].sum() >= self.need_down - self.eps
        )


def _first_fit(positions, up, down, cap_up, cap_down, feasible) -> list[int]:
    """Free each of ``positions`` in turn whose costs still fit both caps.

    The result is confirmed on canonical sums; if rounding ever disagrees,
    nothing is freed, so every feature stays pinned."""
    freed = []
    su = sd = 0.0
    for p in positions:
        u = su + up[p]
        d = sd + down[p]
        if u <= cap_up and d <= cap_down:
            freed.append(p)
            su = u
            sd = d
    return freed if feasible.check(freed) else []


def _search_pack(
    c_up, c_down, budget_up, budget_down, feasible, start, node_limit, time_limit, eps,
) -> IlpSolution:
    """Best-first search over removed-feature sets.

    Removing feature j spends (c_up[j], c_down[j]) of the slack budgets, and
    the goal is to remove as many as possible.  The search stops uncertified
    once it has expanded ``node_limit`` nodes or ``time_limit`` seconds have
    passed since ``start``.  Heap entries: (negated upper bound, insertion
    sequence, count, depth, spent_up, spent_down, removed), where
    ``removed`` is the last removed position linked to its parent's chain,
    ``(position, removed)``, or None.  Insertion order breaks bound ties,
    with remove-children pushed first.
    """
    # With a slack that is not positive, lam = 1 copies the sum family.
    lam = budget_up / budget_down if budget_up > 0.0 and budget_down > 0.0 else 1.0
    sums = _TailSums(c_up, c_down, lam)
    up, down = c_up.tolist(), c_down.tolist()
    m = len(up)
    cap_up, cap_down = budget_up + eps, budget_down + eps
    root_ub = _pack_bound(sums.at(0), budget_up, budget_down, lam, eps)
    best_removed = _first_fit(range(m), up, down, cap_up, cap_down, feasible)
    if len(best_removed) < root_ub:
        # A fill in the surrogate order, ties by ascending index, so that at
        # lam = 1 it does not repeat the first (ties by descending index).
        surrogate_order = np.lexsort((feasible.order, sums.values[3])).tolist()
        second = _first_fit(surrogate_order, up, down, cap_up, cap_down, feasible)
        if len(second) > len(best_removed):
            best_removed = second
    best_count = len(best_removed)
    seq = 0
    heap = []
    if root_ub > best_count:
        heap.append((-root_ub, seq, 0, 0, 0.0, 0.0, None))
    nodes = 0
    optimal = True

    while heap:
        neg_ub, _, count, j, ru, rd, removed = heappop(heap)
        if -neg_ub <= best_count:
            break
        if not (nodes < node_limit and time.perf_counter() - start <= time_limit):
            optimal = False
            break
        nodes += 1

        depth = j + 1
        tail = sums.at(depth) if depth < m else None
        # Remove order[j].
        c_ru = ru + up[j]
        c_rd = rd + down[j]
        if c_ru <= cap_up and c_rd <= cap_down:
            c_removed = (j, removed)
            c_count = count + 1
            if c_count > best_count:
                positions = _positions(c_removed)
                if feasible.check(positions):
                    best_count = c_count
                    best_removed = positions
            if tail is not None:
                cub = c_count + _pack_bound(tail, budget_up - c_ru, budget_down - c_rd, lam, eps)
                if cub > best_count:
                    seq += 1
                    heappush(heap, (-cub, seq, c_count, depth, c_ru, c_rd, c_removed))
        # Keep order[j] pinned.
        if tail is not None:
            xub = count + _pack_bound(tail, budget_up - ru, budget_down - rd, lam, eps)
            if xub > best_count:
                seq += 1
                heappush(heap, (-xub, seq, count, depth, ru, rd, removed))

    objective = m - best_count
    return IlpSolution(
        feasible.pinned(best_removed), objective, optimal, nodes,
        time.perf_counter() - start,
        objective if optimal else m + neg_ub,  # -neg_ub: the best outstanding bound
    )


def solve_rejection_ilp(
    problem: CoverProblem,
    node_limit: int = DEFAULT_NODE_LIMIT,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> IlpSolution:
    """Exact best-first branch and bound over the binary pin variables of a
    rejected problem.

    Returns a provably minimum-cardinality feasible selection with
    ``optimal=True`` on normal termination.  If the node or wall-clock budget
    runs out first, the best incumbent found so far is returned with
    ``optimal=False`` and ``lower_bound`` below ``objective``; an incumbent
    always exists because the full feature set is feasible.

    The search branches on the features to leave free, cheapest
    ``gain_up + gain_down`` first, ties by descending index, so that among
    equal costs the lower index stays pinned.  Its starting incumbent frees
    each feature of that order that still fits both slacks (first fit).
    """
    start = time.perf_counter()
    eps = DEFAULT_EPSILON
    problem.expect(ExplanationKind.REJECTION)
    gain_up, gain_down = problem.gain_up, problem.gain_down
    need_up, need_down = problem.need_up, problem.need_down

    if need_up <= eps and need_down <= eps:
        return IlpSolution(np.empty(0, np.intp), 0, True, 0, time.perf_counter() - start)

    # Features that move neither bound can never help; drop them up front.
    active = np.flatnonzero((gain_up > 0.0) | (gain_down > 0.0))
    total_up = float(gain_up[active].sum())
    total_down = float(gain_down[active].sum())
    if total_up < need_up - eps or total_down < need_down - eps:
        raise ValueError("program is infeasible; the instance is not genuinely rejected")

    order = active[np.lexsort((-active, gain_up[active] + gain_down[active]))]
    return _search_pack(
        gain_up[order], gain_down[order], total_up - need_up, total_down - need_down,
        _Feasibility(order, gain_up, gain_down, need_up, need_down, eps),
        start, node_limit, time_limit, eps,
    )


def lift_solution(problem: CoverProblem, solution: IlpSolution) -> Explanation:
    """Lift a solver result on a rejected problem to an Explanation, guaranteeing validity.

    If comparison-order rounding at the exact tolerance boundary ever makes
    the solver's selection fail the closed-form check, fall back to the full
    feature set (always valid) and drop the optimality claim.
    """
    explanation = Explanation(solution.selected, ExplanationKind.REJECTION, solution.optimal)
    if problem.holds(explanation.index_array):
        return explanation
    return Explanation(np.arange(problem.gain_up.size), ExplanationKind.REJECTION, False)
