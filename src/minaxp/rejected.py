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
Its per-node upper bound is the smallest of three fitting counts over the
still-undecided features: the most of the cheapest costs that fit each
slack separately and the same count for the two slacks' sum, which any
feasible removal must also fit.  All three are admissible, so an incumbent
matched by the best outstanding bound is provably optimal.  The counts come
off prefix sums of the undecided tail, which each visited depth builds once
for all three families (one sort, one cumulative sum) and keeps in an
``array('d')`` at 8 bytes per value; a node looks its child depth up once
and bisects it for both children, and the search itself runs on plain
floats and lists.

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


class _TailSums:
    """Sorted prefix sums over the undecided tail of the branch order, per depth.

    Three families: each constraint's costs alone and their sum (feasible
    removals must fit all three).  A visited depth costs one sort and one
    cumulative sum over all three, cheapest first.  The sums go into one
    ``array('d')``, 8 bytes per value, and ``bisect`` reads each family
    through a memoryview.  Beyond _SUFFIX_EXACT_LIMIT variables every depth
    uses the whole order's sums.
    """

    def __init__(self, up: np.ndarray, down: np.ndarray):
        self.values = np.vstack((up, down, up + down))
        self.exact = up.size <= _SUFFIX_EXACT_LIMIT
        self.cache: dict[int, tuple[memoryview, memoryview, memoryview]] = {}

    def at(self, depth: int) -> tuple[memoryview, memoryview, memoryview]:
        if not self.exact:
            depth = 0
        tail = self.cache.get(depth)
        if tail is None:
            width = self.values.shape[1] - depth
            ordered = np.sort(self.values[:, depth:], axis=1)
            flat = array("d", [0.0]) * (3 * width)  # allocated exactly, unlike frombytes
            sums = np.frombuffer(flat).reshape(3, width)
            np.add.accumulate(ordered, axis=1, out=sums)
            view = memoryview(flat)
            tail = self.cache[depth] = (view[:width], view[width : 2 * width], view[2 * width :])
        return tail


def _pack_bound(tail, budget_up: float, budget_down: float, eps: float) -> int:
    """Most further removals: the smallest of the three fitting counts is admissible."""
    up, down, both = tail
    best = bisect_right(up, budget_up + eps)
    k = bisect_right(down, budget_down + eps)
    if k < best:
        best = k
    k = bisect_right(both, budget_up + budget_down + eps)
    return k if k < best else best


def _mask(size: int, positions, value: bool) -> np.ndarray:
    """A boolean array that is ``value`` at ``positions`` and the opposite elsewhere."""
    mask = np.full(size, not value)
    mask[positions] = value
    return mask


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

    def check(self, positions) -> bool:
        """``positions``: a list of branch positions or a boolean mask over them."""
        idx = np.sort(self.order[positions])
        return bool(
            self.gain_up[idx].sum() >= self.need_up - self.eps
            and self.gain_down[idx].sum() >= self.need_down - self.eps
        )


def _greedy_incumbent(
    g_up: np.ndarray,
    g_down: np.ndarray,
    need_up: float,
    need_down: float,
    feasible: _Feasibility,
    eps: float,
) -> list[int]:
    """Deterministic feasible starting point: walk the branch order, keeping
    every feature that still helps an uncovered constraint, then drop
    redundant picks again.  The result is confirmed on canonical sums; if
    rounding ever disagrees, fall back to the always-feasible full set."""
    up, down = g_up.tolist(), g_down.tolist()
    chosen = []
    su = sd = 0.0
    for j in range(len(up)):
        up_open = su < need_up - eps
        down_open = sd < need_down - eps
        if not (up_open or down_open):
            break
        if (up_open and up[j] > 0.0) or (down_open and down[j] > 0.0):
            chosen.append(j)
            su += up[j]
            sd += down[j]
    if not feasible.check(chosen):
        chosen = list(range(len(up)))
    su = float(g_up[chosen].sum())
    sd = float(g_down[chosen].sum())
    trimmed = []
    for j in chosen:
        if su - up[j] >= need_up - eps and sd - down[j] >= need_down - eps:
            su -= up[j]
            sd -= down[j]
        else:
            trimmed.append(j)
    if not feasible.check(trimmed):
        trimmed = chosen
    return trimmed


def _search_pack(
    order, c_up, c_down, budget_up, budget_down, removable, feasible,
    start, node_limit, time_limit, eps,
):
    """Best-first search over removed-feature sets.

    Removing feature j spends (c_up[j], c_down[j]) of the slack budgets, and
    the goal is to remove as many as possible.  ``removable`` seeds the
    incumbent.  The search stops uncertified once it has expanded
    ``node_limit`` nodes or ``time_limit`` seconds have passed since
    ``start``.  Heap entries: (negated upper bound, insertion sequence,
    count, depth, spent_up, spent_down, removed), where ``removed`` is the
    last removed position linked to its parent's chain, ``(position,
    removed)``, or None.  Insertion order breaks bound ties, with
    remove-children pushed first.
    """
    sums = _TailSums(c_up, c_down)
    up, down = c_up.tolist(), c_down.tolist()
    m = len(up)
    best_removed = removable
    best_count = len(removable)
    seq = 0
    heap = []
    root_ub = _pack_bound(sums.at(0), budget_up, budget_down, eps)
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
        if c_ru <= budget_up + eps and c_rd <= budget_down + eps:
            c_removed = (j, removed)
            c_count = count + 1
            if c_count > best_count:
                positions = _positions(c_removed)
                if feasible.check(_mask(m, positions, False)):
                    best_count = c_count
                    best_removed = positions
            if tail is not None:
                cub = c_count + _pack_bound(tail, budget_up - c_ru, budget_down - c_rd, eps)
                if cub > best_count:
                    seq += 1
                    heappush(heap, (-cub, seq, c_count, depth, c_ru, c_rd, c_removed))
        # Keep order[j] pinned.
        if tail is not None:
            xub = count + _pack_bound(tail, budget_up - ru, budget_down - rd, eps)
            if xub > best_count:
                seq += 1
                heappush(heap, (-xub, seq, count, depth, ru, rd, removed))

    return np.sort(order[_mask(m, best_removed, False)]), m - best_count, nodes, optimal


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
    ``optimal=False``; an incumbent always exists because the full feature
    set is feasible.

    A starting incumbent comes from a greedy walk plus trim over the
    features that help both constraints first; the search then runs over
    the complement, the sets of features that can be left free, starting
    from the features that incumbent leaves free.
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

    # Incumbent order: features that help both constraints first, ties by index.
    pair_min = np.minimum(gain_up[active], gain_down[active])
    cover_order = active[np.lexsort((active, -pair_min))]
    cover_feasible = _Feasibility(cover_order, gain_up, gain_down, need_up, need_down, eps)
    cover_up, cover_down = gain_up[cover_order], gain_down[cover_order]
    incumbent = _greedy_incumbent(cover_up, cover_down, need_up, need_down, cover_feasible, eps)

    # Branch order: cheapest-to-free features first, ties by index.
    pack_order = active[np.lexsort((active, gain_up[active] + gain_down[active]))]
    pack_feasible = _Feasibility(pack_order, gain_up, gain_down, need_up, need_down, eps)
    pinned = _mask(gain_up.size, cover_order[incumbent], True)
    removable = np.flatnonzero(~pinned[pack_order]).tolist()
    selected, objective, nodes, optimal = _search_pack(
        pack_order, gain_up[pack_order], gain_down[pack_order],
        total_up - need_up, total_down - need_down,
        removable, pack_feasible, start, node_limit, time_limit, eps,
    )

    return IlpSolution(selected, objective, optimal, nodes, time.perf_counter() - start)


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
