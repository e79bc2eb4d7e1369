"""The two-view rejection solver, frozen as it stood before its cover view
was deleted.

``solve_rejection_ilp`` below ran one of two best-first searches, picked by
its greedy incumbent: ``_search_cover`` over pinned sets when the incumbent
pins at most half of the candidate features, ``_search_pack`` over removed
sets otherwise.  The code from the constants to ``solve_rejection_ilp`` is
verbatim; only ``IlpSolution`` is imported instead of defined.
``tests/test_rejected_reference.py`` checks that the single-view solver is
never worse than this one.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left, bisect_right
from heapq import heappop, heappush

import numpy as np

from minaxp.model import DEFAULT_EPSILON, CoverProblem, ExplanationKind
from minaxp.rejected import IlpSolution

DEFAULT_NODE_LIMIT = 10_000_000
DEFAULT_TIME_LIMIT = 30.0

_INF = float("inf")

# Exact per-depth suffix bounds are cached lazily up to this many undecided
# variables (quadratic memory in the worst case); larger problems fall back
# to a single global gain ranking, which is weaker but still admissible.
_SUFFIX_EXACT_LIMIT = 3000


class _TailSums:
    """Sorted prefix sums over the undecided tail of the branch order, per depth.

    Three families: each constraint's values alone and their sum (feasible
    selections must satisfy all three).  A visited depth costs one sort and
    one cumulative sum over all three, summed largest first for gains (cover
    view) and cheapest first for costs (pack view).  The sums go into one
    ``array('d')``, 8 bytes per value, and ``bisect`` reads each family
    through a memoryview.  Beyond _SUFFIX_EXACT_LIMIT variables every depth
    uses the whole order's sums.
    """

    def __init__(self, up: np.ndarray, down: np.ndarray, descending: bool):
        self.values = np.vstack((up, down, up + down))
        self.exact = up.size <= _SUFFIX_EXACT_LIMIT
        self.descending = descending
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
            np.add.accumulate(ordered[:, ::-1] if self.descending else ordered, axis=1, out=sums)
            view = memoryview(flat)
            tail = self.cache[depth] = (view[:width], view[width : 2 * width], view[2 * width :])
        return tail


def _cover_count(prefix_sums: memoryview, residual: float, eps: float) -> float:
    """Minimum number of gains (given sorted-descending prefix sums) covering residual."""
    if residual <= eps:
        return 0.0
    pos = bisect_left(prefix_sums, residual - eps)
    return _INF if pos == len(prefix_sums) else float(pos + 1)


def _cover_bound(tail, residual_up: float, residual_down: float, eps: float) -> float:
    """Fewest further pins: the largest of the three cover counts is admissible."""
    up, down, both = tail
    best = _cover_count(up, residual_up, eps)
    if best == _INF:
        return _INF
    k = _cover_count(down, residual_down, eps)
    if k == _INF:
        return _INF
    if k > best:
        best = k
    k = _cover_count(both, residual_up + residual_down, eps)
    return k if k > best else best


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


def _search_cover(
    order, g_up, g_down, need_up, need_down, incumbent, feasible, deadline, eps
):
    """Best-first search over pinned-feature sets, few pins expected.

    Heap entries: (lower bound, insertion sequence, count, depth, sum_up,
    sum_down, chosen), where ``chosen`` is the last pinned position linked
    to its parent's chain, ``(position, chosen)``, or None.  Insertion order
    breaks bound ties, with include-children pushed first so deterministic
    runs prefer lower indices among equally good solutions.
    """
    sums = _TailSums(g_up, g_down, descending=True)
    up, down = g_up.tolist(), g_down.tolist()
    m = len(up)
    best_count = len(incumbent)
    best_set = incumbent
    seq = 0
    heap = []
    root_lb = _cover_bound(sums.at(0), need_up, need_down, eps)
    if root_lb < best_count:
        heap.append((root_lb, seq, 0, 0, 0.0, 0.0, None))
    nodes = 0
    optimal = True

    while heap:
        lb, _, count, j, su, sd, chosen = heappop(heap)
        if lb >= best_count:
            break  # best-first: nothing left can improve the incumbent
        if not deadline.alive(nodes):
            optimal = False
            break
        nodes += 1

        # Pin order[j].
        c_su = su + up[j]
        c_sd = sd + down[j]
        c_count = count + 1
        c_chosen = (j, chosen)
        settled = False
        if c_su >= need_up - eps and c_sd >= need_down - eps:
            # running sums say feasible; confirm on canonical sums
            positions = _positions(c_chosen)
            if feasible.check(positions):
                settled = True
                if c_count < best_count:
                    best_count = c_count
                    best_set = positions
        depth = j + 1
        if depth < m:
            tail = sums.at(depth)
            if not settled:
                clb = c_count + _cover_bound(tail, need_up - c_su, need_down - c_sd, eps)
                if clb < best_count:
                    seq += 1
                    heappush(heap, (clb, seq, c_count, depth, c_su, c_sd, c_chosen))
            # Leave order[j] free.
            xlb = count + _cover_bound(tail, need_up - su, need_down - sd, eps)
            if xlb < best_count:
                seq += 1
                heappush(heap, (xlb, seq, count, depth, su, sd, chosen))

    return np.sort(order[_mask(m, best_set, True)]), len(best_set), nodes, optimal


def _search_pack(
    order, c_up, c_down, budget_up, budget_down, removable, feasible, deadline, eps
):
    """Best-first search over removed-feature sets, few removals expected.

    When nearly every feature must stay pinned, searching over what can be
    dropped keeps the tree shallow: removing feature j spends (c_up[j],
    c_down[j]) of the slack budgets, and the goal is to remove as many as
    possible.  Maximization mirror of _search_cover.
    """
    sums = _TailSums(c_up, c_down, descending=False)
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
        if not deadline.alive(nodes):
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


class _Deadline:
    def __init__(self, start, node_limit, time_limit):
        self.start = start
        self.node_limit = node_limit
        self.time_limit = time_limit

    def alive(self, nodes: int) -> bool:
        return nodes < self.node_limit and time.perf_counter() - self.start <= self.time_limit


def solve_rejection_ilp(
    problem: CoverProblem,
    node_limit: int = DEFAULT_NODE_LIMIT,
    time_limit: float = DEFAULT_TIME_LIMIT,
    eps: float = DEFAULT_EPSILON,
) -> IlpSolution:
    """Exact best-first branch and bound over the binary pin variables of a
    rejected problem.

    Returns a provably minimum-cardinality feasible selection with
    ``optimal=True`` on normal termination.  If the node or wall-clock budget
    runs out first, the best incumbent found so far is returned with
    ``optimal=False``; an incumbent always exists because the full feature
    set is feasible.

    A starting incumbent comes from a greedy walk plus trim.  If it pins at
    most half of the candidate features the search runs over pinned sets;
    otherwise (the common case for rejections, which tend to pin almost
    everything) it runs over the complement, the sets of features that can
    be left free.
    """
    start = time.perf_counter()
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

    deadline = _Deadline(start, node_limit, time_limit)

    # Cover view: features that help both constraints first, ties by index.
    pair_min = np.minimum(gain_up[active], gain_down[active])
    cover_order = active[np.lexsort((active, -pair_min))]
    cover_feasible = _Feasibility(cover_order, gain_up, gain_down, need_up, need_down, eps)
    cover_up, cover_down = gain_up[cover_order], gain_down[cover_order]
    incumbent = _greedy_incumbent(cover_up, cover_down, need_up, need_down, cover_feasible, eps)

    if 2 * len(incumbent) <= active.size:
        selected, objective, nodes, optimal = _search_cover(
            cover_order, cover_up, cover_down, need_up, need_down,
            incumbent, cover_feasible, deadline, eps,
        )
    else:
        # Complement view: cheapest-to-free features first, ties by index.
        pack_order = active[np.lexsort((active, gain_up[active] + gain_down[active]))]
        pack_feasible = _Feasibility(pack_order, gain_up, gain_down, need_up, need_down, eps)
        pinned = _mask(gain_up.size, cover_order[incumbent], True)
        removable = np.flatnonzero(~pinned[pack_order]).tolist()
        selected, objective, nodes, optimal = _search_pack(
            pack_order, gain_up[pack_order], gain_down[pack_order],
            total_up - need_up, total_down - need_down,
            removable, pack_feasible, deadline, eps,
        )

    return IlpSolution(selected, objective, optimal, nodes, time.perf_counter() - start)

