"""The rejection solver's root-less search, frozen as it stood before every
depth's tail sums came from tables cut to the root bound.

``solve_rejection_ilp`` below sorts and sums the whole undecided tail of
each depth the search first visits, reads depth 0 for the root bound, walks
both first-fit fills over every branch position and sorts each pinned set
it checks.  The code from the constants to ``solve_rejection_ilp`` is
verbatim, except that the search takes no block root (the ``root``
parameter and its branches are deleted); only ``IlpSolution`` is imported
instead of defined.  ``tests/test_rejected_reference.py`` and
``tests/test_block_explain.py`` check that the solver gives this one's
answers, node counts and lower bounds, with and without a block root.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_right
from heapq import heappop, heappush

import numpy as np

from minaxp.model import DEFAULT_EPSILON, CoverProblem, ExplanationKind
from minaxp.rejected import IlpSolution

DEFAULT_NODE_LIMIT = 10_000_000
DEFAULT_TIME_LIMIT = 30.0

# Exact per-depth suffix bounds are cached lazily up to this many undecided
# variables (quadratic memory in the worst case); larger problems fall back
# to a single global gain ranking, which is weaker but still admissible.
_SUFFIX_EXACT_LIMIT = 3000


class _TailSums:
    """Sorted prefix sums over the undecided tail of the branch order, per depth.

    Four families: each constraint's costs alone, their sum and the
    surrogate ``up + lam * down`` (feasible removals must fit all four).
    A depth costs one sort and one cumulative sum over all four, cheapest
    first, when first visited; the sums go into one ``array('d')``, 8 bytes
    per value, and ``bisect`` reads each family through a memoryview.
    Beyond _SUFFIX_EXACT_LIMIT variables every depth uses the whole order's
    sums.
    """

    def __init__(self, up: np.ndarray, down: np.ndarray, lam: float):
        self.values = np.vstack((up, down, up + down, up + lam * down))
        self.exact = up.size <= _SUFFIX_EXACT_LIMIT
        self.cache = {}

    def at(self, depth: int):
        """The four families' sums at ``depth``, each a memoryview."""
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
            tail = self.cache[depth] = tuple(view[f * width : (f + 1) * width] for f in range(families))
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


def _pinned(order: np.ndarray, removed) -> np.ndarray:
    """The sorted feature indices at every branch position but ``removed``."""
    keep = np.ones(order.size, dtype=bool)
    keep[removed] = False
    return np.sort(order[keep])


def _first_fit(positions, up, down, cap_up, cap_down, holds) -> list[int]:
    """Free each of ``positions`` in turn whose costs still fit both caps;
    unless ``holds`` accepts the result, free nothing."""
    freed = []
    su = sd = 0.0
    for p in positions:
        u = su + up[p]
        d = sd + down[p]
        if u <= cap_up and d <= cap_down:
            freed.append(p)
            su = u
            sd = d
    return freed if holds(freed) else []


def _search_pack(
    problem, order, budget_up, budget_down, start, node_limit, time_limit, eps,
) -> IlpSolution:
    """Best-first search over removed-feature sets.

    Removing the feature at branch position j, ``order[j]``, spends its
    gains of the slack budgets, and the goal is to remove as many as
    possible; an incumbent must pass ``problem.holds``.  The search stops
    uncertified once it has expanded ``node_limit`` nodes or ``time_limit``
    seconds have passed since ``start``.  Heap entries: (negated upper bound, insertion
    sequence, count, depth, spent_up, spent_down, removed), where
    ``removed`` is the last removed position linked to its parent's chain,
    ``(position, removed)``, or None.  Insertion order breaks bound ties,
    with remove-children pushed first.
    """
    # With a slack that is not positive, lam = 1 copies the sum family.
    lam = budget_up / budget_down if budget_up > 0.0 and budget_down > 0.0 else 1.0
    c_up, c_down = problem.gain_up[order], problem.gain_down[order]
    sums = _TailSums(c_up, c_down, lam)
    up, down = c_up.tolist(), c_down.tolist()

    def holds(removed) -> bool:
        return problem.holds(_pinned(order, removed))

    m = len(up)
    cap_up, cap_down = budget_up + eps, budget_down + eps
    root_ub = _pack_bound(sums.at(0), budget_up, budget_down, lam, eps)
    # With a root bound of 0 the answer is the active set, which already holds.
    best_removed = _first_fit(range(m), up, down, cap_up, cap_down, holds) if root_ub else []
    if len(best_removed) < root_ub:
        # A fill in the surrogate order, ties by ascending index, so that at
        # lam = 1 it does not repeat the first (ties by descending index).
        surrogate_order = np.lexsort((order, sums.values[3])).tolist()
        second = _first_fit(surrogate_order, up, down, cap_up, cap_down, holds)
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
                if holds(positions):
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
        _pinned(order, best_removed), objective, optimal, nodes,
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
    ``optimal=False`` and ``lower_bound`` below ``objective``.  Every
    selection passes ``problem.holds``: an incumbent always exists, because
    a problem whose full feature set fails it raises ``ValueError``.

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
    if not problem.holds(active):
        raise ValueError(
            "program is infeasible: pinning every feature does not keep the score "
            "in the band; the score lies within rounding of a threshold"
        )

    order = active[np.lexsort((-active, gain_up[active] + gain_down[active]))]
    return _search_pack(
        problem, order,
        float(gain_up[active].sum()) - need_up, float(gain_down[active].sum()) - need_down,
        start, node_limit, time_limit, eps,
    )
