"""Exact minimum-size explanations of rejection via a 0-1 program.

A rejected instance stays rejected only if the pinned features keep both
worst-case score bounds inside the rejection band.  Encoding "pin feature j"
as a binary variable turns that into two covering constraints over the
instance's :class:`~minaxp.model.CoverProblem`, with objective: pin as few
features as possible.  Pinning feature j lowers the upper bound by
``gain_up[j] >= 0`` and lifts the lower bound by ``gain_down[j] >= 0``; the
pinned gains must add up to ``need_up = top - t_plus`` and ``need_down =
t_minus - bottom`` (within ``DEFAULT_EPSILON``).  Pinning every feature
collapses both bounds onto the score, so the full set is feasible up to
rounding; a score within rounding of a threshold, where it fails
``CoverProblem.holds``, raises ``ValueError``.

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
is certified without branching.  The running per-node sums only steer the
search: an incumbent is accepted only once ``CoverProblem.holds`` passes
on its pinned set.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .baseline import first_fit_columns
from .model import DEFAULT_EPSILON, CoverProblem, ExplanationKind

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
    problem, order, budget_up, budget_down, start, node_limit, time_limit, eps, root=None,
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
    with remove-children pushed first.  ``root``, when given, is a
    :class:`SearchRoot`'s root bound and fills, worked out for this order.
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
    if root is not None:
        # Both fills fell short of the bound: the longer one that holds, the first on a tie.
        root_ub, *fills = root
        best_removed = max((fill for fill in fills if holds(fill)), key=len, default=[])
    else:
        root_ub = _pack_bound(sums.at(0), budget_up, budget_down, lam, eps)
        # With a root bound of 0 the answer is the active set, which already holds.
        best_removed = _first_fit(range(m), up, down, cap_up, cap_down, holds) if root_ub else []
    if root is None and len(best_removed) < root_ub:
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


@dataclass(frozen=True)
class SearchRoot:
    """The root of one row's search, as :func:`root_block` works it out: the
    features in the branch order, the two slacks, the root bound and the
    branch positions each fill frees (before their ``holds`` checks)."""

    order: np.ndarray
    budget_up: float
    budget_down: float
    bound: int
    first: list[int]
    second: list[int]


def solve_rejection_ilp(
    problem: CoverProblem,
    node_limit: int = DEFAULT_NODE_LIMIT,
    time_limit: float = DEFAULT_TIME_LIMIT,
    root: SearchRoot | None = None,
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
    Given the ``root`` that :func:`root_block` found for this problem, the
    search starts from it.
    """
    start = time.perf_counter()
    eps = DEFAULT_EPSILON
    problem.expect(ExplanationKind.REJECTION)
    if root is not None:
        return _search_pack(
            problem, root.order, root.budget_up, root.budget_down, start, node_limit, time_limit, eps,
            (root.bound, root.first, root.second),
        )
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


def root_block(
    gain_up: np.ndarray, gain_down: np.ndarray, top: float, bottom: float, ceiling: float, floor: float,
) -> list[np.ndarray | SearchRoot | None]:
    """The search's root for each row of the ``(r, n)`` gain matrices of
    rejected problems that share ``top``, ``bottom`` and the band
    ``[floor, ceiling]``, with whole-matrix operations.

    Each row gets the set :func:`solve_rejection_ilp` certifies without
    expanding a node: the active set when the root bound is 0, else the
    first fill's pinned set when it meets the bound, else the second
    fill's.  That set has yet to pass ``CoverProblem.holds``, as the
    solver's fills do; if it fails, the row's own solver decides.  A row
    that needs the search gets its :class:`SearchRoot`; one whose active
    set fails ``holds`` or is not the first row's gets None.  Each step
    adds, sorts and compares what the row's own solver does, so the
    counts, sets and roots are its own.
    """
    eps = DEFAULT_EPSILON
    rows = gain_up.shape[0]
    need_up, need_down = top - ceiling, floor - bottom
    if need_up <= eps and need_down <= eps:
        return [np.empty(0, dtype=np.intp) for _ in range(rows)]
    active_mask = (gain_up > 0.0) | (gain_down > 0.0)
    active = active_mask[0].nonzero()[0]
    m = active.size
    # np.take gathers C-ordered rows, whose sums have each row's own bits.
    up, down = np.take(gain_up, active, axis=1), np.take(gain_down, active, axis=1)
    sum_up, sum_down = up.sum(axis=1), down.sum(axis=1)
    open_rows = (
        (active_mask == active_mask[0]).all(axis=1)
        & (top - sum_up <= ceiling + eps) & (bottom + sum_down >= floor - eps)
    )
    budget_up, budget_down = sum_up - need_up, sum_down - need_down
    lam = np.ones(rows)
    np.divide(budget_up, budget_down, out=lam, where=(budget_up > 0.0) & (budget_down > 0.0))
    cost, surrogate = up + down, up + lam[:, None] * down
    # _TailSums at depth 0 and _pack_bound's four counts.
    sums = np.stack((up, down, cost, surrogate), axis=1)
    sums.sort(axis=2)
    np.add.accumulate(sums, axis=2, out=sums)
    limits = np.stack((
        budget_up + eps, budget_down + eps, budget_up + budget_down + 2.0 * eps,
        budget_up + lam * budget_down + (1.0 + lam) * eps,
    ), axis=1)
    root = np.count_nonzero(sums <= limits[:, :, None], axis=2).min(axis=1)
    settled = open_rows & (root == 0)
    pinned = np.zeros((rows, m), dtype=bool)
    pinned[settled] = True
    short = open_rows & (root > 0)
    caps = np.stack((budget_up, budget_down)) + eps
    # The fills: in the branch order (cost ascending, ties by descending
    # index), then in the surrogate order (ties by ascending index).
    branch = (m - 1) - np.argsort(cost[:, ::-1], axis=1, kind="stable")
    freed_by = []
    for second in (False, True):
        fill = short.nonzero()[0]
        if not fill.size:
            break
        order = np.argsort(surrogate[fill], axis=1, kind="stable") if second else branch[fill]
        steps = np.stack(
            (np.take_along_axis(up[fill], order, axis=1), np.take_along_axis(down[fill], order, axis=1)),
            axis=1,
        )
        freed = first_fit_columns(np.zeros((2, fill.size)), steps, caps[:, fill])
        met = np.count_nonzero(freed, axis=1) >= root[fill]
        kept = np.ones((fill.size, m), dtype=bool)
        np.put_along_axis(kept, order, ~freed, axis=1)
        pinned[fill[met]] = kept[met]
        settled[fill[met]] = True
        short[fill[met]] = False
        freed_by.append(np.zeros((rows, m), dtype=bool))
        freed_by[-1][fill] = ~kept
    # A row both fills left short starts its search from them.
    searched = short.nonzero()[0]
    roots = {}
    if searched.size:
        branch_position = np.argsort(branch[searched], axis=1)
        orders = active[branch[searched]]
        for k, i in enumerate(searched.tolist()):
            first, second = (np.sort(branch_position[k][freed[i]]).tolist() for freed in freed_by)
            roots[i] = SearchRoot(orders[k], float(budget_up[i]), float(budget_down[i]), int(root[i]),
                                  first, second)
    ends = np.cumsum(np.count_nonzero(pinned, axis=1)).tolist()
    chosen = active[pinned.nonzero()[1]]
    return [
        chosen[start:end] if ok else roots.get(i)
        for i, (start, end, ok) in enumerate(zip([0] + ends, ends, settled.tolist()))
    ]
