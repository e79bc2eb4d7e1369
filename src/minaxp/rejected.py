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
sums of the undecided tail, which ``bisect`` reads; the search itself runs
on plain floats and lists.  First-fit fills give the starting incumbent;
on most narrow-band rows it meets the root bound, and the row is
certified without branching.  The running per-node sums only steer the
search: an incumbent is accepted only once ``CoverProblem.holds`` passes
on its pinned set.

The bound reads the first K sums of each family, K being the root bound,
never more.  The cut is exact: a node's tail is part of the root's and its
budgets are no larger, and running sums of sorted non-negative values only
grow when values are dropped, so no family fits more at a node than at the
root, and the node's bound, the smallest count, is at most K.  ``bisect``
over the first K sums returns it unchanged.  :func:`_tail_tables` builds
those sums a chunk of ``_TABLE_DEPTHS`` depths at a time, from a window of
each family's cheapest values, when the search first reaches the chunk;
:func:`root_block` builds the first chunk in bulk for the rows of a block
it leaves to the search, as many as a block's bytes hold.  A row that the
fills settle builds no tables at all.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, replace
from heapq import heappop, heappush

import numpy as np

from .baseline import first_fit_columns, row_sets
from .model import _BLOCK_BYTES, DEFAULT_EPSILON, CoverProblem, ExplanationKind

DEFAULT_NODE_LIMIT = 10_000_000
DEFAULT_TIME_LIMIT = 30.0

# Beyond this many undecided variables every depth's bound reads the whole
# order's sums (one table), which is weaker but still admissible.
_SUFFIX_EXACT_LIMIT = 3000

# Depths in a chunk of tail sums (_tail_tables): root_block builds depths 1
# to 16 in bulk for each row it leaves to the search, and a search builds
# each further chunk when it first gets there.  An open reject-pack row
# visits about 11 depths (p90 18).
_TABLE_DEPTHS = 16


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
    """Sorted prefix sums over the undecided tail of the branch order, per
    depth, cut to the root bound ``bound``.

    Four families, the rows of ``values`` by branch position: each
    constraint's costs alone, their sum and the surrogate ``up + lam *
    down`` (feasible removals must fit all four).  The sums come from
    :func:`_tail_tables` a chunk of depths at a time, when a depth of the
    chunk is first visited; ``tables``, a :class:`SearchRoot`'s, is the
    chunk of depths 1 to ``_TABLE_DEPTHS``.  A visited depth's sums become
    lists once, cut at the tail's end.  Beyond _SUFFIX_EXACT_LIMIT
    variables every depth reads depth 0, the whole order's sums.
    """

    def __init__(self, values: np.ndarray, bound: int, tables: np.ndarray | None = None):
        self.values, self.bound = values, np.array([bound])
        self.exact = values.shape[1] <= _SUFFIX_EXACT_LIMIT
        self.chunks = {} if tables is None else {1: tables}
        self.cache = {}

    def at(self, depth: int) -> list[list[float]]:
        """The four families' first ``bound`` sums at ``depth``."""
        if not self.exact:
            depth = 0
        tail = self.cache.get(depth)
        if tail is None:
            first = depth - (depth - 1) % _TABLE_DEPTHS if depth else 0
            chunk = self.chunks.get(first)
            if chunk is None:
                chunk = self.chunks[first] = _tail_tables(self.values[None, :, first:], self.bound)[0]
            # Past the end of a tail shorter than the bound, the chunk reads infinity.
            tail = self.cache[depth] = chunk[depth - first, :, : self.values.shape[1] - depth].tolist()
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


def _first_fit(positions, up, down, cap_up, cap_down) -> list[int]:
    """Each of ``positions`` freed in turn whose costs still fit both caps."""
    freed = []
    su = sd = 0.0
    for p in positions:
        u = su + up[p]
        d = sd + down[p]
        if u <= cap_up and d <= cap_down:
            freed.append(p)
            su = u
            sd = d
    return freed


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
    with remove-children pushed first.  ``root``, when given, is the
    :class:`SearchRoot` worked out for this order; its fills are checked
    here unless :meth:`SearchRoot.checked` has checked them.
    """
    # With a slack that is not positive, lam = 1 copies the sum family.
    lam = budget_up / budget_down if budget_up > 0.0 and budget_down > 0.0 else 1.0
    c_up, c_down = problem.gain_up[order], problem.gain_down[order]
    values = np.array(tuple(_families(c_up, c_down, lam)))
    up, down = c_up.tolist(), c_down.tolist()
    features = np.zeros(problem.gain_up.size, dtype=bool)
    features[order] = True

    def pinned(removed) -> np.ndarray:
        """The sorted feature indices at every branch position but ``removed``."""
        mask = features.copy()
        mask[order[removed]] = False
        return mask.nonzero()[0]

    m = len(up)
    cap_up, cap_down = budget_up + eps, budget_down + eps
    best_removed, best_pinned = [], None  # the incumbent's pinned set, once holds has passed it
    if root is not None:
        # Both fills fell short of the bound: the longer one that held, the first on a tie.
        root_ub = root.bound
        fills = root.fills if root.pinned is None else [fill for fill in root.fills if problem.holds(pinned(fill))]
        best_removed = max(fills, key=len, default=[])
    else:
        root_ub = min(_fitting(values, np.array(_limits(budget_up, budget_down, lam, eps))).tolist())
        # With a root bound of 0 the answer is the active set, which already
        # holds.  Else a fill in the branch order, then one in the surrogate
        # order, ties by ascending index, so that at lam = 1 it does not
        # repeat the first (ties by descending index).  Gains are not
        # negative, so a position whose gains alone overrun a cap is never freed.
        if root_ub:
            fits = ((c_up <= cap_up) & (c_down <= cap_down)).nonzero()[0]
            # The second walk is sorted only when the first falls short.
            walks = (fits if k == 0 else fits[np.lexsort((order[fits], values[3, fits]))] for k in range(2))
            for walk in walks:
                freed = _first_fit(walk.tolist(), up, down, cap_up, cap_down)
                if len(freed) > len(best_removed):
                    freed_pinned = pinned(freed)
                    if problem.holds(freed_pinned):
                        best_removed, best_pinned = freed, freed_pinned
                if len(best_removed) >= root_ub:
                    break
    best_count = len(best_removed)
    seq = 0
    heap = []
    if root_ub > best_count:
        heap.append((-root_ub, seq, 0, 0, 0.0, 0.0, None))
        sums = _TailSums(values, root_ub, None if root is None else root.tables)
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
                c_pinned = pinned(positions)
                if problem.holds(c_pinned):
                    best_count, best_removed, best_pinned = c_count, positions, c_pinned
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
        pinned(best_removed) if best_pinned is None else best_pinned, objective, optimal, nodes,
        time.perf_counter() - start,
        objective if optimal else m + neg_ub,  # -neg_ub: the best outstanding bound
    )


@dataclass(frozen=True)
class SearchRoot:
    """The root of one row's search, as :func:`root_block` works it out: the
    features in the branch order, the two slacks, the root bound, the
    branch positions each fill frees, and the tail sums of depths 1 to
    ``_TABLE_DEPTHS`` (:func:`_tail_tables`), or None past the block's table
    budget.  From :func:`root_block` the
    fills are those of both fill orders, yet to be checked, and ``pinned``
    holds their pinned sets; :meth:`checked` keeps the fills whose pinned
    sets passed ``CoverProblem.holds`` and sets ``pinned`` to None.  The
    search checks the fills of a root that is not yet checked itself."""

    order: np.ndarray
    budget_up: float
    budget_down: float
    bound: int
    fills: list[list[int]]
    pinned: list[np.ndarray] | None
    tables: np.ndarray | None

    def checked(self, held: list[bool]) -> SearchRoot:
        """This root with only the fills whose pinned sets ``held``, checked."""
        return replace(self, fills=[fill for fill, ok in zip(self.fills, held) if ok], pinned=None)


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
    search starts from it, and takes a fill of it as its incumbent only
    once the fill has passed ``problem.holds`` (:class:`SearchRoot`).
    """
    start = time.perf_counter()
    eps = DEFAULT_EPSILON
    problem.expect(ExplanationKind.REJECTION)
    if root is not None:
        return _search_pack(
            problem, root.order, root.budget_up, root.budget_down, start, node_limit, time_limit, eps, root,
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
    that needs the search gets its :class:`SearchRoot`, with both fills
    yet to be checked and its first depths' tail sums; one whose active
    set fails ``holds`` or is not the first row's gets None.  Each step
    adds, sorts and compares what the row's own solver does, so the
    counts, sets and roots are its own.

    The tables of a block's searched rows keep at most ``_BLOCK_BYTES``:
    rows past that budget get none, and their search builds its first
    chunk itself.  They are built a chunk of rows at a time, each chunk's
    temporaries within about ``_BLOCK_BYTES`` too (one row at least).
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

    families = zip(_families(up, down, lam[:, None]), _limits(budget_up, budget_down, lam, eps))
    root = np.min([_fitting(family, limit) for family, limit in families], axis=0)
    settled = open_rows & (root == 0)
    pinned = np.zeros((rows, m), dtype=bool)
    pinned[settled] = True
    # Both fills of each row the root bound leaves open, in one walk: in the
    # branch order (cost ascending, ties by descending index), and in the
    # surrogate order (ties by ascending index).  The first that meets the
    # bound settles the row.
    branch = (m - 1) - np.argsort((up + down)[:, ::-1], axis=1, kind="stable")
    fill = (open_rows & (root > 0)).nonzero()[0]
    fill_up, fill_down = up[fill], down[fill]
    surrogate = np.argsort(fill_up + lam[fill, None] * fill_down, axis=1, kind="stable")
    orders = np.stack((branch[fill], surrogate), axis=1)
    caps = np.stack((budget_up[fill], budget_down[fill])) + eps
    freed = _first_fits(fill_up, fill_down, orders, caps)
    met = np.count_nonzero(freed, axis=2) >= root[fill, None]
    kept = np.ones(freed.shape, dtype=bool)
    np.put_along_axis(kept, orders, ~freed, axis=2)
    first, second = met[:, 0], met[:, 1] & ~met[:, 0]
    pinned[fill[first]], pinned[fill[second]] = kept[first, 0], kept[second, 1]
    settled[fill[first | second]] = True
    # A row both fills left short starts its search from them.
    short = ~(first | second)
    searched = fill[short]
    roots = {}
    if searched.size:
        order = branch[searched]
        freed = ~kept[short]
        fills = row_sets(np.take_along_axis(freed, order[:, None, :], axis=2).reshape(-1, m))
        fill_pinned = row_sets(kept[short].reshape(-1, m), active)
        bound = root[searched]
        tables = [None] * searched.size
        if m <= _SUFFIX_EXACT_LIMIT:
            # A row's tables keep 32 * depths bytes per sum, and a chunk's
            # (rows, depths, 4, width) sums take 32 * depths * width a row.
            tabled = int(np.count_nonzero(np.cumsum(bound) <= _BLOCK_BYTES // (32 * _TABLE_DEPTHS)))
            step = max(1, _BLOCK_BYTES // (32 * _TABLE_DEPTHS * min(m, int(bound.max()) + _TABLE_DEPTHS)))
            for at in range(0, tabled, step):
                part = slice(at, min(at + step, tabled))
                # Each family from depth 1 in the branch order.
                tail = (np.take_along_axis(gains[searched[part]], order[part, 1:], axis=1) for gains in (up, down))
                families = _families(*tail, lam[searched[part], None])
                tables[part] = _tail_tables(np.stack(tuple(families), axis=1), bound[part])
        for k, i in enumerate(searched.tolist()):
            roots[i] = SearchRoot(
                active[order[k]], float(budget_up[i]), float(budget_down[i]), int(bound[k]),
                [fill.tolist() for fill in fills[2 * k : 2 * k + 2]], fill_pinned[2 * k : 2 * k + 2], tables[k],
            )
    chosen = row_sets(pinned, active)
    return [chosen[i] if ok else roots.get(i) for i, ok in enumerate(settled.tolist())]


def _families(up, down, lam):
    """_TailSums' four families, one at a time: ``up``, ``down``, their
    sum and the surrogate ``up + lam * down``."""
    yield up
    yield down
    yield up + down
    yield up + lam * down


def _limits(budget_up, budget_down, lam, eps) -> tuple:
    """The four families' limits at the root, as :func:`_pack_bound` sets them."""
    return (
        budget_up + eps, budget_down + eps, budget_up + budget_down + 2.0 * eps,
        budget_up + lam * budget_down + (1.0 + lam) * eps,
    )


def _fitting(family: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """How many of each row's cheapest values in ``family`` keep their
    running sum at or below the row's ``limit``."""
    sums = np.sort(family, axis=1)
    np.add.accumulate(sums, axis=1, out=sums)
    return np.add.reduce(sums <= limit[:, None], axis=1)


def _first_fits(up: np.ndarray, down: np.ndarray, orders: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """What each of ``f`` rows' first fits in its orders ``orders[k, 0]`` and
    ``orders[k, 1]`` free, as an ``(f, 2, m)`` mask over walk positions: a
    feature is freed when its gains ``up`` and ``down`` still fit the
    row's ``caps`` (``(2, f)``) with what was freed before it."""
    f, _, m = orders.shape
    if not f:
        return np.zeros(orders.shape, dtype=bool)
    columns = np.empty((m, 2, 2 * f))
    for side, gains in enumerate((up, down)):
        columns[:, side] = np.take_along_axis(gains[:, None], orders, axis=2).reshape(-1, m).T
    caps = np.repeat(caps, 2, axis=1)
    return first_fit_columns(np.zeros(caps.shape), columns, caps).reshape(f, 2, m)


def _tail_tables(values: np.ndarray, bound: np.ndarray) -> list[np.ndarray]:
    """Each row's tail sums at a chunk of depths, the first ``bound`` sums
    of each family (fewer if the chunk's first tail is shorter), as a
    ``(depths, 4, bound)`` array, from whole-matrix operations.

    ``values`` is ``(s, 4, w)``: each row's four families over the tail at
    the chunk's first depth, in the branch order, and ``bound`` each row's
    root bound.  The chunk is that depth and the next ones, up to
    ``_TABLE_DEPTHS`` of them and not past the tail's last value.  At the
    chunk's i-th depth the tail has lost its first i values, so its
    ``bound`` cheapest lie among the ``bound + i`` cheapest of the chunk's:
    a window of the ``max(bound) + depths`` cheapest of each family, with
    the values before the depth masked to infinity, is sorted and
    accumulated, as a sort of the whole tail would be.  Past the end of a
    tail shorter than ``bound`` the sums are infinite.  Each row's table is
    a copy, so the sums of the whole chunk are freed once this returns.
    """
    w = values.shape[2]
    depths = np.arange(min(_TABLE_DEPTHS, w))
    top = int(bound.max())
    width = min(w, top + depths.size)
    position = np.arange(w)[None, None]
    if width < w:
        position = np.argpartition(values, width - 1, axis=2)[:, :, :width]
        values = np.take_along_axis(values, position, axis=2)
    tails = np.where(position[:, None] >= depths[:, None, None], values[:, None], np.inf)
    tails.sort(axis=3)
    sums = np.add.accumulate(tails[..., :top], axis=3)
    return [table[..., :k].copy() for table, k in zip(sums, bound.tolist())]
