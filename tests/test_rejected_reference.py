"""The rejection solver against frozen copies of its earlier implementations.

The copy below is ``solve_rejection_ilp`` and its helpers as they stood
before the bounds became per-depth ``array('d')`` prefix sums searched with
``bisect``: per-family numpy prefix sums searched with ``np.searchsorted``,
numpy-scalar reads and heap entries that copy their chosen positions.  It
starts from a greedy walk and trim and bounds with three families.  The
solver now starts from first-fit fills and adds a surrogate family, so its
tree differs; at the same node cap it must never be worse: an objective no
larger, certified whenever the copy is, and the same objective when both
are certified.
The copy reads the program in its earlier correction form, which
``RejectionIlp`` below builds from the problem's gains and needs.

That copy also had a cover view, a search over pinned sets that ran when
the greedy incumbent pinned at most half of the candidate features.  The
solver has only the complement (pack) view now, so the copy takes its pack
branch on every case and its cover helpers (``_cover_count``,
``_SuffixBounds``, ``_search_cover`` and ``_INF``) are deleted; the rest
is verbatim.
The two-view solver, kept whole in ``two_view_rejected.py``, checks that
the single view is never worse.
"""

import heapq
import math
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest

import minaxp.rejected as rejected
import two_view_rejected
from minaxp import DEFAULT_EPSILON, ExplanationKind, Instance, LinearModel, RejectClassifier, unit_box
from minaxp.model import cover_problem
from minaxp.rejected import IlpSolution


@dataclass(frozen=True)
class RejectionIlp:
    """The frozen copy's input: ``sum z * correction_up <= slack_up`` and
    ``sum z * correction_down >= slack_down``, the negated gains and needs
    on the upper side (``-(a - b)`` is ``b - a`` bit for bit)."""

    correction_up: np.ndarray
    correction_down: np.ndarray
    slack_up: float
    slack_down: float

    @classmethod
    def of(cls, problem):
        return cls(-problem.gain_up, problem.gain_down, -problem.need_up, problem.need_down)

# ---- frozen copy, verbatim -------------------------------------------------

DEFAULT_NODE_LIMIT = 10_000_000
DEFAULT_TIME_LIMIT = 30.0

# Exact per-depth suffix bounds are cached lazily up to this many undecided
# variables (quadratic memory in the worst case); larger problems fall back
# to a single global gain ranking, which is weaker but still admissible.
_SUFFIX_EXACT_LIMIT = 3000


class _TailPrefixSums:
    """Sorted prefix sums over the undecided tail of the branch order.

    Three families per depth: each constraint alone and their sum (feasible
    selections must satisfy all three).  The arrays are built lazily per
    visited depth and cached; beyond _SUFFIX_EXACT_LIMIT variables every
    depth uses the whole order's sums.
    """

    descending = False

    def __init__(self, up: np.ndarray, down: np.ndarray, eps: float):
        self.eps = eps
        self.exact = up.size <= _SUFFIX_EXACT_LIMIT
        self.values = (up, down, up + down)
        self.cache: list[dict[int, np.ndarray]] = [{}, {}, {}]

    def _prefix(self, family: int, depth: int) -> np.ndarray:
        if not self.exact:
            depth = 0
        cached = self.cache[family].get(depth)
        if cached is None:
            ordered = np.sort(self.values[family][depth:])
            cached = np.cumsum(ordered[::-1] if self.descending else ordered)
            self.cache[family][depth] = cached
        return cached


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
        idx = np.sort(self.order[np.asarray(positions, dtype=int)])
        return bool(
            self.gain_up[idx].sum() >= self.need_up - self.eps
            and self.gain_down[idx].sum() >= self.need_down - self.eps
        )


def _pack_count(prefix_sums: np.ndarray, budget: float, eps: float) -> int:
    """Maximum number of cheapest costs (ascending prefix sums) fitting the budget."""
    return int(np.searchsorted(prefix_sums, budget + eps, side="right"))


class _PackBounds(_TailPrefixSums):
    """Upper bounds on how many undecided features can still be removed.

    Mirror image of _SuffixBounds for the complement search: costs cheapest
    first, the smallest of the three fitting counts is admissible.
    """

    def bound(self, depth: int, budget_up: float, budget_down: float) -> int:
        best = _pack_count(self._prefix(0, depth), budget_up, self.eps)
        k = _pack_count(self._prefix(1, depth), budget_down, self.eps)
        if k < best:
            best = k
        k = _pack_count(self._prefix(2, depth), budget_up + budget_down, self.eps)
        return k if k < best else best


def _greedy_incumbent(
    m: int,
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
    chosen = []
    su = sd = 0.0
    for j in range(m):
        up_open = su < need_up - eps
        down_open = sd < need_down - eps
        if not (up_open or down_open):
            break
        if (up_open and g_up[j] > 0.0) or (down_open and g_down[j] > 0.0):
            chosen.append(j)
            su += g_up[j]
            sd += g_down[j]
    if not feasible.check(chosen):
        chosen = list(range(m))
    su = float(g_up[chosen].sum())
    sd = float(g_down[chosen].sum())
    trimmed = []
    for j in chosen:
        if su - g_up[j] >= need_up - eps and sd - g_down[j] >= need_down - eps:
            su -= g_up[j]
            sd -= g_down[j]
        else:
            trimmed.append(j)
    if not feasible.check(trimmed):
        trimmed = chosen
    return trimmed


def _search_pack(
    order, c_up, c_down, budget_up, budget_down, removable, feasible, deadline, eps
):
    """Best-first search over removed-feature sets, few removals expected.

    When nearly every feature must stay pinned, searching over what can be
    dropped keeps the tree shallow: removing feature j spends (c_up[j],
    c_down[j]) of the slack budgets, and the goal is to remove as many as
    possible.  Maximization mirror of _search_cover.
    """
    m = order.size
    bounds = _PackBounds(c_up, c_down, eps)
    best_removed = removable
    best_count = len(removable)
    seq = 0
    heap = []
    root_ub = bounds.bound(0, budget_up, budget_down)
    if root_ub > best_count:
        heap.append((-root_ub, seq, 0, 0, 0.0, 0.0, ()))
    nodes = 0
    optimal = True

    while heap:
        neg_ub, _, count, depth, ru, rd, removed = heapq.heappop(heap)
        if -neg_ub <= best_count:
            break
        if not deadline.alive(nodes):
            optimal = False
            break
        nodes += 1

        j = depth
        # Remove order[j].
        c_ru = ru + c_up[j]
        c_rd = rd + c_down[j]
        if c_ru <= budget_up + eps and c_rd <= budget_down + eps:
            c_removed = removed + (j,)
            c_count = count + 1
            if c_count > best_count:
                gone = set(c_removed)
                if feasible.check([p for p in range(m) if p not in gone]):
                    best_count = c_count
                    best_removed = list(c_removed)
            if depth + 1 < m:
                cub = c_count + bounds.bound(depth + 1, budget_up - c_ru, budget_down - c_rd)
                if cub > best_count:
                    seq += 1
                    heapq.heappush(
                        heap, (-cub, seq, c_count, depth + 1, c_ru, c_rd, c_removed)
                    )
        # Keep order[j] pinned.
        if depth + 1 < m:
            xub = count + bounds.bound(depth + 1, budget_up - ru, budget_down - rd)
            if xub > best_count:
                seq += 1
                heapq.heappush(heap, (-xub, seq, count, depth + 1, ru, rd, removed))

    removed_set = set(best_removed)
    selected = tuple(sorted(int(order[p]) for p in range(m) if p not in removed_set))
    return selected, m - best_count, nodes, optimal


class _Deadline:
    def __init__(self, start, node_limit, time_limit):
        self.start = start
        self.node_limit = node_limit
        self.time_limit = time_limit

    def alive(self, nodes: int) -> bool:
        return nodes < self.node_limit and time.perf_counter() - self.start <= self.time_limit


def solve_rejection_ilp(
    ilp: RejectionIlp,
    node_limit: int = DEFAULT_NODE_LIMIT,
    time_limit: float = DEFAULT_TIME_LIMIT,
    eps: float = DEFAULT_EPSILON,
) -> IlpSolution:
    """Exact best-first branch and bound over the binary pin variables.

    Returns a provably minimum-cardinality feasible selection with
    ``optimal=True`` on normal termination.  If the node or wall-clock budget
    runs out first, the best incumbent found so far is returned with
    ``optimal=False``; an incumbent always exists because the full feature
    set is feasible.

    A starting incumbent comes from a greedy walk plus trim.  The search
    runs over the complement, the sets of features that can be left free.
    """
    start = time.perf_counter()
    gain_up = -np.asarray(ilp.correction_up, dtype=float)
    gain_down = np.asarray(ilp.correction_down, dtype=float)
    need_up = -float(ilp.slack_up)
    need_down = float(ilp.slack_down)

    if need_up <= eps and need_down <= eps:
        return IlpSolution((), 0, True, 0, time.perf_counter() - start)

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
    incumbent = _greedy_incumbent(
        cover_order.size,
        gain_up[cover_order],
        gain_down[cover_order],
        need_up,
        need_down,
        cover_feasible,
        eps,
    )

    # Complement view: cheapest-to-free features first, ties by index.
    pack_order = active[np.lexsort((active, gain_up[active] + gain_down[active]))]
    pack_feasible = _Feasibility(pack_order, gain_up, gain_down, need_up, need_down, eps)
    incumbent_originals = {int(cover_order[p]) for p in incumbent}
    removable = [
        p for p in range(pack_order.size) if int(pack_order[p]) not in incumbent_originals
    ]
    selected, objective, nodes, optimal = _search_pack(
        pack_order,
        gain_up[pack_order],
        gain_down[pack_order],
        total_up - need_up,
        total_down - need_down,
        removable,
        pack_feasible,
        deadline,
        eps,
    )

    return IlpSolution(
        selected=selected,
        objective=objective,
        optimal=optimal,
        nodes_explored=nodes,
        solve_time=time.perf_counter() - start,
    )

# ---- the differential tests ------------------------------------------------

CASES = 400
NODE_CAP = 2000  # keeps the few hard cases bounded; capped runs compare too


def _rejected_problem(rng, i):
    """A rejected case with 2 to 250 features (log-uniform).

    Even cases: uniform weights and a narrow band, so that most features
    stay pinned.  Odd cases: weights +-exp(N(0, 1.5)) and a wide band, so
    that few features stay pinned (the two-view solver searched these over
    pinned sets).
    Every other pair uses quarter-step weights and values and thresholds on
    sixteenths, so gains, sums and needs tie.
    """
    n = int(round(math.exp(rng.uniform(math.log(2), math.log(250)))))
    pack = i % 2 == 0
    if pack:
        w = rng.uniform(-1.0, 1.0, n)
    else:
        w = rng.choice([-1.0, 1.0], n) * np.exp(rng.normal(0.0, 1.5, n))
    x = rng.uniform(0.0, 1.0, n)
    quarter = (i // 2) % 2 == 0
    if quarter:
        w = np.round(w * 4.0) / 4.0
        x = np.round(x * 4.0) / 4.0
    model = LinearModel(w, -0.5 * float(w.sum()), unit_box(n))
    s = float(x @ w) + model.bias
    lo, hi = (0.002, 0.04) if pack else (0.1, 0.45)
    total = float(np.abs(w).sum()) + 1.0
    t_minus = s - math.exp(rng.uniform(math.log(lo), math.log(hi))) * total
    t_plus = s + math.exp(rng.uniform(math.log(lo), math.log(hi))) * total
    if quarter:
        t_minus, t_plus = math.floor(t_minus * 16) / 16, math.ceil(t_plus * 16) / 16
    clf = RejectClassifier(model, t_minus, t_plus)
    return cover_problem(clf, Instance.validated(model, x)).expect(ExplanationKind.REJECTION)


@pytest.fixture(scope="module")
def cases():
    rng = np.random.default_rng(6001)
    return [_rejected_problem(rng, i) for i in range(CASES)]


def _never_worse(problem, node_limit):
    new = rejected.solve_rejection_ilp(problem, node_limit=node_limit, time_limit=math.inf)
    old = solve_rejection_ilp(RejectionIlp.of(problem), node_limit=node_limit, time_limit=math.inf)
    assert new.selected.dtype == np.intp
    assert new.objective <= old.objective
    assert new.optimal or not old.optimal
    if new.optimal and old.optimal:
        assert new.objective == old.objective
    assert problem.holds(new.selected)
    return new


def test_same_tree_and_answers_in_the_pack_view(cases, monkeypatch):
    searches = 0
    search = rejected._search_pack

    def counted(*args):
        nonlocal searches
        searches += 1
        return search(*args)

    monkeypatch.setattr(rejected, "_search_pack", counted)
    solutions = [_never_worse(problem, NODE_CAP) for problem in cases]
    # A case that needs no pin returns before any search.
    needs_a_pin = sum(max(p.need_up, p.need_down) > DEFAULT_EPSILON for p in cases)
    assert searches == needs_a_pin >= CASES - 5
    certified = sum(s.optimal for s in solutions)
    assert 300 <= certified < CASES  # mostly certified; some runs hit the cap


@pytest.mark.parametrize("node_limit", [1, 7, 50])
def test_same_incumbents_when_the_node_budget_runs_out(cases, node_limit):
    solutions = [_never_worse(problem, node_limit) for problem in cases]
    assert sum(not s.optimal for s in solutions) >= 20


def test_same_tree_with_whole_order_bounds(cases, monkeypatch):
    # Above the exact limit every depth reads the whole order's sums.
    monkeypatch.setattr(rejected, "_SUFFIX_EXACT_LIMIT", 0)
    monkeypatch.setattr(sys.modules[__name__], "_SUFFIX_EXACT_LIMIT", 0)
    for problem in cases[:120]:
        _never_worse(problem, NODE_CAP)


def test_single_view_never_worse_than_two_views(cases):
    for problem in cases:
        new = rejected.solve_rejection_ilp(problem, node_limit=NODE_CAP, time_limit=math.inf)
        old = two_view_rejected.solve_rejection_ilp(problem, node_limit=NODE_CAP, time_limit=math.inf)
        assert new.objective <= old.objective
        assert new.optimal or not old.optimal
        assert problem.holds(new.selected)
