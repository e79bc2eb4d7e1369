"""Cross-check against an independent MILP solver (HiGHS via scipy).

The brute-force oracle caps out around 20 features; these tests compare the
built-in solvers against a completely separate exact route on larger
problems.  Skipped when scipy is unavailable.
"""

import math

import numpy as np
import pytest

scipy_opt = pytest.importorskip("scipy.optimize")

from minaxp import (
    ExplanationKind,
    Instance,
    Label,
    LinearModel,
    RejectClassifier,
    cover_problem,
    greedy_explanation,
    predict,
    random_case,
    solve_rejection_ilp,
    unit_box,
)

EPS = 1e-9


def _milp_min_count(rows, lower, upper, n):
    constraint = scipy_opt.LinearConstraint(np.asarray(rows), lower, upper)
    result = scipy_opt.milp(
        c=np.ones(n),
        constraints=[constraint],
        integrality=np.ones(n),
        bounds=scipy_opt.Bounds(0, 1),
    )
    assert result.success, result.message
    return int(round(result.fun))


def test_rejection_solver_matches_external_milp():
    rng = np.random.default_rng(61)
    for _ in range(40):
        n = int(rng.integers(15, 61))
        clf, instance = random_case(rng, n, Label.REJECT)
        problem = cover_problem(clf, instance)
        ours = solve_rejection_ilp(problem)
        assert ours.optimal
        # The upper row in <= form: -gain_up @ z <= -need_up.
        external = _milp_min_count(
            [-problem.gain_up, problem.gain_down],
            [-np.inf, problem.need_down - EPS],
            [-problem.need_up + EPS, np.inf],
            n,
        )
        assert ours.objective == external


def test_greedy_matches_external_milp():
    rng = np.random.default_rng(62)
    for i in range(40):
        n = int(rng.integers(15, 61))
        label = Label.POSITIVE if i % 2 == 0 else Label.NEGATIVE
        clf, instance = random_case(rng, n, label)
        problem = cover_problem(clf, instance)
        explanation = greedy_explanation(problem)
        if label is Label.POSITIVE:
            gains = problem.gain_down
            required = clf.t_plus - problem.bottom
        else:
            gains = problem.gain_up
            required = problem.top - clf.t_minus
        external = _milp_min_count([gains], [required - EPS], [np.inf], n)
        assert explanation.size == external


def _highs_minimum(gains, need):
    """HiGHS's proven minimum count with ``gains @ z >= need``, and its selection."""
    n = gains.shape[1]
    result = scipy_opt.milp(
        c=np.ones(n),
        constraints=scipy_opt.LinearConstraint(gains, need, np.inf),
        integrality=np.ones(n),
        bounds=scipy_opt.Bounds(0, 1),
        options={"mip_rel_gap": 0.0, "time_limit": 60.0},
    )
    assert result.status == 0, result.message
    return int(round(result.fun)), np.flatnonzero(result.x > 0.5)


def _rejection_minimum(problem):
    """Bounds ``(low, high)`` on the minimum explanation size of a rejection.

    HiGHS may accept a selection that misses a row by its own feasibility
    tolerance, so the optimum it proves is a lower bound.  When its
    selection also passes the exact check, that is the minimum; otherwise
    a solve with both requirements raised gives an upper bound.
    """
    gains = np.vstack([problem.gain_up, problem.gain_down])
    need = np.array([problem.need_up, problem.need_down]) - EPS
    low, picked = _highs_minimum(gains, need)
    if problem.holds(picked):
        return low, low
    high, _ = _highs_minimum(gains, need + 1e-6 * np.maximum(1.0, np.abs(need)))
    return low, high


def _row_in_band(rng, model, t_minus, t_plus):
    """A uniform row of the unit box whose score lies clear inside the band."""
    while True:
        X = rng.uniform(0.0, 1.0, (256, model.n_features))
        s = X @ model.weights + model.bias
        inside = np.flatnonzero((s > t_minus + 1e-6) & (s < t_plus - 1e-6))
        if inside.size:
            return X[inside[0]]


def _wide_rejected_cases():
    """Ten rows on uniform weights and a narrow band of +-0.125, as in the
    benchmark's reject-pack, and ten whose band runs from the 45th to the
    55th percentile of the model's scores on 2,000 uniform rows.  Both pin
    nearly every feature.  The solver searches every row, like every
    rejection, over the features it can leave free."""
    rng = np.random.default_rng(63)
    for n in np.linspace(100, 400, 10).astype(int).tolist():
        for band in ("narrow", "percentile"):
            weights = rng.uniform(-1.0, 1.0, n)
            model = LinearModel(weights, -0.5 * float(weights.sum()), unit_box(n))
            if band == "narrow":
                t_minus, t_plus = -0.125, 0.125
            else:
                scores = rng.uniform(0.0, 1.0, (2000, n)) @ weights + model.bias
                t_minus, t_plus = (float(t) for t in np.percentile(scores, [45, 55]))
            clf = RejectClassifier(model, t_minus, t_plus)
            instance = Instance.validated(model, _row_in_band(rng, model, t_minus, t_plus))
            yield cover_problem(clf, instance).expect(ExplanationKind.REJECTION)


def test_rejection_solver_matches_external_milp_beyond_100_features():
    exact = 0
    for problem in _wide_rejected_cases():
        ours = solve_rejection_ilp(problem)
        assert ours.optimal
        assert problem.holds(ours.selected)
        low, high = _rejection_minimum(problem)
        assert low <= ours.objective <= high
        exact += low == high
    assert exact >= 15  # HiGHS's own selection passed the exact check


def _wide_band_cases():
    """Nine rows on U(-1,1) weights whose band is +-f * sum(|w|) around the
    centre, for n in (100, 120, 140) and f in (0.25, 0.3, 0.35).  Only 16
    to 30 % of the features stay pinned; a search over pinned sets left
    every one of these rows uncertified at the same node budget."""
    rng = np.random.default_rng(64)
    for n in (100, 120, 140):
        for f in (0.25, 0.3, 0.35):
            weights = rng.uniform(-1.0, 1.0, n)
            model = LinearModel(weights, -0.5 * float(weights.sum()), unit_box(n))
            half = f * float(np.abs(weights).sum())
            clf = RejectClassifier(model, -half, half)
            instance = Instance.validated(model, _row_in_band(rng, model, -half, half))
            yield cover_problem(clf, instance).expect(ExplanationKind.REJECTION)


def test_rejection_solver_matches_external_milp_on_wide_bands():
    # A node budget, not a clock, bounds each solve: the hardest row takes
    # about 154k nodes.
    for problem in _wide_band_cases():
        ours = solve_rejection_ilp(problem, node_limit=200_000, time_limit=math.inf)
        assert ours.optimal
        assert problem.holds(ours.selected)
        low, high = _rejection_minimum(problem)
        assert low <= ours.objective <= high
