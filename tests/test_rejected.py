import numpy as np
import pytest

import minaxp.rejected as rejected_mod
from minaxp import (
    ExplanationKind,
    Instance,
    Label,
    LabelMismatchError,
    LinearModel,
    RejectClassifier,
    brute_force_minimum,
    cover_problem,
    is_valid_explanation,
    lift_solution,
    predict,
    random_case,
    score,
    solve_rejection_ilp,
    unit_box,
)


class TestBuildIlp:
    def test_band_case_coefficients(self, band_case):
        clf, instance = band_case
        problem = cover_problem(clf, instance)
        np.testing.assert_array_equal(problem.gain_up, [1.0, 1.0])
        np.testing.assert_array_equal(problem.gain_down, [1.0, 1.0])
        assert problem.need_up == 1.0
        assert problem.need_down == 1.0
        assert np.all(problem.gain_up >= 0.0)
        assert np.all(problem.gain_down >= 0.0)

    def test_zero_weights_make_empty_feasible(self):
        model = LinearModel(np.zeros(3), 0.2, unit_box(3))
        clf = RejectClassifier(model, -1.0, 1.0)
        instance = Instance.validated(model, [0.1, 0.5, 0.9])
        problem = cover_problem(clf, instance)
        assert problem.need_up <= 0.0  # constraint 1 holds at z=0
        assert problem.need_down <= 0.0  # constraint 2 holds at z=0

    def test_all_ones_recovers_score(self, band_case):
        # selecting every feature telescopes both constraint rows onto s(x)
        clf, instance = band_case
        problem = cover_problem(clf, instance)
        s = score(clf.model, instance)
        assert problem.top - problem.gain_up.sum() == pytest.approx(s)
        assert problem.bottom + problem.gain_down.sum() == pytest.approx(s)

    def test_not_rejected_raises(self, pos3_case):
        clf, instance = pos3_case
        with pytest.raises(LabelMismatchError):
            solve_rejection_ilp(cover_problem(clf, instance))


class TestSolve:
    def test_band_case_single_feature(self, band_case):
        clf, instance = band_case
        solution = solve_rejection_ilp(cover_problem(clf, instance))
        assert solution.objective == 1
        assert solution.selected.tolist() == [0]  # deterministic tie-break
        assert solution.optimal

    def test_empty_feasible(self):
        model = LinearModel(np.zeros(2), 0.0, unit_box(2))
        clf = RejectClassifier(model, -1.0, 1.0)
        instance = Instance.validated(model, [0.5, 0.5])
        solution = solve_rejection_ilp(cover_problem(clf, instance))
        assert solution.selected.tolist() == []
        assert solution.objective == 0
        assert solution.optimal

    def test_narrow_band_needs_both(self):
        model = LinearModel(np.array([1.0, 1.0]), 0.0, unit_box(2))
        clf = RejectClassifier(model, 0.9, 1.1)
        instance = Instance.validated(model, [0.5, 0.5])
        solution = solve_rejection_ilp(cover_problem(clf, instance))
        assert solution.objective == 2

    def test_deterministic(self, band_case):
        clf, instance = band_case
        problem = cover_problem(clf, instance)
        a = solve_rejection_ilp(problem)
        b = solve_rejection_ilp(problem)
        assert a.selected.tolist() == b.selected.tolist()
        assert a.nodes_explored == b.nodes_explored


@pytest.fixture
def split_demand_case():
    """One feature helps both constraints a little, two others each cover one
    fully; the optimum is the two specialists."""
    model = LinearModel(np.array([1.2, 1.0, 1.0]), 0.0, unit_box(3))
    clf = RejectClassifier(model, 1.0, 2.2)
    instance = Instance.validated(model, [0.5, 0.0, 1.0])
    return clf, instance


def test_split_demand_optimum(split_demand_case):
    clf, instance = split_demand_case
    solution = solve_rejection_ilp(cover_problem(clf, instance))
    assert solution.objective == 2
    assert solution.selected.tolist() == [1, 2]
    assert solution.optimal


@pytest.fixture
def bound_gap_case():
    """Root lower bound 2 but true optimum 3: one feature covers the whole
    upper demand, two small ones must jointly cover the lower demand."""
    model = LinearModel(np.array([2.5, 0.9, 0.9]), 0.0, unit_box(3))
    clf = RejectClassifier(model, 1.0, 3.3)
    instance = Instance.validated(model, [0.0, 1.0, 1.0])
    return clf, instance


def test_bound_gap_case_solved_exactly(bound_gap_case):
    clf, instance = bound_gap_case
    solution = solve_rejection_ilp(cover_problem(clf, instance))
    assert solution.optimal
    assert solution.objective == 3 == brute_force_minimum(clf, instance).size
    assert solution.nodes_explored > 0  # the root bound alone cannot close this


def test_budget_exhaustion_returns_valid_incumbent(bound_gap_case):
    clf, instance = bound_gap_case
    solution = solve_rejection_ilp(cover_problem(clf, instance), node_limit=0)
    assert not solution.optimal
    assert is_valid_explanation(clf, instance, solution.selected, ExplanationKind.REJECTION)


def test_explain_rejection_wraps_solution(band_case):
    clf, instance = band_case
    problem = cover_problem(clf, instance)
    explanation = lift_solution(problem, solve_rejection_ilp(problem))
    assert explanation.kind is ExplanationKind.REJECTION
    assert explanation.size == 1
    assert explanation.certified_minimum
    assert is_valid_explanation(clf, instance, explanation.indices, ExplanationKind.REJECTION)


def test_single_feature_wide_band_needs_nothing():
    model = LinearModel(np.array([1.0]), 0.0, unit_box(1))
    clf = RejectClassifier(model, -1.0, 1.0)
    instance = Instance.validated(model, [0.5])
    problem = cover_problem(clf, instance)
    assert lift_solution(problem, solve_rejection_ilp(problem)).indices == ()


def test_budget_fallback_is_flagged_not_certified(bound_gap_case):
    clf, instance = bound_gap_case
    problem = cover_problem(clf, instance)
    explanation = lift_solution(problem, solve_rejection_ilp(problem, node_limit=0))
    assert not explanation.certified_minimum
    assert is_valid_explanation(clf, instance, explanation.indices, ExplanationKind.REJECTION)


def test_invalid_solution_repaired_to_full_set(band_case):
    # a doctored, infeasible "solution" must be replaced by the full set
    from minaxp.rejected import IlpSolution

    clf, instance = band_case
    doctored = IlpSolution(
        selected=np.empty(0, np.intp), objective=0, optimal=True, nodes_explored=0, solve_time=0.0
    )
    explanation = lift_solution(cover_problem(clf, instance), doctored)
    assert explanation.indices == (0, 1)
    assert not explanation.certified_minimum
    assert is_valid_explanation(clf, instance, explanation.indices, ExplanationKind.REJECTION)


def test_solution_reverified_through_score_bounds():
    # the solver's answer must satisfy both bounds recomputed independently
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 13))
        clf, instance = random_case(rng, n, Label.REJECT)
        solution = solve_rejection_ilp(cover_problem(clf, instance))
        smax, smin = cover_problem(clf, instance).bounds(solution.selected)
        assert smax <= clf.t_plus + 1e-9
        assert smin >= clf.t_minus - 1e-9
        assert 0 <= solution.objective <= n


def test_matches_brute_force_sizes():
    rng = np.random.default_rng(12)
    for _ in range(150):
        n = int(rng.integers(2, 13))
        clf, instance = random_case(rng, n, Label.REJECT)
        solution = solve_rejection_ilp(cover_problem(clf, instance))
        assert solution.optimal
        assert solution.objective == brute_force_minimum(clf, instance).size


def test_feasibility_is_antimonotone():
    # any superset of a feasible selection stays feasible
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(2, 10))
        clf, instance = random_case(rng, n, Label.REJECT)
        base = solve_rejection_ilp(cover_problem(clf, instance)).selected.tolist()
        extras = [j for j in range(n) if j not in base]
        grown = list(base)
        for j in extras:
            grown.append(j)
            assert is_valid_explanation(clf, instance, grown, ExplanationKind.REJECTION)


def test_weak_bound_fallback_gives_same_optimum(split_demand_case, monkeypatch):
    # force the global-ranking bound path and confirm identical objectives
    clf, instance = split_demand_case
    exact = solve_rejection_ilp(cover_problem(clf, instance))
    monkeypatch.setattr(rejected_mod, "_SUFFIX_EXACT_LIMIT", 0)
    weak = solve_rejection_ilp(cover_problem(clf, instance))
    assert weak.optimal
    assert weak.objective == exact.objective

    rng = np.random.default_rng(14)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        clf2, inst2 = random_case(rng, n, Label.REJECT)
        weak2 = solve_rejection_ilp(cover_problem(clf2, inst2))
        assert weak2.optimal
        assert weak2.objective == brute_force_minimum(clf2, inst2).size


def _quarter_step_rejection(rng, n):
    """A rejected case on quarter-step weights and values and thresholds on
    sixteenths, so that gains, their sums and the needs tie exactly."""
    while True:
        weights, bias = rng.integers(-4, 5, n) / 4.0, float(rng.integers(-2, 3)) / 4.0
        model = LinearModel(weights, bias, unit_box(n))
        half = float(rng.integers(1, 9)) / 16.0
        clf = RejectClassifier(model, -half, half)
        instance = Instance.validated(model, rng.integers(0, 5, n) / 4.0)
        if predict(clf, instance).label is Label.REJECT:
            return clf, instance


def test_lower_bound_brackets_the_minimum():
    rng = np.random.default_rng(15)
    uncertified = 0
    for i in range(300):
        n = int(rng.integers(2, 15))
        clf, instance = _quarter_step_rejection(rng, n) if i % 2 else random_case(rng, n, Label.REJECT)
        problem = cover_problem(clf, instance)
        minimum = brute_force_minimum(clf, instance).size
        for node_limit in (0, 1, 7):
            solution = solve_rejection_ilp(problem, node_limit=node_limit)
            assert solution.lower_bound <= minimum <= solution.objective
            assert solution.optimal == (solution.lower_bound == solution.objective)
            uncertified += not solution.optimal
    assert uncertified >= 30
