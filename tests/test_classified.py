import numpy as np
import pytest

from minaxp import (
    DEFAULT_EPSILON,
    CoverProblem,
    ExplanationKind,
    Instance,
    Label,
    LabelMismatchError,
    LinearModel,
    RejectClassifier,
    brute_force_minimum,
    cover_problem,
    explain_instance,
    greedy_explanation,
    is_valid_explanation,
    random_case,
    unit_box,
)


def _greedy(clf, instance):
    """The greedy's explanation of an accepted instance, with its problem."""
    problem = cover_problem(clf, instance)
    return greedy_explanation(problem), problem


def _side(problem):
    """The gains and need of the one side an accepted problem constrains."""
    if problem.label is Label.POSITIVE:
        return problem.gain_down, problem.need_down
    return problem.gain_up, problem.need_up


def _ordered(gains):
    """The selection order: gain descending, index ascending on ties."""
    return np.argsort(-gains, kind="stable")


class TestExplainPositive:
    def test_three_feature_example(self, pos3_case):
        clf, instance = pos3_case
        explanation, problem = _greedy(clf, instance)
        assert explanation.indices == (0,)
        assert explanation.kind is ExplanationKind.POSITIVE
        assert explanation.certified_minimum
        assert explanation.size == 1
        assert problem.need_down == 3.0  # need_down = t_plus - bottom = 1 - (-2)
        np.testing.assert_array_equal(problem.gain_down[_ordered(problem.gain_down)], [3.0, 2.0, 1.0])
        # brute force over all 8 subsets agrees on the size
        assert brute_force_minimum(clf, instance).size == 1

    def test_margin_already_covered_gives_empty(self):
        model = LinearModel(np.array([1.0, 1.0]), 5.0, unit_box(2))
        clf = RejectClassifier(model, -1.0, 1.0)
        instance = Instance.validated(model, [0.2, 0.9])
        explanation, _ = _greedy(clf, instance)
        assert explanation.indices == ()
        assert explanation.size == 0

    def test_tied_gains_need_both(self):
        model = LinearModel(np.array([1.0, 1.0]), 0.0, unit_box(2))
        clf = RejectClassifier(model, -1.0, 1.5)
        instance = Instance.validated(model, [1.0, 1.0])
        explanation, _ = _greedy(clf, instance)
        assert explanation.indices == (0, 1)
        assert explanation.size == 2

    def test_wrong_label_raises(self, band_case):
        clf, instance = band_case
        with pytest.raises(LabelMismatchError):
            greedy_explanation(cover_problem(clf, instance))


class TestExplainNegative:
    def test_mirrored_example(self, neg3_case):
        clf, instance = neg3_case
        explanation, _ = _greedy(clf, instance)
        assert explanation.indices == (0,)
        assert explanation.kind is ExplanationKind.NEGATIVE
        assert explanation.size == 1
        assert brute_force_minimum(clf, instance).size == 1

    def test_margin_already_covered_gives_empty(self):
        model = LinearModel(np.array([1.0, 1.0]), -5.0, unit_box(2))
        clf = RejectClassifier(model, -1.0, 1.0)
        instance = Instance.validated(model, [0.4, 0.1])
        explanation, _ = _greedy(clf, instance)
        assert explanation.indices == ()

    def test_tied_gains_need_both(self):
        model = LinearModel(np.array([-1.0, -1.0]), 0.0, unit_box(2))
        clf = RejectClassifier(model, -1.5, 1.0)
        instance = Instance.validated(model, [1.0, 1.0])
        explanation, _ = _greedy(clf, instance)
        assert explanation.indices == (0, 1)

    def test_wrong_label_raises(self, pos3_case):
        clf, instance = pos3_case
        with pytest.raises(LabelMismatchError):
            cover_problem(clf, instance).expect(ExplanationKind.NEGATIVE)


def test_tie_break_prefers_lower_index():
    # three identical gains, two needed: the prefix must be {0, 1}
    model = LinearModel(np.array([1.0, 1.0, 1.0]), 0.0, unit_box(3))
    clf = RejectClassifier(model, -1.0, 1.5)
    instance = Instance.validated(model, [1.0, 1.0, 1.0])
    explanation, _ = _greedy(clf, instance)
    assert explanation.indices == (0, 1)
    assert explanation.size == 2


def test_trace_prefix_sum_brackets_margin():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 11))
        clf, instance = random_case(rng, n, Label.POSITIVE)
        explanation, problem = _greedy(clf, instance)
        gains = problem.gain_down[_ordered(problem.gain_down)]
        k = explanation.size
        eps = 1e-9
        if k > 0:
            assert gains[:k].sum() >= problem.need_down - eps
            assert gains[: k - 1].sum() < problem.need_down - eps
        else:
            assert problem.need_down <= eps


def test_removing_last_selected_breaks_validity():
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(80):
        n = int(rng.integers(2, 11))
        label = Label.POSITIVE if checked % 2 == 0 else Label.NEGATIVE
        clf, instance = random_case(rng, n, label)
        explanation, problem = _greedy(clf, instance)
        if explanation.size == 0:
            continue
        checked += 1
        last = int(_ordered(_side(problem)[0])[explanation.size - 1])
        reduced = [j for j in explanation.indices if j != last]
        assert not is_valid_explanation(clf, instance, reduced, explanation.kind)
    assert checked > 20


def test_greedy_matches_brute_force_sizes():
    rng = np.random.default_rng(5)
    for i in range(150):
        n = int(rng.integers(2, 13))
        label = Label.POSITIVE if i % 2 == 0 else Label.NEGATIVE
        clf, instance = random_case(rng, n, label)
        explanation, _ = _greedy(clf, instance)
        assert is_valid_explanation(clf, instance, explanation.indices, explanation.kind)
        assert explanation.size == brute_force_minimum(clf, instance).size


def test_deterministic_output(pos3_case):
    clf, instance = pos3_case
    first, _ = _greedy(clf, instance)
    second, _ = _greedy(clf, instance)
    assert first == second


def _reference_prefix(gains, required_margin, eps=DEFAULT_EPSILON):
    """The greedy by a stable index sort: the shortest prefix of the order by
    gain descending, index ascending whose running sum covers the margin."""
    order = np.argsort(-gains, kind="stable")
    if required_margin <= eps:
        return order, ()
    pos = int(np.searchsorted(np.cumsum(gains[order]), required_margin - eps, side="left"))
    if pos >= gains.size:
        return order, None
    return order, tuple(np.sort(order[: pos + 1]).tolist())


def _problem_on(gains, need, kind, work):
    """An accepted problem of ``kind`` whose constrained side has these
    gains and this need; stale ``work`` rows must not matter."""
    other = np.zeros_like(gains)
    if kind is ExplanationKind.POSITIVE:
        return CoverProblem(Label.POSITIVE, kind, 0.0, other, gains, 0.0, 0.0, np.inf, need, work)
    return CoverProblem(Label.NEGATIVE, kind, 0.0, gains, other, need, 0.0, 0.0, -np.inf, work)


def test_value_sort_matches_stable_index_sort_reference():
    rng = np.random.default_rng(2024)
    uncoverable = ties = 0
    for case in range(3000):
        n = int(rng.integers(1, 201))
        if case % 2:
            gains = rng.integers(0, 9, n) * 0.25  # quarter steps: many ties, sums exact
        else:
            gains = rng.exponential(1.0, n)
        total = float(gains.sum())
        draw = rng.random()
        if draw < 0.05:
            need = float(rng.choice([0.0, -1.0, DEFAULT_EPSILON]))
        elif draw < 0.15:
            need = total + float(rng.choice([0.25, 1.0, 2 * DEFAULT_EPSILON]))
        elif case % 2:
            need = float(rng.integers(0, 4 * total + 2)) * 0.25
        else:
            need = float(rng.uniform(0.0, total))
        kind = ExplanationKind.POSITIVE if case % 3 else ExplanationKind.NEGATIVE
        problem = _problem_on(gains, need, kind, work=rng.normal(size=(2, n)))
        order, want = _reference_prefix(gains, need)
        if want is None:
            uncoverable += 1
            with pytest.raises(LabelMismatchError):
                greedy_explanation(problem)
            continue
        explanation = greedy_explanation(problem)
        assert explanation.indices == want, case
        assert explanation.kind is kind and explanation.certified_minimum
        assert explanation.size == len(want)
        if want and np.count_nonzero(gains == gains[order[len(want) - 1]]) > 1:
            ties += 1
    assert uncoverable > 100 and ties > 500


@pytest.mark.parametrize("label", [Label.POSITIVE, Label.NEGATIVE])
def test_tied_wide_rows_match_reference_through_explain_instance(label):
    rng = np.random.default_rng(16384)
    n = 16384
    sign = 1.0 if label is Label.POSITIVE else -1.0
    for row in range(6):
        # Quarter-step weights on 0/1 values: gains take five values, so the
        # k-th largest is tied thousands of times.  On even rows the margin
        # is a sum of leading gains, met exactly; odd rows miss it by 1/8.
        weights = sign * rng.integers(1, 5, n) * 0.25
        values = rng.integers(0, 2, n).astype(float)
        model = LinearModel(weights, 0.0, unit_box(n))
        gains = np.abs(weights) * values
        m = int(rng.integers(1, 0.9 * np.count_nonzero(gains)))
        cut = float(np.sort(gains)[::-1][:m].sum()) + 0.125 * (row % 2)
        if label is Label.POSITIVE:
            clf = RejectClassifier(model, cut - 1.0, cut)
        else:
            clf = RejectClassifier(model, -cut, -cut + 1.0)
        instance = Instance.validated(model, values)
        (record,) = explain_instance(clf, instance, row)
        assert record.label == label.value
        _, want = _reference_prefix(gains, cut)
        assert record.indices == want
        assert type(record.indices) is tuple and all(type(j) is int for j in record.indices)
        assert record.size == len(want)
        smax, smin = cover_problem(clf, instance).bounds(want)
        if label is Label.POSITIVE:
            tight = abs(smin - clf.t_plus) <= DEFAULT_EPSILON
        else:
            tight = abs(smax - clf.t_minus) <= DEFAULT_EPSILON
        assert record.boundary_tight == tight
        assert tight == (row % 2 == 0)
