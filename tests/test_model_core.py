import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minaxp import (
    DomainError,
    Explanation,
    ExplanationKind,
    Instance,
    Label,
    LabelMismatchError,
    LinearModel,
    RejectClassifier,
    cover_problem,
    is_valid_explanation,
    predict,
    score,
    unit_box,
)
from minaxp.model import score_from_products


class TestScore:
    def test_dot_product(self, pos3_case):
        clf, instance = pos3_case
        assert score(clf.model, instance) == 4.0

    def test_zero_weights_return_bias(self):
        model = LinearModel(np.zeros(3), 2.5, unit_box(3))
        assert score(model, Instance(np.array([0.3, 0.9, 0.1]))) == 2.5

    def test_symmetric_weights_cancel(self, band_case):
        clf, instance = band_case
        assert score(clf.model, instance) == 0.0

    def test_dimension_mismatch(self, band_case):
        clf, _ = band_case
        with pytest.raises(ValueError, match="expects 2"):
            score(clf.model, Instance(np.array([0.5, 0.5, 0.5])))

    @pytest.mark.parametrize("n", [1, 30, 8192, 8193, 3 * 8192 + 5])
    def test_scores_sum_each_rows_own_products(self, n):
        # One definition: the pairwise sum of the row's own products w*x, so
        # the bits follow the values and not the layout they were read in.
        rng = np.random.default_rng(n)
        w = rng.normal(size=n)
        rows = rng.random((3, n))
        strided = np.asfortranarray(rows)
        model = LinearModel(w, 0.25, unit_box(n))
        clf = RejectClassifier(model, -1.0, 1.0)
        matrix = score_from_products(rows * w, 0.25)
        for i in range(rows.shape[0]):
            assert strided[i].flags.c_contiguous == (n == 1)
            got = score(model, Instance(strided[i]))
            assert got == score(model, Instance(rows[i]))
            assert got == cover_problem(clf, Instance(strided[i])).score
            assert got == matrix[i]
            assert got == pytest.approx(math.fsum(w * rows[i]) + 0.25, rel=1e-12, abs=1e-12)


class TestPredict:
    @pytest.mark.parametrize(
        "s,expected",
        [(0.5, Label.POSITIVE), (-0.1, Label.REJECT), (-0.5, Label.NEGATIVE)],
    )
    def test_banknote_style_thresholds(self, s, expected):
        # thresholds t_plus=0.01, t_minus=-0.35 on a one-feature passthrough model
        model = LinearModel(np.array([1.0]), 0.0, np.array([[-1.0, 1.0]]))
        clf = RejectClassifier(model, -0.35, 0.01)
        assert predict(clf, Instance(np.array([s]))).label is expected

    def test_boundary_scores_reject(self):
        model = LinearModel(np.array([1.0]), 0.0, np.array([[-2.0, 2.0]]))
        clf = RejectClassifier(model, -1.0, 1.0)
        assert predict(clf, Instance(np.array([1.0]))).label is Label.REJECT
        assert predict(clf, Instance(np.array([-1.0]))).label is Label.REJECT

    def test_labels_partition_score_line(self):
        model = LinearModel(np.array([1.0]), 0.0, np.array([[-3.0, 3.0]]))
        clf = RejectClassifier(model, -0.7, 0.4)
        for v in np.linspace(-3, 3, 61):
            pred = predict(clf, Instance(np.array([v])))
            if pred.label is Label.POSITIVE:
                assert v > 0.4
            elif pred.label is Label.NEGATIVE:
                assert v < -0.7
            else:
                assert -0.7 - 1e-9 <= v <= 0.4 + 1e-9

    def test_repeat_invariance(self, band_case):
        clf, instance = band_case
        assert predict(clf, instance) == predict(clf, instance)


class TestCoverProblem:
    def test_band_case_values(self, band_case):
        clf, instance = band_case
        problem = cover_problem(clf, instance)
        np.testing.assert_array_equal(clf.model.alpha_max, [2.0, 0.0])
        np.testing.assert_array_equal(clf.model.alpha_min, [0.0, -2.0])
        np.testing.assert_array_equal(clf.model.alpha_max - problem.gain_up, [1.0, -1.0])
        np.testing.assert_array_equal(clf.model.alpha_min + problem.gain_down, [1.0, -1.0])
        assert problem.top == 2.0
        assert problem.bottom == -2.0

    def test_zero_weights(self):
        model = LinearModel(np.zeros(4), 0.3, unit_box(4))
        clf = RejectClassifier(model, -1.0, 1.0)
        problem = cover_problem(clf, Instance(np.full(4, 0.5)))
        np.testing.assert_array_equal(model.alpha_max, np.zeros(4))
        np.testing.assert_array_equal(model.alpha_min, np.zeros(4))
        np.testing.assert_array_equal(problem.gain_up, np.zeros(4))
        np.testing.assert_array_equal(problem.gain_down, np.zeros(4))
        assert problem.top == problem.bottom == 0.3

    def test_gain_example(self, pos3_case):
        clf, instance = pos3_case
        problem = cover_problem(clf, instance)
        np.testing.assert_array_equal(problem.gain_down, [3.0, 2.0, 1.0])


class TestScoreBounds:
    def test_fixed_first_feature(self, band_case):
        clf, instance = band_case
        assert cover_problem(clf, instance).bounds([0]) == (1.0, -1.0)

    def test_all_fixed_equals_score(self, band_case):
        clf, instance = band_case
        s = score(clf.model, instance)
        assert cover_problem(clf, instance).bounds([0, 1]) == (s, s)

    def test_empty_set_gives_baselines(self, band_case):
        clf, instance = band_case
        problem = cover_problem(clf, instance)
        assert problem.bounds([]) == (problem.top, problem.bottom)

    def test_out_of_range_index(self, band_case):
        clf, instance = band_case
        problem = cover_problem(clf, instance)
        with pytest.raises(IndexError):
            problem.bounds([2])


class TestValidity:
    def test_rejection_band_case(self, band_case):
        clf, instance = band_case
        assert is_valid_explanation(clf, instance, [0], ExplanationKind.REJECTION)

    @pytest.mark.parametrize("fixture", ["band_case", "pos3_case", "neg3_case"])
    def test_full_set_always_valid(self, fixture, request):
        clf, instance = request.getfixturevalue(fixture)
        kind = {
            Label.POSITIVE: ExplanationKind.POSITIVE,
            Label.NEGATIVE: ExplanationKind.NEGATIVE,
            Label.REJECT: ExplanationKind.REJECTION,
        }[predict(clf, instance).label]
        assert is_valid_explanation(clf, instance, range(clf.model.n_features), kind)

    def test_insufficient_positive_set(self, pos3_case):
        clf, instance = pos3_case
        assert not is_valid_explanation(clf, instance, [1], ExplanationKind.POSITIVE)

    def test_kind_mismatch_raises(self, pos3_case):
        clf, instance = pos3_case
        with pytest.raises(LabelMismatchError):
            is_valid_explanation(clf, instance, [0], ExplanationKind.REJECTION)


class TestConstructionInvariants:
    def test_out_of_domain_instance_is_hard_error(self):
        model = LinearModel(np.array([1.0, 1.0]), 0.0, unit_box(2))
        with pytest.raises(DomainError):
            Instance.validated(model, [0.5, 1.5])

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            LinearModel(np.array([1.0]), 0.0, np.array([[1.0, 0.0]]))

    def test_nonfinite_weight_rejected(self):
        with pytest.raises(ValueError):
            LinearModel(np.array([np.nan]), 0.0, unit_box(1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearModel(np.array([1.0, 2.0]), 0.0, unit_box(3))

    @pytest.mark.parametrize(
        "weights, bias, domains",
        [
            ([1e308, 1e308], 0.0, unit_box(2)),  # upper bound overflows
            ([-1e308, -1e308], 0.0, unit_box(2)),  # lower bound overflows
            ([1e308], 1e308, unit_box(1)),  # the bias tips it over
            ([1e308], 0.0, np.array([[-1.0, 1.0]])),  # bounds finite, span not
            ([2.0], 0.0, np.array([[0.0, 1e308]])),  # the product overflows
        ],
    )
    def test_overflowing_score_bounds_rejected(self, weights, bias, domains):
        with pytest.raises(ValueError, match="score bounds overflow"):
            LinearModel(np.array(weights), bias, domains)

    def test_large_finite_bounds_accepted(self):
        model = LinearModel(np.array([1e307, -1e307]), 0.0, unit_box(2))
        assert model.n_features == 2

    def test_threshold_order_enforced(self):
        model = LinearModel(np.array([1.0]), 0.0, unit_box(1))
        with pytest.raises(ValueError):
            RejectClassifier(model, 1.0, 1.0)

    def test_explanation_indices_stored_as_int_tuple(self):
        for given in [(0, 2, 5), [0, 2, 5], np.array([0, 2, 5])]:
            indices = Explanation(given, ExplanationKind.POSITIVE, True).indices
            assert indices == (0, 2, 5)
            assert all(type(j) is int for j in indices)
        assert Explanation(np.array([], dtype=int), ExplanationKind.POSITIVE, True).indices == ()

    @pytest.mark.parametrize("bad", [(2, 1), (1, 1), (-1, 0), np.array([3, 0]), [[0, 1]]])
    def test_explanation_indices_must_be_sorted_distinct_non_negative(self, bad):
        with pytest.raises(ValueError):
            Explanation(bad, ExplanationKind.POSITIVE, True)

    @pytest.mark.parametrize(
        "bad",
        [[0.7, 1.2], (0.0, 1.0), np.array([0.0, 2.0]), [1, 2.5], [True, 2], (0, np.True_),
         [True], np.array([True, False]), ["0", "1"]],
    )
    def test_float_and_bool_indices_refused(self, bad, pos3_case):
        # These used to be truncated or cast: [0.7, 1.2] became (0, 1).
        with pytest.raises(ValueError, match="integers"):
            Explanation(bad, ExplanationKind.POSITIVE, True)
        clf, instance = pos3_case
        with pytest.raises(ValueError, match="integers"):
            is_valid_explanation(clf, instance, bad, ExplanationKind.POSITIVE)
        with pytest.raises(ValueError, match="integers"):
            cover_problem(clf, instance).bounds(bad)

    @pytest.mark.parametrize("empty", [[], (), np.array([]), np.array([], dtype=bool), range(0)])
    def test_empty_indices_accepted(self, empty, pos3_case):
        assert Explanation(empty, ExplanationKind.POSITIVE, True).indices == ()
        clf, instance = pos3_case
        assert not is_valid_explanation(clf, instance, empty, ExplanationKind.POSITIVE)
        problem = cover_problem(clf, instance)
        assert problem.bounds(empty) == (problem.top, problem.bottom)

    def test_explanation_keeps_an_index_array(self):
        given = np.array([0, 2, 5], dtype=np.uint16)
        explanation = Explanation(given, ExplanationKind.NEGATIVE, False)
        assert explanation.index_array.dtype == np.intp
        np.testing.assert_array_equal(explanation.index_array, [0, 2, 5])
        assert explanation.size == 3 and type(explanation.size) is int
        same = Explanation([0, 2, 5], ExplanationKind.NEGATIVE, False)
        assert explanation == same and hash(explanation) == hash(same)
        assert explanation != Explanation([0, 2, 5], ExplanationKind.NEGATIVE, True)
        assert explanation != Explanation([0, 2], ExplanationKind.NEGATIVE, False)
        assert explanation != (0, 2, 5)
        assert explanation.indices is explanation.indices  # built once


def _random_setup(rng, n):
    weights = rng.uniform(-2.0, 2.0, n)
    lower = rng.uniform(-1.0, 0.5, n)
    upper = lower + rng.uniform(0.0, 1.5, n)
    model = LinearModel(weights, float(rng.uniform(-1, 1)), np.column_stack([lower, upper]))
    values = rng.uniform(lower, upper)
    return model, Instance.validated(model, values)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9))
def test_bounds_tighten_monotonically(seed, n):
    # For nested fixed sets A <= B the reachable interval can only shrink.
    rng = np.random.default_rng(seed)
    model, instance = _random_setup(rng, n)
    clf = RejectClassifier(model, -1.0, 1.0)
    problem = cover_problem(clf, instance)
    members = rng.permutation(n)
    cut = int(rng.integers(0, n + 1))
    big_max, big_min = problem.bounds(members[:cut])
    small_max, small_min = problem.bounds(members[: cut // 2])
    assert big_max <= small_max + 1e-12
    assert big_min >= small_min - 1e-12


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9))
def test_true_score_sandwiched(seed, n):
    rng = np.random.default_rng(seed)
    model, instance = _random_setup(rng, n)
    clf = RejectClassifier(model, -1.0, 1.0)
    problem = cover_problem(clf, instance)
    fixed = [int(j) for j in range(n) if rng.random() < 0.5]
    s = score(model, instance)
    smax, smin = problem.bounds(fixed)
    assert smin - 1e-12 <= s <= smax + 1e-12
    # ordering invariants: alpha_min <= beta <= alpha_max
    beta = model.weights * instance.values
    assert np.all(model.alpha_min <= beta + 1e-12)
    assert np.all(beta <= model.alpha_max + 1e-12)
    assert np.all(problem.gain_down >= 0.0)
    assert np.all(problem.gain_up >= 0.0)


def test_sampled_completions_stay_inside_bounds():
    # 1000 random completions of the free features never leave
    # [s_min - eps, s_max + eps]; the two sign-rule corners attain the bounds.
    rng = np.random.default_rng(20240511)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        model, instance = _random_setup(rng, n)
        clf = RejectClassifier(model, -1.0, 1.0)
        fixed = np.array([j for j in range(n) if rng.random() < 0.4], dtype=int)
        hi, lo = cover_problem(clf, instance).bounds(fixed)

        free = np.setdiff1d(np.arange(n), fixed)
        draws = np.tile(instance.values, (1000, 1))
        draws[:, free] = rng.uniform(model.lower[free], model.upper[free], (1000, free.size))
        scores = draws @ model.weights + model.bias
        assert np.all(scores >= lo - 1e-9) and np.all(scores <= hi + 1e-9)

        top = instance.values.copy()
        bottom = instance.values.copy()
        w = model.weights[free]
        top[free] = np.where(w >= 0, model.upper[free], model.lower[free])
        bottom[free] = np.where(w >= 0, model.lower[free], model.upper[free])
        assert abs(top @ model.weights + model.bias - hi) <= 1e-9
        assert abs(bottom @ model.weights + model.bias - lo) <= 1e-9
