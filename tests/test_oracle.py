import numpy as np
import pytest

from minaxp import (
    ExplanationKind,
    Instance,
    Label,
    LinearModel,
    RejectClassifier,
    brute_force_minimum,
    cover_problem,
    deletion_explanation,
    is_valid_explanation,
    predict,
    random_case,
    sampled_sufficiency_check,
    unit_box,
)


class TestBruteForce:
    def test_positive_example(self, pos3_case):
        clf, instance = pos3_case
        explanation = brute_force_minimum(clf, instance)
        assert explanation.indices == (0,)
        assert explanation.certified_minimum

    def test_narrow_band_rejection_needs_two(self):
        model = LinearModel(np.array([1.0, 1.0]), 0.0, unit_box(2))
        clf = RejectClassifier(model, 0.9, 1.1)
        instance = Instance.validated(model, [0.5, 0.5])
        assert brute_force_minimum(clf, instance).size == 2

    def test_empty_set_when_valid(self):
        model = LinearModel(np.zeros(2), 0.0, unit_box(2))
        clf = RejectClassifier(model, -1.0, 1.0)
        instance = Instance.validated(model, [0.4, 0.6])
        assert brute_force_minimum(clf, instance).indices == ()

    def test_lexicographically_first_among_ties(self):
        model = LinearModel(np.array([1.0, 1.0]), 0.0, unit_box(2))
        clf = RejectClassifier(model, -1.0, 0.5)
        instance = Instance.validated(model, [1.0, 1.0])
        assert brute_force_minimum(clf, instance).indices == (0,)

    def test_refuses_large_models(self):
        n = 21
        model = LinearModel(np.ones(n), 0.0, unit_box(n))
        clf = RejectClassifier(model, -1.0, 1.0)
        instance = Instance.validated(model, np.full(n, 0.01))
        with pytest.raises(ValueError, match="refused"):
            brute_force_minimum(clf, instance)


class TestSampledSufficiency:
    def test_valid_explanation_passes(self, band_case):
        clf, instance = band_case
        assert sampled_sufficiency_check(
            clf, instance, [0], ExplanationKind.REJECTION, trials=1000
        )

    def test_insufficient_set_caught_by_corner(self, pos3_case):
        # fixing only feature 1 lets the corner (0, 0, 0) drop the score to 0 < t_plus
        clf, instance = pos3_case
        assert not sampled_sufficiency_check(
            clf, instance, [1], ExplanationKind.POSITIVE, trials=1000
        )

    def test_full_set_passes_with_single_trial(self, band_case):
        clf, instance = band_case
        assert sampled_sufficiency_check(
            clf, instance, [0, 1], ExplanationKind.REJECTION, trials=1
        )

    def test_indices_follow_the_explanation_rules(self, pos3_case):
        # [0.9] used to be truncated to feature 0 and [-1] to wrap round to
        # feature 2; both now fail as in is_valid_explanation.
        clf, instance = pos3_case
        with pytest.raises(ValueError, match="integers"):
            sampled_sufficiency_check(clf, instance, [0.9], ExplanationKind.POSITIVE)
        with pytest.raises(IndexError):
            sampled_sufficiency_check(clf, instance, [-1], ExplanationKind.POSITIVE)
        assert sampled_sufficiency_check(clf, instance, [0, 0], ExplanationKind.POSITIVE)

    def test_trials_must_be_positive(self, band_case):
        clf, instance = band_case
        with pytest.raises(ValueError):
            sampled_sufficiency_check(clf, instance, [0], ExplanationKind.REJECTION, trials=0)

    def test_never_contradicts_closed_form_on_valid_sets(self):
        rng = np.random.default_rng(31)
        for i in range(60):
            n = int(rng.integers(2, 11))
            label = (Label.POSITIVE, Label.NEGATIVE, Label.REJECT)[i % 3]
            clf, instance = random_case(rng, n, label)
            explanation = deletion_explanation(cover_problem(clf, instance))
            assert is_valid_explanation(clf, instance, explanation.indices, explanation.kind)
            assert sampled_sufficiency_check(
                clf, instance, explanation.indices, explanation.kind, trials=500, seed=i
            )


class TestRandomCase:
    def test_reproducible(self):
        a_clf, a_inst = random_case(np.random.default_rng(99), 6)
        b_clf, b_inst = random_case(np.random.default_rng(99), 6)
        np.testing.assert_array_equal(a_clf.model.weights, b_clf.model.weights)
        np.testing.assert_array_equal(a_inst.values, b_inst.values)
        assert a_clf.t_plus == b_clf.t_plus

    @pytest.mark.parametrize("label", [Label.POSITIVE, Label.NEGATIVE, Label.REJECT])
    def test_targets_requested_label(self, label):
        rng = np.random.default_rng(7)
        for _ in range(20):
            clf, instance = random_case(rng, 5, label)
            assert predict(clf, instance).label is label

    def test_draws_inside_the_box(self):
        clf, instance = random_case(np.random.default_rng(1), 8)
        assert np.all(instance.values >= 0.0) and np.all(instance.values <= 1.0)
        assert np.all(np.abs(clf.model.weights) <= 1.0)
        assert 0.05 <= clf.t_plus - clf.t_minus <= 1.0
