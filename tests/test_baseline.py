import numpy as np

from minaxp import (
    DEFAULT_EPSILON,
    Explanation,
    ExplanationKind,
    Instance,
    Label,
    LinearModel,
    RejectClassifier,
    brute_force_minimum,
    cover_problem,
    deletion_explanation,
    greedy_explanation,
    is_valid_explanation,
    predict,
    random_case,
    solve_rejection_ilp,
    unit_box,
)


def _baseline(clf, instance):
    return deletion_explanation(cover_problem(clf, instance))


def test_band_case_drops_first_feature(band_case):
    # ascending deletion removes feature 0, then cannot remove feature 1
    clf, instance = band_case
    explanation = _baseline(clf, instance)
    assert explanation.indices == (1,)
    assert explanation.kind is ExplanationKind.REJECTION
    assert not explanation.certified_minimum


def test_empty_set_valid_deletes_everything():
    model = LinearModel(np.zeros(3), 0.0, unit_box(3))
    clf = RejectClassifier(model, -1.0, 1.0)
    instance = Instance.validated(model, [0.2, 0.5, 0.8])
    assert _baseline(clf, instance).indices == ()

    strong_bias = LinearModel(np.array([1.0, 1.0]), 5.0, unit_box(2))
    clf2 = RejectClassifier(strong_bias, -1.0, 1.0)
    inst2 = Instance.validated(strong_bias, [0.1, 0.9])
    assert _baseline(clf2, inst2).indices == ()


def test_subset_minimality_and_validity():
    rng = np.random.default_rng(21)
    for i in range(90):
        n = int(rng.integers(2, 12))
        label = (Label.POSITIVE, Label.NEGATIVE, Label.REJECT)[i % 3]
        clf, instance = random_case(rng, n, label)
        explanation = _baseline(clf, instance)
        assert is_valid_explanation(clf, instance, explanation.indices, explanation.kind)
        for j in explanation.indices:
            reduced = [k for k in explanation.indices if k != j]
            assert not is_valid_explanation(clf, instance, reduced, explanation.kind)


def test_never_smaller_than_certified_minimum():
    rng = np.random.default_rng(22)
    for i in range(90):
        n = int(rng.integers(2, 12))
        label = (Label.POSITIVE, Label.NEGATIVE, Label.REJECT)[i % 3]
        clf, instance = random_case(rng, n, label)
        problem = cover_problem(clf, instance)
        baseline = deletion_explanation(problem)
        if label is Label.REJECT:
            solution = solve_rejection_ilp(problem)
            exact = Explanation(solution.selected, ExplanationKind.REJECTION, solution.optimal)
        else:
            exact = greedy_explanation(problem)
        assert baseline.size >= exact.size
        assert exact.size == brute_force_minimum(clf, instance).size


def test_deterministic(band_case):
    clf, instance = band_case
    assert _baseline(clf, instance) == _baseline(clf, instance)


def _reference_deletion(clf, instance, eps=DEFAULT_EPSILON):
    """The deletion walk one numpy scalar at a time, with the kind tested per index."""
    pred = predict(clf, instance)
    kind = {
        Label.POSITIVE: ExplanationKind.POSITIVE,
        Label.NEGATIVE: ExplanationKind.NEGATIVE,
        Label.REJECT: ExplanationKind.REJECTION,
    }[pred.label]
    problem = cover_problem(clf, instance)
    smax = smin = pred.score
    kept = []
    for j in range(clf.model.n_features):
        trial_max = smax + problem.gain_up[j]
        trial_min = smin - problem.gain_down[j]
        if kind is ExplanationKind.POSITIVE:
            removable = trial_min >= clf.t_plus - eps
        elif kind is ExplanationKind.NEGATIVE:
            removable = trial_max <= clf.t_minus + eps
        else:
            removable = trial_max <= clf.t_plus + eps and trial_min >= clf.t_minus - eps
        if removable:
            smax, smin = trial_max, trial_min
        else:
            kept.append(j)
    return tuple(kept)


def test_matches_the_per_index_reference_walk():
    rng = np.random.default_rng(23)
    for i in range(300):
        n = int(rng.integers(1, 40))
        label = (Label.POSITIVE, Label.NEGATIVE, Label.REJECT)[i % 3]
        if i % 2:
            clf, instance = random_case(rng, n, label)
        else:
            # Quarter steps are exact in binary, so bounds land exactly on thresholds.
            model = LinearModel(rng.integers(-4, 5, n) * 0.5, 0.0, unit_box(n))
            instance = Instance.validated(model, rng.integers(0, 5, n) * 0.25)
            score = float(model.weights @ instance.values)
            low, high = 0.25 * rng.integers(1, 5, 2)
            t_minus, t_plus = {
                Label.POSITIVE: (score - low - high, score - low),
                Label.NEGATIVE: (score + low, score + low + high),
                Label.REJECT: (score - low, score + high),
            }[label]
            clf = RejectClassifier(model, t_minus, t_plus)
        assert predict(clf, instance).label is label
        explanation = _baseline(clf, instance)
        assert explanation.indices == _reference_deletion(clf, instance)
