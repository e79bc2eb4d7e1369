import collections

import numpy as np

import deletion_reference
from conftest import BOUNDARY_CASES, boundary_case
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
    score,
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


def _threshold(limit, sign):
    """A threshold t with ``t + sign * DEFAULT_EPSILON == limit`` exactly, or
    None; the deletion walk compares its sums with that rounded limit."""
    t = limit - sign * DEFAULT_EPSILON
    for _ in range(8):
        bound = t + sign * DEFAULT_EPSILON
        if bound == limit:
            return t
        t = float(np.nextafter(t, np.inf if bound < limit else -np.inf))
    return None


def _walk_case(rng, n, label, grid):
    """A row of ``label`` whose slack is a random share of its gains.  With
    ``grid``, weights are multiples of 0.5 (zero included) and values quarter
    steps, so gains tie, many are zero, and every sum is exact: the slack is
    then the sum of a random prefix of the gains, and the walk's running sum
    meets its limit exactly."""
    if grid:
        weights = rng.integers(-2, 3, n) * 0.5
        values = rng.integers(0, 5, n) * 0.25
    else:
        weights = rng.uniform(-1.0, 1.0, n)
        values = rng.uniform(0.0, 1.0, n)
    model = LinearModel(weights, 0.0, unit_box(n))
    instance = Instance.validated(model, values)
    s = score(model, instance)
    gain_up = np.maximum(weights, 0.0) - weights * values
    gain_down = weights * values - np.minimum(weights, 0.0)
    if grid:
        k_up, k_down = rng.integers(0, n + 1, 2)
        up, down = float(gain_up[:k_up].sum()), float(gain_down[:k_down].sum())
    else:
        low, high = rng.uniform(0.0, 1.0, 2) ** 2
        up, down = high * float(gain_up.sum()), low * float(gain_down.sum())
    margin = 1.0 + abs(s)
    if label is Label.POSITIVE:
        t_plus = _threshold(s - down, -1) if grid else s - down
        t_minus = None if t_plus is None else t_plus - margin
    elif label is Label.NEGATIVE:
        t_minus = _threshold(s + up, 1) if grid else s + up
        t_plus = None if t_minus is None else t_minus + margin
    else:
        t_minus = _threshold(s - down - 0.25, -1) if grid else s - down - 0.25
        t_plus = _threshold(s + up + 0.25, 1) if grid else s + up + 0.25
    if t_minus is None or t_plus is None:
        return None
    return RejectClassifier(model, t_minus, t_plus), instance


def test_first_fit_keeps_the_frozen_walks_sets():
    # The numpy first fit against the scalar walk it replaced, from one
    # feature to past the widest benchmark row, for every label; the widths
    # around 64 cross between its numpy rounds and its scalar tail.
    rng = np.random.default_rng(29)
    widths = (1, 2, 3, 7, 30, 63, 64, 65, 66, 130, 200, 1000, 4096, 20_000)
    labels = collections.Counter()
    for n in widths:
        for i in range(12 if n <= 1000 else 3):
            case = _walk_case(rng, n, (Label.POSITIVE, Label.NEGATIVE, Label.REJECT)[i % 3], i % 2 == 0)
            if case is None:
                continue
            problem = cover_problem(*case)
            labels[problem.label] += 1
            new, old = deletion_explanation(problem), deletion_reference.deletion_explanation(problem)
            assert np.array_equal(new.index_array, old.index_array), (n, i, problem.label)
            assert new.kind is old.kind and not new.certified_minimum
    assert min(labels[label] for label in Label) >= 30, labels


def test_first_fit_keeps_the_frozen_walks_sets_on_threshold_rows():
    rng = np.random.default_rng(37)
    for i in range(400):
        clf, instance = boundary_case(rng, i % 4)
        problem = cover_problem(clf, instance)
        assert np.array_equal(
            deletion_explanation(problem).index_array,
            deletion_reference.deletion_explanation(problem).index_array,
        ), (i, BOUNDARY_CASES[i % 4])


def test_first_fit_keeps_the_frozen_walks_sets_past_its_round_limit():
    # Gains 1, b_0, 1, b_1, ... with b_j half a unit above what is left once
    # j + 1 ones are dropped: each numpy round drops one 1 and keeps one b,
    # so the walk runs out of rounds and finishes one feature at a time.
    m = 2000
    weights = np.ones(2 * m)
    weights[1::2] = m + 0.25 - np.arange(m)
    model = LinearModel(weights, 0.0, unit_box(2 * m))
    instance = Instance(np.ones(2 * m))
    t_plus = float(weights.sum()) - (m + 0.75) + DEFAULT_EPSILON
    problem = cover_problem(RejectClassifier(model, t_plus - 1.0, t_plus), instance)
    assert problem.label is Label.POSITIVE
    new = deletion_explanation(problem)
    assert np.array_equal(new.index_array, deletion_reference.deletion_explanation(problem).index_array)
    assert new.indices == tuple(range(1, 2 * m, 2))
