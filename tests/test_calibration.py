import itertools

import numpy as np
import pytest

from minaxp import (
    RiskConfig,
    TrainConfig,
    calibrate_thresholds,
    candidate_grid,
    evaluate_risk,
    train_logistic,
)


class TestEvaluateRisk:
    def test_all_correct_no_rejections(self):
        report = evaluate_risk([-2, -1, 1, 2], [-1, -1, 1, 1], -0.5, 0.5, RiskConfig(0.24))
        assert report.error_ratio == 0.0
        assert report.rejection_ratio == 0.0
        assert report.empirical_risk == 0.0

    def test_everything_rejected(self):
        report = evaluate_risk([-0.1, 0.0, 0.1], [-1, 1, 1], -1.0, 1.0, RiskConfig(0.24))
        assert report.error_ratio == 0.0
        assert report.rejection_ratio == 1.0
        assert report.empirical_risk == pytest.approx(0.24)

    def test_hand_counted_band(self):
        report = evaluate_risk([-2, 0.5, 2], [-1, -1, 1], -1.0, 1.0, RiskConfig(0.24))
        assert report.rejection_ratio == pytest.approx(1 / 3)
        assert report.error_ratio == 0.0
        assert report.empirical_risk == pytest.approx(0.24 / 3)

    def test_threshold_order_enforced(self):
        with pytest.raises(ValueError):
            evaluate_risk([0.0, 1.0], [-1, 1], 1.0, 1.0, RiskConfig(0.5))

    def test_identity_holds_exactly(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            m = int(rng.integers(2, 60))
            scores = rng.normal(0, 1, m)
            labels = rng.choice([-1, 1], m)
            t = np.sort(rng.normal(0, 1, 2))
            if t[0] == t[1]:
                continue
            wr = float(rng.uniform(0.01, 1.0))
            report = evaluate_risk(scores, labels, t[0], t[1], RiskConfig(wr))
            assert abs(
                report.empirical_risk - (report.error_ratio + wr * report.rejection_ratio)
            ) <= 1e-12


class TestCalibrate:
    def test_separable_scores_reach_zero_risk(self):
        report = calibrate_thresholds([-2, -1, 1, 2], [-1, -1, 1, 1], RiskConfig(0.24))
        assert report.empirical_risk == 0.0
        assert report.error_ratio == 0.0 and report.rejection_ratio == 0.0
        # narrowest zero-risk band sits inside the (-1, 1) gap
        assert -1 < report.t_minus < report.t_plus < 1

    def test_unit_rejection_cost_never_rejects_separable(self):
        report = calibrate_thresholds([-2, -1, 1, 2], [-1, -1, 1, 1], RiskConfig(1.0))
        assert report.rejection_ratio == 0.0
        assert report.empirical_risk == 0.0

    def test_identical_scores_pick_cheaper_of_two_extremes(self):
        # reject all costs wr; classify-all costs the minority fraction
        expensive_minority = calibrate_thresholds([0.5] * 10, [-1] * 3 + [1] * 7, RiskConfig(0.24))
        assert expensive_minority.empirical_risk == pytest.approx(0.24)
        assert expensive_minority.rejection_ratio == 1.0
        cheap_minority = calibrate_thresholds([0.5] * 10, [-1] * 2 + [1] * 8, RiskConfig(0.24))
        assert cheap_minority.empirical_risk == pytest.approx(0.2)
        assert cheap_minority.rejection_ratio == 0.0

    def test_single_class_is_degenerate(self):
        with pytest.raises(ValueError, match="both classes"):
            calibrate_thresholds([0.1, 0.2], [1, 1], RiskConfig(0.24))

    def test_matches_exhaustive_grid_minimum(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            m = int(rng.integers(4, 40))
            scores = np.round(rng.normal(0, 1, m), 2)  # rounding forces ties
            labels = rng.choice([-1, 1], m)
            if np.unique(labels).size < 2:
                continue
            wr = float(rng.uniform(0.05, 1.0))
            config = RiskConfig(wr)
            report = calibrate_thresholds(scores, labels, config)
            grid = candidate_grid(scores)
            best = min(
                evaluate_risk(scores, labels, a, b, config).empirical_risk
                for a, b in itertools.combinations(grid, 2)
            )
            assert report.empirical_risk == pytest.approx(best, abs=1e-12)

    def test_higher_rejection_cost_never_rejects_more(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            m = int(rng.integers(6, 50))
            scores = rng.normal(0, 1, m)
            labels = rng.choice([-1, 1], m)
            if np.unique(labels).size < 2:
                continue
            rates = [
                calibrate_thresholds(scores, labels, RiskConfig(wr)).rejection_ratio
                for wr in (0.05, 0.2, 0.5, 1.0)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_rejection_cost_bounds(self):
        with pytest.raises(ValueError):
            RiskConfig(0.0)
        with pytest.raises(ValueError):
            RiskConfig(1.2)


class TestTrainLogistic:
    @pytest.fixture
    def toy(self):
        X = np.array([[0.1, 0.2], [0.2, 0.1], [0.15, 0.3], [0.8, 0.9], [0.9, 0.85], [0.7, 0.8]])
        y = np.array([-1, -1, -1, 1, 1, 1])
        return X, y

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"l2": -50.0}, "l2 must be a finite number >= 0, got -50.0"),
            ({"l2": float("nan")}, "l2 must be a finite number >= 0, got nan"),
            ({"l2": float("inf")}, "l2 must be a finite number >= 0, got inf"),
            ({"learning_rate": 0.0}, "learning_rate must be a finite number > 0, got 0.0"),
            ({"learning_rate": -0.1}, "learning_rate must be a finite number > 0, got -0.1"),
            ({"learning_rate": float("inf")}, "learning_rate must be a finite number > 0, got inf"),
            ({"max_iter": -1}, "max_iter must be at least 0, got -1"),
            ({"grad_tol": -1e-6}, "grad_tol must be a finite number >= 0, got -1e-06"),
            ({"grad_tol": float("nan")}, "grad_tol must be a finite number >= 0, got nan"),
        ],
        ids=["l2-negative", "l2-nan", "l2-inf", "rate-zero", "rate-negative", "rate-inf",
             "max-iter-negative", "grad-tol-negative", "grad-tol-nan"],
    )
    def test_bad_settings_refused(self, settings, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainConfig(**settings)

    def test_boundary_settings_accepted(self):
        TrainConfig(l2=0.0, max_iter=0, grad_tol=0.0)

    def test_separable_toy_fully_learned(self, toy):
        X, y = toy
        model = train_logistic(X, y)
        predictions = np.where(X @ model.weights + model.bias > 0, 1, -1)
        assert np.array_equal(predictions, y)

    def test_single_class_rejected(self, toy):
        X, _ = toy
        with pytest.raises(ValueError, match="both"):
            train_logistic(X, np.ones(len(X)))

    def test_zero_iterations_return_zero_model(self, toy):
        X, y = toy
        model = train_logistic(X, y, TrainConfig(max_iter=0))
        np.testing.assert_array_equal(model.weights, np.zeros(2))
        assert model.bias == 0.0

    def test_nonconvergence_warns_and_returns_iterate(self, toy):
        X, y = toy
        with pytest.warns(RuntimeWarning, match="best iterate"):
            model = train_logistic(X, y, TrainConfig(max_iter=3, grad_tol=1e-15))
        assert np.all(np.isfinite(model.weights))

    def test_deterministic(self, toy):
        X, y = toy
        a = train_logistic(X, y)
        b = train_logistic(X, y)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_unit_box_domains_by_default(self, toy):
        X, y = toy
        model = train_logistic(X, y)
        np.testing.assert_array_equal(model.lower, np.zeros(2))
        np.testing.assert_array_equal(model.upper, np.ones(2))
