"""Acceptance suite: one test per exit criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the informational report.  Criteria that reference a local
Banknote file (data/banknote.csv) fall back to a seeded synthetic
four-feature dataset of the same shape when the file is absent.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from minaxp import (
    Explanation,
    ExplanationKind,
    Instance,
    Label,
    LinearModel,
    ModelBundle,
    RejectClassifier,
    RiskConfig,
    brute_force_minimum,
    calibrate_thresholds,
    candidate_grid,
    cover_problem,
    deletion_explanation,
    evaluate_risk,
    explain_instance,
    greedy_explanation,
    is_valid_explanation,
    load_model,
    predict,
    random_case,
    sampled_sufficiency_check,
    save_model,
    solve_rejection_ilp,
    train_logistic,
    unit_box,
)
from minaxp.cli import _stratified_split
from minaxp.dataio import ScalingInfo

from conftest import make_overlap_dataset

EPS = 1e-9
BANKNOTE_PATH = Path(__file__).resolve().parent.parent / "data" / "banknote.csv"


def _kind_of(clf, instance):
    return {
        Label.POSITIVE: ExplanationKind.POSITIVE,
        Label.NEGATIVE: ExplanationKind.NEGATIVE,
        Label.REJECT: ExplanationKind.REJECTION,
    }[predict(clf, instance).label]


def test_criterion_1_greedy_matches_oracle_on_classified():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    matches = 0
    total = 0
    for label in (Label.POSITIVE, Label.NEGATIVE):
        for _ in range(500):
            n = int(rng.integers(2, 13))
            clf, instance = random_case(rng, n, label)
            problem = cover_problem(clf, instance)
            assert problem.label is label
            explanation = greedy_explanation(problem)
            total += 1
            matches += int(explanation.size == brute_force_minimum(clf, instance).size)
    elapsed = time.perf_counter() - start
    assert matches == total == 1000
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1 oracle-optimality-classified: PASS ({matches}/{total} match, {elapsed:.1f}s)")


def test_criterion_2_ilp_matches_oracle_on_rejected():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    matches = 0
    optimal_flags = 0
    for _ in range(500):
        n = int(rng.integers(2, 13))
        clf, instance = random_case(rng, n, Label.REJECT)
        solution = solve_rejection_ilp(cover_problem(clf, instance))
        optimal_flags += int(solution.optimal)
        matches += int(solution.objective == brute_force_minimum(clf, instance).size)
    elapsed = time.perf_counter() - start
    assert matches == 500
    assert optimal_flags == 500
    assert elapsed < 60.0
    print(f"ACCEPTANCE 2 oracle-optimality-rejected: PASS (500/500 match, all optimal, {elapsed:.1f}s)")


def _explanation_population(rng, cases):
    """Explanations from every method over a mixed random population."""
    population = []
    for i in range(cases):
        n = int(rng.integers(2, 13))
        label = (Label.POSITIVE, Label.NEGATIVE, Label.REJECT)[i % 3]
        clf, instance = random_case(rng, n, label)
        problem = cover_problem(clf, instance)
        if label is Label.REJECT:
            solution = solve_rejection_ilp(problem)
            exact = Explanation(solution.selected, ExplanationKind.REJECTION, solution.optimal)
        else:
            exact = greedy_explanation(problem)
        population.append((clf, instance, exact))
        population.append((clf, instance, deletion_explanation(problem)))
    return population


def test_criterion_3_sufficiency_of_every_emitted_explanation():
    rng = np.random.default_rng(1003)
    population = _explanation_population(rng, 200)
    violations = 0
    for seed, (clf, instance, explanation) in enumerate(population):
        closed_form = is_valid_explanation(
            clf, instance, explanation.indices, explanation.kind
        )
        sampled = sampled_sufficiency_check(
            clf, instance, explanation.indices, explanation.kind, trials=1000, seed=seed
        )
        violations += int(not (closed_form and sampled))
    assert violations == 0
    print(f"ACCEPTANCE 3 sufficiency: PASS ({len(population)} explanations, 0 violations)")


def _run_pipeline(X, y, wr=0.24, seed=0):
    """Library-level train / calibrate / explain-both on a 70/30 split."""
    train_idx, test_idx = _stratified_split(y, 0.7, seed)
    scaling = ScalingInfo.fit(X[train_idx])
    X_scaled = scaling.transform(X)
    model = train_logistic(X_scaled[train_idx], y[train_idx])
    train_scores = X_scaled[train_idx] @ model.weights + model.bias
    risk = calibrate_thresholds(train_scores, y[train_idx], RiskConfig(wr))
    clf = RejectClassifier(model, risk.t_minus, risk.t_plus)

    records = []
    skipped = 0
    for instance_id in test_idx:
        try:
            instance = Instance.validated(model, X_scaled[instance_id])
        except ValueError:
            skipped += 1
            continue
        records.extend(explain_instance(clf, instance, int(instance_id), method="both"))
    test_scores = X_scaled[test_idx] @ model.weights + model.bias
    return {
        "clf": clf,
        "risk": risk,
        "records": records,
        "skipped": skipped,
        "test_scores": test_scores,
        "test_labels": y[test_idx],
    }


def _split_means(records, method):
    out = {}
    for split, selector in (
        ("classified", lambda r: r.kind != "REJECTION"),
        ("rejected", lambda r: r.kind == "REJECTION"),
    ):
        sizes = [r.size for r in records if r.method == method and selector(r)]
        out[split] = (float(np.mean(sizes)) if sizes else None, len(sizes))
    return out


@pytest.fixture(scope="module")
def pipeline_runs():
    datasets = {
        "synthetic-4f": make_overlap_dataset(seed=88, n_rows=600, n_features=4),
        "synthetic-10f": make_overlap_dataset(seed=89, n_rows=400, n_features=10, shift=0.08),
    }
    return {name: _run_pipeline(X, y) for name, (X, y) in datasets.items()}


def test_criterion_4_baseline_never_smaller(pipeline_runs):
    rng = np.random.default_rng(1004)
    checked = 0
    for name, run in pipeline_runs.items():
        exact_sizes = {r.instance_id: r.size for r in run["records"] if r.method == "minabro"}
        for record in run["records"]:
            if record.method == "baseline":
                assert record.size >= exact_sizes[record.instance_id], (name, record.instance_id)
                checked += 1
        for method_pair in ("classified", "rejected"):
            base_mean, base_n = _split_means(run["records"], "baseline")[method_pair]
            exact_mean, exact_n = _split_means(run["records"], "minabro")[method_pair]
            assert base_n == exact_n
            if base_n:
                assert base_mean >= exact_mean - 1e-12
    # random instances on top of the datasets
    for i in range(120):
        n = int(rng.integers(2, 13))
        label = (Label.POSITIVE, Label.NEGATIVE, Label.REJECT)[i % 3]
        clf, instance = random_case(rng, n, label)
        baseline = deletion_explanation(cover_problem(clf, instance))
        assert baseline.size >= brute_force_minimum(clf, instance).size
        checked += 1
    print(f"ACCEPTANCE 4 domination: PASS ({checked} instances, baseline >= exact everywhere)")


def test_criterion_5_rejected_sizes_reported_informationally(pipeline_runs):
    lines = []
    for name, run in pipeline_runs.items():
        means = _split_means(run["records"], "minabro")
        classified_mean, classified_n = means["classified"]
        rejected_mean, rejected_n = means["rejected"]
        lines.append(
            f"{name}: classified {classified_mean:.2f} (n={classified_n}), "
            f"rejected {rejected_mean:.2f} (n={rejected_n})"
        )
    assert lines
    print("ACCEPTANCE 5 rejected-size-tendency (informational, no gate): " + "; ".join(lines))


def test_criterion_6_greedy_scales_log_linearly():
    rng = np.random.default_rng(1006)
    sizes = [1000 * 2**k for k in range(8)]  # up to 128000
    problems = []
    for n in sizes:
        weights = rng.uniform(-1.0, 1.0, n)
        values = rng.uniform(0.0, 1.0, n)
        model = LinearModel(weights, 0.0, unit_box(n))
        base_score = float(weights @ values)
        clf = RejectClassifier(model, base_score - 2.0, base_score - 1.0)
        instance = Instance(values)
        assert predict(clf, instance).label is Label.POSITIVE
        greedy_explanation(cover_problem(clf, instance))  # warm-up
        problems.append((clf, instance))
    # Interleaved passes damp transient load; keep the best per-size median.
    medians = [float("inf")] * len(sizes)
    for _ in range(3):
        for idx, (clf, instance) in enumerate(problems):
            samples = []
            for _ in range(7):
                start = time.perf_counter()
                greedy_explanation(cover_problem(clf, instance))
                samples.append(time.perf_counter() - start)
            medians[idx] = min(medians[idx], float(np.median(samples)))
    ratios = [b / a for a, b in zip(medians, medians[1:])]
    assert all(r <= 2.5 for r in ratios), ratios
    pretty = ", ".join(f"{n}:{t * 1000:.2f}ms" for n, t in zip(sizes, medians))
    print(
        "ACCEPTANCE 6 complexity-scaling: PASS "
        f"(doubling ratios {['%.2f' % r for r in ratios]}, medians {pretty})"
    )


def test_criterion_7_calibration_matches_exhaustive_sweep():
    rng = np.random.default_rng(1007)
    identity_worst = 0.0
    for case in range(100):
        m = int(rng.integers(150, 201)) if case < 5 else int(rng.integers(4, 61))
        scores = np.round(rng.normal(0.0, 1.0, m), 2)
        labels = rng.choice([-1, 1], m)
        if np.unique(labels).size < 2:
            labels[0], labels[1] = -1, 1
        wr = float(rng.uniform(0.05, 1.0))
        config = RiskConfig(wr)
        report = calibrate_thresholds(scores, labels, config)
        identity_worst = max(
            identity_worst,
            abs(report.empirical_risk - (report.error_ratio + wr * report.rejection_ratio)),
        )

        # independent exhaustive oracle: direct boolean counts per grid point,
        # full pair matrix, then pointwise re-verification through evaluate_risk
        grid = candidate_grid(scores)
        below_all = np.array([np.count_nonzero(scores < t - EPS) for t in grid])
        above_all = np.array([np.count_nonzero(scores > t + EPS) for t in grid])
        below_pos = np.array([np.count_nonzero(scores[labels == 1] < t - EPS) for t in grid])
        above_neg = np.array([np.count_nonzero(scores[labels == -1] > t + EPS) for t in grid])
        g = grid.size
        errors = (below_pos[:, None] + above_neg[None, :]) / m
        rejected = (m - below_all[:, None] - above_all[None, :]) / m
        risks = errors + wr * rejected
        upper = np.triu_indices(g, k=1)  # pairs with t_minus < t_plus
        exhaustive_min = float(risks[upper].min())
        assert report.empirical_risk == pytest.approx(exhaustive_min, abs=1e-12)

        flat = np.argmin(risks[upper])
        i, j = upper[0][flat], upper[1][flat]
        spot = evaluate_risk(scores, labels, grid[i], grid[j], config)
        assert spot.empirical_risk == pytest.approx(float(risks[i, j]), abs=1e-12)
        for _ in range(5):
            a, b = sorted(rng.choice(g, size=2, replace=False))
            spot = evaluate_risk(scores, labels, grid[a], grid[b], config)
            assert spot.empirical_risk == pytest.approx(float(risks[a, b]), abs=1e-12)
    assert identity_worst <= 1e-12
    print(
        "ACCEPTANCE 7 calibration-exactness: PASS "
        f"(100 score sets, identity residual <= {identity_worst:.1e})"
    )


def test_criterion_8_end_to_end_with_rejection_cost_024(tmp_path):
    if BANKNOTE_PATH.exists():
        from minaxp import load_dataset

        data = load_dataset(BANKNOTE_PATH)
        X, y = data.features, data.labels
        source = str(BANKNOTE_PATH)
    else:
        X, y = make_overlap_dataset(seed=88, n_rows=600, n_features=4)
        source = "synthetic 4-feature stand-in (data/banknote.csv not present)"
    run = _run_pipeline(X, y, wr=0.24, seed=0)
    risk = run["clf"]

    rejected_records = [r for r in run["records"] if r.kind == "REJECTION"]
    assert run["clf"].t_plus > run["clf"].t_minus
    assert rejected_records, "rejection region is empty on the test split"

    exact_records = [r for r in run["records"] if r.method == "minabro"]
    assert all(r.certified_minimum for r in exact_records)
    for split in ("classified", "rejected"):
        exact_mean, n = _split_means(run["records"], "minabro")[split]
        base_mean, _ = _split_means(run["records"], "baseline")[split]
        if n:
            assert exact_mean <= base_mean + 1e-12

    scores, labels = run["test_scores"], run["test_labels"]
    accepted = (scores > run["clf"].t_plus + EPS) | (scores < run["clf"].t_minus - EPS)
    acc_without = float(np.mean(np.where(scores > 0, 1, -1) == labels))
    predicted = np.where(scores > run["clf"].t_plus + EPS, 1, -1)
    acc_with = float(np.mean(predicted[accepted] == labels[accepted])) if accepted.any() else float("nan")
    rejection_rate = 1.0 - float(np.mean(accepted))
    exact_means = _split_means(run["records"], "minabro")
    base_means = _split_means(run["records"], "baseline")
    print(
        "ACCEPTANCE 8 end-to-end (wr=0.24, no numeric gate): PASS\n"
        f"  source: {source}\n"
        f"  t_plus={run['clf'].t_plus:.4f} t_minus={run['clf'].t_minus:.4f} "
        f"width={run['clf'].t_plus - run['clf'].t_minus:.4f}\n"
        f"  test rejection rate={rejection_rate:.2%} "
        f"accuracy w/o reject={acc_without:.2%} accuracy w/ reject={acc_with:.2%}\n"
        f"  mean sizes exact: classified {exact_means['classified'][0]:.2f}, "
        f"rejected {exact_means['rejected'][0]:.2f}\n"
        f"  mean sizes baseline: classified {base_means['classified'][0]:.2f}, "
        f"rejected {base_means['rejected'][0]:.2f}\n"
        f"  skipped out-of-domain: {run['skipped']}"
    )


def test_criterion_9_round_trips_and_golden_stability(tmp_path):
    # model save -> load -> identical values
    model = LinearModel(np.array([0.12345678901234567, -2.0, 3.5]), -0.25, unit_box(3))
    scaling = ScalingInfo(mins=np.array([0.0, -1.0, 2.0]), maxs=np.array([1.0, 4.0, 9.0]))
    bundle = ModelBundle(model=model, t_minus=-0.351, t_plus=0.011, scaling=scaling)
    path = tmp_path / "model.json"
    save_model(bundle, path)
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.model.weights, model.weights)
    assert loaded.model.bias == model.bias
    np.testing.assert_array_equal(loaded.model.domains, model.domains)
    assert (loaded.t_minus, loaded.t_plus) == (bundle.t_minus, bundle.t_plus)
    np.testing.assert_array_equal(loaded.scaling.mins, scaling.mins)
    np.testing.assert_array_equal(loaded.scaling.maxs, scaling.maxs)
    # save again: byte-identical file
    second = tmp_path / "model2.json"
    save_model(loaded, second)
    assert path.read_bytes() == second.read_bytes()

    # two seeded pipeline runs produce identical reports modulo timing fields
    X, y = make_overlap_dataset(seed=90, n_rows=200, n_features=4)
    def frozen(run):
        return [
            (r.instance_id, r.label, r.score, r.kind, r.indices, r.size,
             r.certified_minimum, r.method, r.nodes, r.boundary_tight)
            for r in run["records"]
        ]
    first = _run_pipeline(X, y, seed=5)
    second_run = _run_pipeline(X, y, seed=5)
    assert frozen(first) == frozen(second_run)
    print("ACCEPTANCE 9 format-round-trips: PASS (model identity, report stable across seeded runs)")
