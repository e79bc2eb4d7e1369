"""The block step: ``explain_block`` settles what whole-block kernels can,
and ``explain_instance`` must then give every row the records, and raise
the errors, that it gives the row explained on its own."""

import collections
import dataclasses

import numpy as np
import pytest

import minaxp.cli as cli
import minaxp.explain as explain
import minaxp.model as model_module
import minaxp.rejected as rejected
from minaxp import (
    DEFAULT_EPSILON,
    DomainError,
    ExplanationRecord,
    Instance,
    Label,
    LinearModel,
    ModelBundle,
    RejectClassifier,
    cover_problem,
    explain_instance,
    save_model,
    unit_box,
)
from minaxp.classified import greedy_block

from conftest import BOUNDARY_CASES, boundary_case, write_csv

METHODS = ("minabro", "baseline", "both")


def _outcome(call):
    """The records of ``call()`` with ``time_ms`` zeroed, or its error."""
    try:
        return [dataclasses.replace(r, time_ms=0.0) for r in call()]
    except ValueError as exc:
        return type(exc), str(exc)


def _compare(clf, X, method, **limits):
    """Each in-domain row of ``X`` explained through its block and on its
    own; returns the number of records the block settled."""
    settled_records = 0
    instance_id = 0
    for block, problems in model_module.cover_problem_blocks(clf, X):
        settled = explain.explain_block(block, problems, method)
        assert len(settled) == len(problems)
        for problem, found in zip(problems, settled):
            alone = _outcome(lambda: explain_instance(
                clf, Instance(X[instance_id]), instance_id, method=method, **limits))
            if problem is None:
                assert alone[0] is DomainError
            else:
                got = _outcome(lambda: explain_instance(
                    clf, problem, instance_id, method=method, settled=found, **limits))
                assert got == alone, instance_id
                settled_records += sum(
                    isinstance(idx, np.ndarray) and problem.holds(idx) for idx, *_ in found.values()
                )
            instance_id += 1
    return settled_records


def _rows(seed, n, rows, half_band, zero_every=0):
    """A centred unit-box model with band ``[-half_band, half_band]`` and
    uniform rows; every ``zero_every``-th weight is 0 (an inactive feature)."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, n)
    if zero_every:
        w[::zero_every] = 0.0
    clf = RejectClassifier(LinearModel(w, -0.5 * float(w.sum()), unit_box(n)), -half_band, half_band)
    return clf, rng.uniform(0.0, 1.0, (rows, n))


def _quarter_steps(seed, n, rows, accepted=0.7):
    """Quarter-step weights and values: exact sums and many equal gains.
    About ``accepted`` of the rows score outside the band."""
    rng = np.random.default_rng(seed)
    model = LinearModel(rng.integers(-4, 5, n) * 0.5, 0.0, unit_box(n))
    X = rng.integers(0, 5, (rows, n)) * 0.25
    # Thresholds on sixteenths, between the eighths that scores fall on.
    quantiles = [accepted / 2, 1 - accepted / 2]
    t_minus, t_plus = np.round(np.quantile(X @ model.weights, quantiles) * 8) / 8 + 1 / 16
    return RejectClassifier(model, t_minus, t_plus), X


@pytest.mark.parametrize("method", METHODS)
def test_accepted_rows_with_ties_at_the_kth_gain(method):
    clf, X = _quarter_steps(3, 10, 300)
    labels = collections.Counter(cover_problem(clf, Instance(x)).label for x in X)
    assert labels[Label.POSITIVE] >= 50 and labels[Label.NEGATIVE] >= 50
    ties = 0
    for x in X:
        problem = cover_problem(clf, Instance(x))
        if problem.label is Label.POSITIVE:
            (idx,) = greedy_block(problem.gain_down[None, :], problem.need_down)
            kth = problem.gain_down[idx].min() if idx.size else None
            ties += kth is not None and np.count_nonzero(problem.gain_down == kth) > np.count_nonzero(
                problem.gain_down[idx] == kth)
    assert ties >= 10  # some k-th gain is shared with a feature left out
    assert _compare(clf, X, method) > 0


@pytest.mark.parametrize("method", METHODS)
def test_accepted_rows_whose_need_is_within_eps(method):
    # The worst case with nothing pinned already sits on t_plus (or t_minus)
    # within the tolerance: every positive (negative) row takes the empty set.
    rng = np.random.default_rng(4)
    model = LinearModel(rng.uniform(-1.0, 1.0, 6), 0.0, unit_box(6))
    X = rng.uniform(0.0, 1.0, (80, 6))
    for t_minus, t_plus in ((model.bottom - 10.0, model.bottom + 0.5 * DEFAULT_EPSILON),
                            (model.top - 0.5 * DEFAULT_EPSILON, model.top + 10.0)):
        clf = RejectClassifier(model, t_minus, t_plus)
        assert _compare(clf, X, method) >= X.shape[0]
        records = explain_instance(clf, Instance(X[0]), 0, method="minabro")
        assert records[0].size == 0


def test_margin_not_coverable_rows_are_refused_as_alone():
    # Rows on a threshold whose greedy sums fall short of the need: the block
    # leaves them open and each is refused with its own greedy's message,
    # the 13 that test_explain's boundary test counts (where the full set
    # holds) included.
    rng = np.random.default_rng(17)
    refused = collections.Counter()
    for i in range(480):
        clf, instance = boundary_case(rng, i % 4)
        X = np.tile(instance.values, (explain._BLOCK_ROWS, 1))
        try:
            explain_instance(clf, instance, 0, method="both")
        except ValueError as exc:
            if "not coverable" in str(exc):
                problem = cover_problem(clf, instance)
                refused[bool(problem.holds(np.arange(problem.gain_up.size)))] += 1
        _compare(clf, X, "both")
    assert refused[True] == 13 and refused[False] > 0, refused


def _rejection_paths(monkeypatch, clf, X):
    """How each rejected row's own solver ends: ``root 0`` (no fill),
    ``first fill``, ``second fill`` or ``branching``."""
    fills = []
    real = rejected._first_fit
    monkeypatch.setattr(rejected, "_first_fit", lambda *a: fills.append(1) or real(*a))
    paths = collections.Counter()
    for x in X:
        problem = cover_problem(clf, Instance(x))
        if problem.label is not Label.REJECT:
            continue
        fills.clear()
        nodes = rejected.solve_rejection_ilp(problem).nodes_explored
        paths["branching" if nodes else ("root 0", "first fill", "second fill")[len(fills)]] += 1
    monkeypatch.undo()
    return paths


@pytest.mark.parametrize("method", METHODS)
def test_rejected_rows_on_every_solver_path(monkeypatch, method):
    clf, X = _rows(1, 24, 400, 0.5, zero_every=7)
    paths = _rejection_paths(monkeypatch, clf, X)
    assert min(paths[p] for p in ("root 0", "first fill", "second fill", "branching")) >= 3, paths
    assert _compare(clf, X, method) > 0


@pytest.mark.parametrize("method", METHODS)
def test_rejected_rows_whose_score_range_lies_inside_the_band(method):
    # Nothing pinned already keeps every score in the band: the block's root
    # gives each row the empty set without looking at its gains.
    clf, X = _rows(9, 12, 2 * explain._BLOCK_ROWS, 0.5)
    clf = RejectClassifier(clf.model, clf.model.bottom - 1.0, clf.model.top + 1.0)
    assert _compare(clf, X, method) >= X.shape[0]
    for i, x in enumerate(X):
        record = explain_instance(clf, Instance(x), i)[0]
        assert (record.indices, record.certified_minimum, record.nodes) == ((), True, 0)


@pytest.mark.parametrize("method", METHODS)
def test_rejected_rows_with_equal_costs(monkeypatch, method):
    # Quarter steps: equal costs in the branch order, equal surrogate values
    # in the second fill's, and sums that land exactly on a bound.
    clf, X = _quarter_steps(6, 14, 400, accepted=0.1)
    paths = _rejection_paths(monkeypatch, clf, X)
    assert min(paths[p] for p in ("first fill", "second fill", "branching")) >= 3, paths
    assert _compare(clf, X, method) > 0


@pytest.mark.parametrize("node_limit", [0, 1, 7, rejected.DEFAULT_NODE_LIMIT])
def test_search_from_the_block_root_is_the_search_alone(node_limit):
    # Every field of the solution but its time, the lower bound of a search
    # cut short included.
    searched = 0
    for clf, X in (_rows(1, 24, 400, 0.5, zero_every=7), _quarter_steps(6, 14, 400, accepted=0.1)):
        block, problems = next(model_module.cover_problem_blocks(clf, X))
        rows = [i for i, p in enumerate(problems) if p is not None and p.label is Label.REJECT]
        m = clf.model
        found = rejected.root_block(block[rows, 0], block[rows, 1], m.top, m.bottom, clf.t_plus, clf.t_minus)
        for i, root in zip(rows, found):
            if isinstance(root, rejected.SearchRoot):
                with_root = rejected.solve_rejection_ilp(problems[i], node_limit, root=root)
                alone = rejected.solve_rejection_ilp(problems[i], node_limit)
                for field in ("objective", "optimal", "nodes_explored", "lower_bound"):
                    assert getattr(with_root, field) == getattr(alone, field), (i, field)
                np.testing.assert_array_equal(with_root.selected, alone.selected)
                searched += 1
    assert searched >= 20


@pytest.mark.parametrize("limits", [{"node_limit": 0}, {"node_limit": 1}, {"time_limit": 0.0}],
                         ids=["node-limit-0", "node-limit-1", "time-limit-0"])
def test_search_limits(limits):
    clf, X = _rows(1, 24, 400, 0.5, zero_every=7)
    assert _compare(clf, X, "both", **limits) > 0


@pytest.mark.parametrize("method", METHODS)
def test_out_of_domain_rows_inside_a_block(method):
    clf, X = _rows(2, 12, 200, 0.4)
    X[[0, 5, 77, 199], [3, 0, 11, 6]] = [1.5, -0.25, 2.0, 1.0 + 1e-9]
    assert _compare(clf, X, method) > 0


@pytest.mark.parametrize("size", ["one row", "one below the constant", "the constant"])
@pytest.mark.parametrize("method", METHODS)
def test_block_sizes(monkeypatch, method, size):
    n = 12
    per_block = {"one row": 1, "one below the constant": explain._BLOCK_ROWS - 1,
                 "the constant": explain._BLOCK_ROWS}[size]
    monkeypatch.setattr(model_module, "_BLOCK_BYTES", per_block * 4 * 8 * n)
    clf, X = _rows(5, n, 3 * per_block + 1, 0.6)
    blocks = [len(problems) for _, problems in model_module.cover_problem_blocks(clf, X)]
    assert blocks[:3] == [per_block] * 3
    assert (_compare(clf, X, method) > 0) is (size == "the constant")


def test_settled_records_keep_the_kernels_index_arrays():
    clf, X = _rows(1, 24, 100, 0.5)
    block, problems = next(model_module.cover_problem_blocks(clf, X))
    settled = explain.explain_block(block, problems, "both")
    for i, (problem, found) in enumerate(zip(problems, settled)):
        for record in explain_instance(clf, problem, i, method="both", settled=found):
            idx = found[record.method][0]
            if isinstance(idx, np.ndarray) and problem.holds(idx):
                assert record.index_array is idx
                assert record.time_ms == found[record.method][3]


def test_index_field_keeps_a_flat_intp_array_and_converts_the_rest():
    spec = dict(instance_id=0, label="POSITIVE", score=0.5, kind="POSITIVE", size=2,
                certified_minimum=True, method="minabro", time_ms=1.0)
    kept = np.array([1, 4], dtype=np.intp)
    assert ExplanationRecord(indices=kept, **spec).index_array is kept
    for given in ((1, 4), [1, 4], np.array([1, 4], dtype=np.int32)):
        record = ExplanationRecord(indices=given, **spec)
        assert record.index_array.dtype == np.intp and record.indices == (1, 4)
    for bad in ((1.0, 4.0), (True, False), np.array([[1, 4]]), np.array([1.0, 4.0])):
        with pytest.raises(ValueError):
            ExplanationRecord(indices=bad, **spec)


@pytest.mark.parametrize("case", [2, 3], ids=["positive", "negative"])
def test_accepted_verdict_equals_the_two_sided_formula(case):
    rng = np.random.default_rng(8)
    eps = DEFAULT_EPSILON
    checked = collections.Counter()
    for _ in range(300):
        clf, instance = boundary_case(rng, case)
        problem = cover_problem(clf, instance)
        assert problem.label.value == BOUNDARY_CASES[case]
        n = problem.gain_up.size
        for idx in (np.arange(n), np.sort(rng.choice(n, int(rng.integers(0, n + 1)), replace=False))):
            smax, smin = problem.bounds(idx)
            two_sided = (
                smax <= problem.ceiling + eps and smin >= problem.floor - eps,
                abs(smax - problem.ceiling) <= eps or abs(smin - problem.floor) <= eps,
            )
            verdict = problem.verdict(idx)
            assert verdict == two_sided
            checked[verdict] += 1
    assert len(checked) >= 2, checked


def test_failing_row_exits_2_with_its_own_error(tmp_path, capsys):
    # A margin-not-coverable row among good ones, deep inside a block that
    # the block step explains: the CLI stops at it with its own message.
    rng = np.random.default_rng(17)
    for _ in range(200):
        clf, instance = boundary_case(rng, 2)
        try:
            explain_instance(clf, instance, 0)
        except ValueError as exc:
            if "not coverable" in str(exc):
                break
    else:
        pytest.fail("no margin-not-coverable row in 200")
    n = clf.model.n_features
    X = rng.uniform(0.0, 1e4, (60, n))
    X[41] = instance.values
    expected = None
    for i, row in enumerate(X):
        try:
            explain_instance(clf, Instance(row), i, method="both")
        except ValueError as exc:
            expected = str(exc)
            break
    assert expected is not None and expected.startswith("instance 41: ")
    model, data, report = tmp_path / "model.json", tmp_path / "rows.csv", tmp_path / "r.jsonl"
    save_model(ModelBundle(clf.model, clf.t_minus, clf.t_plus), model)
    write_csv(data, X, np.ones(X.shape[0], dtype=int))
    code = cli.main(["explain", "--model", str(model), "--data", str(data), "--method", "both",
                     "--out-report", str(report)])
    assert code == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not report.exists()
