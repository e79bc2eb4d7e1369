"""The block step: ``explain_block`` settles and checks what whole-block
kernels can and has ``explain_instance`` explain what they left open, and
must then give every row the records, and raise the errors, that it gives
the row explained on its own."""

import collections
import dataclasses
import importlib.util
from pathlib import Path

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
    write_explanation_report,
)
from minaxp.classified import greedy_block

from conftest import BOUNDARY_CASES, boundary_case, write_csv
import per_depth_rejected

METHODS = ("minabro", "baseline", "both")

spec = importlib.util.spec_from_file_location(
    "report_diff", Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"
)
report_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_diff)


def _zeroed(records):
    return [dataclasses.replace(r, time_ms=0.0) for r in records]


def _alone(clf, X, method, **limits):
    """The records of every in-domain row of ``X`` explained on its own, the
    number of rows skipped, and the first row's error (type and message) or
    None; no row after a failing one is explained."""
    records, skipped = [], 0
    for i, x in enumerate(X):
        try:
            records += explain_instance(clf, Instance(x), i, method=method, **limits)
        except DomainError:
            skipped += 1
        except ValueError as exc:
            return records, skipped, (type(exc), str(exc))
    return records, skipped, None


def _compare(clf, X, method, **limits):
    """The rows of ``X`` explained block by block (``cli._explain_matrix``)
    and each on its own: the same records, ``time_ms`` aside, and the same
    skipped count, or the same first error.  Returns the number of sets the
    whole-block kernels settled (``explain._settle``) in every block, the
    blocks after a failing row included; each of them holds, whether or not
    a row fails.  With no error, they are the records that no call of
    ``explain.explain_instance`` made."""
    alone, skipped, error = _alone(clf, X, method, **limits)
    names = explain.method_names(method)
    settled_sets = 0
    for problems in model_module.cover_problem_blocks(clf, X):
        live = [i for i, label in enumerate(problems.labels) if label is not None]
        columns = explain._settle(problems, live, names)
        assert {len(column) for column in columns} == {len(live) * len(names)}
        for slot, idx in enumerate(columns[0]):
            if isinstance(idx, np.ndarray):
                assert problems[live[slot // len(names)]].holds(idx)
                settled_sets += 1
    made = []
    real = explain.explain_instance

    def counted(*args, **kwargs):
        records = real(*args, **kwargs)
        made.extend(records)
        return records

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(explain, "explain_instance", counted)
        try:
            columns, skipped_here = cli._explain_matrix(clf, X, method, **limits)
        except ValueError as exc:
            assert (type(exc), str(exc)) == error
            return settled_sets
    assert error is None
    records = list(map(ExplanationRecord, *columns.fields.values()))
    assert _zeroed(records) == _zeroed(alone)
    assert skipped_here == skipped
    by_own = {(r.instance_id, r.method) for r in made}
    settled = [r for r in records if (r.instance_id, r.method) not in by_own]
    assert len(settled) == len(records) - len(made) == settled_sets
    for record in settled:
        assert cover_problem(clf, Instance(X[record.instance_id])).holds(record.index_array)
    return settled_sets


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


def _narrow_band(seed, n, rows, half_band=0.125):
    """Uniform rows that score inside a narrow band of a centred unit-box
    model with uniform weights: each pins most features, and some searches
    go deeper than the depths the block step tables."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, n)
    model = LinearModel(w, -0.5 * float(w.sum()), unit_box(n))
    X = rng.uniform(0.0, 1.0, (40 * rows, n))
    return RejectClassifier(model, -half_band, half_band), X[np.abs(X @ w + model.bias) < half_band][:rows]


def _halves(seed, n, rows, half_band):
    """Weights in {0, ±0.5, ±1} and values in {0, 0.5, 1}, scoring inside the
    band: equal costs, zero gains on one side or both, and deep searches."""
    rng = np.random.default_rng(seed)
    w = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], n)
    model = LinearModel(w, -0.5 * float(w.sum()), unit_box(n))
    X = rng.integers(0, 3, (20 * rows, n)) * 0.5
    inside = np.abs(X @ w + model.bias) < half_band - 1 / 16
    return RejectClassifier(model, -half_band, half_band), X[inside][:rows]


def _search_cases():
    """Blocks of rows the block step leaves to the search: zero weights,
    equal costs, searches deeper than ``_TABLE_DEPTHS``, equal costs with
    zero gains, and few features, whose tails at the deepest tabled depths
    hold fewer values than the root bound."""
    return (
        _rows(1, 24, 400, 0.5, zero_every=7), _quarter_steps(6, 14, 400, accepted=0.1), _narrow_band(7, 200, 120),
        _halves(8, 60, 300, 3.0), _rows(3, 10, 400, 0.8),
    )


def _search_roots(clf, X):
    """``(problem, root)`` of each rejected row of ``X``'s first block that
    ``root_block`` leaves to the search, its fills checked with ``holds``
    (``SearchRoot.checked``) on every other row and left to the search on
    the rest."""
    problems = next(model_module.cover_problem_blocks(clf, X))
    rows = [i for i, p in enumerate(problems) if p is not None and p.label is Label.REJECT]
    m, block = clf.model, problems.block
    found = rejected.root_block(block[rows, 0], block[rows, 1], m.top, m.bottom, clf.t_plus, clf.t_minus)
    roots = [(problems[i], root) for i, root in zip(rows, found) if isinstance(root, rejected.SearchRoot)]
    for k, (problem, root) in enumerate(roots):
        yield problem, root.checked([problem.holds(pinned) for pinned in root.pinned]) if k % 2 else root


@pytest.mark.parametrize("node_limit", [0, 1, 7, rejected.DEFAULT_NODE_LIMIT])
def test_search_from_the_block_root_is_the_search_alone(monkeypatch, node_limit):
    # Every field of the solution but its time, the lower bound of a search
    # cut short included.
    searched, deepest = collections.Counter(), collections.Counter()
    at = rejected._TailSums.at

    def visit(sums, depth):
        deepest[id(sums)] = max(deepest[id(sums)], depth)
        return at(sums, depth)

    monkeypatch.setattr(rejected._TailSums, "at", visit)
    for case, (clf, X) in enumerate(_search_cases()):
        for problem, root in _search_roots(clf, X):
            deepest.clear()
            with_root = rejected.solve_rejection_ilp(problem, node_limit, root=root)
            alone = rejected.solve_rejection_ilp(problem, node_limit)
            frozen = per_depth_rejected.solve_rejection_ilp(problem, node_limit)
            for field in ("objective", "optimal", "nodes_explored", "lower_bound"):
                assert getattr(with_root, field) == getattr(alone, field) == getattr(frozen, field), (case, field)
            np.testing.assert_array_equal(with_root.selected, alone.selected)
            np.testing.assert_array_equal(alone.selected, frozen.selected)
            searched[case] += 1
            searched["deep"] += max(deepest.values(), default=0) > rejected._TABLE_DEPTHS
    assert min(searched[case] for case in range(5)) >= 8, searched
    if node_limit == rejected.DEFAULT_NODE_LIMIT:
        assert searched["deep"] >= 20, searched


def test_block_tables_are_the_first_tail_sums():
    # The tail sums a root carries, as _TailSums serves them at each tabled
    # depth, are the first K (the root bound) of the running sums of the
    # whole sorted tail there, family by family; a tail shorter than K
    # keeps them all.
    tables = short = 0
    for clf, X in _search_cases():
        for problem, root in _search_roots(clf, X):
            m, budgets = root.order.size, (root.budget_up, root.budget_down)
            lam = budgets[0] / budgets[1] if min(budgets) > 0.0 else 1.0
            gains = problem.gain_up[root.order], problem.gain_down[root.order]
            values = np.stack(tuple(rejected._families(*gains, lam)))
            served = rejected._TailSums(values, root.bound, root.tables)
            assert len(root.tables) == min(rejected._TABLE_DEPTHS, m - 1)
            for depth in range(1, len(root.tables) + 1):
                whole = np.add.accumulate(np.sort(values[:, depth:], axis=1), axis=1)
                for family, (table, sums) in enumerate(zip(served.at(depth), whole)):
                    assert table == sums[: root.bound].tolist(), (depth, family)
                short += m - depth < root.bound
            assert list(served.chunks) == [1]
            tables += 1
    assert tables >= 100 and short >= 100, (tables, short)


def test_settle_keeps_only_the_fills_that_hold(monkeypatch):
    # The block's one check drops a root's fill whose pinned set fails
    # CoverProblem.holds: here each root's first fill pins nothing, which no
    # rejected row's need allows, so only its second fill is left.
    clf, X = _rows(1, 24, 400, 0.5, zero_every=7)
    problems = next(model_module.cover_problem_blocks(clf, X))
    broken = {}

    def first_fill_pins_nothing(*args):
        found = root_block(*args)
        for k, root in enumerate(found):
            if isinstance(root, rejected.SearchRoot):
                found[k] = dataclasses.replace(root, pinned=[np.empty(0, np.intp), root.pinned[1]])
                broken[id(root.order)] = root
        return found

    root_block = explain.root_block
    monkeypatch.setattr(explain, "root_block", first_fill_pins_nothing)
    live = [i for i, label in enumerate(problems.labels) if label is not None]
    kept = 0
    for k, root in enumerate(explain._settle(problems, live, ("minabro",))[0]):
        if isinstance(root, rejected.SearchRoot):
            own = broken[id(root.order)]
            assert problems[live[k]].holds(own.pinned[1])
            assert root.fills == [own.fills[1]] and root.pinned is None
            kept += 1
    assert kept >= 20


def test_search_takes_no_unchecked_fill_that_fails():
    # A root not yet checked whose first fill frees every feature, which no
    # rejected row's need allows: the search checks it, drops it and finds
    # what it finds alone.
    roots = 0
    for problem, root in _search_roots(*_rows(1, 24, 400, 0.5, zero_every=7)):
        if root.pinned is None:
            continue
        everything = list(range(root.order.size))
        alone = rejected.solve_rejection_ilp(problem)
        broken = dataclasses.replace(root, fills=[everything, root.fills[1]])
        broken = rejected.solve_rejection_ilp(problem, root=broken)
        assert problem.holds(broken.selected)
        assert (broken.objective, broken.optimal) == (alone.objective, alone.optimal)
        roots += 1
    assert roots >= 8


def test_block_tables_within_the_byte_budget(monkeypatch):
    # With a byte budget that keeps the first five searched rows' tables
    # and builds them a row at a time, those five are the tables built for
    # the whole block, and the rows past it, searched with no tables, give
    # the search alone.
    clf, X = _narrow_band(7, 200, 120)
    whole = list(_search_roots(clf, X))
    assert len(whole) >= 8
    per_sum = 32 * rejected._TABLE_DEPTHS
    monkeypatch.setattr(rejected, "_BLOCK_BYTES", per_sum * sum(root.bound for _, root in whole[:5]))
    budgeted = list(_search_roots(clf, X))
    assert [root.tables for _, root in budgeted[5:]] == [None] * (len(whole) - 5)
    for (_, a), (_, b) in zip(whole[:5], budgeted):
        assert b.tables.base is None and a.tables.tolist() == b.tables.tolist()
    for problem, root in budgeted[5:]:
        with_root, alone = rejected.solve_rejection_ilp(problem, root=root), rejected.solve_rejection_ilp(problem)
        assert (with_root.objective, with_root.nodes_explored) == (alone.objective, alone.nodes_explored)
        np.testing.assert_array_equal(with_root.selected, alone.selected)


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
    blocks = [len(problems) for problems in model_module.cover_problem_blocks(clf, X)]
    assert blocks[:3] == [per_block] * 3
    assert (_compare(clf, X, method) > 0) is (size == "the constant")


def test_settled_records_keep_the_kernels_index_arrays(monkeypatch):
    # A settled record holds the very array its kernel made, and as time_ms
    # its kernel's time split evenly over the rows it ran on; a row that then
    # runs its own explainer adds that explainer's time to its share.
    clf, X = _rows(1, 24, 100, 0.5)
    made, own = {"minabro": [], "baseline": []}, set()

    def kept_by(method, kernel):
        def run(*args):
            sets = kernel(*args)
            made[method] += sets
            return sets
        return run

    def explained(*args):
        records = real_instance(*args)
        own.update((r.instance_id, r.method) for r in records)
        return records

    for name, method in (("greedy_block", "minabro"), ("root_block", "minabro"), ("deletion_block", "baseline")):
        monkeypatch.setattr(explain, name, kept_by(method, getattr(explain, name)))
    real_instance = explain.explain_instance
    monkeypatch.setattr(explain, "explain_instance", explained)
    columns, _ = cli._explain_matrix(clf, X, "both")
    shares = collections.defaultdict(set)  # each kernel's settled times
    kept = 0
    records = list(zip(*map(columns.fields.get, ("instance_id", "method", "label", "indices", "time_ms"))))
    for i, method, label, idx, time_ms in records:
        if (i, method) not in own:
            assert any(idx is found for found in made[method])
            shares[method, label if method == "minabro" else None].add(time_ms)
            kept += 1
    assert kept > 150
    assert all(len(times) == 1 and min(times) > 0.0 for times in shares.values()), shares
    for i, method, label, _, time_ms in records:
        share = shares.get((method, label if method == "minabro" else None))
        if (i, method) in own and share:
            assert time_ms > min(share)


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


def _cli_against_rows(tmp_path, capsys, clf, X, command="explain", method="both", node_limit=None,
                      limit=None, repeats=None):
    """``minaxp COMMAND`` on the rows ``X`` against each row explained on its
    own with ``explain_instance`` and written by ``write_explanation_report``:
    the same report, timing fields aside, or the same exit 2 and message."""
    model, data = tmp_path / "model.json", tmp_path / "rows.csv"
    save_model(ModelBundle(clf.model, clf.t_minus, clf.t_plus), model)
    write_csv(data, X, np.ones(X.shape[0], dtype=int))
    report, expected_report = tmp_path / "report.jsonl", tmp_path / "expected.jsonl"
    argv = [command, "--model", str(model), "--data", str(data), "--method", method, "--out-report", str(report)]
    limits = {}
    if node_limit is not None:
        argv += ["--node-limit", str(node_limit)]
        limits["node_limit"] = node_limit
    argv += [] if limit is None else ["--limit", str(limit)]
    argv += [] if repeats is None else ["--repeats", str(repeats)]
    alone, skipped, error = _alone(clf, X[:limit], method, **limits)
    capsys.readouterr()
    code = cli.main(argv)
    stderr = capsys.readouterr().err
    if error is not None:
        assert (code, stderr) == (cli.EXIT_INPUT_ERROR, f"error: {error[1]}\n")
        return None
    assert code == 0, stderr
    note = None
    if command == "benchmark" and repeats == 1:
        note = "single repeat: per-instance timing spread undefined, medians equal the one sample"
    write_explanation_report(alone, expected_report, skipped_out_of_domain=skipped, note=note)
    lines = [path.read_text().splitlines() for path in (expected_report, report)]
    assert report_diff.first_difference(*lines) is None
    return collections.Counter(record.label for record in alone)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("options", [
    {}, {"node_limit": 0}, {"node_limit": 1}, {"limit": 150},
    {"command": "benchmark", "repeats": 2}, {"command": "benchmark", "repeats": 1},
], ids=["explain", "node-limit-0", "node-limit-1", "limit", "benchmark-repeats-2", "benchmark-repeats-1"])
def test_cli_report_equals_the_rows_explained_alone(tmp_path, capsys, method, options):
    # All three labels and every solver path, with rows outside the domains
    # inside the block, ahead of the limit and behind it.
    clf, X = _rows(1, 24, 400, 0.5, zero_every=7)
    X[[0, 77, 149, 150, 301], [3, 0, 11, 6, 23]] = [1.5, -0.25, 2.0, 1.0 + 1e-9, -1e-9]
    labels = _cli_against_rows(tmp_path, capsys, clf, X, method=method, **options)
    assert min(labels[label.value] for label in Label) >= 20, labels


@pytest.mark.parametrize("case", range(len(BOUNDARY_CASES)), ids=BOUNDARY_CASES)
def test_cli_report_equals_the_rows_explained_alone_on_boundary_rows(tmp_path, capsys, monkeypatch, case):
    # A row on a threshold, at three places in a block of rows drawn over the
    # same domains: the CLI writes the rows' own records or stops at the
    # row's own error.  Some of the block's sets fail its check, and their
    # rows go to their own explainers.
    failed = []
    real = explain.block_verdicts

    def counted(*args):
        holds, tight = real(*args)
        failed.append(int(np.count_nonzero(~holds)))
        return holds, tight

    monkeypatch.setattr(explain, "block_verdicts", counted)
    rng = np.random.default_rng(23 + case)
    outcomes = collections.Counter()
    for _ in range(12):
        clf, instance = boundary_case(rng, case)
        X = rng.uniform(0.0, 1e4, (2 * explain._BLOCK_ROWS, instance.values.size))
        X[[3, 40, 63]] = instance.values
        outcomes[_cli_against_rows(tmp_path, capsys, clf, X) is None] += 1
    assert outcomes[False] >= 3 and sum(failed) >= 3, (outcomes, failed)


@pytest.mark.parametrize("case", range(len(BOUNDARY_CASES)), ids=BOUNDARY_CASES)
def test_block_verdicts_equal_the_verdict_on_boundary_rows(case):
    # Every set size, on rows whose bounds round by more than the tolerance:
    # each (holds, tight) pair of the block check is the row's own.
    rng = np.random.default_rng(31 + case)
    seen = collections.Counter()
    for _ in range(100):
        clf, instance = boundary_case(rng, case)
        n = instance.values.size
        problems = next(model_module.cover_problem_blocks(clf, np.tile(instance.values, (3, 1))))
        block = problems.block
        sets = [np.arange(n), np.empty(0, dtype=np.intp)] + [
            np.sort(rng.choice(n, size, replace=False)) for size in rng.integers(0, n + 1, 10)
        ]
        rows = rng.integers(0, 3, len(sets))
        problem = problems[0]
        holds, tight = model_module.block_verdicts(
            block, rows, sets, np.full(len(sets), problem.ceiling), np.full(len(sets), problem.floor),
            problem.top, problem.bottom,
        )
        for idx, verdict in zip(sets, zip(holds.tolist(), tight.tolist())):
            assert verdict == problem.verdict(idx)
            seen[verdict] += 1
    assert len(seen) >= 3, seen
