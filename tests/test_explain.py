import collections
import dataclasses

import numpy as np
import pytest

import minaxp.model as model_module
from minaxp import (
    DEFAULT_EPSILON,
    Explanation,
    ExplanationKind,
    ExplanationRecord,
    IlpSolution,
    Instance,
    Label,
    LabelMismatchError,
    LinearModel,
    RejectClassifier,
    brute_force_minimum,
    cover_problem,
    deletion_explanation,
    explain_instance,
    greedy_explanation,
    predict,
    random_case,
    solve_rejection_ilp,
    unit_box,
)

from conftest import BOUNDARY_CASES, boundary_case


def _reference_tight(clf, instance, explanation, eps):
    """Boundary tightness from the score bounds, the kind tested per call."""
    smax, smin = cover_problem(clf, instance).bounds(explanation.indices)
    if explanation.kind is ExplanationKind.POSITIVE:
        return abs(smin - clf.t_plus) <= eps
    if explanation.kind is ExplanationKind.NEGATIVE:
        return abs(smax - clf.t_minus) <= eps
    return abs(smax - clf.t_plus) <= eps or abs(smin - clf.t_minus) <= eps


def _reference_explain(clf, instance, instance_id, method, eps=DEFAULT_EPSILON):
    """``explain_instance`` as a composition of the public explainers, each
    called on a problem built again from ``(clf, instance)``."""
    pred = predict(clf, instance)

    def record(explanation, name, nodes):
        return ExplanationRecord(
            instance_id=instance_id,
            label=pred.label.value,
            score=pred.score,
            kind=explanation.kind.value,
            indices=explanation.indices,
            size=explanation.size,
            certified_minimum=explanation.certified_minimum,
            method=name,
            time_ms=0.0,
            nodes=nodes,
            boundary_tight=_reference_tight(clf, instance, explanation, eps),
        )

    records = []
    if method in ("minabro", "both"):
        nodes = None
        if pred.label is not Label.REJECT:
            explanation = greedy_explanation(cover_problem(clf, instance))
        else:
            problem = cover_problem(clf, instance)
            solution = solve_rejection_ilp(problem)
            explanation = Explanation(solution.selected, ExplanationKind.REJECTION, solution.optimal)
            nodes = solution.nodes_explored
        records.append(record(explanation, "minabro", nodes))
    if method in ("baseline", "both"):
        records.append(record(deletion_explanation(cover_problem(clf, instance)), "baseline", None))
    return records


def _quarter_step_case(rng, n, label):
    # Quarter steps are exact in binary, so bounds land exactly on thresholds.
    model = LinearModel(rng.integers(-4, 5, n) * 0.5, 0.0, unit_box(n))
    instance = Instance(rng.integers(0, 5, n) * 0.25)
    score = float(model.weights @ instance.values)
    low, high = 0.25 * rng.integers(1, 5, 2)
    t_minus, t_plus = {
        Label.POSITIVE: (score - low - high, score - low),
        Label.NEGATIVE: (score + low, score + low + high),
        Label.REJECT: (score - low, score + high),
    }[label]
    return RejectClassifier(model, t_minus, t_plus), instance


def test_matches_the_composition_of_public_explainers():
    rng = np.random.default_rng(5)
    tight = 0
    for i in range(400):
        n = int(rng.integers(2, 13))
        label = (Label.POSITIVE, Label.NEGATIVE, Label.REJECT)[i % 3]
        if i % 2:
            clf, instance = random_case(rng, n, label)
        else:
            clf, instance = _quarter_step_case(rng, n, label)
        assert predict(clf, instance).label is label
        method = ("minabro", "baseline", "both")[(i // 3) % 3]
        got = explain_instance(clf, instance, i, method=method)
        want = _reference_explain(clf, instance, i, method)
        assert [dataclasses.replace(r, time_ms=0.0) for r in got] == want, (i, got, want)
        for record in got:
            if record.method == "minabro":
                assert record.size == brute_force_minimum(clf, instance).size
            tight += record.boundary_tight
    assert tight > 0  # the quarter-step cases reach the thresholds


def test_both_methods_validate_the_instance_once(monkeypatch, band_case):
    clf, instance = band_case
    calls = []
    real = model_module.validate_instance

    def counting(model, inst):
        calls.append(inst)
        return real(model, inst)

    monkeypatch.setattr(model_module, "validate_instance", counting)
    records = explain_instance(clf, instance, 0, method="both")
    assert [r.method for r in records] == ["minabro", "baseline"]
    assert len(calls) == 1


def test_boundary_tight_refuses_a_kind_the_label_does_not_call_for(band_case):
    clf, instance = band_case
    # Pinning feature 0 puts the largest reachable score exactly on t_plus.
    problem = cover_problem(clf, instance)
    pinned = Explanation((0,), ExplanationKind.REJECTION, True).index_array
    assert problem.expect(ExplanationKind.REJECTION).tight(pinned)
    with pytest.raises(LabelMismatchError):
        problem.expect(ExplanationKind.POSITIVE).tight(pinned)


def test_explanation_that_fails_holds_is_refused(monkeypatch, band_case):
    # A solver result that pins nothing leaves the band case's score free to
    # leave the band: no record, and no repair to the full set either.
    import minaxp.explain as explain

    def doctored(problem, *args):
        return IlpSolution(np.empty(0, np.intp), 0, True, 0, 0.0)

    monkeypatch.setattr(explain, "solve_rejection_ilp", doctored)
    clf, instance = band_case
    with pytest.raises(ValueError, match="^instance 7: the minabro explanation does not force REJECT"):
        explain_instance(clf, instance, 7)


def test_boundary_rows_emit_only_records_that_hold():
    # A score on a threshold: the bounds with every feature pinned round to
    # either side of it.  Every record must pass the one validity test, and
    # a row may be refused only when no set passes it.
    rng = np.random.default_rng(17)
    counts = collections.Counter()
    for i in range(480):
        case = BOUNDARY_CASES[i % 4]
        clf, instance = boundary_case(rng, i % 4)
        problem = cover_problem(clf, instance)
        assert problem.label.value == case.split()[0]
        try:
            records = explain_instance(clf, instance, i, method="both")
        except ValueError as exc:
            assert str(exc).startswith(f"instance {i}: "), exc
            if problem.holds(np.arange(problem.gain_up.size)):
                # Still open: the greedy's sorted prefix sums can fall short
                # of a need that every feature covers in ``holds``' sums.
                assert isinstance(exc, LabelMismatchError) and "not coverable" in str(exc), (i, exc)
                counts["greedy falls short"] += 1
            else:
                counts[f"refused {case}"] += 1
            continue
        for record in records:
            assert problem.holds(np.asarray(record.indices, dtype=np.intp)), (i, record)
        counts[f"explained {case}"] += 1
    for case in BOUNDARY_CASES:
        assert counts[f"explained {case}"] >= 20 and counts[f"refused {case}"] >= 5, counts
