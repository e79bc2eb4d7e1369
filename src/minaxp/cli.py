"""Command line entry point: train, calibrate, explain, verify, benchmark.

Exit codes: 0 on success, 2 on input or usage errors, 3 when verification
finds a mismatch.  All randomness flows from the --seed flag; given the same
seed and inputs every command is deterministic (timings excepted).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import statistics
import sys
from pathlib import Path

import numpy as np

from .calibration import RiskConfig, TrainConfig, calibrate_thresholds, train_logistic
from .dataio import (
    Dataset,
    ExplanationRecord,
    ModelBundle,
    ScalingInfo,
    aggregate_records,
    load_dataset,
    load_feature_matrix,
    load_model,
    save_model,
    write_explanation_report,
)
from .explain import METHODS, explain_instance
from .model import DEFAULT_EPSILON, DomainError, Instance, Label, score_from_products
from .oracle import MAX_ORACLE_FEATURES, brute_force_minimum, random_case
from .rejected import DEFAULT_NODE_LIMIT, DEFAULT_TIME_LIMIT

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_VERIFY_FAILED = 3


def _parse_label_column(value: str | None) -> str | int | None:
    if value is None or value.lower() == "none":
        return None if value is None else _NO_LABEL
    try:
        return int(value)
    except ValueError:
        return value


_NO_LABEL = object()


def _load(path, delimiter, label_col, scaling=None) -> Dataset:
    """A labelled dataset for ``train`` and ``calibrate``, whose every feature cell is finite."""
    column = _parse_label_column(label_col)
    if column is _NO_LABEL:
        raise ValueError("this command requires a label column")
    data = load_dataset(path, delimiter=delimiter, label_column=column, scaling=scaling)
    bad = np.argwhere(~np.isfinite(data.features))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"{path}: non-finite feature value {data.features[row, col]} "
                         f"at row {row + 2}, column {data.feature_names[col]!r}")
    return data


def _data_rows(args, bundle, limit) -> list:
    """(row_number, values_after_scaling) for the first ``limit`` rows of
    --data (all when ``limit`` is None); any label column is read and dropped."""
    column = _parse_label_column(args.label_col)
    if column is _NO_LABEL:
        features, _ = load_feature_matrix(args.data, delimiter=args.delimiter)
        if bundle.scaling is not None:
            features = bundle.scaling.transform(features)
    else:
        data = load_dataset(
            args.data, delimiter=args.delimiter, label_column=column, scaling=bundle.scaling
        )
        features = data.features
    return list(enumerate(features[:limit]))


def _stratified_split(labels: np.ndarray, train_fraction: float, seed: int):
    """Seeded per-class split; both sides keep at least one member per class
    whenever a class has two or more."""
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        rng.shuffle(members)
        k = int(round(train_fraction * members.size))
        k = min(max(k, 1), members.size - 1) if members.size >= 2 else members.size
        train_idx.extend(members[:k])
        test_idx.extend(members[k:])
    return np.sort(np.array(train_idx, dtype=int)), np.sort(np.array(test_idx, dtype=int))


def _write_rows(path, header, matrix, labels, delimiter=","):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(header)
        for row, label in zip(matrix, labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def _accuracy_without_reject(scores: np.ndarray, labels: np.ndarray) -> float:
    predicted = np.where(scores > 0.0, 1, -1)
    return float(np.mean(predicted == labels))


def cmd_train(args) -> int:
    data = _load(args.data, args.delimiter, args.label_col)
    X_raw, y = data.features, data.labels
    if np.unique(y).size < 2:
        raise ValueError("training requires both classes present")
    train_idx, test_idx = _stratified_split(y, 0.7, args.seed)

    scaling = None
    if args.scale:
        scaling = ScalingInfo.fit(X_raw[train_idx])
        X = scaling.transform(X_raw)
        domains = None  # unit box
    else:
        X = X_raw
        lo = X_raw[train_idx].min(axis=0)
        hi = X_raw[train_idx].max(axis=0)
        domains = np.column_stack([lo, np.where(hi > lo, hi, lo + 1.0)])

    model = train_logistic(
        X[train_idx], y[train_idx], TrainConfig(l2=args.l2), domains=domains
    )
    save_model(ModelBundle(model=model, scaling=scaling), args.out_model)

    train_scores = score_from_products(X[train_idx] * model.weights, model.bias)
    print(f"trained on {train_idx.size} instances, {X.shape[1]} features")
    print(f"train accuracy (no reject option): {_accuracy_without_reject(train_scores, y[train_idx]):.4f}")
    if test_idx.size:
        test_scores = score_from_products(X[test_idx] * model.weights, model.bias)
        print(f"test accuracy (no reject option): {_accuracy_without_reject(test_scores, y[test_idx]):.4f}")
    if args.out_train:
        _write_rows(args.out_train, list(data.feature_names) + [data.label_name], X_raw[train_idx], y[train_idx], args.delimiter)
    if args.out_test:
        _write_rows(args.out_test, list(data.feature_names) + [data.label_name], X_raw[test_idx], y[test_idx], args.delimiter)
    print(f"model written to {args.out_model}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    bundle = load_model(args.model)
    data = _load(args.data, args.delimiter, args.label_col, scaling=bundle.scaling)
    scores = score_from_products(data.features * bundle.model.weights, bundle.model.bias)
    report = calibrate_thresholds(scores, data.labels, RiskConfig(args.wr))
    save_model(bundle.with_thresholds(report.t_minus, report.t_plus), args.out_model)

    clf = bundle.with_thresholds(report.t_minus, report.t_plus).classifier()
    pos = scores > clf.t_plus + DEFAULT_EPSILON
    neg = scores < clf.t_minus - DEFAULT_EPSILON
    accepted = pos | neg
    predicted = np.where(pos, 1, -1)
    acc_with = (
        float(np.mean(predicted[accepted] == data.labels[accepted])) if accepted.any() else float("nan")
    )
    print(f"t_plus: {report.t_plus:.6g}")
    print(f"t_minus: {report.t_minus:.6g}")
    print(f"rejection width: {report.t_plus - report.t_minus:.6g}")
    print(f"rejection rate: {report.rejection_ratio:.4f}")
    print(f"empirical risk: {report.empirical_risk:.6f} (error {report.error_ratio:.4f}, wr {args.wr})")
    print(f"accuracy without reject option: {_accuracy_without_reject(scores, data.labels):.4f}")
    print(f"accuracy with reject option: {acc_with:.4f}")
    print(f"model written to {args.out_model}")
    return EXIT_OK


def _instances_from_args(args, bundle):
    """The first --limit (instance_id, values_after_scaling) rows of --data or --instance-json."""
    if (args.data is None) == (args.instance_json is None):
        raise ValueError("provide exactly one of --data or --instance-json")
    if args.instance_json is not None:
        text = args.instance_json
        if not text.lstrip().startswith(("[", "{")):
            text = Path(text).read_text()
        payload = json.loads(text)
        if isinstance(payload, dict):
            if "values" not in payload:
                raise ValueError('--instance-json: the JSON object has no "values" field')
            payload = payload["values"]
        if not isinstance(payload, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in payload
        ):
            raise ValueError("--instance-json: expected a flat JSON list of numbers")
        n_features = bundle.model.n_features
        if len(payload) != n_features:
            raise ValueError(
                f"--instance-json: {len(payload)} values, but the model has {n_features} features"
            )
        values = np.asarray(payload, dtype=float)
        if bundle.scaling is not None:
            values = bundle.scaling.transform(values)
        return [(0, values)][: args.limit]
    return _data_rows(args, bundle, args.limit)


def _check_limits(args) -> None:
    """Refuse limits that would silently drop rows or stop every search at once."""
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be at least 0, got {args.limit}")
    if args.node_limit < 0:
        raise ValueError(f"--node-limit must be at least 0, got {args.node_limit}")
    if not args.time_limit >= 0.0:
        raise ValueError(f"--time-limit must be a number >= 0, got {args.time_limit}")


def _explain_rows(args, repeats: int = 1) -> tuple[list[ExplanationRecord], int]:
    """Explain every selected row ``repeats`` times over; each record's
    ``time_ms`` is the median of its repeats'.  Returns the records and the
    number of out-of-domain rows skipped."""
    _check_limits(args)
    bundle = load_model(args.model)
    clf = bundle.classifier()
    records: list[ExplanationRecord] = []
    skipped = 0
    for instance_id, values in _instances_from_args(args, bundle):
        instance = Instance(values)
        try:
            runs = [
                explain_instance(
                    clf,
                    instance,
                    instance_id,
                    method=args.method,
                    node_limit=args.node_limit,
                    time_limit=args.time_limit,
                )
                for _ in range(repeats)
            ]
        except DomainError:
            skipped += 1
            continue
        for same in zip(*runs):
            median = statistics.median(record.time_ms for record in same)
            records.append(dataclasses.replace(same[0], time_ms=median))
    return records, skipped


def cmd_explain(args) -> int:
    records, skipped = _explain_rows(args)
    write_explanation_report(records, args.out_report, skipped_out_of_domain=skipped)
    by_kind = {}
    for record in records:
        by_kind[record.kind] = by_kind.get(record.kind, 0) + 1
    print(f"explained {len(records)} record(s) ({by_kind}), skipped {skipped} out-of-domain")
    print(f"report written to {args.out_report}")
    return EXIT_OK


def _verify_cases(cases) -> tuple[int, int, int, int]:
    """Brute-force agreement over ``(clf, instance)`` pairs, as classified ok,
    classified total, rejected ok and rejected total.  Each pair counts under
    the label of the record ``explain`` writes, and agrees when that record is
    certified and of the minimum size; out-of-domain rows are skipped."""
    classified_ok = classified_total = rejected_ok = rejected_total = 0
    for clf, instance in cases:
        try:
            (record,) = explain_instance(clf, instance, 0)
        except DomainError:
            continue
        ok = record.certified_minimum and record.size == brute_force_minimum(clf, instance).size
        if record.label == Label.REJECT.value:
            rejected_total += 1
            rejected_ok += ok
        else:
            classified_total += 1
            classified_ok += ok
    return classified_ok, classified_total, rejected_ok, rejected_total


def _random_cases(args):
    rng = np.random.default_rng(args.seed)
    for i in range(args.cases):
        n = int(rng.integers(2, args.max_n + 1))
        yield random_case(rng, n, Label.POSITIVE if i % 2 == 0 else Label.NEGATIVE)
    for _ in range(args.cases):
        n = int(rng.integers(2, args.max_n + 1))
        yield random_case(rng, n, Label.REJECT)


def _data_cases(args):
    bundle = load_model(args.model)
    clf = bundle.classifier()
    if clf.model.n_features > args.max_n:
        raise ValueError(
            f"model has {clf.model.n_features} features; verification is capped at --max-n {args.max_n}"
        )
    return ((clf, Instance(values)) for _, values in _data_rows(args, bundle, args.cases or None))


def cmd_verify(args) -> int:
    if args.cases < 0:
        raise ValueError(f"--cases must be at least 0, got {args.cases}")
    if args.data is None and args.max_n < 2:
        raise ValueError(f"--max-n must be at least 2, got {args.max_n}")
    if args.data is None and args.max_n > MAX_ORACLE_FEATURES:
        raise ValueError(f"--max-n must be at most {MAX_ORACLE_FEATURES}, got {args.max_n}")
    if args.cases == 0 and args.data is None:
        print("warning: --cases 0, nothing verified")
        return EXIT_OK
    cases = _data_cases(args) if args.data is not None else _random_cases(args)
    c_ok, c_total, r_ok, r_total = _verify_cases(cases)
    print(f"{c_ok}/{c_total} classified, {r_ok}/{r_total} rejected agree with brute force")
    if c_ok != c_total or r_ok != r_total:
        print("verification FAILED: explanation size does not match the brute-force minimum", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_benchmark(args) -> int:
    if args.repeats < 1:
        raise ValueError(f"--repeats must be at least 1, got {args.repeats}")
    records, skipped = _explain_rows(args, args.repeats)
    note = None
    if args.repeats == 1:
        note = "single repeat: per-instance timing spread undefined, medians equal the one sample"
    write_explanation_report(records, args.out_report, skipped_out_of_domain=skipped, note=note)
    for group, stats in aggregate_records(records).items():
        if stats["count"]:
            print(
                f"{group}: n={stats['count']} size {stats['size_mean']:.2f}±{stats['size_std']:.2f} "
                f"time {stats['time_mean_ms']:.3f}±{stats['time_std_ms']:.3f} ms"
            )
    print(f"report written to {args.out_report}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minaxp",
        description="Minimum-size abductive explanations for linear classifiers with a reject option",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_data(p, label_help="label column name or index (default: last column)"):
        p.add_argument("--delimiter", default=",", help="dataset field delimiter (default: ,)")
        p.add_argument("--label-col", default=None, help=label_help)

    p_train = sub.add_parser("train", help="train a logistic model on a 70/30 stratified split")
    p_train.add_argument("--data", required=True)
    add_common_data(p_train)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out-model", required=True)
    p_train.add_argument("--l2", type=float, default=1.0, help="L2 regularization strength")
    p_train.add_argument("--scale", dest="scale", action="store_true", default=True,
                         help="min-max scale features to [0,1] from the training split (default)")
    p_train.add_argument("--no-scale", dest="scale", action="store_false")
    p_train.add_argument("--out-train", default=None, help="write the raw training split here")
    p_train.add_argument("--out-test", default=None, help="write the raw test split here")
    p_train.set_defaults(func=cmd_train)

    p_cal = sub.add_parser("calibrate", help="pick rejection thresholds minimizing empirical risk")
    p_cal.add_argument("--model", required=True)
    p_cal.add_argument("--data", required=True, help="calibration data (use the training split)")
    add_common_data(p_cal)
    p_cal.add_argument("--wr", type=float, default=0.24, help="rejection cost in (0, 1]")
    p_cal.add_argument("--out-model", required=True)
    p_cal.set_defaults(func=cmd_calibrate)

    p_exp = sub.add_parser("explain", help="explain predictions of a calibrated model")
    p_exp.add_argument("--model", required=True)
    p_exp.add_argument("--data", default=None)
    p_exp.add_argument("--instance-json", default=None,
                       help="a JSON list of feature values, or a path to one; 'none' label column")
    add_common_data(p_exp, "label column to drop from --data; 'none' if absent (default: last)")
    p_exp.add_argument("--method", choices=METHODS, default="minabro")
    p_exp.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    p_exp.add_argument("--time-limit", type=float, default=DEFAULT_TIME_LIMIT)
    p_exp.add_argument("--limit", type=int, default=None, help="explain only the first N instances")
    p_exp.add_argument("--out-report", required=True)
    p_exp.set_defaults(func=cmd_explain)

    p_ver = sub.add_parser("verify", help="compare fast explainers against brute force")
    p_ver.add_argument("--model", default=None)
    p_ver.add_argument("--data", default=None)
    add_common_data(p_ver)
    p_ver.add_argument("--max-n", type=int, default=12)
    p_ver.add_argument("--cases", type=int, default=500)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("benchmark", help="time explanations and aggregate statistics")
    p_bench.add_argument("--model", required=True)
    p_bench.add_argument("--data", required=True)
    add_common_data(p_bench)
    p_bench.add_argument("--method", choices=METHODS, default="both")
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    p_bench.add_argument("--time-limit", type=float, default=DEFAULT_TIME_LIMIT)
    p_bench.add_argument("--limit", type=int, default=None)
    p_bench.add_argument("--out-report", required=True)
    p_bench.set_defaults(func=cmd_benchmark, instance_json=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
