"""Tests of the benchmark itself: the checks flag broken outputs, and every
workload runs end to end at a tiny size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from minaxp import Instance, explain_instance, load_dataset, load_model  # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _program_records(name: str, rows: int, tmp_path: Path):
    """Inputs of a tiny workload and the program's ``both`` records per row."""
    inputs = workloads.build(name, seed=7, out_dir=tmp_path, n_rows=rows)
    bundle = load_model(inputs.model_path)
    data = load_dataset(inputs.csv_path, scaling=bundle.scaling)
    clf = bundle.classifier()
    records = []
    for row, values in enumerate(data.features):
        pair = explain_instance(clf, Instance(values), row, method="both")
        records.append([dict(vars(r), indices=list(r.indices)) for r in pair])
    return checks.Problem(inputs.model_path, inputs.raw), records


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    """(problem, row, minabro record, baseline record) for every kind of row."""
    out = {}
    for name in ("pipeline-n30", "reject-pack"):
        problem, records = _program_records(name, 40, tmp_path_factory.mktemp(name))
        for row, (exact, base) in enumerate(records):
            out.setdefault((name, exact["kind"]), (problem, row, exact, base))
    assert {kind for _, kind in out} == {"POSITIVE", "NEGATIVE", "REJECTION"}
    return out


def test_correct_records_pass(cases):
    for problem, row, exact, base in cases.values():
        assert problem.check_record(row, exact, "minabro") == []
        assert problem.check_record(row, base, "baseline") == []


def _mutants(exact: dict, n_features: int):
    dropped = dict(exact, indices=exact["indices"][1:], size=exact["size"] - 1)
    spare = next(j for j in range(n_features) if j not in exact["indices"])
    added_indices = sorted(exact["indices"] + [spare])
    added = dict(exact, indices=added_indices, size=len(added_indices))
    flip = {"POSITIVE": "NEGATIVE", "NEGATIVE": "POSITIVE", "REJECT": "POSITIVE"}
    flipped = dict(exact, label=flip[exact["label"]])
    uncertified = dict(exact, certified_minimum=False)
    return {"dropped": dropped, "added": added, "flipped": flipped, "uncertified": uncertified}


def test_every_mutation_of_a_minimum_record_is_flagged(cases):
    for (name, kind), (problem, row, exact, _) in cases.items():
        if exact["size"] == 0:
            continue
        for mutation, record in _mutants(exact, problem.n_features).items():
            assert problem.check_record(row, record, "minabro"), (name, kind, mutation)


def test_redundant_or_undersized_baseline_is_flagged(cases):
    for (name, kind), (problem, row, exact, base) in cases.items():
        spare = next(j for j in range(problem.n_features) if j not in base["indices"])
        padded = sorted(base["indices"] + [spare])
        redundant = dict(base, indices=padded, size=len(padded))
        assert problem.check_record(row, redundant, "baseline"), (name, kind)
        if exact["size"] > 0:
            short = dict(exact, indices=exact["indices"][1:], size=exact["size"] - 1)
            assert problem.check_record(row, dict(short, method="baseline"), "baseline")


def _write_report(path: Path, records: list[dict], aggregate: dict | None):
    lines = [json.dumps(r) for r in records]
    if aggregate is not None:
        lines.append(json.dumps({"aggregate": aggregate}))
    path.write_text("\n".join(lines) + "\n")


def _aggregate(records):
    groups = {}
    for method in ("minabro", "baseline"):
        for split in ("classified", "rejected"):
            count = sum(
                r["method"] == method and (r["kind"] == "REJECTION") == (split == "rejected")
                for r in records
            )
            groups[f"{method}/{split}"] = {"count": count}
    return {"by_group": groups, "skipped_out_of_domain": 0}


def test_report_checks(tmp_path):
    problem, pairs = _program_records("pipeline-n30", 30, tmp_path)
    records = [r for pair in pairs for r in pair]
    path = tmp_path / "report.jsonl"

    def failed(recs, aggregate, code=0):
        tally = checks.Tally()
        _write_report(path, recs, aggregate)
        checks.check_report(problem, path, code, tally)
        assert tally.attempted == problem.n_rows
        return tally.failed

    assert failed(records, _aggregate(records)) == 0
    assert failed(records, None) == problem.n_rows
    assert failed(records, _aggregate(records), code=2) == problem.n_rows
    assert failed(records[:-1], _aggregate(records[:-1])) == 1
    assert failed(records + [copy.deepcopy(records[0])], _aggregate(records)) >= 1
    wrong_count = copy.deepcopy(_aggregate(records))
    wrong_count["by_group"]["minabro/rejected"]["count"] += 1
    assert failed(records, wrong_count) == problem.n_rows


def test_generated_cells_round_trip(tmp_path):
    inputs = workloads.build("pipeline-n30", seed=3, out_dir=tmp_path, n_rows=50)
    text = inputs.csv_path.read_text().splitlines()[1:]
    parsed = np.array([[float(c) for c in line.split(",")[:-1]] for line in text])
    assert np.array_equal(parsed, inputs.raw)


def test_benchmark_json_lists_every_metric():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run(name, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--rows", "6"],
        capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 6
    listed = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
