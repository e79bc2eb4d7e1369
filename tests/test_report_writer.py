"""The report writer and the record it writes.

``write_explanation_report`` formats each line itself from the record's
index array; ``tests/report_reference.py`` keeps the ``json.dumps`` writer it
replaced, and every report here must come out byte for byte as that one
writes it.
"""

import copy
import dataclasses
import json
import math
import pickle
import re

import numpy as np
import pytest

import minaxp.cli as cli
import minaxp.dataio as dataio
from minaxp import (
    ExplanationRecord,
    LinearModel,
    ModelBundle,
    read_explanation_report,
    save_model,
    unit_box,
    write_explanation_report,
)

import report_reference
from conftest import write_csv

NAN, INF = math.nan, math.inf


def _spec(instance_id=0, indices=(0, 2), **changes):
    spec = dict(
        instance_id=instance_id, label="POSITIVE", score=0.5, kind="POSITIVE",
        indices=indices, size=len(indices), certified_minimum=True, method="minabro", time_ms=1.0,
    )
    spec.update(changes)
    return spec


REJECTED = dict(label="REJECT", kind="REJECTION")

CASES = {
    "empty": [],
    "ids": [_spec(i) for i in (
        0, -3, 2**70, "", "row-7", 'say "hi"', "back\\slash\\", "tab\there\nnew line",
        "zeilé", "日本語", "\U0001f600", "\x00\x1f\x7f", "/</script>",
    )],
    "nodes": [_spec(nodes=None), _spec(nodes=0, **REJECTED), _spec(nodes=12345, **REJECTED)],
    "floats": [_spec(score=score, time_ms=time_ms) for score, time_ms in (
        (NAN, INF), (-INF, -0.0), (-0.0, NAN), (np.float64(0.1), np.float64(NAN)),
        (np.float64(-0.0), np.float64(-INF)), (0.1 + 0.2, 5e-324), (1e300, -1e-7), (1e16, 123456789.0),
    )],
    "float columns": [_spec(score=s, time_ms=t) for s, t in ((0.25, 2.0), (1 / 3, 1e-9), (-7.5, 1e22))],
    "non-finite float columns": [_spec(score=s, time_ms=t) for s, t in ((NAN, 1.0), (INF, NAN), (-INF, -0.0))],
    "index sets": [
        _spec(indices=()), _spec(indices=range(16384)), _spec(indices=[16383]),
        _spec(indices=np.arange(0, 16384, 7)), _spec(indices=np.array([9, 3, 5])),
        _spec(indices=np.array([2, 1], dtype=np.int32)), _spec(indices=np.array([], dtype=np.uint8)),
    ],
    "index sets that widen": [_spec(indices=range(k)) for k in (1, 29, 30, 31, 64, 65, 1000, 4097)],
    "odd indices": [
        _spec(indices=(0, 1)), _spec(indices=(-1, 4)), _spec(indices=(-40, 2)), _spec(indices=(1,)),
        _spec(indices=(5, 2**40)), _spec(indices=(3, 2)),
    ],
    "flags": [
        _spec(certified_minimum=c, boundary_tight=t, method=m)
        for c in (True, False) for t in (True, False) for m in ("minabro", "baseline")
    ],
    "mixed columns": [
        _spec(0, nodes=None, score=1, time_ms=2),
        _spec("a", nodes=3, score=NAN, certified_minimum=1, **REJECTED),
        _spec(1.5, nodes=True, score=np.float64(2.5), label="é", size=True),
        _spec((1, "b"), nodes=-2, score=False, kind=None, method="m\"x"),
    ],
    "past one chunk": [
        _spec(i, indices=range(i % 40), score=i / 7, nodes=i if i % 3 else None)
        for i in range(dataio._WRITE_CHUNK + 5)
    ],
}


def _both_reports(specs, tmp_path, **kwargs) -> tuple[bytes, bytes]:
    """The bytes this writer and the reference writer give, each from its own
    records (so this writer reads index arrays nobody has turned into tuples)."""
    ours, theirs = tmp_path / "ours.jsonl", tmp_path / "theirs.jsonl"
    write_explanation_report([ExplanationRecord(**s) for s in specs], ours, **kwargs)
    report_reference.write_explanation_report([ExplanationRecord(**s) for s in specs], theirs, **kwargs)
    return ours.read_bytes(), theirs.read_bytes()


class TestWriterBytes:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("note", [None, "single repeat", 'quoted "é"\n'])
    def test_same_bytes_as_json_dumps(self, tmp_path, case, note):
        ours, theirs = _both_reports(CASES[case], tmp_path, skipped_out_of_domain=3, note=note)
        assert ours == theirs
        assert ours.count(b"\n") == len(CASES[case]) + 1

    def test_records_whose_tuple_was_read(self, tmp_path):
        specs = CASES["index sets"] + CASES["index sets that widen"]
        records = [ExplanationRecord(**s) for s in specs]
        for record in records[::2]:
            assert isinstance(record.indices, tuple)
        ours, theirs = tmp_path / "ours.jsonl", tmp_path / "theirs.jsonl"
        write_explanation_report(records, ours)
        report_reference.write_explanation_report(records, theirs)
        assert ours.read_bytes() == theirs.read_bytes()

    def test_one_writer_table_serves_reports_in_any_order(self, tmp_path):
        # Each report builds its own table: a narrow report after a wide one
        # and the other way round.
        for case in ("index sets", "odd indices", "index sets that widen", "ids"):
            ours, theirs = _both_reports(CASES[case], tmp_path)
            assert ours == theirs, case

    @pytest.mark.parametrize("change", [
        dict(size=np.int64(2)),
        dict(certified_minimum=np.bool_(True)),
        dict(instance_id=np.int32(4)),
        dict(nodes=np.int64(5)),
        dict(instance_id={1, 2}),
        dict(label=object()),
    ])
    def test_refused_values_are_still_refused(self, tmp_path, change):
        specs = [_spec(0), _spec(**{"instance_id": 1, **change})]
        errors = []
        for writer in (write_explanation_report, report_reference.write_explanation_report):
            with pytest.raises(TypeError) as info:
                writer([ExplanationRecord(**s) for s in specs], tmp_path / "report.jsonl")
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert "is not JSON serializable" in errors[0]


class TestRecord:
    def test_tuple_list_and_array_give_equal_records(self):
        given = [(0, 3, 7), [0, 3, 7], np.array([0, 3, 7]), np.array([0, 3, 7], dtype=np.uint16), range(0, 8, 1)]
        records = [ExplanationRecord(**_spec(indices=idx)) for idx in given[:4]]
        for record in records:
            assert record == records[0]
            assert hash(record) == hash(records[0])
            assert type(record.indices) is tuple
            assert record.indices == (0, 3, 7)
            assert all(type(j) is int for j in record.indices)
        assert ExplanationRecord(**_spec(indices=())).indices == ()
        assert ExplanationRecord(**_spec(indices=np.array([], dtype=float))).indices == ()
        assert ExplanationRecord(**_spec(indices=given[4])).indices == tuple(range(8))

    def test_tuple_is_built_once(self):
        record = ExplanationRecord(**_spec(indices=np.array([4, 9])))
        assert record.indices is record.indices

    def test_index_array_before_and_after_the_tuple(self):
        record = ExplanationRecord(**_spec(indices=[4, 9]))
        for _ in range(2):
            array = record.index_array
            assert array.dtype == np.intp and array.tolist() == [4, 9]
            assert record.indices == (4, 9)

    def test_array_given_is_kept_without_a_copy(self):
        idx = np.array([1, 5], dtype=np.intp)
        assert ExplanationRecord(**_spec(indices=idx)).index_array is idx

    @pytest.mark.parametrize("bad", [[0.5, 1.0], [True, 2], np.array([[0, 1]]), np.array([0.0])])
    def test_non_integer_indices_refused(self, bad):
        with pytest.raises(ValueError, match="feature indices must"):
            ExplanationRecord(**_spec(indices=bad))

    def test_indices_are_required(self):
        spec = _spec()
        del spec["indices"]
        with pytest.raises(TypeError, match="indices"):
            ExplanationRecord(**spec)
        assert dataclasses.fields(ExplanationRecord)[4].default is dataclasses.MISSING

    def test_fields_and_vars_are_unchanged(self):
        assert dataio.REPORT_RECORD_FIELDS == (
            "instance_id", "label", "score", "kind", "indices", "size",
            "certified_minimum", "method", "time_ms", "nodes", "boundary_tight",
        )
        record = ExplanationRecord(**_spec(indices=np.array([1, 2])))
        assert tuple(vars(record)) == dataio.REPORT_RECORD_FIELDS
        record.indices
        assert tuple(vars(record)) == dataio.REPORT_RECORD_FIELDS

    def test_frozen(self):
        record = ExplanationRecord(**_spec())
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.indices = (1,)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del record.indices
        assert record.indices == (0, 2)

    def test_replace_copy_pickle_and_repr(self):
        record = ExplanationRecord(**_spec(indices=np.array([2, 6]), nodes=4))
        changed = dataclasses.replace(record, time_ms=9.5)
        assert changed.time_ms == 9.5 and changed.indices == (2, 6)
        assert changed == dataclasses.replace(record, time_ms=9.5, indices=record.index_array)
        assert dataclasses.replace(changed, time_ms=1.0) == record
        for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert clone == record
        assert "indices=(2, 6)" in repr(record)
        assert dataclasses.asdict(record)["indices"] == (2, 6)

    def test_report_round_trip(self, tmp_path):
        path = tmp_path / "report.jsonl"
        specs = CASES["index sets"] + CASES["ids"] + CASES["nodes"]
        write_explanation_report([ExplanationRecord(**s) for s in specs], path)
        records, _ = read_explanation_report(path)
        assert records == [ExplanationRecord(**s) for s in specs]
        assert all(type(r.indices) is tuple for r in records)
        again = tmp_path / "again.jsonl"
        write_explanation_report(records, again)
        assert again.read_bytes() == path.read_bytes()


def _masked(path) -> list[str]:
    """A report's lines with ``time_ms`` and the aggregate's time fields blanked."""
    text = re.sub(r'"time_ms": [^,]+,', '"time_ms": 0,', path.read_text())
    return re.sub(r'"time_(mean|std)_ms": [^,}]+', r'"time_\1_ms": 0', text).splitlines()


def test_benchmark_records_equal_explain_records_but_time(tmp_path):
    # An unscaled model whose rows take every label, so both methods and the
    # solver write records; benchmark's median record keeps its index array.
    rng = np.random.default_rng(17)
    n = 40
    weights = rng.normal(size=n)
    model = LinearModel(weights, -weights.sum() / 2, unit_box(n))  # a row of 0.5s scores 0
    model_path, data = tmp_path / "model.json", tmp_path / "rows.csv"
    save_model(ModelBundle(model, -2.0, 2.0), model_path)
    X = rng.random((24, n))
    X[:8] = 0.5 + (X[:8] - 0.5) * 0.01  # near the middle of the band
    write_csv(data, X, np.where(rng.random(24) < 0.5, 1, -1))
    source = ["--model", str(model_path), "--data", str(data), "--method", "both"]
    explained, benchmarked = tmp_path / "explain.jsonl", tmp_path / "bench.jsonl"
    assert cli.main(["explain", *source, "--out-report", str(explained)]) == 0
    assert cli.main(["benchmark", *source, "--repeats", "2", "--out-report", str(benchmarked)]) == 0
    assert _masked(explained) == _masked(benchmarked)
    labels = {json.loads(line).get("label") for line in _masked(explained)}
    assert {"POSITIVE", "NEGATIVE", "REJECT"} <= labels

    args = cli.build_parser().parse_args(["benchmark", *source, "--out-report", str(benchmarked)])
    columns, _ = cli._explain_rows(args, repeats=2)
    assert len(columns) == 48 and all(isinstance(idx, np.ndarray) for idx in columns.fields["indices"])
