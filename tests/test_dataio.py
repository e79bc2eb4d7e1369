import csv
import dataclasses
import json

import numpy as np
import pytest

from minaxp import (
    DomainError,
    ExplanationRecord,
    Instance,
    LinearModel,
    ModelBundle,
    ModelFormatError,
    RejectClassifier,
    ScalingInfo,
    load_dataset,
    load_model,
    read_explanation_report,
    save_model,
    unit_box,
    write_explanation_report,
)
from minaxp import dataio
from minaxp.dataio import load_feature_matrix

from conftest import write_csv


class TestDataset:
    def test_round_trip_already_scaled(self, tmp_path):
        path = tmp_path / "toy.csv"
        X = np.array([[0.1, 0.9], [0.4, 0.2]])
        y = np.array([-1, 1])
        write_csv(path, X, y)
        data = load_dataset(path)
        np.testing.assert_array_equal(data.features, X)
        np.testing.assert_array_equal(data.labels, y)
        assert data.feature_names == ("f0", "f1")
        assert data.label_name == "label"

    def test_min_max_scaling(self, tmp_path):
        path = tmp_path / "span.csv"
        path.write_text("a,b,label\n5,0,1\n10,1,0\n15,0.5,1\n")
        data = load_dataset(path, scaling=ScalingInfo.fit(load_dataset(path).features))
        np.testing.assert_allclose(data.features[:, 0], [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(data.labels, [1, -1, 1])  # 0/1 mapped to -1/+1
        np.testing.assert_allclose(data.scaling.mins, [5.0, 0.0])
        np.testing.assert_allclose(data.scaling.maxs, [15.0, 1.0])

    def test_scaling_reapplies_to_test_data(self, tmp_path):
        train = tmp_path / "train.csv"
        train.write_text("a,label\n5,1\n15,-1\n")
        fitted = load_dataset(train, scaling=ScalingInfo.fit(load_dataset(train).features))
        test = tmp_path / "test.csv"
        test.write_text("a,label\n20,1\n")
        shifted = load_dataset(test, scaling=fitted.scaling)
        assert shifted.features[0, 0] == pytest.approx(1.5)  # outside [0,1], not clamped
        model = LinearModel(np.array([1.0]), 0.0, unit_box(1))
        with pytest.raises(DomainError):
            Instance.validated(model, shifted.features[0])

    def test_constant_feature_maps_to_zero_with_warning(self, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("a,b,label\n3,1,1\n3,2,-1\n")
        with pytest.warns(RuntimeWarning, match="constant"):
            scaling = ScalingInfo.fit(load_dataset(path).features)
        data = load_dataset(path, scaling=scaling)
        np.testing.assert_array_equal(data.features[:, 0], [0.0, 0.0])

    def test_arbitrary_binary_labels_map_by_order(self, tmp_path):
        path = tmp_path / "coded.csv"
        path.write_text("a,label\n0.1,1\n0.2,2\n0.3,1\n")
        data = load_dataset(path)
        np.testing.assert_array_equal(data.labels, [-1, 1, -1])  # smaller value -> -1

    def test_third_label_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,label\n1,1\n2,-1\n3,2\n")
        with pytest.raises(ValueError, match="distinct values"):
            load_dataset(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,label\noops,1\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_dataset(path)

    def test_label_column_by_name_and_index(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("y,a,b\n1,0.1,0.2\n-1,0.3,0.4\n")
        by_name = load_dataset(path, label_column="y")
        by_index = load_dataset(path, label_column=0)
        np.testing.assert_array_equal(by_name.features, by_index.features)
        assert by_name.feature_names == ("a", "b")

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("a,b\n0.1,0.2\n")
        with pytest.raises(ValueError, match="not in header"):
            load_dataset(path, label_column="nope")

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "semi.csv"
        path.write_text("a;label\n0.5;1\n0.2;-1\n")
        data = load_dataset(path, delimiter=";")
        assert data.features.shape == (2, 1)

    @pytest.mark.parametrize("label_column", [None, 0])
    def test_feature_rows_are_contiguous(self, tmp_path, label_column):
        path = tmp_path / "ends.csv"
        path.write_text("p,a,b,q\n1,0.1,0.2,-1\n-1,0.3,0.4,1\n")
        data = load_dataset(path, label_column=label_column)
        assert data.features.flags.c_contiguous
        if label_column is None:
            np.testing.assert_array_equal(data.features, [[1, 0.1, 0.2], [-1, 0.3, 0.4]])
            assert data.feature_names == ("p", "a", "b")
        else:
            np.testing.assert_array_equal(data.features, [[0.1, 0.2, -1], [0.3, 0.4, 1]])
            assert data.feature_names == ("a", "b", "q")

    _SHAPES = [(1, 1), (1, 2), (3, 1), (7, 2), (40, 5), (33, 129)]

    @staticmethod
    def _assert_column_dropped_in_place(shape, position):
        matrix = np.random.default_rng(shape[0] * shape[1]).normal(size=shape)
        j = {"first": 0, "middle": shape[1] // 2, "last": shape[1] - 1}[position]
        expected = np.delete(matrix, j, axis=1)
        features = dataio._drop_column(matrix, j)
        assert features.flags.c_contiguous
        assert features.size == 0 or np.shares_memory(features, matrix)
        assert features.shape == expected.shape
        assert features.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", _SHAPES)
    @pytest.mark.parametrize("pack_bytes", [1, 64, 200, 1 << 20])
    def test_last_column_dropped_in_place(self, monkeypatch, shape, pack_bytes):
        # Small steps move one row at a time over its own source; large ones
        # move blocks whose source and destination overlap.
        monkeypatch.setattr(dataio, "_PACK_BYTES", pack_bytes)
        self._assert_column_dropped_in_place(shape, "last")

    @pytest.mark.parametrize("shape", _SHAPES)
    @pytest.mark.parametrize("pack_bytes", [1, 64, 200, 1 << 20])
    @pytest.mark.parametrize("position", ["first", "middle"])
    def test_other_column_dropped_in_place(self, monkeypatch, shape, pack_bytes, position):
        monkeypatch.setattr(dataio, "_PACK_BYTES", pack_bytes)
        self._assert_column_dropped_in_place(shape, position)

    @pytest.mark.parametrize("pack_bytes", [48, 1 << 20])
    def test_label_last_matches_label_first(self, tmp_path, monkeypatch, pack_bytes):
        monkeypatch.setattr(dataio, "_PACK_BYTES", pack_bytes)
        rng = np.random.default_rng(5)
        X, y = rng.normal(size=(50, 6)), np.where(rng.random(50) < 0.5, 3.0, 7.0)
        last = tmp_path / "last.csv"
        write_csv(last, X, y)
        by_last = load_dataset(last)
        assert by_last.features.tobytes() == X.tobytes()
        assert by_last.labels.tolist() == np.where(y == 7.0, 1, -1).tolist()
        for j in (0, 3):  # the first column, then a middle one
            names = [f"f{i}" for i in range(6)]
            table = np.insert(X, j, y, axis=1)
            lines = [",".join(names[:j] + ["label"] + names[j:])]
            lines += [",".join(map(repr, row)) for row in table.tolist()]
            path = tmp_path / f"label{j}.csv"
            path.write_text("\n".join(lines) + "\n")
            by_position = load_dataset(path, label_column=j)
            assert by_position.features.tobytes() == X.tobytes()
            assert by_position.labels.tolist() == by_last.labels.tolist()
            assert by_position.feature_names == by_last.feature_names

    def test_feature_matrix_loader(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("a,b\n0.5,0.25\n")
        matrix, names = load_feature_matrix(path)
        np.testing.assert_array_equal(matrix, [[0.5, 0.25]])
        assert names == ("a", "b")

    def test_non_numeric_cell_message_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n0.5,0.25,1\n0.5,x1,-1\n")
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: non-numeric cell 'x1' at row 3, column 'b'"

    def test_first_bad_cell_of_a_row_is_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\nfoo,bar,1\n")
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: non-numeric cell 'foo' at row 2, column 'a'"

    def test_ragged_row_message(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,label\n0.5,0.25,1\n0.5,1\n")
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: row 3 has 2 cells, expected 3"

    def test_ragged_row_reported_before_its_bad_cells(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,label\noops,1\n")
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: row 2 has 2 cells, expected 3"

    def test_blank_lines_skipped_and_cells_parsed_as_python_floats(self, tmp_path):
        path = tmp_path / "loose.csv"
        path.write_text(" a , b ,label\n\n 0.5 ,\t1_0,1\n,,\n  nan,-2e-3 , -1\n\n")
        matrix, names = load_feature_matrix(path)
        assert names == ("a", "b", "label")
        np.testing.assert_array_equal(matrix, [[0.5, 10.0, 1.0], [np.nan, -0.002, -1.0]])

    @pytest.mark.parametrize("where", ["header", "body"])
    def test_csv_error_is_a_value_error(self, tmp_path, where):
        # An unclosed quote runs the cell past csv's field size limit.
        path = tmp_path / "quote.csv"
        rows = "0.5,1\n" * 30_000
        path.write_text('"a,label\n' + rows if where == "header" else 'a,label\n"1,1\n' + rows)
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: field larger than field limit (131072)"

    def test_header_only_file_has_no_data_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,label\n\n")
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: no data rows"


# (file text, delimiter) pairs on which numpy's C reader and the row-by-row
# reader must agree: the same matrix, or the same error.
_PARSE_CORPUS = {
    "plain": ("a,b\n1,2.5\n-3e-2,4\n", ","),
    "blank lines": ("a,b\n\n1,2\n\n\n3,4\n\n", ","),
    "whitespace line": ("a,b\n1,2\n   \n3,4\n", ","),
    "tab line": ("a,b\n1,2\n\t\n", ","),
    "delimiters only": ("a,b\n1,2\n,\n3,4\n", ","),
    "spaced delimiters only": ("a,b,c\n1,2,3\n , , \n", ","),
    "form feed line": ("a,b\n1,2\n\x0c\n", ","),
    "CR": ("a,b\r1,2\r3,4\r", ","),
    "CRLF": ("a,b\r\n1,2\r\n3,4\r\n", ","),
    "CR then CRLF": ("a,b\n1,2\r\r\n3,4", ","),
    "no final newline": ("a,b\n1,2\n3,4", ","),
    "spaced cells": ("a,b\n 1 ,\t2\t\n", ","),
    "unicode spaces": ("a,b\n\xa01,2\u2003\n", ","),
    "file separators": ("a,b\n1\x1c,2\n", ","),
    "unit separator": ("a,b\n1,\x1f2\n", ","),
    "quoted cells": ('a,b\n"1","2.5"\n', ","),
    "quoted then spaces": ('a,b\n1,"2"  \n', ","),
    "spaces then quoted": ('a,b\n1,  "2"\n', ","),
    "quote after digits": ('a,b\n1"2",3\n', ","),
    "digits after quote": ('a,b\n"1"2,3\n', ","),
    "escaped quote": ('a,b\n1,"2""3"\n', ","),
    "empty quoted": ('a,b\n1,""\n', ","),
    "quote cell": ('a,b\n1,""""\n', ","),
    "escaped quote in header": ('"a""x",b\n1,2\n', ","),
    "quoted header with newline": ('"a\nb",c\n1,2\n', ","),
    "quoted cell with newline": ('a,b\n"1\n",2\n', ","),
    "quoted delimiter": ('a,b\n"1,5",2\n', ","),
    "digit underscore": ("a,b\n1_0,2\n", ","),
    "arabic-indic digits": ("a,b\n\u0661\u0662,2\n", ","),
    "BOM": ("\ufeffa,b\n1,2\n", ","),
    "BOM in body": ("a,b\n\ufeff1,2\n", ","),
    "NUL": ("a,b\n1,2\x00\n", ","),
    "hash": ("a,b\n#1,2\n", ","),
    "trailing hash": ("a,b\n1,2#\n", ","),
    "non-finite": ("a,b\nnan,-inf\nInfinity,1e500\n-nan,+inf\n", ","),
    "hex": ("a,b\n0x10,2\n", ","),
    "trailing delimiter": ("a,b\n1,2,\n", ","),
    "trailing delimiter in header too": ("a,b,\n1,2,\n", ","),
    "short row": ("a,b\n1,2\n3\n", ","),
    "long row": ("a,b\n1,2\n3,4,5\n", ","),
    "every row long": ("a,b\n1,2,3\n4,5,6\n", ","),
    "every row short": ("a,b,c\n1,2\n4,5\n", ","),
    "header only": ("a,b\n", ","),
    "header and line ends": ("a,b\n\n\r\n\r", ","),
    "empty file": ("", ","),
    "one column": ("a\n1\n2\n", ","),
    "one column, blank lines": ("a\n1\n\n  \n2\n", ","),
    "semicolon": ("a;b\n1;2\n3,5;4\n", ";"),
    "semicolon file read with comma": ("a;b\n1;2\n", ","),
    "tab": ("a\tb\n1\t2\n", "\t"),
    "space": ("a b\n1 2\n", " "),
    "double space": ("a b\n1  2\n", " "),
    "quote delimiter": ('a"b\n1"2\n', '"'),
}


def _parse_outcome(read, path, delimiter):
    try:
        header, matrix = read(path, delimiter)
    except (ValueError, csv.Error) as exc:
        return type(exc), str(exc)
    return header, matrix.shape, matrix.view(np.uint64).tolist()


class TestParsePaths:
    """``_read_numeric_table`` keeps numpy's matrix only where it equals, bit
    for bit, what the row-by-row reader gives; everything else is the row
    reader's."""

    @pytest.mark.parametrize("name", list(_PARSE_CORPUS))
    def test_both_readers_agree(self, tmp_path, name):
        text, delimiter = _PARSE_CORPUS[name]
        path = tmp_path / "corpus.csv"
        path.write_bytes(text.encode("utf-8"))
        fast = _parse_outcome(dataio._read_numeric_table, path, delimiter)
        assert fast == _parse_outcome(dataio._read_rows, path, delimiter)

    @pytest.mark.parametrize("delimiter", [",", ";", "\t"])
    def test_repr_floats_take_the_c_reader_with_float_bits(self, tmp_path, monkeypatch, delimiter):
        rng = np.random.default_rng(41)
        bits = rng.integers(0, 2**64, (60, 9), dtype=np.uint64).view(float)
        X = np.where(np.isfinite(bits), bits, rng.normal(size=bits.shape) * 1e-300)
        X[:, 0] = rng.uniform(-1.0, 1.0, X.shape[0])
        path = tmp_path / "floats.csv"
        lines = [delimiter.join(f"c{j}" for j in range(X.shape[1]))]
        lines += [delimiter.join(map(repr, row)) for row in X.tolist()]
        path.write_text("\r\n".join(lines) + "\r\n")

        def no_fallback(*_):
            raise AssertionError("the row reader ran")

        monkeypatch.setattr(dataio, "_read_rows", no_fallback)
        header, matrix = dataio._read_numeric_table(path, delimiter)
        assert header == [f"c{j}" for j in range(X.shape[1])]
        assert matrix.flags.c_contiguous
        assert np.array_equal(matrix.view(np.uint64), X.view(np.uint64))

    @pytest.mark.parametrize("name", ["digit underscore", "arabic-indic digits", "file separators"])
    def test_cells_only_float_reads_fall_back(self, tmp_path, monkeypatch, name):
        text, delimiter = _PARSE_CORPUS[name]
        path = tmp_path / "corpus.csv"
        path.write_bytes(text.encode("utf-8"))
        calls = []
        read_rows = dataio._read_rows
        monkeypatch.setattr(dataio, "_read_rows", lambda *a: calls.append(a) or read_rows(*a))
        if name == "file separators":  # numpy strips U+001C as a space; float() refuses it
            with pytest.raises(ValueError) as info:
                dataio._read_numeric_table(path, delimiter)
            assert str(info.value) == f"{path}: non-numeric cell '1\\x1c' at row 2, column 'a'"
        else:
            _, matrix = dataio._read_numeric_table(path, delimiter)
            assert matrix.tolist() == [[10.0 if name == "digit underscore" else 12.0, 2.0]]
        assert calls == [(path, delimiter)]


_BAND_MODEL = {
    "weights": [2.0, -2.0],
    "bias": 0.0,
    "t_minus": -1.0,
    "t_plus": 1.0,
    "domains": [[0.0, 1.0], [0.0, 1.0]],
    "scaling": None,
}


class TestModelRoundTrip:
    def test_save_load_identity(self, tmp_path):
        model = LinearModel(
            np.array([0.1234567890123456, -2.0]), 0.3333333333333333, unit_box(2)
        )
        scaling = ScalingInfo(mins=np.array([1.5, -2.25]), maxs=np.array([7.75, 3.125]))
        bundle = ModelBundle(model=model, t_minus=-0.35, t_plus=0.01, scaling=scaling)
        path = tmp_path / "model.json"
        save_model(bundle, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.model.weights, model.weights)
        assert loaded.model.bias == model.bias
        np.testing.assert_array_equal(loaded.model.domains, model.domains)
        assert loaded.t_minus == bundle.t_minus and loaded.t_plus == bundle.t_plus
        np.testing.assert_array_equal(loaded.scaling.mins, scaling.mins)
        np.testing.assert_array_equal(loaded.scaling.maxs, scaling.maxs)

    def test_thresholdless_model_round_trips_but_cannot_classify(self, tmp_path):
        bundle = ModelBundle(model=LinearModel(np.array([1.0]), 0.0, unit_box(1)))
        path = tmp_path / "model.json"
        save_model(bundle, path)
        loaded = load_model(path)
        assert loaded.t_minus is None and loaded.t_plus is None
        with pytest.raises(ModelFormatError, match="thresholds"):
            loaded.classifier()

    def test_equal_thresholds_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        payload = {
            "weights": [1.0],
            "bias": 0.0,
            "t_minus": 0.5,
            "t_plus": 0.5,
            "domains": [[0.0, 1.0]],
            "scaling": None,
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="strictly below"):
            load_model(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"weights": [1.0], "bias": 0.0}))
        with pytest.raises(ModelFormatError, match="missing field"):
            load_model(path)

    def test_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        payload = {
            "weights": [1.0, 2.0],
            "bias": 0.0,
            "t_minus": None,
            "t_plus": None,
            "domains": [[0.0, 1.0]],
            "scaling": None,
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="does not match"):
            load_model(path)

    def test_hand_written_fixture_loads_band_model(self, tmp_path):
        path = tmp_path / "band.json"
        path.write_text(
            '{"weights": [2.0, -2.0], "bias": 0.0, "t_minus": -1.0, "t_plus": 1.0,'
            ' "domains": [[0.0, 1.0], [0.0, 1.0]], "scaling": null}'
        )
        clf = load_model(path).classifier()
        assert isinstance(clf, RejectClassifier)
        np.testing.assert_array_equal(clf.model.weights, [2.0, -2.0])
        assert clf.t_minus == -1.0 and clf.t_plus == 1.0

    @pytest.mark.parametrize(
        "payload, message",
        [
            (3, "expected a JSON object, got int"),
            ([1.0, 2.0], "expected a JSON object, got list"),
            (dict(_BAND_MODEL, bias="0.1"), "bias must be a number, got '0.1'"),
            (dict(_BAND_MODEL, t_minus="-1"), "t_minus must be a number, got '-1'"),
            (dict(_BAND_MODEL, t_plus="1"), "t_plus must be a number, got '1'"),
            (dict(_BAND_MODEL, bias=True), "bias must be a number, got True"),
            (dict(_BAND_MODEL, weights=["2", "-2"]), "weights must hold numbers only"),
            (dict(_BAND_MODEL, domains=[[0.0, 1.0], [0.0]]), "domains is not a rectangular"),
            (dict(_BAND_MODEL, scaling=[0.0, 1.0]), "scaling must provide mins and maxs"),
            (dict(_BAND_MODEL, scaling={"mins": [0.0, 0.0], "maxs": [float("inf"), 10.0]}),
             "scaling mins and maxs must be finite"),
            (dict(_BAND_MODEL, scaling={"mins": [0.0, float("nan")], "maxs": [10.0, 10.0]}),
             "scaling mins and maxs must be finite"),
            (dict(_BAND_MODEL, scaling={"mins": [0.0, 10.0], "maxs": [10.0, 0.0]}),
             "scaling max 0.0 below min 10.0 at feature 1"),
            (dict(_BAND_MODEL, scaling={"mins": [[0.0, 0.0]], "maxs": [[10.0, 10.0]]}),
             "scaling length does not match weights"),
        ],
        ids=["number", "list", "bias-str", "t_minus-str", "t_plus-str", "bias-bool",
             "weights-str", "domains-ragged", "scaling-list", "scaling-inf", "scaling-nan",
             "scaling-inverted", "scaling-nested"],
    )
    def test_malformed_model_file_rejected(self, tmp_path, payload, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: {message}")

    def test_integer_fields_still_load(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dict(_BAND_MODEL, weights=[2, -2], bias=0, t_minus=-1, t_plus=1)))
        clf = load_model(path).classifier()
        assert clf.model.bias == 0.0 and clf.t_minus == -1.0 and clf.t_plus == 1.0

    def test_overflowing_score_bounds_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dict(_BAND_MODEL, weights=[1e308, 1e308])))
        with pytest.raises(ModelFormatError, match="score bounds overflow"):
            load_model(path)


def _record(instance_id, size, kind="POSITIVE", method="minabro", time_ms=1.0):
    return ExplanationRecord(
        instance_id=instance_id,
        label="POSITIVE" if kind != "REJECTION" else "REJECT",
        score=0.5,
        kind=kind,
        indices=tuple(range(size)),
        size=size,
        certified_minimum=True,
        method=method,
        time_ms=time_ms,
    )


class TestReports:
    def test_empty_report_has_zero_count_aggregates(self, tmp_path):
        path = tmp_path / "report.jsonl"
        write_explanation_report([], path)
        records, aggregate = read_explanation_report(path)
        assert records == []
        assert all(group["count"] == 0 for group in aggregate["by_group"].values())

    def test_single_record_aggregate_matches_it(self, tmp_path):
        path = tmp_path / "report.jsonl"
        write_explanation_report([_record(0, size=3, time_ms=2.5)], path)
        _, aggregate = read_explanation_report(path)
        stats = aggregate["by_group"]["minabro/classified"]
        assert stats == {
            "count": 1,
            "size_mean": 3.0,
            "size_std": 0.0,
            "time_mean_ms": 2.5,
            "time_std_ms": 0.0,
        }

    def test_mean_of_two_sizes(self, tmp_path):
        path = tmp_path / "report.jsonl"
        write_explanation_report([_record(0, 2), _record(1, 4)], path)
        _, aggregate = read_explanation_report(path)
        assert aggregate["by_group"]["minabro/classified"]["size_mean"] == 3.0

    def test_record_round_trip(self, tmp_path):
        path = tmp_path / "report.jsonl"
        original = [
            _record(0, 2),
            _record(1, 5, kind="REJECTION", method="baseline", time_ms=9.25),
        ]
        write_explanation_report(original, path, skipped_out_of_domain=3)
        records, aggregate = read_explanation_report(path)
        assert records == original
        assert aggregate["skipped_out_of_domain"] == 3

    def test_byte_identical_across_runs(self, tmp_path):
        one, two = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        records = [_record(0, 2), _record(1, 4)]
        write_explanation_report(records, one)
        write_explanation_report(records, two)
        assert one.read_bytes() == two.read_bytes()

    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "report.jsonl"
        records = [
            _record(0, 20, time_ms=1.5),
            ExplanationRecord(
                instance_id="row-7",
                label="REJECT",
                score=-0.125,
                kind="REJECTION",
                indices=(1, 4),
                size=2,
                certified_minimum=False,
                method="baseline",
                time_ms=2.5,
                nodes=7,
                boundary_tight=True,
            ),
            _record(2, 1, time_ms=2.5),
        ]
        records[0] = dataclasses.replace(records[0], score=0.75, indices=tuple(range(0, 60, 3)))
        records[2] = dataclasses.replace(records[2], score=1.0, indices=(3,))
        write_explanation_report(records, path, skipped_out_of_domain=3, note="single repeat")
        empty = (
            '{"count": 0, "size_mean": null, "size_std": null, '
            '"time_mean_ms": null, "time_std_ms": null}'
        )
        expected = (
            '{"instance_id": 0, "label": "POSITIVE", "score": 0.75, "kind": "POSITIVE", '
            '"indices": [0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36, 39, 42, 45, 48, 51, 54, 57], '
            '"size": 20, "certified_minimum": true, "method": "minabro", "time_ms": 1.5, '
            '"nodes": null, "boundary_tight": false}\n'
            '{"instance_id": "row-7", "label": "REJECT", "score": -0.125, "kind": "REJECTION", '
            '"indices": [1, 4], "size": 2, "certified_minimum": false, "method": "baseline", '
            '"time_ms": 2.5, "nodes": 7, "boundary_tight": true}\n'
            '{"instance_id": 2, "label": "POSITIVE", "score": 1.0, "kind": "POSITIVE", '
            '"indices": [3], "size": 1, "certified_minimum": true, "method": "minabro", '
            '"time_ms": 2.5, "nodes": null, "boundary_tight": false}\n'
            '{"aggregate": {"by_group": {'
            '"minabro/classified": {"count": 2, "size_mean": 10.5, "size_std": 9.5, '
            '"time_mean_ms": 2.0, "time_std_ms": 0.5}, '
            f'"minabro/rejected": {empty}, "baseline/classified": {empty}, '
            '"baseline/rejected": {"count": 1, "size_mean": 2.0, "size_std": 0.0, '
            '"time_mean_ms": 2.5, "time_std_ms": 0.0}}, '
            '"skipped_out_of_domain": 3, "note": "single repeat"}}\n'
        )
        assert path.read_bytes() == expected.encode()
