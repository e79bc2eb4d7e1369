import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minaxp.cli as cli
import minaxp.model as model_module
from minaxp import (
    DomainError,
    Explanation,
    ExplanationKind,
    Instance,
    LinearModel,
    ModelBundle,
    RejectClassifier,
    ScalingInfo,
    cover_problem,
    explain_instance,
    load_dataset,
    load_model,
    read_explanation_report,
    save_model,
    unit_box,
)

from conftest import boundary_case, make_overlap_dataset, write_csv


@pytest.fixture
def pipeline_paths(tmp_path):
    X, y = make_overlap_dataset(seed=2024, n_rows=240, n_features=4)
    data = tmp_path / "data.csv"
    write_csv(data, X, y)
    return {
        "data": data,
        "train": tmp_path / "train.csv",
        "test": tmp_path / "test.csv",
        "model": tmp_path / "model.json",
        "calibrated": tmp_path / "calibrated.json",
        "report": tmp_path / "report.jsonl",
        "tmp": tmp_path,
    }


def run_train(p, seed=0, out=None):
    return cli.main(
        [
            "train",
            "--data", str(p["data"]),
            "--seed", str(seed),
            "--out-model", str(out or p["model"]),
            "--out-train", str(p["train"]),
            "--out-test", str(p["test"]),
        ]
    )


def run_calibrate(p, wr="0.24"):
    return cli.main(
        [
            "calibrate",
            "--model", str(p["model"]),
            "--data", str(p["train"]),
            "--wr", wr,
            "--out-model", str(p["calibrated"]),
        ]
    )


class TestPipeline:
    def test_full_pipeline(self, pipeline_paths, capsys):
        p = pipeline_paths
        assert run_train(p) == 0
        out = capsys.readouterr().out
        assert "accuracy (no reject option)" in out
        assert run_calibrate(p) == 0
        out = capsys.readouterr().out
        assert "rejection width" in out

        assert (
            cli.main(
                [
                    "explain",
                    "--model", str(p["calibrated"]),
                    "--data", str(p["test"]),
                    "--method", "both",
                    "--out-report", str(p["report"]),
                ]
            )
            == 0
        )
        records, aggregate = read_explanation_report(p["report"])
        assert records
        # domination: baseline never beats the exact method on any instance
        exact = {r.instance_id: r.size for r in records if r.method == "minabro"}
        for record in records:
            if record.method == "baseline":
                assert record.size >= exact[record.instance_id]
        assert all(r.certified_minimum for r in records if r.method == "minabro")

        bench = p["tmp"] / "bench.jsonl"
        assert (
            cli.main(
                [
                    "benchmark",
                    "--model", str(p["calibrated"]),
                    "--data", str(p["test"]),
                    "--repeats", "2",
                    "--limit", "10",
                    "--out-report", str(bench),
                ]
            )
            == 0
        )
        _, bench_aggregate = read_explanation_report(bench)
        assert bench_aggregate["by_group"]["minabro/classified"]["count"] > 0

    def test_train_is_deterministic_per_seed(self, pipeline_paths):
        p = pipeline_paths
        other = p["tmp"] / "model2.json"
        assert run_train(p, seed=7) == 0
        assert run_train(p, seed=7, out=other) == 0
        assert p["model"].read_bytes() == other.read_bytes()

    def test_report_is_stable_across_runs_modulo_timing(self, pipeline_paths):
        p = pipeline_paths
        assert run_train(p) == 0
        assert run_calibrate(p) == 0
        reports = []
        for name in ("r1.jsonl", "r2.jsonl"):
            out = p["tmp"] / name
            assert (
                cli.main(
                    [
                        "explain",
                        "--model", str(p["calibrated"]),
                        "--data", str(p["test"]),
                        "--method", "both",
                        "--out-report", str(out),
                    ]
                )
                == 0
            )
            lines = []
            for line in out.read_text().splitlines():
                payload = json.loads(line)
                payload.pop("time_ms", None)
                if "aggregate" in payload:
                    for group in payload["aggregate"]["by_group"].values():
                        group.pop("time_mean_ms", None)
                        group.pop("time_std_ms", None)
                lines.append(json.dumps(payload, sort_keys=True))
            reports.append(lines)
        assert reports[0] == reports[1]


class TestExplainInputs:
    def test_instance_json_literal_and_file(self, pipeline_paths, tmp_path):
        p = pipeline_paths
        assert run_train(p) == 0
        assert run_calibrate(p) == 0
        report = tmp_path / "single.jsonl"
        bundle = load_model(p["calibrated"])
        # a raw-space instance: mid-range values inside the training envelope
        mid = ((bundle.scaling.mins + bundle.scaling.maxs) / 2).tolist()
        assert (
            cli.main(
                [
                    "explain",
                    "--model", str(p["calibrated"]),
                    "--instance-json", json.dumps(mid),
                    "--out-report", str(report),
                ]
            )
            == 0
        )
        records, _ = read_explanation_report(report)
        assert len(records) == 1

        as_file = tmp_path / "instance.json"
        as_file.write_text(json.dumps({"values": mid}))
        assert (
            cli.main(
                [
                    "explain",
                    "--model", str(p["calibrated"]),
                    "--instance-json", str(as_file),
                    "--out-report", str(report),
                ]
            )
            == 0
        )

    def test_limit_zero_applies_to_instance_json(self, pipeline_paths, tmp_path):
        # --limit caps every row source: --data and --instance-json alike.
        p = pipeline_paths
        assert run_train(p) == 0
        assert run_calibrate(p) == 0
        report = tmp_path / "none.jsonl"
        scaling = load_model(p["calibrated"]).scaling
        mid = ((scaling.mins + scaling.maxs) / 2).tolist()
        for source in (["--instance-json", json.dumps(mid)], ["--data", str(p["test"])]):
            argv = ["explain", "--model", str(p["calibrated"]), *source, "--limit", "0"]
            assert cli.main(argv + ["--out-report", str(report)]) == 0
            assert read_explanation_report(report)[0] == [], source

    def test_benchmark_records_equal_explain_records(self, pipeline_paths, tmp_path):
        # Both commands run one row loop; benchmark only repeats each row and
        # keeps the median time_ms.
        p = pipeline_paths
        assert run_train(p) == 0
        assert run_calibrate(p) == 0
        source = ["--model", str(p["calibrated"]), "--data", str(p["test"]), "--method", "both"]
        explained, benchmarked = tmp_path / "explain.jsonl", tmp_path / "bench.jsonl"
        assert cli.main(["explain", *source, "--out-report", str(explained)]) == 0
        assert cli.main(["benchmark", *source, "--repeats", "3", "--out-report", str(benchmarked)]) == 0
        masked = [
            [dataclasses.replace(r, time_ms=0.0) for r in read_explanation_report(path)[0]]
            for path in (explained, benchmarked)
        ]
        assert len(masked[0]) > 100
        assert {r.label for r in masked[0]} == {"POSITIVE", "NEGATIVE", "REJECT"}
        assert masked[0] == masked[1]

    def test_label_free_csv(self, pipeline_paths, tmp_path, capsys):
        # The commands that read no labels take --label-col none and give
        # what they give with the label column present.
        p = pipeline_paths
        assert run_train(p) == 0
        assert run_calibrate(p) == 0
        plain = tmp_path / "plain.csv"
        rows = p["test"].read_text().splitlines()
        stripped = [",".join(line.split(",")[:-1]) for line in rows]
        plain.write_text("\n".join(stripped) + "\n")
        report = tmp_path / "report.jsonl"
        for command in ("explain", "benchmark", "verify"):
            outcomes = []
            for data, label_col in ((p["test"], []), (plain, ["--label-col", "none"])):
                argv = [command, "--model", str(p["calibrated"]), "--data", str(data), *label_col]
                capsys.readouterr()
                if command == "verify":
                    code = cli.main(argv + ["--cases", "0"])
                    outcomes.append((code, capsys.readouterr().out))
                else:
                    code = cli.main(argv + ["--out-report", str(report)])
                    records, _ = read_explanation_report(report)
                    outcomes.append((code, [dataclasses.replace(r, time_ms=0.0) for r in records]))
            assert outcomes[0] == outcomes[1], command
            code, output = outcomes[0]
            assert code == 0
            if command == "verify":
                assert output == "62/62 classified, 5/5 rejected agree with brute force\n"
            else:
                assert {r.label for r in output} == {"POSITIVE", "NEGATIVE", "REJECT"}
        argv = ["explain", "--model", str(p["calibrated"]), "--data", str(plain), "--label-col", "none"]
        assert cli.main(argv + ["--limit", "5", "--out-report", str(report)]) == 0
        assert len(read_explanation_report(report)[0]) == 5

    def test_label_free_csv_of_another_width_is_refused(self, pipeline_paths, tmp_path, capsys):
        p = pipeline_paths
        assert run_train(p) == 0
        assert run_calibrate(p) == 0
        short = tmp_path / "short.csv"
        rows = p["test"].read_text().splitlines()
        short.write_text("\n".join(",".join(line.split(",")[:-2]) for line in rows) + "\n")
        report = ["--out-report", str(tmp_path / "report.jsonl")]
        for command, extra in (("explain", report), ("verify", []), ("benchmark", report)):
            capsys.readouterr()
            argv = [command, "--model", str(p["calibrated"]), "--data", str(short), "--label-col", "none"]
            assert cli.main(argv + extra) == cli.EXIT_INPUT_ERROR, command
            assert capsys.readouterr().err == "error: scaling covers 4 features, data has 3\n"

    def test_instance_json_matches_the_csv_row(self, pipeline_paths, tmp_path):
        # A row scores the same bits whether it arrives as JSON or as a CSV
        # row.  Under a layout-dependent score, rows 5 and 12 of this split
        # and row 1 of the wide file came out differently.
        p = pipeline_paths
        assert run_train(p) == 0
        assert run_calibrate(p) == 0
        json_records, csv_records = _rows_both_ways(p["calibrated"], p["test"], tmp_path)
        assert len(csv_records) > 60
        assert json_records == csv_records
        n = 8193
        rng = np.random.default_rng(n)
        wide_model = tmp_path / "wide.json"
        save_model(ModelBundle(LinearModel(rng.normal(size=n), 0.0, unit_box(n)), -1.0, 1.0), wide_model)
        wide_data = tmp_path / "wide.csv"
        write_csv(wide_data, rng.random((2, n)), np.array([1, -1]))
        json_records, csv_records = _rows_both_ways(wide_model, wide_data, tmp_path)
        assert len(csv_records) == 4
        assert json_records == csv_records


def _rows_both_ways(model, data, tmp_path):
    """``explain --method both`` records of every row of ``data``: once from
    ``--instance-json`` with the row's raw values, row by row, and once from
    ``--data``; ``time_ms`` masked, and JSON rows numbered as in the file."""
    report = tmp_path / "rows.jsonl"
    argv = ["explain", "--model", str(model), "--method", "both", "--out-report", str(report)]

    def records(source, instance_id=None):
        assert cli.main(argv + source) == 0
        return [
            dataclasses.replace(r, time_ms=0.0, instance_id=r.instance_id if instance_id is None else instance_id)
            for r in read_explanation_report(report)[0]
        ]

    rows = load_dataset(data).features.tolist()
    by_json = [r for i, row in enumerate(rows) for r in records(["--instance-json", json.dumps(row)], i)]
    return by_json, records(["--data", str(data)])


class TestSpecFixtures:
    def test_separable_toy_prints_perfect_accuracy(self, tmp_path, capsys):
        X, y = make_overlap_dataset(seed=1, n_rows=80, n_features=3, shift=0.45)
        data = tmp_path / "sep.csv"
        write_csv(data, X, y)
        assert (
            cli.main(
                ["train", "--data", str(data), "--seed", "0", "--out-model", str(tmp_path / "m.json")]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "train accuracy (no reject option): 1.0000" in out

    def test_recalibration_is_reproducible(self, pipeline_paths):
        p = pipeline_paths
        assert run_train(p) == 0
        assert run_calibrate(p) == 0
        first = p["calibrated"].read_bytes()
        assert run_calibrate(p) == 0
        assert p["calibrated"].read_bytes() == first

    def test_band_model_fixture_yields_certified_rejection(self, tmp_path):
        model = tmp_path / "band.json"
        model.write_text(
            '{"weights": [2.0, -2.0], "bias": 0.0, "t_minus": -1.0, "t_plus": 1.0,'
            ' "domains": [[0.0, 1.0], [0.0, 1.0]], "scaling": null}'
        )
        report = tmp_path / "band.jsonl"
        assert (
            cli.main(
                [
                    "explain",
                    "--model", str(model),
                    "--instance-json", "[0.5, 0.5]",
                    "--out-report", str(report),
                ]
            )
            == 0
        )
        records, _ = read_explanation_report(report)
        (record,) = records
        assert record.kind == "REJECTION"
        assert record.size == 1
        assert record.certified_minimum
        assert record.nodes is not None


class TestEdgeFlags:
    def test_no_scale_uses_training_range_domains(self, pipeline_paths):
        p = pipeline_paths
        out = p["tmp"] / "raw.json"
        assert (
            cli.main(
                [
                    "train",
                    "--data", str(p["data"]),
                    "--seed", "0",
                    "--no-scale",
                    "--out-model", str(out),
                ]
            )
            == 0
        )
        bundle = load_model(out)
        assert bundle.scaling is None
        assert (bundle.model.lower >= 0.0).all() and (bundle.model.upper <= 1.0).all()

    def test_benchmark_with_empty_selection_writes_empty_aggregate(self, pipeline_paths):
        p = pipeline_paths
        assert run_train(p) == 0
        assert run_calibrate(p) == 0
        report = p["tmp"] / "empty.jsonl"
        assert (
            cli.main(
                [
                    "benchmark",
                    "--model", str(p["calibrated"]),
                    "--data", str(p["test"]),
                    "--limit", "0",
                    "--out-report", str(report),
                ]
            )
            == 0
        )
        records, aggregate = read_explanation_report(report)
        assert records == []
        assert all(group["count"] == 0 for group in aggregate["by_group"].values())


class TestRowBlocks:
    """``explain`` and ``benchmark`` build the cover problems of a block of
    rows at a time and still explain each row on its own."""

    @staticmethod
    def _files(tmp_path, n_rows=10):
        # An unscaled 4-feature model on the unit box; rows 2, 3 and 7 leave it.
        rng = np.random.default_rng(5)
        model = LinearModel(rng.normal(size=4), 0.0, unit_box(4))
        X = rng.random((n_rows, 4))
        X[2, 1], X[3, 0], X[7, 3] = 1.25, -0.5, 2.0
        inside = np.sort(np.delete(X, [2, 3, 7], axis=0) @ model.weights)
        clf = RejectClassifier(model, (inside[1] + inside[2]) / 2, (inside[-3] + inside[-2]) / 2)
        model_path, data = tmp_path / "model.json", tmp_path / "rows.csv"
        save_model(ModelBundle(model, clf.t_minus, clf.t_plus), model_path)
        write_csv(data, X, np.where(np.arange(n_rows) % 2, 1, -1))
        return clf, X, model_path, data

    @pytest.mark.parametrize("limit", [None, 3, 4, 8])
    @pytest.mark.parametrize("command", ["explain", "benchmark"])
    def test_out_of_domain_rows_on_both_sides_of_a_block_boundary(
        self, tmp_path, monkeypatch, command, limit
    ):
        # Three rows per block: rows 2 and 3 sit on either side of the first boundary.
        monkeypatch.setattr(model_module, "_BLOCK_BYTES", 3 * 4 * 8 * 4)
        clf, X, model_path, data = self._files(tmp_path)
        expected, skipped = [], 0
        for i, row in enumerate(X[:limit]):
            try:
                expected += explain_instance(clf, Instance(row), i, method="both")
            except DomainError:
                skipped += 1
        assert skipped == {None: 3, 3: 1, 4: 2, 8: 3}[limit]
        calls = []
        explain = cli.explain_instance
        monkeypatch.setattr(cli, "explain_instance", lambda *a, **k: calls.append(a[2]) or explain(*a, **k))
        report = tmp_path / "report.jsonl"
        argv = [command, "--model", str(model_path), "--data", str(data), "--method", "both",
                "--out-report", str(report)]
        argv += [] if limit is None else ["--limit", str(limit)]
        argv += ["--repeats", "2"] if command == "benchmark" else []
        assert cli.main(argv) == 0
        records, aggregate = read_explanation_report(report)
        assert [dataclasses.replace(r, time_ms=0.0) for r in records] == [
            dataclasses.replace(r, time_ms=0.0) for r in expected
        ]
        assert aggregate["skipped_out_of_domain"] == skipped
        # One explain_instance call per explained row and repeat.
        explained = [r.instance_id for r in expected if r.method == "minabro"]
        assert calls == [i for i in explained for _ in range(2 if command == "benchmark" else 1)]

    @pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "constant-scaled-column"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["explain", "benchmark", "verify", "calibrate"])
    def test_non_finite_data_cell_names_its_row(self, tmp_path, capsys, command, value, scaled):
        clf, X, model_path, data = self._files(tmp_path)
        if scaled:  # scaling maps a constant column to 0, and would hide the cell
            bundle = load_model(model_path)
            mins, maxs = np.zeros(4), np.ones(4)
            mins[2] = maxs[2] = 0.5
            save_model(ModelBundle(bundle.model, clf.t_minus, clf.t_plus, ScalingInfo(mins, maxs)),
                       model_path)
        lines = data.read_text().splitlines()
        cells = lines[5].split(",")
        cells[2] = value
        lines[5] = ",".join(cells)
        data.write_text("\n".join(lines) + "\n")
        report = tmp_path / "report.jsonl"
        argv = [command, "--model", str(model_path), "--data", str(data)]
        argv += {"verify": [], "calibrate": ["--out-model", str(report)]}.get(
            command, ["--out-report", str(report)]
        )
        assert cli.main(argv) == cli.EXIT_INPUT_ERROR
        message = f"error: {data}: non-finite feature value {value} at row 6, column 'f2'\n"
        assert capsys.readouterr().err == message
        assert not report.exists()
        # Rows past --limit are not read as instances.
        if command in ("explain", "benchmark"):
            assert cli.main(argv + ["--limit", "4"]) == 0

    @pytest.mark.parametrize("command", ["explain", "benchmark", "verify"])
    def test_width_mismatch_message_is_unchanged(self, tmp_path, capsys, command):
        _, X, model_path, data = self._files(tmp_path)
        write_csv(data, X[:, :3], np.ones(X.shape[0]))
        report = tmp_path / "report.jsonl"
        argv = [command, "--model", str(model_path), "--data", str(data)]
        argv += [] if command == "verify" else ["--out-report", str(report)]
        assert cli.main(argv) == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: instance has 3 values but model expects 4\n"
        assert not report.exists()


SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def run_python(args, env=None):
    """Run the suite's own interpreter with ``src`` importable from any cwd.

    With ``env`` given, the child sees only ``PATH``, ``PYTHONPATH`` and
    those variables, so they are the only settings under test.
    """
    pythonpath = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    if env is None:
        child_env = {**os.environ, "PYTHONPATH": pythonpath}
    else:
        child_env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath, **env}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=child_env
    )


class TestEnvironment:
    def test_epsilon_env_override(self):
        out = run_python(
            ["-c", "import minaxp; print(minaxp.DEFAULT_EPSILON)"],
            env={"MINAXP_EPSILON": "1e-6"},
        )
        assert out.returncode == 0
        assert float(out.stdout.strip()) == 1e-6

    def test_epsilon_zero_accepted(self):
        out = run_python(
            ["-c", "import minaxp; print(minaxp.DEFAULT_EPSILON)"],
            env={"MINAXP_EPSILON": "0"},
        )
        assert out.returncode == 0, out.stderr
        assert float(out.stdout.strip()) == 0.0

    @pytest.mark.parametrize(
        "value, indices, tight", [("1e-9", [0, 1], False), ("1e-6", [0], True)]
    )
    def test_epsilon_reaches_every_stage(self, value, indices, tight):
        # s_min with feature 0 pinned is 1.0, 5e-7 below t_plus: outside the
        # default tolerance, inside 1e-6.
        script = (
            "import json; import numpy as np; import minaxp as m\n"
            "model = m.LinearModel(np.array([1.0, 1.0]), 0.0, m.unit_box(2))\n"
            "clf = m.RejectClassifier(model, -1.0, 1.0 + 5e-7)\n"
            "records = m.explain_instance(clf, m.Instance(np.array([1.0, 0.5])), 0, method='both')\n"
            "print(json.dumps([[r.method, r.label, list(r.indices), r.boundary_tight] for r in records]))\n"
        )
        out = run_python(["-c", script], env={"MINAXP_EPSILON": value})
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == [
            ["minabro", "POSITIVE", indices, tight],
            ["baseline", "POSITIVE", indices, tight],
        ]

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc"])
    def test_bad_epsilon_refused_at_import(self, value):
        out = run_python(["-c", "import minaxp"], env={"MINAXP_EPSILON": value})
        assert out.returncode != 0
        assert "ValueError" in out.stderr
        assert f"MINAXP_EPSILON={value!r}" in out.stderr

    def test_module_entry_point(self, tmp_path):
        result = run_python(["-m", "minaxp.cli", "verify", "--cases", "3", "--seed", "0"])
        assert result.returncode == 0
        assert "3/3 classified, 3/3 rejected agree" in result.stdout


SCALED_BAND_MODEL = (
    '{"weights": [2.0, -2.0], "bias": 0.0, "t_minus": -1.0, "t_plus": 1.0,'
    ' "domains": [[0.0, 1.0], [0.0, 1.0]],'
    ' "scaling": {"mins": [0.0, 0.0], "maxs": [10.0, 10.0]}}'
)


class TestExitCodes:
    @pytest.mark.parametrize(
        "payload, message",
        [
            ("[5.0]", "1 values, but the model has 2 features"),
            ("[5.0, 5.0, 5.0]", "3 values, but the model has 2 features"),
            ("[[5.0, 5.0]]", "expected a flat JSON list of numbers"),
            ('["5", 5.0]', "expected a flat JSON list of numbers"),
            ("[true, 5.0]", "expected a flat JSON list of numbers"),
            ('{"value": [5.0, 5.0]}', 'the JSON object has no "values" field'),
            ('{"values": 5.0}', "expected a flat JSON list of numbers"),
        ],
        ids=["short", "long", "nested", "string", "bool", "no-values", "scalar-values"],
    )
    def test_bad_instance_json_is_input_error(self, tmp_path, capsys, payload, message):
        model = tmp_path / "model.json"
        model.write_text(SCALED_BAND_MODEL)
        report = tmp_path / "r.jsonl"
        code = cli.main(
            ["explain", "--model", str(model), "--instance-json", payload,
             "--out-report", str(report)]
        )
        assert code == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: --instance-json: {message}\n"
        assert not report.exists()

    @pytest.mark.parametrize("command", ["explain", "benchmark"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--limit", "-1", "--limit must be at least 0, got -1"),
            ("--node-limit", "-1", "--node-limit must be at least 0, got -1"),
            ("--time-limit", "nan", "--time-limit must be a number >= 0, got nan"),
            ("--time-limit", "-0.5", "--time-limit must be a number >= 0, got -0.5"),
        ],
        ids=["limit", "node-limit", "time-limit-nan", "time-limit-negative"],
    )
    def test_bad_limit_is_input_error(self, tmp_path, capsys, command, flag, value, message):
        model = tmp_path / "model.json"
        model.write_text(SCALED_BAND_MODEL)
        data = tmp_path / "rows.csv"
        data.write_text("a,b,label\n5,5,1\n1,9,-1\n")
        report = tmp_path / "r.jsonl"
        code = cli.main(
            [command, "--model", str(model), "--data", str(data), flag, value,
             "--out-report", str(report)]
        )
        assert code == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not report.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--cases", "-1"], "--cases must be at least 0, got -1"),
            (["--cases", "3", "--max-n", "1"], "--max-n must be at least 2, got 1"),
            (["--cases", "1", "--max-n", "25"], "--max-n must be at most 20, got 25"),
        ],
        ids=["cases", "max-n", "max-n-above-oracle"],
    )
    def test_bad_verify_count_is_input_error(self, capsys, args, message):
        code = cli.main(["verify", *args])
        assert code == cli.EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = cli.main(
            ["train", "--data", str(tmp_path / "nope.csv"), "--out-model", str(tmp_path / "m.json")]
        )
        assert code == cli.EXIT_INPUT_ERROR
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, message",
        [
            ("3", "expected a JSON object"),
            ("[1, 2]", "expected a JSON object"),
            ('{"weights": [1.0], "bias": "0", "t_minus": -0.5, "t_plus": 0.5,'
             ' "domains": [[0, 1]], "scaling": null}', "bias must be a number"),
            ('{"weights": [1e308, 1e308], "bias": 0.0, "t_minus": -0.5, "t_plus": 0.5,'
             ' "domains": [[0, 1], [0, 1]], "scaling": null}', "worst-case score bounds overflow"),
            (SCALED_BAND_MODEL.replace('"maxs": [10.0, 10.0]', '"maxs": [Infinity, 10.0]'),
             "scaling mins and maxs must be finite"),
        ],
        ids=["number", "list", "bias-str", "overflow", "scaling-inf"],
    )
    def test_bad_model_file_is_input_error(self, tmp_path, capsys, payload, message):
        model = tmp_path / "model.json"
        model.write_text(payload)
        code = cli.main(
            ["explain", "--model", str(model), "--instance-json", "[0.5, 0.5]",
             "--out-report", str(tmp_path / "r.jsonl")]
        )
        assert code == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {model}: {message}")
        assert not (tmp_path / "r.jsonl").exists()

    @pytest.mark.filterwarnings("error")  # refused before any training starts
    @pytest.mark.parametrize("scale", ["--scale", "--no-scale"])
    def test_non_finite_training_cell_is_input_error(self, pipeline_paths, capsys, scale):
        p = pipeline_paths
        X, y = make_overlap_dataset(seed=2024, n_rows=40, n_features=3)
        X[3, 1] = np.nan
        write_csv(p["data"], X, y)
        code = cli.main(["train", "--data", str(p["data"]), scale, "--out-model", str(p["model"])])
        assert code == cli.EXIT_INPUT_ERROR
        message = f"error: {p['data']}: non-finite feature value nan at row 5, column 'f1'\n"
        assert capsys.readouterr().err == message
        assert not p["model"].exists()

    def test_non_finite_calibration_cell_is_input_error(self, pipeline_paths, capsys):
        p = pipeline_paths
        assert run_train(p) == 0
        lines = p["train"].read_text().splitlines()
        cells = lines[3].split(",")
        cells[2] = "inf"
        lines[3] = ",".join(cells)
        p["train"].write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_calibrate(p) == cli.EXIT_INPUT_ERROR
        message = f"error: {p['train']}: non-finite feature value inf at row 4, column 'f2'\n"
        assert capsys.readouterr().err == message
        assert not p["calibrated"].exists()

    @pytest.mark.parametrize(
        "labels", [{3: "inf"}, {6: "nan"}, {2: "nan", 5: "-inf", 9: "nan"}], ids=["inf", "nan", "several"]
    )
    @pytest.mark.parametrize("command", ["train", "calibrate", "explain"])
    def test_non_finite_label_cell_is_input_error(self, pipeline_paths, capsys, command, labels):
        # Such cells used to be read as a class: {1, inf} as two, a single
        # nan turning every label into -1.
        p = pipeline_paths
        assert run_train(p) == 0 and run_calibrate(p) == 0
        data = {"train": p["data"], "calibrate": p["train"], "explain": p["test"]}[command]
        lines = data.read_text().splitlines()
        for row, value in labels.items():
            lines[row - 1] = ",".join(lines[row - 1].split(",")[:-1] + [value])
        data.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        out = p["tmp"] / "out"
        argv = {
            "train": ["train", "--data", str(data), "--out-model", str(out)],
            "calibrate": ["calibrate", "--model", str(p["model"]), "--data", str(data),
                          "--out-model", str(out)],
            "explain": ["explain", "--model", str(p["calibrated"]), "--data", str(data),
                        "--out-report", str(out)],
        }[command]
        assert cli.main(argv) == cli.EXIT_INPUT_ERROR
        row, value = min(labels.items())
        message = f"error: {data}: non-finite label value {value} at row {row}, column 'label'\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("delimiter", [";;", ""], ids=["two", "empty"])
    @pytest.mark.parametrize(
        "command, args",
        [
            ("train", ["--data", "d.csv", "--out-model", "m.json"]),
            ("calibrate", ["--model", "m.json", "--data", "d.csv", "--out-model", "c.json"]),
            ("explain", ["--model", "m.json", "--data", "d.csv", "--out-report", "r.jsonl"]),
            ("verify", ["--model", "m.json", "--data", "d.csv"]),
            ("benchmark", ["--model", "m.json", "--data", "d.csv", "--out-report", "r.jsonl"]),
        ],
        ids=["train", "calibrate", "explain", "verify", "benchmark"],
    )
    def test_delimiter_of_other_length_is_usage_error(
        self, tmp_path, monkeypatch, capsys, command, args, delimiter
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, *args, "--delimiter", delimiter])
        assert exit_info.value.code == cli.EXIT_INPUT_ERROR
        message = f"argument --delimiter: must be one character, got {delimiter!r}"
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("l2", ["-50", "nan", "inf", "-inf"])
    def test_bad_l2_is_input_error(self, pipeline_paths, capsys, l2):
        p = pipeline_paths
        code = cli.main(["train", "--data", str(p["data"]), f"--l2={l2}", "--out-model", str(p["model"])])
        assert code == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: l2 must be a finite number >= 0, got {float(l2)}\n"
        assert not p["model"].exists()

    @pytest.mark.parametrize(
        "case, message",
        [(0, "program is infeasible"), (2, "the minabro explanation does not force POSITIVE")],
        ids=["rejected", "positive"],
    )
    def test_row_that_no_set_holds_is_input_error(self, tmp_path, capsys, case, message):
        # A score on a threshold that every pinned set, the full one too,
        # rounds past: refused, never written as an invalid record.
        rng = np.random.default_rng(17)
        for _ in range(200):
            clf, instance = boundary_case(rng, case)
            try:
                explain_instance(clf, instance, 0)
            except ValueError as exc:
                if message in str(exc):
                    break
        else:
            pytest.fail(f"no row of 200 is refused with {message!r}")
        assert not cover_problem(clf, instance).holds(np.arange(clf.model.n_features))
        model, report = tmp_path / "model.json", tmp_path / "r.jsonl"
        save_model(ModelBundle(clf.model, clf.t_minus, clf.t_plus), model)
        code = cli.main(
            ["explain", "--model", str(model), "--instance-json", json.dumps(instance.values.tolist()),
             "--out-report", str(report)]
        )
        assert code == cli.EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: instance 0: ") and message in err, err
        assert not report.exists()

    def test_zero_repeats_is_input_error(self, pipeline_paths, capsys):
        p = pipeline_paths
        code = cli.main(
            ["benchmark", "--model", str(p["model"]), "--data", str(p["data"]),
             "--repeats", "0", "--out-report", str(p["report"])]
        )
        assert code == cli.EXIT_INPUT_ERROR
        assert "error: --repeats must be at least 1, got 0" in capsys.readouterr().err

    def test_wr_out_of_range_is_input_error(self, pipeline_paths):
        p = pipeline_paths
        assert run_train(p) == 0
        assert run_calibrate(p, wr="1.5") == cli.EXIT_INPUT_ERROR

    def test_verify_passes_on_honest_build(self, capsys):
        assert cli.main(["verify", "--cases", "20", "--seed", "3"]) == 0
        assert "20/20 classified, 20/20 rejected agree" in capsys.readouterr().out

    def test_verify_zero_cases_warns(self, capsys):
        assert cli.main(["verify", "--cases", "0"]) == 0
        assert "nothing verified" in capsys.readouterr().out

    def test_verify_flags_an_injected_bug(self, monkeypatch, capsys):
        # negative control: a greedy that pads every explanation must trip verification
        import minaxp.explain as explain

        real = explain.greedy_explanation

        def padded(problem):
            explanation = real(problem)
            spare = [j for j in range(problem.gain_up.size) if j not in explanation.indices]
            if not spare:
                return explanation
            return Explanation(
                indices=tuple(sorted(explanation.indices + (spare[0],))),
                kind=explanation.kind,
                certified_minimum=True,
            )

        monkeypatch.setattr(explain, "greedy_explanation", padded)
        assert cli.main(["verify", "--cases", "10", "--seed", "3"]) == cli.EXIT_VERIFY_FAILED
        assert "FAILED" in capsys.readouterr().err

    def test_verify_flags_an_injected_solver_bug(self, monkeypatch, capsys):
        # negative control: a solver that pads its selection yet claims optimality
        import minaxp.explain as explain

        real = explain.solve_rejection_ilp

        def padded(problem, *args, **kwargs):
            solution = real(problem, *args, **kwargs)
            spare = np.setdiff1d(np.arange(problem.gain_up.size), solution.selected)
            if not spare.size:
                return solution
            selected = np.union1d(solution.selected, spare[:1])
            return dataclasses.replace(solution, selected=selected, objective=selected.size, optimal=True)

        monkeypatch.setattr(explain, "solve_rejection_ilp", padded)
        assert cli.main(["verify", "--cases", "10", "--seed", "3"]) == cli.EXIT_VERIFY_FAILED
        out, err = capsys.readouterr()
        assert "10/10 classified" in out and "FAILED" in err
