"""``tools/report_diff.py``: reports compared line by line, timing aside."""

import importlib.util
import json
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "report_diff", Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"
)
report_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_diff)


def _record(instance_id, indices, time_ms=0.25):
    return {"instance_id": instance_id, "label": "POSITIVE", "score": 1.5, "kind": "POSITIVE",
            "indices": indices, "size": len(indices), "certified_minimum": True,
            "method": "minabro", "time_ms": time_ms, "nodes": None, "boundary_tight": False}


def _aggregate(time_mean_ms=0.25):
    group = {"count": 2, "size_mean": 1.5, "size_std": 0.5, "time_mean_ms": time_mean_ms,
             "time_std_ms": 0.0}
    return {"aggregate": {"by_group": {"minabro/classified": group}, "skipped_out_of_domain": 0}}


def _write(path, lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return str(path)


@pytest.fixture
def old(tmp_path):
    return _write(tmp_path / "old.jsonl", [_record(0, [1]), _record(1, [0, 2]), _aggregate()])


def test_equal_reports(tmp_path, old, capsys):
    new = _write(tmp_path / "new.jsonl", [_record(0, [1]), _record(1, [0, 2]), _aggregate()])
    assert report_diff.main([old, new]) == 0
    assert capsys.readouterr().out == ""


def test_differing_index_list(tmp_path, old, capsys):
    new = _write(tmp_path / "new.jsonl", [_record(0, [1]), _record(1, [0, 3]), _aggregate()])
    assert report_diff.main([old, new]) == 1
    out = capsys.readouterr().out
    assert "line 2 differs" in out and "[0, 3]" in out


def test_timing_only_difference(tmp_path, old):
    new = _write(tmp_path / "new.jsonl",
                 [_record(0, [1], 9.0), _record(1, [0, 2], 0.5), _aggregate(time_mean_ms=4.75)])
    assert report_diff.main([old, new]) == 0


def test_differing_line_count(tmp_path, old, capsys):
    new = _write(tmp_path / "new.jsonl", [_record(0, [1]), _aggregate()])
    assert report_diff.main([old, new]) == 1
    assert "line 2 differs" in capsys.readouterr().out
    longer = _write(tmp_path / "longer.jsonl",
                    [_record(0, [1]), _record(1, [0, 2]), _aggregate(), _aggregate()])
    assert report_diff.main([old, longer]) == 1
    assert "line 4 differs: the reports have 3 and 4 lines" in capsys.readouterr().out
