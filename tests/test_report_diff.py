"""``tools/report_diff.py``: reports compared line by line, timing aside; and
``tools/report_matrix.py``, which compares two checkouts' reports with it."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("report_diff", ROOT / "tools" / "report_diff.py")
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


matrix_spec = importlib.util.spec_from_file_location("report_matrix", ROOT / "tools" / "report_matrix.py")
report_matrix = importlib.util.module_from_spec(matrix_spec)
matrix_spec.loader.exec_module(report_matrix)

# Appended to a copy's classified.py: every greedy set of a block gets one
# spare index, so each report of a run through the block step differs.
PADDED_GREEDY_BLOCK = '''

_greedy_block = greedy_block


def greedy_block(gains, need):
    return [idx if idx is None or idx.size == gains.shape[1]
            else np.union1d(idx, np.setdiff1d(np.arange(gains.shape[1]), idx)[:1])
            for idx in _greedy_block(gains, need)]
'''


def _matrix(capsys, monkeypatch, change):
    """``report_matrix`` of this tree against ``change`` on 40 pipeline-n30
    rows of seed 5, one block: its exit code and printed lines."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    try:
        code = report_matrix.main(["--parent", str(ROOT), "--change", str(change), "--workload", "pipeline-n30",
                                   "--seed", "5", "--rows", "40"])
    finally:
        for name in [name for name in sys.modules if name.startswith(("minaxp_parent", "minaxp_change"))]:
            del sys.modules[name]
    return code, capsys.readouterr().out.splitlines()


def test_report_matrix_of_a_tree_against_itself(capsys, monkeypatch):
    code, lines = _matrix(capsys, monkeypatch, ROOT)
    assert code == 0
    assert [line.split(": ")[0] for line in lines] == [
        "pipeline-n30 seed 5 " + " ".join(run) for run in report_matrix.RUNS
    ]
    assert all(line.endswith(": same, exit 0/0") for line in lines), lines


def test_report_matrix_flags_a_padded_block_greedy(tmp_path, capsys, monkeypatch):
    # Every run that explains with minabro goes through the block step's
    # greedy; the baseline alone does not.
    package = tmp_path / "src" / "minaxp"
    shutil.copytree(ROOT / "src" / "minaxp", package, ignore=shutil.ignore_patterns("__pycache__"))
    with (package / "classified.py").open("a") as fh:
        fh.write(PADDED_GREEDY_BLOCK)
    code, lines = _matrix(capsys, monkeypatch, tmp_path)
    assert code == 1
    same = [" --method baseline: same, exit 0/0" in line for line in lines]
    assert same == [run == ("explain", "--method", "baseline") for run in report_matrix.RUNS], lines
    assert all("differs" in line for line, ok in zip(lines, same) if not ok), lines
