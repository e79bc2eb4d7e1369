import importlib.util
import json
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)


def _side(rows_per_s, latency):
    return {"metrics": {"rows_per_s": {"value": rows_per_s, "unit": "rows/s"},
                        "latency_p50_ms": {"value": latency, "unit": "ms"}}}


def test_summary_counts_wins_in_each_metrics_direction():
    runs = [
        {"parent": _side(100.0, 1.0), "change": _side(150.0, 1.5)},
        {"parent": _side(110.0, 1.0), "change": _side(105.0, 0.5)},
        {"parent": _side(90.0, 2.0), "change": _side(170.0, 2.0)},
    ]
    directions = {"rows_per_s": "higher", "latency_p50_ms": "lower"}
    summary = pairs.summarise(runs, directions)
    assert summary["rows_per_s"]["change_won"] == 2
    assert summary["latency_p50_ms"]["change_won"] == 1  # a tie is no win
    assert summary["rows_per_s"]["parent"] == [95.0, 100.0, 105.0]
    assert summary["rows_per_s"]["change"] == [127.5, 150.0, 160.0]
    assert summary["latency_p50_ms"]["unit"] == "ms" and summary["rows_per_s"]["pairs"] == 3


def test_directions_come_from_the_benchmark_file():
    directions = pairs._directions()
    assert directions["rows_per_s"] == "higher" and directions["setup_s"] == "lower"


def _tree(root, sources):
    """A checkout holding ``src/minaxp`` files with the given texts and an
    empty ``perfbench/run.py``."""
    (root / "src" / "minaxp").mkdir(parents=True)
    for name, text in sources.items():
        (root / "src" / "minaxp" / name).write_text(text)
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text("")
    return root


def test_src_lines_are_reported_beside_the_metrics(tmp_path, monkeypatch, capsys):
    parent = _tree(tmp_path / "parent", {"a.py": "1\n2\n3\n", "b.py": "1\n", "notes.txt": "x\n" * 9})
    change = _tree(tmp_path / "change", {"a.py": "1\n2\n", "__init__.py": ""})
    (change / "BENCHMARK.json").write_text((pairs.ROOT / "BENCHMARK.json").read_text())
    assert (pairs.src_lines(parent), pairs.src_lines(change)) == (4, 2)
    runs = iter([100.0, 120.0, 130.0, 110.0])  # parent, change, then change, parent
    monkeypatch.setattr(pairs, "ROOT", change)
    monkeypatch.setattr(pairs, "_run", lambda checkout, args, workload: {
        "correct": True, "failed": 0, **_side(next(runs), 1.0)})
    out = tmp_path / "pairs.json"
    assert pairs.main(["--parent", str(parent), "--workload", "w", "--pairs", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["src_lines"] == {"parent": 4, "change": 2}
    assert report["workloads"]["w"]["summary"]["rows_per_s"]["change_won"] == 2
    assert "w src lines: parent 4 -> change 2\n" in capsys.readouterr().out
