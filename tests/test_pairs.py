import importlib.util
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
