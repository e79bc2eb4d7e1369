"""``tools/interleave.py``: two checkouts timed in one process."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("interleave", ROOT / "tools" / "interleave.py")
interleave = importlib.util.module_from_spec(spec)
spec.loader.exec_module(interleave)


def _imported() -> list[str]:
    return [name for name in sys.modules if name.startswith(("minaxp_parent", "minaxp_change"))]


def test_two_checkouts_alternate_in_one_process(capsys, monkeypatch):
    # This tree on both sides, under the two names, on a few rows.
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert _imported() == []
    try:
        assert interleave.main(["--parent", str(ROOT), "--workload", "reject-pack", "--seed", "5",
                                "--rows", "40", "--passes", "3"]) == 0
        clis = [sys.modules[f"minaxp_{side}.cli"] for side in interleave.SIDES]
    finally:
        for name in _imported():
            del sys.modules[name]
    assert clis[0] is not clis[1]
    assert all(Path(cli.__file__).parent == ROOT / "src" / "minaxp" for cli in clis)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "reject-pack parent", "reject-pack change", "reject-pack parent/change"
    ]
    assert lines[2].rsplit(" ", 1)[1].endswith("/3")


def test_latency_passes_of_two_checkouts(capsys, monkeypatch):
    # One minabro call per row of 40, on each side's own classifier.
    monkeypatch.setattr(sys, "path", list(sys.path))
    calls = {}
    try:
        assert interleave.main(["--parent", str(ROOT), "--workload", "reject-pack", "--seed", "5",
                                "--rows", "40", "--passes", "3", "--latency"]) == 0
        for side in interleave.SIDES:
            calls[side] = sys.modules[f"minaxp_{side}.explain"]
    finally:
        for name in _imported():
            del sys.modules[name]
    assert calls["parent"] is not calls["change"]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "reject-pack parent", "reject-pack change", "reject-pack parent/change p50",
        "reject-pack parent/change p95",
    ]
    for line in lines[:2]:
        p50, p95 = (float(part.split()[1]) for part in line.split(": ")[1].split(", "))
        assert 0.0 < p50 <= p95
    assert all(line.endswith("/3") for line in lines[2:])
