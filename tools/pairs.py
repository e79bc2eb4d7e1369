"""Alternating pairs of ``perfbench/run.py``: a parent checkout against this tree.

    python3 tools/pairs.py --parent DIR --workload wide-16k [--workload ...] \
        --seed 1001 --seconds 28 --pairs 10 --out BENCH_<PR>.json

Each pair runs the benchmark once in each checkout, on the same workload and
seed; the side that runs first alternates from pair to pair.  For every
metric the summary gives each side's median [q1, q3] and how many pairs the
change won, using the ``better`` direction that ``BENCHMARK.json`` names.
Each side's line total over ``src/minaxp/*.py`` is printed beside the
metrics.  The output file keeps every pair's metrics and the summary, per
workload, and the line totals.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout to compare against")
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--seed", type=int, default=1001)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="JSON file to write the pairs and summary to")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def _directions() -> dict:
    """``{metric: "higher" | "lower"}`` from this tree's BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}


def src_lines(checkout: Path) -> int:
    """The line total of ``src/minaxp/*.py`` in ``checkout``, as ``wc -l`` counts it."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "minaxp").glob("*.py"))


def _run(checkout: Path, args, workload: str) -> dict:
    """One benchmark run in ``checkout``: its final JSON line."""
    command = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _quartiles(values: list) -> list:
    """``[q1, median, q3]``."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarise(pairs: list, directions: dict) -> dict:
    """Per metric: each side's quartiles and the pairs the change won."""
    summary = {}
    for name in pairs[0]["parent"]["metrics"]:
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        better = directions.get(name, "lower")
        won = sum(
            (c > p) if better == "higher" else (c < p)
            for p, c in zip(values["parent"], values["change"])
        )
        summary[name] = {
            "unit": pairs[0]["parent"]["metrics"][name]["unit"],
            "better": better,
            **{side: _quartiles(values[side]) for side in SIDES},
            "change_won": won,
            "pairs": len(pairs),
        }
    return summary


def main(argv=None) -> int:
    args = _parse(argv)
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        raise SystemExit(f"error: no perfbench/run.py under {parent}")
    checkouts = {"parent": parent, "change": ROOT}
    directions = _directions()
    lines = {side: src_lines(checkout) for side, checkout in checkouts.items()}
    report = {
        "command": {"seed": args.seed, "seconds": args.seconds, "trace": args.trace},
        "src_lines": lines,
        "workloads": {},
    }
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = _run(checkouts[side], args, workload)
            pairs.append(pair)
            print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{side} correct={pair[side]['correct']} failed={pair[side]['failed']}" for side in SIDES
            ), file=sys.stderr)
        summary = summarise(pairs, directions)
        report["workloads"][workload] = {"pairs": pairs, "summary": summary}
        print(f"{workload} src lines: parent {lines['parent']} -> change {lines['change']}")
        for name, row in summary.items():
            parent_q, change_q = row["parent"], row["change"]
            print(f"{workload} {name} ({row['unit']}, {row['better']} is better): "
                  f"parent {parent_q[1]:.6g} [{parent_q[0]:.6g}, {parent_q[2]:.6g}] -> "
                  f"change {change_q[1]:.6g} [{change_q[0]:.6g}, {change_q[2]:.6g}], "
                  f"change won {row['change_won']}/{row['pairs']}")
        if args.out is not None:  # after each workload, so a stopped run keeps the finished ones
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
