"""Benchmark of ``minaxp explain``: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports the program from ``src/`` of the checkout that holds this file and
writes only under ``.perfbench/`` at that checkout's root.  Inputs are made
from the seed, the program runs in a fresh worker process (``worker.py``),
and every output is checked here, apart from the program (``checks.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracing import LAYER_UNITS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
# Fresh processes that time the set-up; the measured worker's is one of them.
SETUP_REPEATS = 3
# Every run ends well within three minutes, or is stopped.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "rows_per_s": "rows/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, default=None,
                        help="override the workload's row count, for smoke runs")
    return parser.parse_args(argv)


def _import_program():
    """Put the checkout's ``src`` first on the path and refuse any other copy."""
    if not (SRC / "minaxp" / "__init__.py").is_file():
        raise SystemExit(f"error: the program's source is missing: {SRC / 'minaxp'}")
    sys.path.insert(0, str(SRC))
    import minaxp

    if Path(minaxp.__file__).resolve().parent != (SRC / "minaxp").resolve():
        raise SystemExit(f"error: imported minaxp from {minaxp.__file__}, not from {SRC}")


def _worker(run_dir: Path, inputs, mode: str, seconds: float, tag: str, deadline: float) -> dict:
    spec = {
        "mode": mode,
        "model": str(inputs.model_path),
        "csv": str(inputs.csv_path),
        "run_dir": str(run_dir),
        "seconds": seconds,
        "result": str(run_dir / f"{tag}.json"),
    }
    spec_path = run_dir / f"{tag}-spec.json"
    spec_path.write_text(json.dumps(spec))
    env = {k: v for k, v in os.environ.items() if k != "MINAXP_EPSILON"}
    env["PYTHONPATH"] = str(SRC)
    with open(run_dir / f"{tag}.log", "w") as log:
        subprocess.run(
            [sys.executable, str(WORKER), str(spec_path)],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
            timeout=max(1.0, deadline - time.monotonic()),
            check=True,
        )
    return json.loads(Path(spec["result"]).read_text())


def _end_to_end(result: dict, setups: list[float], n_rows: int) -> dict:
    passes = result["cli"]
    rows_per_s = n_rows * len(passes) / sum(p["seconds"] for p in passes)
    # Each row's latency is its mean over the latency passes, which spreads
    # it over the whole run and so over the host's swings in speed; the
    # percentiles are taken over the rows.
    per_row = [statistics.fmean(times) for times in zip(*result["latency_s"])]
    percentiles = statistics.quantiles(per_row, n=100)
    return {
        "rows_per_s": rows_per_s,
        "latency_p50_ms": 1e3 * percentiles[49],
        "latency_p95_ms": 1e3 * percentiles[94],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def _per_layer(result: dict, run_dir: Path, inputs, extra_pins: list[int]) -> dict:
    metrics = layer_metrics(
        run_dir / "spans.npz", inputs.raw.shape[1], inputs.csv_path.stat().st_size
    )
    metrics["baseline.extra_pins"] = statistics.mean(extra_pins) if extra_pins else 0.0
    traced = statistics.median(p["seconds"] for p in result["cli"] if p.get("traced"))
    untraced = statistics.median(p["seconds"] for p in result["cli"] if not p.get("traced"))
    metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return metrics


def main(argv=None) -> int:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    args = _parse(argv)
    _import_program()
    import workloads  # imports minaxp, so only once the program is found

    if args.workload not in workloads.SPECS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}")
    run_dir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    inputs = workloads.build(args.workload, args.seed, run_dir, args.rows)

    setups = []
    if not args.trace:
        for k in range(SETUP_REPEATS - 1):
            setups.append(_worker(run_dir, inputs, "setup", 0.0, f"setup-{k}", deadline)["setup_s"])
    mode = "trace" if args.trace else "measure"
    result = _worker(run_dir, inputs, mode, args.seconds, "run", deadline)
    setups.append(result["setup_s"])

    problem = checks.Problem(inputs.model_path, inputs.raw)
    tally = checks.Tally()
    extra_pins = []
    for p in result["cli"]:
        extra_pins += checks.check_report(problem, run_dir / p["report"], p["code"], tally)
    if not args.trace:
        first = json.loads((run_dir / "latency-0.json").read_text())
        for k in range(len(result["latency_s"])):
            changed = json.loads((run_dir / f"latency-{k}.json").read_text())
            checks.check_latency(problem, changed, first, tally, f"latency pass {k}")

    if args.trace:
        metrics, units = _per_layer(result, run_dir, inputs, extra_pins), LAYER_UNITS
    else:
        metrics, units = _end_to_end(result, setups, problem.n_rows), END_TO_END_UNITS
    rejected = int(sum(problem.labels(r) == {"REJECT"} for r in range(problem.n_rows)))
    print(
        f"{args.workload} seed {args.seed}: {problem.n_rows} rows ({rejected} rejected), "
        f"{result['rounds']} round(s), {len(result['cli'])} explain pass(es), "
        f"{tally.attempted} operations, {tally.failed} failed; "
        f"HiGHS {problem.highs_seconds:.2f} s over {problem.highs_solves} solve(s); "
        f"{time.monotonic() - started:.1f} s in all"
    )
    for line in tally.problems:
        print(f"FAILED {line}", file=sys.stderr)
    # The checked reports and the rows are the bulk of a run's files; the
    # seed makes them again.
    for pattern in ("report-*.jsonl", "latency-*.json", "rows.csv"):
        for path in run_dir.glob(pattern):
            path.unlink()
    out = {}
    for name, value in metrics.items():
        unit = units[name]
        out[name] = {"value": value, "unit": unit}
        print(f"  {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": tally.wrong == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": out,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
