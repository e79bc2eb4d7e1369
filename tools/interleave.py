"""Same-process timing of two checkouts: alternating ``explain`` passes.

    python3 tools/interleave.py --parent DIR [--change DIR] --workload pipeline-n30 \
        --seed 1001 --passes 30 [--rows N] [--latency]

Both checkouts' ``src/minaxp`` are imported into this one process, under the
names ``minaxp_parent`` and ``minaxp_change``; ``--change`` defaults to this
tree.  The workload's inputs for the seed are made once by
``perfbench/workloads.build``, with this tree's program.  Each pair then runs
one ``minaxp explain --method both`` pass (``cli.main``) per side, the side
that runs first alternating from pair to pair, and times it.  Both sides
share the process, its heap and the host's swings in speed, so the paired
ratio is steadier than runs in separate processes.

Printed: each side's median pass time with its quartiles, the median of the
paired ratios parent / change (above 1 when the change is faster) and how
many pairs the change won.

With ``--latency`` a pass is instead what perfbench's latency passes time:
one ``explain_instance(method="minabro")`` call per row, each timed on its
own, on each side's own classifier and instances.  Printed: each side's p50
and p95 as ``perfbench/run.py`` computes them (each row's mean over the
passes, percentiles over the rows), then the median of the paired ratios of
each pass's p50 and p95, parent / change, and how many pairs the change won.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout to compare against")
    parser.add_argument("--change", type=Path, default=ROOT, help="checkout to compare (default: this tree)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1001)
    parser.add_argument("--passes", type=int, default=30, help="pairs of passes")
    parser.add_argument("--rows", type=int, default=None, help="override the workload's row count")
    parser.add_argument("--latency", action="store_true", help="time one minabro call per row instead")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    return args


def import_checkout(checkout: Path, name: str):
    """``checkout``'s ``minaxp.cli``, its package imported as ``name``."""
    package = checkout.resolve() / "src" / "minaxp"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    if spec is None or not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no src/minaxp under {checkout}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def _inputs(workload: str, seed: int, rows: int | None, out_dir: Path):
    """The workload's model and CSV for ``seed``, made by this tree's perfbench."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    if workload not in workloads.SPECS:
        raise SystemExit(f"error: unknown workload {workload!r}; one of {', '.join(workloads.NAMES)}")
    return workloads.build(workload, seed, out_dir, n_rows=rows)


def _quartiles(values: list) -> list:
    """``[q1, median, q3]``."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _percentiles(passes: list) -> tuple:
    """p50 and p95 in ms of the rows' mean times over ``passes``, as perfbench computes them."""
    percentiles = statistics.quantiles([statistics.fmean(times) for times in zip(*passes)], n=100)
    return 1e3 * percentiles[49], 1e3 * percentiles[94]


def _print_ratios(label: str, ratios: list) -> None:
    q1, median, q3 = _quartiles(ratios)
    won = sum(ratio > 1.0 for ratio in ratios)
    print(f"{label}: median {median:.3f} [{q1:.3f}, {q3:.3f}], change won {won}/{len(ratios)}")


def _latency(args, inputs) -> None:
    """Alternating latency passes of both sides, as perfbench's worker times them."""
    sides = {}
    for side in SIDES:
        dataio, model, explain = (importlib.import_module(f"minaxp_{side}.{name}")
                                  for name in ("dataio", "model", "explain"))
        bundle = dataio.load_model(str(inputs.model_path))
        data = dataio.load_dataset(str(inputs.csv_path), scaling=bundle.scaling)
        sides[side] = explain.explain_instance, bundle.classifier(), [model.Instance(v) for v in data.features]
    passes = {side: [] for side in SIDES}
    clock = time.perf_counter
    for i in range(args.passes):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            explain_instance, clf, instances = sides[side]
            times = []
            for row, instance in enumerate(instances):
                start = clock()
                try:
                    explain_instance(clf, instance, row, method="minabro")
                except Exception:  # timed as perfbench times a row that fails
                    pass
                times.append(clock() - start)
            passes[side].append(times)
    for side in SIDES:
        p50, p95 = _percentiles(passes[side])
        print(f"{args.workload} {side}: p50 {p50:.4f} ms, p95 {p95:.4f} ms")
    by_pass = [[_percentiles([p]), _percentiles([c])] for p, c in zip(passes["parent"], passes["change"])]
    for k, name in enumerate(("p50", "p95")):
        _print_ratios(f"{args.workload} parent/change {name}", [p[k] / c[k] for p, c in by_pass])


def main(argv=None) -> int:
    args = _parse(argv)
    clis = {side: import_checkout(getattr(args, side), f"minaxp_{side}") for side in SIDES}
    seconds = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        inputs = _inputs(args.workload, args.seed, args.rows, Path(tmp))
        if args.latency:
            _latency(args, inputs)
            return 0
        argv = ["explain", "--model", str(inputs.model_path), "--data", str(inputs.csv_path),
                "--method", "both", "--out-report", str(Path(tmp) / "report.jsonl")]
        for i in range(args.passes):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                with contextlib.redirect_stdout(io.StringIO()):
                    start = time.perf_counter()
                    code = clis[side].main(argv)
                    seconds[side].append(time.perf_counter() - start)
                if code != 0:
                    raise SystemExit(f"error: the {side} pass exited {code}")
    ratios = [p / c for p, c in zip(seconds["parent"], seconds["change"])]
    for side in SIDES:
        q1, median, q3 = (1e3 * value for value in _quartiles(seconds[side]))
        print(f"{args.workload} {side}: median {median:.2f} ms [{q1:.2f}, {q3:.2f}], IQR {q3 - q1:.2f} ms")
    _print_ratios(f"{args.workload} parent/change", ratios)
    return 0


if __name__ == "__main__":
    sys.exit(main())
