"""Reports of two checkouts compared over a matrix of runs, timing aside.

    python3 tools/report_matrix.py --parent DIR [--change DIR] [--workload W]... \
        [--seed N]... [--rows N]

For each workload (default: all three) and seed (default: 1001 and 5) the
inputs are made once by ``perfbench/workloads.build``, with this tree's
program.  Each checkout then writes the report of seven runs on them:
``explain --method minabro``, ``baseline`` and ``both``, ``benchmark
--method both --repeats 2``, and ``explain --method both`` with
``--node-limit 0``, with ``--node-limit 1`` and with ``--limit 77``; 42
reports a side by default.  Both checkouts' ``src/minaxp`` are imported into
this one process, as ``tools/interleave.py`` imports them (``--change``
defaults to this tree), and each run is a ``cli.main`` call.

Printed: one line per run, ``same`` or the first line that differs
(``tools/report_diff.py``, which masks the timing fields), and both exit
codes.  Exits 0 when every pair of reports and of exit codes agrees, 1
otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
RUNS = (
    ("explain", "--method", "minabro"),
    ("explain", "--method", "baseline"),
    ("explain", "--method", "both"),
    ("benchmark", "--method", "both", "--repeats", "2"),
    ("explain", "--method", "both", "--node-limit", "0"),
    ("explain", "--method", "both", "--node-limit", "1"),
    ("explain", "--method", "both", "--limit", "77"),
)
SEEDS = (1001, 5)


def _sibling(name: str):
    """The module ``tools/<name>.py``."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


interleave, report_diff = _sibling("interleave"), _sibling("report_diff")


def _parse(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout to compare against")
    parser.add_argument("--change", type=Path, default=interleave.ROOT,
                        help="checkout to compare (default: this tree)")
    parser.add_argument("--workload", action="append", choices=names,
                        help="a workload to run, repeatable (default: all)")
    parser.add_argument("--seed", action="append", type=int, help="a seed, repeatable (default: 1001 and 5)")
    parser.add_argument("--rows", type=int, default=None, help="override the workloads' row counts")
    return parser.parse_args(argv)


def _report(cli, argv: list[str], path: Path) -> tuple[int, list[str]]:
    """The exit code of ``cli.main`` on ``argv`` and the report it wrote to ``path``."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--out-report", str(path)])
    lines = path.read_text().splitlines() if path.exists() else []
    path.unlink(missing_ok=True)
    return code, lines


def main(argv=None) -> int:
    workloads = interleave.load_workloads()
    args = _parse(argv, workloads.NAMES)
    clis = {side: interleave.import_checkout(getattr(args, side), f"minaxp_{side}") for side in interleave.SIDES}
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload in args.workload or workloads.NAMES:
            for seed in args.seed or SEEDS:
                inputs = workloads.build(workload, seed, Path(tmp) / f"{workload}-{seed}", n_rows=args.rows)
                for run in RUNS:
                    argv = [*run, "--model", str(inputs.model_path), "--data", str(inputs.csv_path)]
                    (old_code, old), (new_code, new) = (
                        _report(clis[side], argv, Path(tmp) / f"{side}.jsonl") for side in interleave.SIDES
                    )
                    difference = report_diff.first_difference(old, new)
                    verdict = "same" if difference is None else difference.splitlines()[0]
                    print(f"{workload} seed {seed} {' '.join(run)}: {verdict}, exit {old_code}/{new_code}")
                    differing += difference is not None or old_code != new_code
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
