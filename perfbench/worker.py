"""The measured process of one benchmark run.

    python3 perfbench/worker.py SPEC.json

It does only the program's work: inputs are generated and outputs checked
by ``run.py`` in another process, so this process's peak resident set is
the program's.  The spec names a mode:

- ``setup``: import ``minaxp.cli``, load the model and the rows, stop;
- ``measure``: the same set-up, then whole rounds until ``seconds`` have
  passed, two at least.  A round is one ``minaxp explain --method both`` over the CSV,
  called as ``cli.main``, then ``LATENCY_PASSES`` passes of one
  ``explain_instance(method="minabro")`` call per row, each timed on its own;
- ``trace``: the same set-up, then rounds of one untraced and one traced
  ``cli.main`` pass, one round at least.

Only the standard library is imported before the set-up clock starts.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


# Timed minabro passes over the rows per round.  Two of them give the
# latency figures about as much of each round as the ``explain`` pass has,
# so both sample the host's swings in speed over as much of the run.
LATENCY_PASSES = 2


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _cli_pass(cli, spec, report: Path) -> dict:
    argv = ["explain", "--model", spec["model"], "--data", spec["csv"],
            "--method", "both", "--out-report", str(report)]
    start = time.perf_counter()
    code = cli.main(argv)
    return {"report": report.name, "code": code, "seconds": time.perf_counter() - start}


def _record_key(record) -> tuple:
    return (record.label, record.score, record.kind, record.indices,
            record.certified_minimum, record.method, record.nodes, record.boundary_tight)


def _latency_block(explain, clf, instances) -> tuple[list[float], list]:
    """Time one minabro call per row; a call that raises yields its error text."""
    clock = time.perf_counter
    times, outputs = [], []
    for row, instance in enumerate(instances):
        start = clock()
        try:
            (output,) = explain.explain_instance(clf, instance, row, method="minabro")
        except Exception as exc:  # counted as a failed operation by the checks
            output = f"{type(exc).__name__}: {exc}"
        times.append(clock() - start)
        outputs.append(output)
    return times, outputs


def _dump_changed(path: Path, outputs: list, first_keys: list | None) -> list:
    """Write the outputs that differ from the first round's (all of them in
    the first round) and return their keys."""
    keys = [out if isinstance(out, str) else _record_key(out) for out in outputs]
    changed = {}
    for row, (out, key) in enumerate(zip(outputs, keys)):
        if first_keys is None or hash(key) != first_keys[row]:
            changed[row] = out if isinstance(out, str) else {
                "label": out.label, "score": out.score, "kind": out.kind,
                "indices": list(out.indices), "size": out.size,
                "certified_minimum": out.certified_minimum, "method": out.method,
                "nodes": out.nodes,
            }
    path.write_text(json.dumps(changed))
    return [hash(key) for key in keys]


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    run_dir = Path(spec["run_dir"])

    start = time.perf_counter()
    import minaxp.cli as cli
    from minaxp import dataio, explain, model

    bundle = dataio.load_model(spec["model"])
    data = dataio.load_dataset(spec["csv"], scaling=bundle.scaling)
    result = {"setup_s": time.perf_counter() - start, "cli": [], "latency_s": []}

    if spec["mode"] != "setup":
        clf = bundle.classifier()
        instances = [model.Instance(values) for values in data.features]
        del data
        tracer = None
        if spec["mode"] == "trace":
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            from tracing import Tracer

            tracer = Tracer()
        first_keys = None
        rounds = 0
        began = time.perf_counter()
        # A round starts only if, at the pace so far, it would end less than
        # half a round after ``seconds``, so the time measured is ``seconds``
        # give or take half a round; but a measuring run has two rounds at
        # least, so each row is timed at two separate times.
        min_rounds = 1 if tracer else 2
        while rounds < min_rounds or (
            (time.perf_counter() - began) * (rounds + 0.5) / rounds <= spec["seconds"]
        ):
            if tracer is None:
                result["cli"].append(_cli_pass(cli, spec, run_dir / f"report-{rounds}.jsonl"))
                if rounds == 0:
                    # The set-up and one explain pass are one CLI run.  Later
                    # rounds repeat the work in the same process, which a CLI
                    # user never does, and how far the heap then grows
                    # depends on how many rounds fit in the time.
                    result["peak_rss_kb"] = _peak_rss_kb()
                for _ in range(LATENCY_PASSES):
                    times, outputs = _latency_block(explain, clf, instances)
                    path = run_dir / f"latency-{len(result['latency_s'])}.json"
                    result["latency_s"].append(times)
                    first_keys = _dump_changed(path, outputs, first_keys)
                    del outputs
            else:
                untraced = _cli_pass(cli, spec, run_dir / f"report-{rounds}-u.jsonl")
                tracer.install()
                try:
                    traced = _cli_pass(cli, spec, run_dir / f"report-{rounds}-t.jsonl")
                finally:
                    tracer.uninstall()
                result["cli"] += [untraced, dict(traced, traced=True)]
            rounds += 1
        result["rounds"] = rounds
        if tracer is not None:
            tracer.save(run_dir / "spans.npz")

    result.setdefault("peak_rss_kb", _peak_rss_kb())
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
