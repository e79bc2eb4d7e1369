"""Checks of the program's outputs, computed apart from the program.

Nothing here imports ``minaxp``.  The checks read the model file
themselves, take the rows as generated, and recompute in numpy the score
``w.x + b``, the label, and the worst-case score bounds of every index set.
The minimum size of an accepted row's explanation is a sorted-prefix count;
that of a rejected row comes from HiGHS through ``scipy.optimize.milp``.

Every comparison allows a tolerance ``tol`` of 1e-11 times the model's total
score range, far above the rounding of either side's sums and far below any
single feature's gain.  A row whose answer hangs on a difference smaller
than ``tol`` accepts either answer.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

EPS = 1e-9  # the program's default tolerance; the worker runs with it
KIND = {"POSITIVE": "POSITIVE", "NEGATIVE": "NEGATIVE", "REJECT": "REJECTION"}
# The fields a check reads; a latency record carries no instance_id.
RECORD_FIELDS = ("label", "score", "kind", "indices", "size", "certified_minimum", "method")


class Problem:
    """The model and rows of one workload, and the expected answers."""

    def __init__(self, model_path, raw: np.ndarray):
        payload = json.loads(Path(model_path).read_text())
        w = np.asarray(payload["weights"], dtype=float)
        b = float(payload["bias"])
        lo, hi = np.asarray(payload["domains"], dtype=float).T
        X = np.asarray(raw, dtype=float)
        if payload["scaling"] is not None:
            mins = np.asarray(payload["scaling"]["mins"], dtype=float)
            span = np.asarray(payload["scaling"]["maxs"], dtype=float) - mins
            X = (X - mins) / np.where(span == 0.0, 1.0, span)
            X[:, span == 0.0] = 0.0
        self.t_minus = float(payload["t_minus"])
        self.t_plus = float(payload["t_plus"])
        self.n_rows, self.n_features = X.shape
        self.in_domain = ((X >= lo) & (X <= hi)).all(axis=1)
        alpha_max = np.where(w >= 0.0, w * hi, w * lo)
        alpha_min = np.where(w >= 0.0, w * lo, w * hi)
        beta = X * w
        self.gain_min = beta - alpha_min  # raise of the lowest reachable score per pin
        self.gain_max = alpha_max - beta  # drop of the highest reachable score per pin
        self.base_max = b + float(alpha_max.sum())
        self.base_min = b + float(alpha_min.sum())
        self.score = X @ w + b
        self.tol = 1e-11 * (abs(b) + float(np.abs(alpha_max).sum() + np.abs(alpha_min).sum()))
        self._minimum: dict[tuple[int, str], tuple[int, int]] = {}
        self._verdicts: dict[tuple, list[str]] = {}
        self.highs_seconds = 0.0
        self.highs_solves = 0

    # -- expected answers --------------------------------------------------

    def labels(self, row: int) -> set[str]:
        """Labels the recomputed score allows; two when it sits on a threshold."""
        s = self.score[row]
        out = set()
        for delta in (-self.tol, 0.0, self.tol):
            v = s + delta
            out.add("POSITIVE" if v > self.t_plus + EPS
                    else "NEGATIVE" if v < self.t_minus - EPS else "REJECT")
        return out

    def _slack(self, kind: str, smax, smin):
        """How far the bounds ``smax``/``smin`` sit inside the kind's region."""
        if kind == "POSITIVE":
            return smin - (self.t_plus - EPS)
        if kind == "NEGATIVE":
            return (self.t_minus + EPS) - smax
        return np.minimum((self.t_plus + EPS) - smax, smin - (self.t_minus - EPS))

    def margin(self, row: int, kind: str, indices) -> float:
        """The slack left when ``indices`` are pinned; valid when at least ``-tol``."""
        idx = np.asarray(indices, dtype=int)
        smin = self.base_min + float(self.gain_min[row, idx].sum())
        smax = self.base_max - float(self.gain_max[row, idx].sum())
        return float(self._slack(kind, smax, smin))

    def minimum(self, row: int, kind: str) -> tuple[int, int]:
        """Bounds ``(low, high)`` on the minimum explanation size; equal unless
        a prefix sum ties the required margin within ``tol``."""
        key = (row, kind)
        if key not in self._minimum:
            if kind == "REJECTION":
                self._minimum[key] = self._rejection_minimum(row)
            else:
                self._minimum[key] = self._prefix_minimum(row, kind)
        return self._minimum[key]

    def _prefix_minimum(self, row: int, kind: str) -> tuple[int, int]:
        if kind == "POSITIVE":
            gains, need = self.gain_min[row], self.t_plus - self.base_min
        else:
            gains, need = self.gain_max[row], self.base_max - self.t_minus
        sums = np.cumsum(np.sort(gains)[::-1])

        def count(required):
            return 0 if required <= 0.0 else int(np.searchsorted(sums, required)) + 1

        return count(need - EPS - self.tol), count(need - EPS + self.tol)

    def _rejection_minimum(self, row: int) -> tuple[int, int]:
        """Minimum pins keeping both bounds in the band, solved by HiGHS.

        HiGHS may accept a selection that misses a constraint by its own
        feasibility tolerance, so the optimum it proves is a lower bound.
        When its selection also passes the exact check, it is the minimum;
        otherwise a solve with both requirements raised gives an upper bound.
        """
        need = np.array([self.base_max - self.t_plus, self.t_minus - self.base_min]) - EPS
        low, selection = self._highs(row, need)
        if self.margin(row, "REJECTION", np.flatnonzero(selection)) >= -self.tol:
            return low, low
        high, _ = self._highs(row, need + 1e-6 * np.maximum(1.0, np.abs(need)))
        return low, high

    def _highs(self, row: int, need: np.ndarray) -> tuple[int, np.ndarray]:
        n = self.n_features
        start = time.perf_counter()
        res = milp(
            c=np.ones(n),
            constraints=LinearConstraint(
                np.vstack([self.gain_max[row], self.gain_min[row]]), need, np.inf
            ),
            integrality=np.ones(n),
            bounds=Bounds(0.0, 1.0),
            options={"mip_rel_gap": 0.0, "time_limit": 120.0},
        )
        self.highs_seconds += time.perf_counter() - start
        self.highs_solves += 1
        if res.status != 0:
            raise RuntimeError(f"HiGHS did not prove an optimum for row {row}: {res.message}")
        return int(round(res.fun)), res.x > 0.5

    # -- verdicts on the program's records ----------------------------------

    def check_record(self, row: int, record: dict, method: str) -> list[str]:
        """Problems with one record of ``row`` made by ``method``; empty if none."""
        key = (row, method) + tuple(
            tuple(v) if isinstance(v, list) else v
            for v in (record.get(f) for f in RECORD_FIELDS)
        )
        if key not in self._verdicts:
            self._verdicts[key] = self._problems(row, record, method)
        return self._verdicts[key]

    def _problems(self, row: int, record: dict, method: str) -> list[str]:
        missing = [f for f in RECORD_FIELDS if f not in record]
        if missing:
            return [f"missing fields {missing}"]
        problems = []
        if record["method"] != method:
            problems.append(f"method {record['method']!r}, expected {method!r}")
        label = record["label"]
        if label not in self.labels(row):
            problems.append(f"label {label}, recomputed {sorted(self.labels(row))}")
            return problems
        if abs(record["score"] - self.score[row]) > self.tol:
            problems.append(f"score {record['score']!r}, recomputed {self.score[row]!r}")
        kind = KIND[label]
        if record["kind"] != kind:
            problems.append(f"kind {record['kind']} for label {label}")
            return problems
        idx = np.asarray(record["indices"], dtype=np.int64)
        if idx.ndim != 1 or (idx.size and (idx[0] < 0 or idx[-1] >= self.n_features)) or (
            np.diff(idx) <= 0
        ).any():
            return problems + ["indices not sorted, unique and in range"]
        if record["size"] != idx.size:
            problems.append(f"size {record['size']} for {idx.size} indices")
        if self.margin(row, kind, idx) < -self.tol:
            problems.append("explanation does not force the label")
        low, high = self.minimum(row, kind)
        if method == "minabro":
            if record["certified_minimum"] is not True:
                problems.append("not certified minimum")
            if not low <= idx.size <= high:
                problems.append(f"size {idx.size}, minimum {low}")
        else:
            if idx.size < low:
                problems.append(f"baseline size {idx.size} below minimum {low}")
            if self._redundant(row, kind, idx):
                problems.append("baseline keeps an index it could drop")
        return problems

    def _redundant(self, row: int, kind: str, idx: np.ndarray) -> bool:
        """Whether some kept index can be dropped with the set staying valid."""
        if idx.size == 0:
            return False
        smin = self.base_min + float(self.gain_min[row, idx].sum()) - self.gain_min[row, idx]
        smax = self.base_max - float(self.gain_max[row, idx].sum()) + self.gain_max[row, idx]
        return bool((self._slack(kind, smax, smin) > self.tol).any())


class Tally:
    """Operations attempted and failed, and the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failed operations that returned a wrong answer
        self.problems: list[str] = []

    def add(self, where: str, problems: list[str], raised: bool = False) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += not raised
            if len(self.problems) < 20:
                self.problems.append(f"{where}: {'; '.join(problems)}")


def _read_report(path: Path, code: int) -> tuple[list | None, str]:
    """The report's lines, or None and the reason it has no usable ones."""
    if code != 0:
        return None, f"exit code {code}"
    try:
        lines = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    except (OSError, ValueError) as exc:
        return None, f"unreadable report ({exc})"
    if not lines or "aggregate" not in lines[-1]:
        return None, "no aggregate line at the end"
    return lines, ""


def check_report(problem: Problem, path: Path, code: int, tally: Tally) -> list[int]:
    """Check one ``explain --method both`` report, one operation per row.

    A fault of the whole report fails every row.  Returns the baseline size
    minus the minabro size of every row whose two records passed.
    """
    lines, reason = _read_report(path, code)
    if lines is None:
        for row in range(problem.n_rows):
            tally.add(f"{path.name} row {row}", [reason], raised=code != 0)
        return []

    records, aggregate = lines[:-1], lines[-1]["aggregate"]
    by_row: dict[int, dict[str, list]] = {}
    for record in records:
        by_row.setdefault(record.get("instance_id"), {}).setdefault(
            record.get("method"), []
        ).append(record)
    report_problems = _aggregate_problems(problem, records, aggregate)
    unknown = set(by_row) - set(range(problem.n_rows))
    if unknown:
        report_problems.append(f"records for unknown rows {sorted(unknown, key=str)[:5]}")
    extra = []
    for row in range(problem.n_rows):
        got = by_row.get(row, {})
        problems = list(report_problems)
        if not problem.in_domain[row]:
            if got:
                problems.append("records for an out-of-domain row")
            tally.add(f"{path.name} row {row}", problems)
            continue
        for method in ("minabro", "baseline"):
            found = got.get(method, [])
            if len(found) != 1:
                problems.append(f"{len(found)} {method} records")
            else:
                problems += problem.check_record(row, found[0], method)
        if not problems:
            extra.append(got["baseline"][0]["size"] - got["minabro"][0]["size"])
        tally.add(f"{path.name} row {row}", problems)
    return extra


def _aggregate_problems(problem: Problem, records: list[dict], aggregate: dict) -> list[str]:
    problems = []
    skipped = int((~problem.in_domain).sum())
    if aggregate.get("skipped_out_of_domain") != skipped:
        problems.append(
            f"aggregate skips {aggregate.get('skipped_out_of_domain')}, expected {skipped}"
        )
    groups = aggregate.get("by_group", {})
    for method in ("minabro", "baseline"):
        for split in ("classified", "rejected"):
            count = sum(
                1 for r in records
                if r.get("method") == method and (r.get("kind") == "REJECTION") == (split == "rejected")
            )
            if groups.get(f"{method}/{split}", {}).get("count") != count:
                problems.append(f"aggregate count of {method}/{split} is not {count}")
    return problems


def check_latency(problem: Problem, outputs: dict, first: dict, tally: Tally, where: str) -> None:
    """Check one pass of per-row minabro calls, one operation per row.

    ``outputs`` holds the rows whose output differs from the first pass's;
    every other row repeats the first pass's output, given in ``first``.
    """
    for row in range(problem.n_rows):
        out = outputs.get(str(row), first.get(str(row)))
        if out is None:
            tally.add(f"{where} row {row}", ["no output"])
        elif isinstance(out, str):
            tally.add(f"{where} row {row}", [f"raised {out}"], raised=True)
        else:
            tally.add(f"{where} row {row}", problem.check_record(row, out, "minabro"))
