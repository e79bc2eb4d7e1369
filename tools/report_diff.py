"""Compare two explanation reports line by line, timing fields aside.

    python3 tools/report_diff.py OLD.jsonl NEW.jsonl

Each line is parsed as JSON.  A record's ``time_ms`` and every ``time_*``
field of the aggregate's groups are masked; everything else, key order
included, must match.  Exits 0 when the reports agree, 1 naming the first
line that differs (or the shorter report's end), 2 on a usage or read
error.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

MASK = "<timing>"


def masked(line: str):
    """The line's JSON value with its timing fields replaced by ``MASK``."""
    value = json.loads(line)
    if isinstance(value, dict) and "time_ms" in value:
        value["time_ms"] = MASK
    aggregate = value.get("aggregate") if isinstance(value, dict) else None
    if isinstance(aggregate, dict):
        for stats in aggregate.get("by_group", {}).values():
            for key in stats:
                if key.startswith("time_"):
                    stats[key] = MASK
    return value


def first_difference(old_lines: list[str], new_lines: list[str]) -> str | None:
    """A description of the first differing line, or None when none differs."""
    for number, (old, new) in enumerate(zip(old_lines, new_lines), 1):
        old_value, new_value = masked(old), masked(new)
        # Key order is compared too: the writer's field order is part of the format.
        if json.dumps(old_value) != json.dumps(new_value):
            return f"line {number} differs:\n- {json.dumps(old_value)}\n+ {json.dumps(new_value)}"
    if len(old_lines) != len(new_lines):
        shorter = min(len(old_lines), len(new_lines))
        return f"line {shorter + 1} differs: the reports have {len(old_lines)} and {len(new_lines)} lines"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    try:
        old_lines, new_lines = (path.read_text().splitlines() for path in (args.old, args.new))
        difference = first_difference(old_lines, new_lines)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if difference is not None:
        print(f"{args.old} vs {args.new}: {difference}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
