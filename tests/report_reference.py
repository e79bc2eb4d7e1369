"""The report writer, frozen as it stood before it formatted record lines
itself.

``write_explanation_report`` below ran ``json.dumps`` over a dict of each
record's fields, read through ``getattr``, so the index list came from the
record's tuple.  The body is verbatim; only the imports are absolute.
``tests/test_report_writer.py`` checks that the writer in ``minaxp.dataio``
writes the same bytes as this one.
"""

from __future__ import annotations

import json
from pathlib import Path

from minaxp.dataio import REPORT_RECORD_FIELDS, ExplanationRecord, aggregate_records


def write_explanation_report(
    records: list[ExplanationRecord],
    path,
    skipped_out_of_domain: int = 0,
    note: str | None = None,
) -> None:
    """Write one JSON record per line plus a trailing aggregate object."""
    aggregate = {
        "by_group": aggregate_records(records),
        "skipped_out_of_domain": skipped_out_of_domain,
    }
    if note is not None:
        aggregate["note"] = note
    with Path(path).open("w") as fh:
        for record in records:
            payload = {field: getattr(record, field) for field in REPORT_RECORD_FIELDS}
            fh.write(json.dumps(payload) + "\n")
        fh.write(json.dumps({"aggregate": aggregate}) + "\n")
