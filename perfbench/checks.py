"""Correctness checks on the result.csv an op writes.

Every op must write a CSV whose cells are all finite, whose bounded columns
(populations, amplitude magnitudes, discrepancies, fidelities, leakages) stay
in [0, 1] within BOUND_SLACK, and whose norm column stays within NORM_ATOL of
1. An op with a committed reference must also match it cell by cell within
REFERENCE_ATOL; whether the bytes match is reported, not required.
"""

from __future__ import annotations

import math
import os
import re

REFERENCE_ATOL = 1e-10
BOUND_SLACK = 1e-9
NORM_ATOL = 1e-6

RESULT_NAME = "result.csv"
MANIFEST_NAME = "manifest"
BOUNDED_COLUMN = re.compile(
    r"^(p\d|p_|amp\d|is_dark$|path_fraction$)|discrepancy|fidelity|leakage"
)


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    """Header and numeric rows; raises ValueError on a malformed table."""
    lines = text.splitlines()
    if len(lines) < 2:
        raise ValueError("table has no data rows")
    header = lines[0].split(",")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"line {number} has {len(cells)} cells, header has {len(header)}")
        rows.append([float(cell) for cell in cells])
    return header, rows


def invariant_problems(header: list[str], rows: list[list[float]]) -> list[str]:
    problems = []
    for col, name in enumerate(header):
        values = [row[col] for row in rows]
        bad = [v for v in values if not math.isfinite(v)]
        if bad:
            problems.append(f"column {name} has non-finite value {bad[0]!r}")
            continue
        if BOUNDED_COLUMN.search(name):
            low, high = min(values), max(values)
            if low < -BOUND_SLACK or high > 1.0 + BOUND_SLACK:
                problems.append(f"column {name} leaves [0, 1]: [{low!r}, {high!r}]")
        if name == "norm":
            drift = max(abs(v - 1.0) for v in values)
            if drift > NORM_ATOL:
                problems.append(f"column norm drifts from 1 by {drift:.3g}")
    return problems


def reference_problems(header, rows, reference_text: str) -> tuple[list[str], float]:
    """Problems against a reference table and the largest cell difference."""
    ref_header, ref_rows = parse_csv(reference_text)
    if header != ref_header:
        return [f"header {header} differs from reference {ref_header}"], math.inf
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"], math.inf
    diffs = [abs(v - r) for row, ref_row in zip(rows, ref_rows) for v, r in zip(row, ref_row)]
    worst = math.inf if any(math.isnan(d) for d in diffs) else max(diffs, default=0.0)
    if worst > REFERENCE_ATOL:
        return [f"max |diff| from reference {worst:.3g} > {REFERENCE_ATOL}"], worst
    return [], worst


def check_output(out_dir: str, reference_text: str | None = None) -> dict:
    """Check one op's output directory.

    Returns {"problems": [...], "max_diff": float | None, "bytes_equal": bool | None};
    the op passes when problems is empty.
    """
    report = {"problems": [], "max_diff": None, "bytes_equal": None}
    if not os.path.isfile(os.path.join(out_dir, MANIFEST_NAME)):
        report["problems"].append("no manifest written")
    try:
        with open(os.path.join(out_dir, RESULT_NAME), encoding="utf-8") as handle:
            text = handle.read()
        header, rows = parse_csv(text)
    except (OSError, ValueError) as exc:
        report["problems"].append(f"unreadable {RESULT_NAME}: {exc}")
        return report
    report["problems"] += invariant_problems(header, rows)
    if reference_text is not None:
        report["bytes_equal"] = text == reference_text
        problems, worst = reference_problems(header, rows, reference_text)
        report["problems"] += problems
        report["max_diff"] = worst
    return report
