"""Structured pass/fail reporting for verification runs.

A run produces a :class:`RunReport` with exactly four fields — the
command name, an echo of its effective parameters, the list of named
:class:`Check` results, and the elapsed wall time in milliseconds.
Three renderers cover machine use (JSON, round-trippable), spreadsheets
(CSV, '.' decimal separator, 12 significant digits, header row) and
terminals (aligned text).

Everything rendered is deterministic for a fixed command + seed except
the ``elapsed`` field, which consumers are expected to mask when
comparing runs byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

SIG_DIGITS = 12


def fmt_real(x: float) -> str:
    """Format a float with 12 significant digits, '.' decimal, no grouping."""
    return f"{x:.{SIG_DIGITS}g}"


def _plain(v):
    """JSON-safe copy of a witness value (exact rationals become strings)."""
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    if isinstance(v, (list, tuple)):
        return [_plain(u) for u in v]
    if isinstance(v, dict):
        return {str(k): _plain(u) for k, u in v.items()}
    return str(v)


def _cell(v):
    """A rendered value: a float at 12 significant digits, else its plain copy."""
    return fmt_real(v) if isinstance(v, float) else _plain(v)


@dataclass
class Check:
    """One named verification: status 'pass' or 'fail' plus witness values."""

    name: str
    passed: bool
    cases: int
    witness: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


@dataclass
class RunReport:
    """Everything one command run produced; ``elapsed`` is milliseconds."""

    command: str
    parameters: dict
    checks: list[Check]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def to_json(report: RunReport) -> str:
    obj = {
        "command": report.command,
        "parameters": _plain(report.parameters),
        "checks": [
            {
                "name": c.name,
                "status": c.status,
                "witness": _plain({"cases": c.cases, **c.witness}),
            }
            for c in report.checks
        ],
        "elapsed": report.elapsed,
    }
    return json.dumps(obj, indent=2)


def to_csv(report: RunReport) -> str:
    """One row per check: name, status, cases, witness as packed key=value."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["name", "status", "cases", "witness"])
    for c in report.checks:
        packed = "; ".join(f"{k}={_cell(v)}" for k, v in c.witness.items())
        w.writerow([c.name, c.status, c.cases, packed])
    return buf.getvalue()


def to_text(report: RunReport) -> str:
    lines = [f"{report.command}: {'PASS' if report.passed else 'FAIL'}"]
    for k, v in report.parameters.items():
        lines.append(f"  {k} = {_cell(v)}")
    width = max((len(c.name) for c in report.checks), default=0)
    for c in report.checks:
        extra = "".join(f"  {k}={_cell(v)}" for k, v in c.witness.items())
        lines.append(f"  {c.name:<{width}}  {c.status}  cases={c.cases}{extra}")
    lines.append(f"  elapsed = {report.elapsed:.1f} ms")
    return "\n".join(lines) + "\n"


def rows_to_csv(header: list[str], rows: list[list]) -> str:
    """Generic numeric table CSV: floats at 12 significant digits."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_cell(v) for v in row])
    return buf.getvalue()


def render(report: RunReport, fmt: str) -> str:
    if fmt == "json":
        return to_json(report) + "\n"
    if fmt == "csv":
        return to_csv(report)
    if fmt == "text":
        return to_text(report)
    raise ValueError(f"unknown format {fmt!r}")
