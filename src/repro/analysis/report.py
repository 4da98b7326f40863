"""The lint report: text rendering and the ``lint_report`` wire form.

A :class:`LintReport` is what one lint run produced: the surviving
findings, the ``# scar: noqa``-suppressed ones (kept visible -- a
suppression is a reviewed decision, not a deletion), and the run's
scope.  It is written in the same kind/version JSON envelope as every
other document in the system (``kind: "lint_report"``), so CI
artifacts and tooling consume it like schedule results or job
records.  Nothing in the program reads it back.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.core import Finding
from repro.api.wire import WIRE_VERSION

#: Document kind of the JSON lint report.
REPORT_KIND = "lint_report"


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run (``kind: "lint_report"`` on the wire).

    ``timings`` (per-checker wall time) is an observability field, not
    identity -- :func:`strip_nonidentity` zeroes it so two runs of the
    same tree compare byte-identical.
    """

    findings: tuple[Finding, ...] = ()
    suppressed: tuple[Finding, ...] = ()
    checked_files: int = 0
    codes: tuple[str, ...] = field(default_factory=tuple)
    # Run-performance fields are excluded from equality, the same
    # convention as ScheduleResult.perf: the *identity* of a lint run
    # is what was checked and what was found, never how fast.
    timings: dict[str, float] = field(default_factory=dict,
                                      compare=False)

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts(self) -> dict[str, int]:
        """Surviving findings per checker code, sorted by code."""
        counter = Counter(finding.code for finding in self.findings)
        return dict(sorted(counter.items()))

    # -- text form ---------------------------------------------------------

    def summary_line(self) -> str:
        per_code = ", ".join(f"{count} {code}"
                             for code, count in self.counts().items())
        head = f"{len(self.findings)} finding" \
               f"{'s' if len(self.findings) != 1 else ''}"
        if per_code:
            head += f" ({per_code})"
        return (f"{head} in {self.checked_files} file"
                f"{'s' if self.checked_files != 1 else ''}; "
                f"{len(self.suppressed)} suppressed")

    def render(self) -> str:
        lines = [finding.render() for finding in self.findings]
        lines.extend(f"{finding.render()} (suppressed)"
                     for finding in self.suppressed)
        lines.append(self.summary_line())
        return "\n".join(lines)

    def stats_lines(self) -> list[str]:
        """Per-checker wall time (``scar lint --stats``)."""
        lines = ["timings:"]
        for code in self.codes:
            lines.append(
                f"  {code}: {self.timings.get(code, 0.0) * 1e3:.1f} ms")
        return lines

    # -- wire format -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": REPORT_KIND,
            "version": WIRE_VERSION,
            "checked_files": self.checked_files,
            "codes": list(self.codes),
            "counts": self.counts(),  # derived from the findings
            "findings": [finding.to_dict()
                         for finding in self.findings],
            "suppressed": [finding.to_dict()
                           for finding in self.suppressed],
            "timings": {code: self.timings.get(code, 0.0)
                        for code in self.codes},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def strip_nonidentity(document: dict[str, Any]) -> dict[str, Any]:
    """A copy of a ``lint_report`` document with its per-checker
    timings zeroed, for byte-identity comparisons (same convention as
    ``repro.sim.metrics.strip_nonidentity``).  The *identity* of a
    lint run -- what was checked and what was found -- is everything
    that remains.
    """
    stripped = dict(document)
    stripped["timings"] = {code: 0.0
                           for code in document.get("timings", {})}
    return stripped
