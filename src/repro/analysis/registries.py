"""SCAR005: registered plugin names stay reachable and documented.

Scheduler policies register by name through a decorator::

    @register_policy("scar")

A name that is registered but not selectable from the CLI, or not
mentioned anywhere in README.md/DESIGN.md, is drift: users cannot
discover it and docs rot silently.  The CLI exposes the registry
*dynamically* (``--policy`` choices come from
``DEFAULT_REGISTRY.names()``), so CLI reachability is checked
structurally: the registry's choices call must appear in
``repro.cli``.  Documentation
coverage is literal: each registered name must appear in README.md or
DESIGN.md under the lint root.

This runs as a whole-program pass: the registrations come from the
:class:`~repro.analysis.graph.FileSummary` facts (the same extraction
:mod:`repro.analysis.deadsyms` consumes for SCAR009's reachability
half) and the CLI is read as raw text.

Both halves degrade gracefully on partial lints: without ``repro.cli``
in the checked set the CLI check is skipped, and without README/DESIGN
under the root the docs check is skipped.
"""

from __future__ import annotations

import re
from typing import Any, Iterable

from repro.analysis.core import Checker, Finding, register_checker
from repro.analysis.graph import REGISTRARS

#: registry label -> the dynamic-choices expression the CLI must
#: contain for names of this registry to be selectable.
_CHOICES_EXPRS: dict[str, str] = {
    "policy": "DEFAULT_REGISTRY.names()",
}

_CLI_MODULE = "repro.cli"
_DOC_FILES = ("README.md", "DESIGN.md")


@register_checker
class RegistryDriftChecker(Checker):
    code = "SCAR005"
    name = "registry-drift"
    description = ("every @register_policy name is reachable from the "
                   "CLI choices and mentioned in README.md/DESIGN.md")

    def check_program(self, program: Any) -> Iterable[Finding]:
        cli_text = program.text(_CLI_MODULE) \
            if _CLI_MODULE in program.modules else None
        docs = "\n".join(
            (program.root / name).read_text(encoding="utf-8")
            for name in _DOC_FILES
            if (program.root / name).is_file())
        findings: list[Finding] = []
        for module in sorted(program.summaries):
            summary = program.summaries[module]
            for registration in summary.registrations:
                label = REGISTRARS.get(registration["registrar"])
                if label is None:
                    continue
                name = registration["name"]
                choices_expr = _CHOICES_EXPRS[label]
                if cli_text is not None \
                        and choices_expr not in cli_text:
                    findings.append(Finding(
                        code=self.code,
                        message=(
                            f"{label} {name!r} is not reachable from "
                            f"the CLI: repro.cli never builds choices "
                            f"from {choices_expr}"),
                        path=summary.path,
                        line=registration["line"],
                        col=registration["col"]))
                if docs and not re.search(
                        rf"(?<![A-Za-z0-9_]){re.escape(name)}"
                        rf"(?![A-Za-z0-9_])", docs):
                    findings.append(Finding(
                        code=self.code,
                        message=(
                            f"{label} {name!r} is registered but "
                            f"never mentioned in "
                            f"{' / '.join(_DOC_FILES)}"),
                        path=summary.path,
                        line=registration["line"],
                        col=registration["col"]))
        return findings
