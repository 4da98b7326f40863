"""SCAR009: dead symbols -- exports, registrations and suppressions.

Three closure properties over the whole program:

* every name a module lists in ``__all__`` is imported somewhere else
  in the checked tree (tests count: a public API consumed only by its
  tests is still alive);
* every ``@register_*("name")`` plugin name is reachable -- the quoted
  name appears in ``repro.cli`` or in a test module, so a user or a
  test can actually select it;
* every ``# scar: noqa[CODE]`` directive suppresses at least one
  finding (orphan suppressions rot: the violation was fixed but the
  opt-out stayed, silently disarming the checker for that line).

The first two need the cross-module symbol table and are implemented
here as a program pass; orphan detection needs the *findings* of the
same run, so the runner calls :func:`orphan_noqa_findings` after all
checkers ran but before suppression folding (the orphan finding is
itself suppressible -- a deliberate placeholder reads as suppressed,
not clean).

Both symbol checks degrade on partial lints: without any test module
in the checked set, "never imported" cannot be judged and the export
and registry checks are skipped.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.analysis.core import Checker, Finding, register_checker
from repro.analysis.graph import REGISTRARS

_CLI_MODULE = "repro.cli"


def _is_test_module(summary: Any) -> bool:
    parts = summary.path.replace("\\", "/").split("/")
    # a path-qualified name (benchmarks.conftest) ends in the stem
    stem = summary.module.rpartition(".")[2]
    return "tests" in parts or stem.startswith("test_") \
        or stem == "conftest"


def _used_symbols(program: Any) -> set[tuple[str, str | None]]:
    """Canonical ``(defining module, symbol)`` pairs referenced
    anywhere -- symbol ``None`` means the module itself is imported.

    Every reference is resolved to where the symbol is actually
    defined (re-export chains chased), so ``from repro.core import
    Schedule`` keeps the package re-export *and* the defining
    ``repro.core.schedule`` entry alive at once.
    """
    used: set[tuple[str, str | None]] = set()
    for module in program.summaries:
        summary = program.summaries[module]
        for dep in summary.project_imports(program.modules):
            used.add((dep, None))
        module_bindings: dict[str, str] = dict(summary.imports)
        for target, orig, bound in summary.from_imports:
            if f"{target}.{orig}" in program.modules:
                if bound:
                    module_bindings[bound] = f"{target}.{orig}"
            elif bound:
                if target in program.modules:
                    used.add(program.canonical_symbol(target, orig))
                else:
                    used.add((target, orig))
        for path in summary.uses:
            target = module_bindings.get(path[0])
            if target is None:
                continue
            rest = list(path[1:])
            while rest and f"{target}.{rest[0]}" in program.modules:
                target = f"{target}.{rest[0]}"
                rest.pop(0)
                used.add((target, None))
            if rest and target != module \
                    and target in program.modules:
                used.add(program.canonical_symbol(target, rest[0]))
    return used


@register_checker
class DeadSymbolChecker(Checker):
    code = "SCAR009"
    name = "dead-symbols"
    description = ("__all__ exports are imported somewhere, "
                   "@register_* names are reachable from the CLI or "
                   "tests, and every # scar: noqa[CODE] suppresses "
                   "a real finding")

    def check_program(self, program: Any) -> Iterable[Finding]:
        if not any(_is_test_module(summary)
                   for summary in program.summaries.values()):
            return ()  # partial lint: liveness cannot be judged
        findings: list[Finding] = []
        findings.extend(self._dead_exports(program))
        findings.extend(self._dead_registrations(program))
        return findings

    def _dead_exports(self, program: Any) -> Iterable[Finding]:
        used = _used_symbols(program)
        for module in sorted(program.summaries):
            summary = program.summaries[module]
            if not summary.exports:
                continue
            for name in summary.exports:
                canonical = program.canonical_symbol(module, name)
                if (module, name) in used or canonical in used:
                    continue
                yield Finding(
                    code=self.code,
                    message=(f"{module}.__all__ exports {name!r} but "
                             f"nothing in the checked tree imports "
                             f"it"),
                    path=summary.path,
                    line=summary.exports_line or 1, col=0)

    def _dead_registrations(self, program: Any) -> Iterable[Finding]:
        reachable_texts: list[str] = []
        cli_text = program.text(_CLI_MODULE) \
            if _CLI_MODULE in program.modules else None
        if cli_text is None:
            return  # SCAR005-style degradation without the CLI
        reachable_texts.append(cli_text)
        for module in sorted(program.summaries):
            summary = program.summaries[module]
            if _is_test_module(summary):
                text = program.text(module)
                if text is not None:
                    reachable_texts.append(text)
        for module in sorted(program.summaries):
            summary = program.summaries[module]
            for registration in summary.registrations:
                name = registration["name"]
                label = REGISTRARS.get(registration["registrar"],
                                       "plugin")
                quoted = (f'"{name}"', f"'{name}'")
                if any(q in text for text in reachable_texts
                       for q in quoted):
                    continue
                yield Finding(
                    code=self.code,
                    message=(f"{label} {name!r} is registered but "
                             f"never named in repro.cli or any test; "
                             f"it is unreachable dead weight"),
                    path=summary.path, line=registration["line"],
                    col=registration["col"])


def orphan_noqa_findings(
        directives: dict[str, dict[int, frozenset[str]]],
        raw: Sequence[Finding],
        enabled_codes: Sequence[str]) -> list[Finding]:
    """Directives that suppress nothing (runner post-pass).

    ``directives`` maps each file path to its whole-comment noqa
    lines (:meth:`~repro.analysis.core.SourceFile.noqa_directives`);
    ``raw`` are the run's findings *before* suppression folding.  A
    directive is judged only when every code it names was enabled
    this run -- a partial ``--select`` cannot prove a suppression
    dead.
    """
    if "SCAR009" not in enabled_codes:
        return []
    enabled = set(enabled_codes)
    hits: dict[tuple[str, int], set[str]] = {}
    for finding in raw:
        hits.setdefault((finding.path, finding.line),
                        set()).add(finding.code)
    orphans: list[Finding] = []
    for path in sorted(directives):
        for lineno, codes in sorted(directives[path].items()):
            if not codes or not codes.issubset(enabled):
                continue
            matched = hits.get((path, lineno), set())
            dead = sorted(codes - matched)
            if not dead:
                continue
            orphans.append(Finding(
                code="SCAR009",
                message=(f"orphan suppression: # scar: "
                         f"noqa[{','.join(dead)}] suppresses no "
                         f"finding on this line"),
                path=path, line=lineno, col=0))
    return orphans
