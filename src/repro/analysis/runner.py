"""Lint orchestration: discovery, then one serial pass.

:func:`run_checkers` is the engine, in two phases:

* the **per-file phase** parses each source, runs the per-file
  checkers that apply to it, and distills the file into a
  :class:`~repro.analysis.graph.FileSummary`;
* the **program phase** hands every summary, together with its parsed
  source, to a :class:`~repro.analysis.graph.ProgramModel` and runs the
  whole-program checkers (deadlock, taint, schema drift, dead
  symbols).

:func:`lint_paths` (``scar lint``) is file discovery plus one
:func:`run_checkers` call; the checker fixture tests drive
:func:`run_checkers` directly over in-memory
:class:`~repro.analysis.core.SourceFile` objects.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.core import Finding, SourceFile, build_checkers
from repro.analysis.deadsyms import orphan_noqa_findings
from repro.analysis.graph import FileSummary, ProgramModel, summarize
from repro.analysis.report import LintReport
from repro.analysis.taint import extract_taint
from repro.errors import AnalysisError

#: Directory names never descended into during discovery: caches,
#: VCS internals, virtualenvs and build detritus.
_SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".venv", "venv", "build", "dist", ".eggs",
})


def _skip_part(part: str) -> bool:
    return part in _SKIP_DIRS or part.endswith(".egg-info")


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories to a sorted list of ``.py`` files.

    Skip-dir names are filtered at any nesting depth; symlinks are
    resolved *for deduplication only* (two spellings of one real file
    lint once) while the returned paths keep their given spelling, so
    findings render repo-relative.
    """
    files: list[Path] = []
    seen: set[Path] = set()

    def add(path: Path) -> None:
        try:
            real = path.resolve()
        except OSError:
            real = path
        if real not in seen:
            seen.add(real)
            files.append(path)

    for given in paths:
        path = Path(given)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not any(_skip_part(part)
                           for part in candidate.parts):
                    add(candidate)
        elif path.is_file():
            add(path)
        else:
            raise AnalysisError(f"no such file or directory: {path}")
    return sorted(files)


# -- the engine --------------------------------------------------------------


def _qualify_shared_modules(sources: Sequence[SourceFile],
                            root: Path) -> None:
    """Give files that share a module name distinct identities.

    Outside a ``repro`` tree a file's module is its stem, so
    ``tests/conftest.py`` and ``benchmarks/conftest.py`` would both be
    ``conftest`` and the program model would see only one of them.
    Each file whose name collides is named after its path under
    ``root`` instead (``tests.conftest``, ``benchmarks.conftest``).
    """
    counts = Counter(source.module for source in sources)
    for source in sources:
        if counts[source.module] > 1:
            path = Path(source.path).resolve().with_suffix("")
            try:
                parts = path.relative_to(root.resolve()).parts
            except ValueError:
                parts = path.parts[1:]
            source.module = ".".join(parts)


def _fold_report(sources: Sequence[SourceFile],
                 raw: list[Finding],
                 enabled: Sequence[str],
                 timings: dict[str, float]) -> LintReport:
    directives = {source.path: source.noqa_directives()
                  for source in sources}
    raw = raw + orphan_noqa_findings(directives, raw, enabled)
    raw.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    by_path = {source.path: source for source in sources}
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in raw:
        source = by_path.get(finding.path)
        if source is not None \
                and finding.code in source.noqa_codes(finding.line):
            suppressed.append(finding)
        else:
            findings.append(finding)
    return LintReport(
        findings=tuple(findings), suppressed=tuple(suppressed),
        checked_files=len(sources), codes=tuple(enabled),
        timings={code: timings.get(code, 0.0) for code in enabled})


def run_checkers(sources: Sequence[SourceFile], *,
                 select: Sequence[str] | None = None,
                 ignore: Sequence[str] | None = None,
                 root: str | Path | None = None,
                 update_schemas: bool = False) -> LintReport:
    """Run the selected checkers over parsed sources.

    ``root`` anchors program checks that read repo files
    (README.md/DESIGN.md for SCAR005, ``analysis/schemas.json`` for
    SCAR008); it defaults to the working directory.
    ``update_schemas`` regenerates the SCAR008 golden from the program
    model before the program phase runs, so the run reports the *new*
    contract as clean.
    """
    checkers = build_checkers(select, ignore)
    enabled = [checker.code for checker in checkers]
    root_path = Path(root) if root is not None else Path.cwd()
    timings: dict[str, float] = {}
    raw: list[Finding] = []

    def timed(code: str, started: float) -> None:
        timings[code] = timings.get(code, 0.0) \
            + (time.perf_counter() - started)

    _qualify_shared_modules(sources, root_path)
    per_file = [c for c in checkers if type(c).is_per_file()]
    summaries: list[FileSummary] = []
    for source in sources:
        source.tree  # parse now: unparsable input is a lint error
        for checker in per_file:
            started = time.perf_counter()
            if checker.applies_to(source):
                raw.extend(checker.check(source))
            timed(checker.code, started)
        summaries.append(summarize(source, taint_extractor=extract_taint))

    program = ProgramModel(summaries, root_path, sources)
    if update_schemas:
        from repro.analysis.schema import write_golden

        write_golden(program, root_path)
    for checker in checkers:
        if type(checker).is_program():
            started = time.perf_counter()
            raw.extend(checker.check_program(program))
            timed(checker.code, started)
    return _fold_report(sources, raw, enabled, timings)


def lint_paths(paths: Iterable[str | Path], *,
               select: Sequence[str] | None = None,
               ignore: Sequence[str] | None = None,
               root: str | Path | None = None,
               update_schemas: bool = False) -> LintReport:
    """Lint files/directories (the ``scar lint`` engine): discover
    the ``.py`` files, load them, and :func:`run_checkers` over them."""
    sources = [SourceFile.load(path)
               for path in iter_python_files(paths)]
    return run_checkers(sources, select=select, ignore=ignore,
                        root=root, update_schemas=update_schemas)
