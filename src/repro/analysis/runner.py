"""Lint orchestration: discovery, incremental cache, parallel phases.

The engine runs in two phases:

* the **per-file phase** parses each source, runs the per-file
  checkers that apply to it, and distills the file into a
  :class:`~repro.analysis.graph.FileSummary`.  Its results depend
  only on the file's bytes and the enabled per-file codes, so they
  are cached by content hash (:mod:`repro.analysis.cache`) and can
  run in parallel worker processes (``scar lint --jobs N``, same
  initializer/worker idiom as the SCAR window-search pool);
* the **program phase** assembles every summary into a
  :class:`~repro.analysis.graph.ProgramModel` and runs the
  whole-program checkers (deadlock, taint, schema drift, dead
  symbols).  It always runs -- cross-module facts cannot be cached
  per file -- but reads only summaries, parsing individual sources
  lazily when a checker asks.

A warm incremental run therefore re-parses only files whose content
hash changed *plus their import-graph dependents* (a changed module
can change what its importers' cross-module findings mean, so their
summaries are rebuilt from fresh parses), then re-runs the program
phase over mostly-cached summaries.

:func:`run_checkers` is the same engine over pre-built in-memory
:class:`~repro.analysis.core.SourceFile` objects -- what the checker
fixture tests drive -- minus discovery, cache and workers.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.analysis.cache import LintCache
from repro.analysis.core import (
    Checker,
    Finding,
    SourceFile,
    build_checkers,
)
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


# -- the per-file phase ------------------------------------------------------


def _analyze_file(source: SourceFile,
                  checkers: Sequence[Checker]) -> dict[str, Any]:
    """Parse + per-file checks + summary for one source."""
    source.tree  # parse now: unparsable input is a lint error
    findings: list[Finding] = []
    timings: dict[str, float] = {}
    for checker in checkers:
        started = time.perf_counter()
        if checker.applies_to(source):
            findings.extend(checker.check(source))
        timings[checker.code] = \
            timings.get(checker.code, 0.0) \
            + (time.perf_counter() - started)
    summary = summarize(source, taint_extractor=extract_taint)
    return {
        "path": source.path,
        "hash": source.content_hash,
        "summary": summary.to_dict(),
        "findings": [finding.to_dict() for finding in findings],
        "timings": timings,
    }


# Worker-process state, set once per worker by the initializer (the
# same module-global idiom as repro.core.scar._worker_init).
_WORKER: dict[str, Any] = {}


def _worker_init(per_file_codes: Sequence[str]) -> None:
    import repro.analysis  # noqa: F401  (registers the checkers)

    _WORKER["checkers"] = build_checkers(select=per_file_codes) \
        if per_file_codes else []


def _worker_lint(path: str) -> dict[str, Any]:
    try:
        source = SourceFile.load(path)
        return _analyze_file(source, _WORKER["checkers"])
    except AnalysisError as exc:
        return {"path": path, "error": str(exc)}


def _per_file_results(sources: Sequence[SourceFile],
                      checkers: Sequence[Checker],
                      jobs: int) -> dict[str, dict[str, Any]]:
    """Per-file phase over ``sources``, serial or process-parallel."""
    results: dict[str, dict[str, Any]] = {}
    per_file_codes = [checker.code for checker in checkers]
    if jobs > 1 and len(sources) > 1:
        with ProcessPoolExecutor(
                max_workers=min(jobs, len(sources)),
                initializer=_worker_init,
                initargs=(per_file_codes,)) as pool:
            for result in pool.map(
                    _worker_lint,
                    [source.path for source in sources],
                    chunksize=8):
                results[result["path"]] = result
    else:
        for source in sources:
            try:
                results[source.path] = _analyze_file(source, checkers)
            except AnalysisError as exc:
                results[source.path] = {"path": source.path,
                                        "error": str(exc)}
    for result in results.values():
        if "error" in result:
            raise AnalysisError(result["error"])
    return results


# -- cache validity ----------------------------------------------------------


def _valid_cache_entries(sources: Sequence[SourceFile],
                         cached: dict[str, dict[str, Any]],
                         per_file_codes: Sequence[str]
                         ) -> dict[str, dict[str, Any]]:
    """Entries reusable as-is: same hash, same per-file code set.

    Import-graph invalidation then *removes* entries whose module
    directly imports a changed module: their per-file results are
    still byte-valid (per-file checkers see only the file), but the
    engine's contract is that a touched file re-analyzes together
    with its direct importers, so their summaries are rebuilt from a
    fresh parse too.  Direct -- not transitive -- dependents keep the
    blast radius of a leaf edit proportional to its real fan-in; the
    whole-program phase re-runs over all summaries every lint anyway,
    so cross-module findings never go stale.
    """
    codes = list(per_file_codes)
    valid: dict[str, dict[str, Any]] = {}
    for source in sources:
        entry = cached.get(source.path)
        if entry is None:
            continue
        if entry.get("hash") != source.content_hash:
            continue
        if list(entry.get("codes", ())) != codes:
            continue
        valid[source.path] = entry
    module_set = {source.module for source in sources}
    changed = {source.module for source in sources
               if source.path not in valid}
    for source in sources:
        entry = valid.get(source.path)
        if entry is None:
            continue
        summary = FileSummary.from_dict(entry["summary"])
        if summary.project_imports(module_set) & changed:
            del valid[source.path]
    return valid


# -- assembly ----------------------------------------------------------------


def _fold_report(sources: Sequence[SourceFile],
                 raw: list[Finding],
                 enabled: Sequence[str],
                 directives: dict[str, dict[int, frozenset[str]]],
                 *,
                 timings: dict[str, float],
                 cache_hits: int, cache_misses: int,
                 jobs: int) -> LintReport:
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
        timings={code: timings.get(code, 0.0) for code in enabled},
        cache_hits=cache_hits, cache_misses=cache_misses, jobs=jobs)


def _run_program_phase(program: ProgramModel,
                       checkers: Sequence[Checker],
                       sources: Sequence[SourceFile],
                       timings: dict[str, float]) -> list[Finding]:
    findings: list[Finding] = []
    for checker in checkers:
        started = time.perf_counter()
        findings.extend(checker.check_program(program))
        if type(checker).check_project is not Checker.check_project:
            findings.extend(checker.check_project(list(sources),
                                                  program.root))
        timings[checker.code] = timings.get(checker.code, 0.0) \
            + (time.perf_counter() - started)
    return findings


def _directives_from_summary(summary: dict[str, Any]) \
        -> dict[int, frozenset[str]]:
    return {int(line): frozenset(codes)
            for line, codes in summary.get("noqa_lines", {}).items()}


def run_checkers(sources: Sequence[SourceFile], *,
                 select: Sequence[str] | None = None,
                 ignore: Sequence[str] | None = None,
                 root: str | Path | None = None) -> LintReport:
    """Run the selected checkers over in-memory sources (no cache)."""
    checkers = build_checkers(select, ignore)
    per_file = [c for c in checkers if type(c).is_per_file()]
    program_checkers = [c for c in checkers if type(c).is_program()]
    enabled = [checker.code for checker in checkers]
    root_path = Path(root) if root is not None else Path.cwd()
    timings: dict[str, float] = {}
    raw: list[Finding] = []
    directives: dict[str, dict[int, frozenset[str]]] = {}
    summaries: list[FileSummary] = []
    for source in sources:
        result = _analyze_file(source, per_file)
        raw.extend(Finding.from_dict(entry)
                   for entry in result["findings"])
        for code, spent in result["timings"].items():
            timings[code] = timings.get(code, 0.0) + spent
        directives[source.path] = \
            _directives_from_summary(result["summary"])
        summaries.append(FileSummary.from_dict(result["summary"]))
    by_module = {source.module: source for source in sources}
    program = ProgramModel(summaries, root_path,
                           load_source=by_module.__getitem__)
    raw.extend(_run_program_phase(program, program_checkers,
                                  sources, timings))
    return _fold_report(sources, raw, enabled, directives,
                        timings=timings, cache_hits=0,
                        cache_misses=len(sources), jobs=1)


def lint_paths(paths: Iterable[str | Path], *,
               select: Sequence[str] | None = None,
               ignore: Sequence[str] | None = None,
               root: str | Path | None = None,
               jobs: int = 1,
               cache_path: str | Path | None = None,
               update_schemas: bool = False) -> LintReport:
    """Lint files/directories (the ``scar lint`` engine).

    ``root`` anchors project-level checks that read repo files
    (README.md/DESIGN.md for SCAR005, ``analysis/schemas.json`` for
    SCAR008); it defaults to the working directory.  ``cache_path``
    enables the incremental per-file cache; ``jobs > 1`` fans the
    per-file phase out to worker processes.  ``update_schemas``
    regenerates the SCAR008 golden from the current tree before the
    program phase runs, so the run reports the *new* contract as
    clean.
    """
    root_path = Path(root) if root is not None else Path.cwd()
    checkers = build_checkers(select, ignore)
    per_file = [c for c in checkers if type(c).is_per_file()]
    program_checkers = [c for c in checkers if type(c).is_program()]
    enabled = [checker.code for checker in checkers]
    per_file_codes = [checker.code for checker in per_file]

    sources = [SourceFile.load(path)
               for path in iter_python_files(paths)]

    cache = LintCache(cache_path) if cache_path is not None else None
    cached = cache.load() if cache is not None else {}
    valid = _valid_cache_entries(sources, cached, per_file_codes)
    misses = [source for source in sources
              if source.path not in valid]

    timings: dict[str, float] = {}
    raw: list[Finding] = []
    directives: dict[str, dict[int, frozenset[str]]] = {}
    summaries: list[FileSummary] = []

    fresh = _per_file_results(misses, per_file, jobs)
    if cache is not None:
        with cache:
            for source in misses:
                result = fresh[source.path]
                cache.record({
                    "path": result["path"],
                    "hash": result["hash"],
                    "codes": per_file_codes,
                    "summary": result["summary"],
                    "findings": result["findings"],
                })
    for source in sources:
        result = valid.get(source.path) or fresh[source.path]
        raw.extend(Finding.from_dict(entry)
                   for entry in result["findings"])
        for code, spent in result.get("timings", {}).items():
            timings[code] = timings.get(code, 0.0) + spent
        directives[source.path] = \
            _directives_from_summary(result["summary"])
        summaries.append(FileSummary.from_dict(result["summary"]))

    by_module: dict[str, SourceFile] = {}
    for source in sources:
        by_module.setdefault(source.module, source)
    program = ProgramModel(summaries, root_path,
                           load_source=by_module.__getitem__)
    for source in misses:
        if by_module.get(source.module) is source:
            program.preload(source.module, source)
    if update_schemas:
        from repro.analysis.schema import write_golden

        write_golden(program, root_path)
    raw.extend(_run_program_phase(program, program_checkers,
                                  sources, timings))
    return _fold_report(sources, raw, enabled, directives,
                        timings=timings, cache_hits=len(valid),
                        cache_misses=len(misses), jobs=jobs)
