"""Project-invariant static analysis (the ``scar lint`` engine).

Nine PRs of review-hardening distilled into a CI gate: an
``ast``-visitor framework (:mod:`repro.analysis.core`), a
whole-program model (:mod:`repro.analysis.graph`: import graph,
symbol table, call graph, lock-acquisition graph) and seven
project-specific checkers guarding the conventions the codebase's
correctness actually rests on:

========  =================================================================
SCAR001   lock discipline: ``# guarded by: <lock>`` state only under
          ``with self.<lock>`` (:mod:`repro.analysis.locks`)
SCAR002   determinism: no process-wide RNG, wall-clock reads or bare-set
          iteration in kernel/sweep paths
          (:mod:`repro.analysis.determinism`)
SCAR006   lock-order deadlocks: the inter-procedural lock-acquisition
          graph stays acyclic (:mod:`repro.analysis.deadlock`)
SCAR007   RNG/wall-clock taint: nondeterministic values never flow
          into engine/sweep/sim/workloads call sites
          (:mod:`repro.analysis.taint`)
SCAR008   wire-schema drift: top-level emitted/parsed fields per kind
          match the golden ``analysis/schemas.json``
          (:mod:`repro.analysis.schema`)
SCAR009   dead symbols: unused ``__all__`` exports, unreachable
          registrations, orphan suppressions
          (:mod:`repro.analysis.deadsyms`)
SCAR010   hot-path allocation: no per-iteration allocations in the
          innermost loops of ``# scar: hot`` modules
          (:mod:`repro.analysis.hotpath`)
========  =================================================================

Codes SCAR003-SCAR005 are retired: the wire-envelope, error-code and
registry rules they approximated from source text are checked on the
running program by ``tests/test_contracts.py`` and
``tests/test_service_http.py::TestErrorContract``.

Findings suppress per line with ``# scar: noqa[CODE]``; reports render
as text, GitHub annotations or the ``kind: "lint_report"`` wire
document.  A lint is one serial pass: per-file facts, then the
whole-program model (:mod:`repro.analysis.runner`).  See DESIGN.md
"Static analysis" for the full contract and how to add a checker.
"""

from repro.analysis.core import (
    Checker,
    Finding,
    SourceFile,
    build_checkers,
    checker_codes,
    module_name_for,
    register_checker,
)

# Importing the checker modules registers them (same pattern as the
# built-in policies in repro.api.policies).
from repro.analysis import deadlock as _deadlock  # noqa: F401
from repro.analysis import deadsyms as _deadsyms  # noqa: F401
from repro.analysis import determinism as _determinism  # noqa: F401
from repro.analysis import hotpath as _hotpath  # noqa: F401
from repro.analysis import locks as _locks  # noqa: F401
from repro.analysis import schema as _schema  # noqa: F401
from repro.analysis import taint as _taint  # noqa: F401
from repro.analysis.graph import FileSummary, ProgramModel, summarize
from repro.analysis.report import (
    REPORT_KIND,
    LintReport,
    strip_nonidentity,
)
from repro.analysis.runner import (
    iter_python_files,
    lint_paths,
    run_checkers,
)

__all__ = [
    "Checker",
    "FileSummary",
    "Finding",
    "LintReport",
    "ProgramModel",
    "REPORT_KIND",
    "SourceFile",
    "build_checkers",
    "checker_codes",
    "iter_python_files",
    "lint_paths",
    "module_name_for",
    "register_checker",
    "run_checkers",
    "strip_nonidentity",
    "summarize",
]
