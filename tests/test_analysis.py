"""Tests for the ``scar lint`` static-analysis framework.

Each checker gets three fixture-snippet cases: a seeded violation the
checker must catch (true positive), a conforming snippet it must stay
quiet on (true negative), and a ``# scar: noqa[CODE]``-suppressed
violation.  On top of that a whole-tree smoke test asserts the shipped
``src/`` tree lints clean -- the invariant CI gates on.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Checker,
    Finding,
    LintReport,
    SourceFile,
    build_checkers,
    checker_codes,
    lint_paths,
    module_name_for,
    register_checker,
    run_checkers,
)
from repro.cli import main
from repro.errors import AnalysisError

REPO_ROOT = Path(__file__).resolve().parents[1]

ALL_CODES = ("SCAR001", "SCAR002", "SCAR006", "SCAR007", "SCAR008",
             "SCAR009", "SCAR010")


def _source(text: str, module: str = "fixture",
            path: str = "fixture.py") -> SourceFile:
    return SourceFile(path, textwrap.dedent(text), module=module)


def _lint(*sources: SourceFile, select=None, root=None) -> LintReport:
    return run_checkers(list(sources), select=select,
                        root=root if root is not None else REPO_ROOT)


def _codes(report: LintReport) -> list[str]:
    return [finding.code for finding in report.findings]


# ---------------------------------------------------------------------------
# framework


class TestFramework:
    def test_all_builtin_checkers_registered(self):
        assert checker_codes() == ALL_CODES

    def test_unknown_select_code_rejected(self):
        with pytest.raises(AnalysisError, match="SCAR999"):
            build_checkers(select=["SCAR999"])
        with pytest.raises(AnalysisError, match="SCAR999"):
            build_checkers(ignore=["SCAR999"])

    def test_select_and_ignore_filter(self):
        only = build_checkers(select=["SCAR002"])
        assert [c.code for c in only] == ["SCAR002"]
        rest = build_checkers(ignore=["SCAR002"])
        assert "SCAR002" not in [c.code for c in rest]

    def test_register_checker_rejects_bad_code(self):
        class Nameless(Checker):
            code = "BOGUS1"

        with pytest.raises(AnalysisError, match="SCARnnn"):
            register_checker(Nameless)

    def test_register_checker_rejects_duplicate_code(self):
        class Clash(Checker):
            code = "SCAR001"

        with pytest.raises(AnalysisError, match="already registered"):
            register_checker(Clash)

    def test_module_name_for(self):
        assert module_name_for(
            "src/repro/service/http.py") == "repro.service.http"
        assert module_name_for(
            "src/repro/engine/__init__.py") == "repro.engine"
        assert module_name_for("somewhere/else.py") == "else"

    def test_unparsable_source_is_an_analysis_error(self):
        bad = _source("def broken(:\n")
        with pytest.raises(AnalysisError, match="cannot parse"):
            bad.tree

    def test_missing_path_is_an_analysis_error(self):
        with pytest.raises(AnalysisError, match="no such file"):
            lint_paths(["definitely/not/here"])

    def test_noqa_parses_multiple_codes(self):
        src = _source("x = 1  # scar: noqa[SCAR001, SCAR006]\n")
        assert src.noqa_codes(1) == {"SCAR001", "SCAR006"}
        assert src.noqa_codes(2) == frozenset()

    def test_file_without_scar_is_never_tokenized(self, monkeypatch):
        import tokenize

        def refuse(*args, **kwargs):
            raise AssertionError("tokenized a file without 'scar:'")

        monkeypatch.setattr(tokenize, "generate_tokens", refuse)
        plain = _source("x = 1  # an ordinary comment\n")
        assert plain.noqa_directives() == {}
        assert not plain.has_hot_pragma()
        assert _lint(plain).clean

    def test_finding_render_shape(self):
        finding = Finding(code="SCAR001", message="boom",
                          path="a.py", line=3, col=4)
        assert finding.render() == "a.py:3:4: SCAR001 boom"


# ---------------------------------------------------------------------------
# SCAR001: lock discipline

_GUARDED_CLASS = """\
    import threading

    class Svc:
        def __init__(self):
            self._lock = threading.Lock()
            self._jobs = {}  # guarded by: _lock

        def bad(self):
            return len(self._jobs)

        def good(self):
            with self._lock:
                return len(self._jobs)

        def tally_locked(self):
            return len(self._jobs)
"""


class TestLockDiscipline:
    def test_true_positive_unlocked_access(self):
        report = _lint(_source(_GUARDED_CLASS, module="repro.service.x"),
                       select=["SCAR001"])
        assert _codes(report) == ["SCAR001"]
        message = report.findings[0].message
        assert "_jobs" in message and "Svc.bad" in message

    def test_true_negative_with_lock_and_locked_suffix(self):
        clean = _GUARDED_CLASS.replace(
            "        def bad(self):\n"
            "            return len(self._jobs)\n\n", "")
        report = _lint(_source(clean, module="repro.service.x"),
                       select=["SCAR001"])
        assert report.clean

    def test_noqa_suppresses(self):
        noisy = _GUARDED_CLASS.replace(
            "return len(self._jobs)\n\n        def good",
            "return len(self._jobs)  # scar: noqa[SCAR001]\n\n"
            "        def good")
        report = _lint(_source(noisy, module="repro.service.x"),
                       select=["SCAR001"])
        assert report.clean
        assert [f.code for f in report.suppressed] == ["SCAR001"]

    def test_module_guarded_registry(self):
        snippet = """\
            _GUARDED = {"_cache"}

            class Holder:
                def peek(self):
                    return self._cache

                def read(self):
                    with self._lock:
                        return self._cache
        """
        report = _lint(_source(snippet, module="other.module"),
                       select=["SCAR001"])
        assert _codes(report) == ["SCAR001"]
        assert "Holder.peek" in report.findings[0].message

    def test_module_guarded_dict_names_the_lock(self):
        snippet = """\
            _GUARDED = {"_cache": "_mutex"}

            class Holder:
                def wrong_lock(self):
                    with self._lock:
                        return self._cache
        """
        report = _lint(_source(snippet, module="other.module"),
                       select=["SCAR001"])
        assert _codes(report) == ["SCAR001"]
        assert "_mutex" in report.findings[0].message

    def test_closure_does_not_inherit_lock(self):
        snippet = """\
            class Svc:
                def __init__(self):
                    self._jobs = {}  # guarded by: _lock

                def sneaky(self):
                    with self._lock:
                        def later():
                            return self._jobs
                        return later
        """
        report = _lint(_source(snippet, module="repro.service.x"),
                       select=["SCAR001"])
        assert _codes(report) == ["SCAR001"]

    def test_out_of_scope_module_without_guards_is_skipped(self):
        snippet = """\
            class Free:
                def __init__(self):
                    self._jobs = {}

                def touch(self):
                    return self._jobs
        """
        report = _lint(_source(snippet, module="other.module"),
                       select=["SCAR001"])
        assert report.clean


# ---------------------------------------------------------------------------
# SCAR002: determinism

_NONDET = """\
    import random
    import time

    def jitter():
        return random.random() + time.time()

    def walk():
        for item in {"a", "b"}:
            yield item
"""


class TestDeterminism:
    def test_true_positive_each_source(self):
        report = _lint(_source(_NONDET, module="repro.engine.x"),
                       select=["SCAR002"])
        assert _codes(report) == ["SCAR002"] * 3
        rendered = report.render()
        assert "random.random" in rendered
        assert "time.time" in rendered
        assert "set literal" in rendered

    def test_from_imports_flagged(self):
        snippet = """\
            from random import choice
            from time import time
        """
        report = _lint(_source(snippet, module="repro.sweep.x"),
                       select=["SCAR002"])
        assert _codes(report) == ["SCAR002", "SCAR002"]

    def test_datetime_now_flagged(self):
        snippet = """\
            import datetime

            def stamp():
                return datetime.datetime.now()
        """
        report = _lint(
            _source(snippet, module="repro.workloads.generator"),
            select=["SCAR002"])
        assert _codes(report) == ["SCAR002"]

    def test_set_comprehension_iteration_flagged(self):
        snippet = "order = [x for x in {'a', 'b', 'c'}]\n"
        report = _lint(_source(snippet, module="repro.engine.x"),
                       select=["SCAR002"])
        assert _codes(report) == ["SCAR002"]

    def test_true_negative_sanctioned_constructs(self):
        snippet = """\
            import random
            import time

            def seeded(seed):
                rng = random.Random(seed)
                start = time.monotonic()
                for item in sorted({"a", "b"}):
                    rng.shuffle([item])
                return time.perf_counter() - start
        """
        report = _lint(_source(snippet, module="repro.engine.x"),
                       select=["SCAR002"])
        assert report.clean

    def test_out_of_scope_module_exempt(self):
        report = _lint(_source(_NONDET, module="repro.cli"),
                       select=["SCAR002"])
        assert report.clean

    def test_noqa_suppresses(self):
        noisy = _NONDET.replace(
            "return random.random() + time.time()",
            "return random.random() + time.time()"
            "  # scar: noqa[SCAR002]")
        report = _lint(_source(noisy, module="repro.engine.x"),
                       select=["SCAR002"])
        assert _codes(report) == ["SCAR002"]  # only the set literal
        assert len(report.suppressed) == 2


# ---------------------------------------------------------------------------
# whole-tree smoke + CLI


class TestWholeTree:
    def test_src_tree_is_clean(self):
        report = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
        assert report.clean, report.render()
        assert report.checked_files > 50
        # No suppression anywhere in the shipped tree.
        assert report.suppressed == ()

    def test_report_counts_and_summary(self):
        finding = Finding(code="SCAR002", message="m", path="p.py",
                          line=1)
        report = LintReport(findings=(finding, finding),
                            checked_files=3,
                            codes=("SCAR002",))
        assert report.counts() == {"SCAR002": 2}
        assert report.summary_line() == \
            "2 findings (2 SCAR002) in 3 files; 0 suppressed"


class TestCliLint:
    def test_clean_tree_exits_zero(self, capsys):
        rc = main(["lint", str(REPO_ROOT / "src"), "--select",
                   "SCAR001,SCAR002"])
        assert rc == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "engine" / "hot.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n",
                       encoding="utf-8")
        rc = main(["lint", str(tmp_path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "SCAR002" in out

    def test_json_format_is_a_wire_document(self, capsys):
        rc = main(["lint", str(REPO_ROOT / "src" / "repro" /
                               "analysis"), "--format", "json"])
        assert rc == 0
        report = LintReport.from_json(capsys.readouterr().out)
        assert report.clean
        assert report.codes == ALL_CODES

    def test_unknown_code_exits_two(self, capsys):
        rc = main(["lint", "--select", "SCAR999"])
        assert rc == 2
        assert "SCAR999" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        rc = main(["lint", "no/such/dir"])
        assert rc == 2
