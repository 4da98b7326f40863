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

ALL_CODES = ("SCAR001", "SCAR002", "SCAR003", "SCAR004", "SCAR005",
             "SCAR006", "SCAR007", "SCAR008", "SCAR009", "SCAR010")


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
        src = _source("x = 1  # scar: noqa[SCAR001, SCAR005]\n")
        assert src.noqa_codes(1) == {"SCAR001", "SCAR005"}
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
# SCAR003: wire envelope

_GOOD_DOC = """\
    import json
    from repro.api.wire import check_envelope, loads_document

    class Doc:
        def to_dict(self):
            return {"kind": "doc", "version": 1}

        @classmethod
        def from_dict(cls, data):
            check_envelope(data, "doc")
            return cls()

        def to_json(self):
            return json.dumps(self.to_dict())

        @classmethod
        def from_json(cls, text):
            return cls.from_dict(loads_document(text, "doc"))
"""


class TestWireEnvelope:
    def test_true_negative_conforming_document(self):
        report = _lint(_source(_GOOD_DOC), select=["SCAR003"])
        assert report.clean

    def test_bare_json_loads_flagged(self):
        bad = _GOOD_DOC.replace("loads_document(text, \"doc\")",
                                "json.loads(text)")
        report = _lint(_source(bad), select=["SCAR003"])
        assert _codes(report) == ["SCAR003"]
        assert "json.loads" in report.findings[0].message

    def test_missing_from_dict_flagged(self):
        snippet = """\
            from repro.api.wire import loads_document

            class Doc:
                @classmethod
                def from_json(cls, text):
                    loads_document(text, "doc")
                    return cls()
        """
        report = _lint(_source(snippet), select=["SCAR003"])
        assert _codes(report) == ["SCAR003"]
        assert "no from_dict" in report.findings[0].message

    def test_from_dict_without_check_envelope_flagged(self):
        bad = _GOOD_DOC.replace("check_envelope(data, \"doc\")\n", "")
        report = _lint(_source(bad), select=["SCAR003"])
        assert _codes(report) == ["SCAR003"]
        assert "check_envelope" in report.findings[0].message

    def test_to_dict_without_kind_flagged(self):
        bad = _GOOD_DOC.replace('{"kind": "doc", "version": 1}',
                                '{"version": 1}')
        report = _lint(_source(bad), select=["SCAR003"])
        assert _codes(report) == ["SCAR003"]
        assert "kind" in report.findings[0].message

    def test_nested_payload_without_from_json_exempt(self):
        snippet = """\
            class Point:
                def to_dict(self):
                    return {"x": 1}

                @classmethod
                def from_dict(cls, data):
                    return cls()
        """
        report = _lint(_source(snippet), select=["SCAR003"])
        assert report.clean

    def test_noqa_suppresses(self):
        snippet = """\
            import json
            from repro.api.wire import check_envelope

            class Doc:
                def to_dict(self):
                    return {"kind": "doc"}

                @classmethod
                def from_dict(cls, data):
                    check_envelope(data, "doc")
                    return cls()

                @classmethod
                def from_json(cls, text):
                    data = json.loads(text)  # scar: noqa[SCAR003]
                    return cls.from_dict(data)
        """
        report = _lint(_source(snippet), select=["SCAR003"])
        assert report.clean
        assert len(report.suppressed) == 1


# ---------------------------------------------------------------------------
# SCAR004: error-code mapping

_ERRORS_FIXTURE = """\
class ReproError(Exception):
    code: str = "repro_error"
    http_status: int = 500

class ConfigError(ReproError):
    code = "config_error"
    http_status = 400

class ServiceError(ReproError):
    code = "service_error"
"""

_WIRE_FIXTURE = """\
_SERVICE_CONDITIONS = {
    "job_not_done": ServiceError,
    "bad_request": ConfigError,
}
"""

_HTTP_FIXTURE = """\
class Handler:
    def fail(self):
        self._send_error_doc(400, "config_error", "bad")
        self._send_error_doc(409, "job_not_done", "later")
"""

_LONELY_ERROR = """\

class LonelyError(ReproError):
    pass
"""


def _errmap_sources(errors=_ERRORS_FIXTURE, wire=_WIRE_FIXTURE,
                    http=_HTTP_FIXTURE):
    return (
        _source(errors, module="repro.errors", path="errors.py"),
        _source(wire, module="repro.api.wire", path="wire.py"),
        _source(http, module="repro.service.http", path="http.py"),
    )


class TestErrorCodeMapping:
    def test_true_negative_closed_mapping(self):
        report = _lint(*_errmap_sources(), select=["SCAR004"])
        assert report.clean

    def test_unmapped_exception_flagged(self):
        report = _lint(*_errmap_sources(errors=_ERRORS_FIXTURE
                                        + _LONELY_ERROR),
                       select=["SCAR004"])
        assert _codes(report) == ["SCAR004"]
        assert "LonelyError" in report.findings[0].message

    def test_shared_code_flagged(self):
        errors = _ERRORS_FIXTURE + textwrap.dedent("""\

            class TwinError(ReproError):
                code = "config_error"
        """)
        report = _lint(*_errmap_sources(errors=errors),
                       select=["SCAR004"])
        assert _codes(report) == ["SCAR004"]
        assert "TwinError reuses wire code 'config_error' of " \
            "ConfigError" in report.findings[0].message

    def test_condition_reusing_a_class_code_flagged(self):
        wire = _WIRE_FIXTURE.replace('"bad_request"', '"service_error"')
        report = _lint(*_errmap_sources(wire=wire), select=["SCAR004"])
        assert _codes(report) == ["SCAR004"]
        assert "'service_error'" in report.findings[0].message

    def test_condition_naming_unknown_class_flagged(self):
        wire = _WIRE_FIXTURE.replace(
            '"bad_request": ConfigError,',
            '"bad_request": ConfigError,\n    "odd": NotAClass,')
        report = _lint(*_errmap_sources(wire=wire), select=["SCAR004"])
        assert _codes(report) == ["SCAR004"]
        assert "NotAClass" in report.findings[0].message

    def test_http_unresolvable_code_flagged(self):
        http = _HTTP_FIXTURE.replace('"config_error"', '"mystery_code"')
        report = _lint(*_errmap_sources(http=http), select=["SCAR004"])
        assert _codes(report) == ["SCAR004"]
        assert "mystery_code" in report.findings[0].message

    def test_errors_module_checked_alone(self):
        report = _lint(
            _source(_ERRORS_FIXTURE + _LONELY_ERROR,
                    module="repro.errors", path="errors.py"),
            select=["SCAR004"])
        assert _codes(report) == ["SCAR004"]

    def test_skipped_when_errors_module_absent(self):
        http = _HTTP_FIXTURE.replace('"config_error"', '"mystery_code"')
        report = _lint(*_errmap_sources(http=http)[1:],
                       select=["SCAR004"])
        assert report.clean

    def test_noqa_suppresses(self):
        errors = _ERRORS_FIXTURE + _LONELY_ERROR.replace(
            "(ReproError):", "(ReproError):  # scar: noqa[SCAR004]")
        report = _lint(*_errmap_sources(errors=errors),
                       select=["SCAR004"])
        assert report.clean
        assert len(report.suppressed) == 1


# ---------------------------------------------------------------------------
# SCAR005: registry drift

_REGISTRATION = """\
    @register_policy("fancy")
    class FancyPolicy:
        pass
"""

_CLI_WITH_CHOICES = """\
    def build_parser():
        choices = DEFAULT_REGISTRY.names()
        return choices
"""


class TestRegistryDrift:
    def _run(self, tmp_path, *, registration=_REGISTRATION,
             cli=_CLI_WITH_CHOICES, docs="the fancy policy"):
        if docs is not None:
            (tmp_path / "README.md").write_text(docs, encoding="utf-8")
        sources = [
            _source(registration, module="repro.api.policies",
                    path="policies.py"),
        ]
        if cli is not None:
            sources.append(_source(cli, module="repro.cli",
                                   path="cli.py"))
        return _lint(*sources, select=["SCAR005"], root=tmp_path)

    def test_true_negative_reachable_and_documented(self, tmp_path):
        assert self._run(tmp_path).clean

    def test_undocumented_name_flagged(self, tmp_path):
        report = self._run(tmp_path, docs="no mention here")
        assert _codes(report) == ["SCAR005"]
        assert "'fancy'" in report.findings[0].message
        assert "README" in report.findings[0].message

    def test_word_boundary_match(self, tmp_path):
        # "fancyful" must not count as documenting "fancy".
        report = self._run(tmp_path, docs="a fancyful aside")
        assert _codes(report) == ["SCAR005"]

    def test_cli_without_choices_expr_flagged(self, tmp_path):
        report = self._run(
            tmp_path, cli="def build_parser():\n    return None\n")
        assert _codes(report) == ["SCAR005"]
        assert "not reachable from the CLI" in \
            report.findings[0].message

    def test_skipped_without_cli_or_docs(self, tmp_path):
        assert self._run(tmp_path, cli=None, docs=None).clean

    def test_noqa_suppresses(self, tmp_path):
        registration = _REGISTRATION.replace(
            '@register_policy("fancy")',
            '@register_policy("fancy")  # scar: noqa[SCAR005]')
        report = self._run(tmp_path, registration=registration,
                           docs="undocumented on purpose")
        assert report.clean
        assert len(report.suppressed) == 1


# ---------------------------------------------------------------------------
# whole-tree smoke + CLI


class TestWholeTree:
    def test_src_tree_is_clean(self):
        report = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
        assert report.clean, report.render()
        assert report.checked_files > 50
        # The acceptance bar: SCAR001..SCAR004 hold with zero
        # suppressions anywhere in the shipped tree.
        gated = [f for f in report.suppressed if f.code != "SCAR005"]
        assert gated == []

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
