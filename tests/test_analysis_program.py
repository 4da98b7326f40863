"""Fixture tests for the whole-program analysis layer (SCAR006-010).

Each program checker gets the same treatment as the per-file ones in
``test_analysis.py``: a minimal seeded violation it must catch, the
fixed version it must stay quiet on, and (where meaningful) a
``# scar: noqa[CODE]`` suppression.  The engine-level features --
skip-dir file discovery, the byte-identical determinism contract of
``lint_paths`` and the CLI flags -- are covered at the bottom.
"""

from __future__ import annotations

import json
import os
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    LintReport,
    ProgramModel,
    SourceFile,
    lint_paths,
    run_checkers,
    strip_nonidentity,
)
from repro.analysis import deadsyms, runner
from repro.analysis.runner import iter_python_files
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]


def _source(text: str, module: str = "fixture",
            path: str = "fixture.py") -> SourceFile:
    return SourceFile(path, textwrap.dedent(text), module=module)


def _lint(*sources: SourceFile, select=None, root=None) -> LintReport:
    return run_checkers(list(sources), select=select,
                        root=root if root is not None else REPO_ROOT)


def _codes(report: LintReport) -> list[str]:
    return [finding.code for finding in report.findings]


# ---------------------------------------------------------------------------
# SCAR006: lock-order deadlock


class TestLockOrder:
    def test_opposite_nesting_order_fires(self):
        report = _lint(_source("""\
            import threading

            class Store:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        with self._b:
                            pass

                def backward(self):
                    with self._b:
                        with self._a:
                            pass
            """), select=["SCAR006"])
        assert _codes(report) == ["SCAR006"]
        assert "cycle" in report.findings[0].message

    def test_consistent_order_is_quiet(self):
        report = _lint(_source("""\
            import threading

            class Store:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        with self._b:
                            pass

                def also_forward(self):
                    with self._a:
                        with self._b:
                            pass
            """), select=["SCAR006"])
        assert report.clean

    def test_self_deadlock_through_call_fires(self):
        report = _lint(_source("""\
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """), select=["SCAR006"])
        assert _codes(report) == ["SCAR006"]
        assert "re-acquired" in report.findings[0].message

    def test_rlock_reentry_is_quiet(self):
        report = _lint(_source("""\
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """), select=["SCAR006"])
        assert report.clean

    def test_cross_class_cycle_fires(self):
        report = _lint(_source("""\
            import threading

            class Left:
                def __init__(self, right: "Right"):
                    self._llock = threading.Lock()
                    self.right = right

                def go(self):
                    with self._llock:
                        self.right.poke()

            class Right:
                def __init__(self, left: "Left"):
                    self._rlock = threading.Lock()
                    self.left = left

                def poke(self):
                    with self._rlock:
                        pass

                def back(self):
                    with self._rlock:
                        self.left.go()
            """), select=["SCAR006"])
        assert "SCAR006" in _codes(report)
        assert any("cycle" in f.message for f in report.findings)


# ---------------------------------------------------------------------------
# SCAR007: RNG / wall-clock taint flow into engine calls

_SINK = """\
    def run(value):
        return value
    """


class TestTaintFlow:
    def _sink(self) -> SourceFile:
        return _source(_SINK, module="repro.engine.fakekern",
                       path="repro/engine/fakekern.py")

    def test_wall_clock_argument_fires(self):
        report = _lint(self._sink(), _source("""\
            import time
            from repro.engine.fakekern import run

            def kick():
                run(time.time())
            """, module="svc", path="svc.py"), select=["SCAR007"])
        assert _codes(report) == ["SCAR007"]

    def test_taint_through_helper_return_fires(self):
        report = _lint(self._sink(), _source("""\
            import time
            from repro.engine.fakekern import run

            def jitter():
                return time.time()

            def kick():
                run(jitter())
            """, module="svc", path="svc.py"), select=["SCAR007"])
        assert _codes(report) == ["SCAR007"]

    def test_seeded_random_is_clean(self):
        report = _lint(self._sink(), _source("""\
            import random
            from repro.engine.fakekern import run

            def kick():
                rng = random.Random(7)
                run(rng.random())
            """, module="svc", path="svc.py"), select=["SCAR007"])
        assert report.clean

    def test_non_sink_callee_is_quiet(self):
        report = _lint(
            _source(_SINK, module="svc.helpers", path="svc/helpers.py"),
            _source("""\
                import time
                from svc.helpers import run

                def kick():
                    run(time.time())
                """, module="svc.main", path="svc/main.py"),
            select=["SCAR007"])
        assert report.clean

    def test_noqa_suppresses(self):
        report = _lint(self._sink(), _source("""\
            import time
            from repro.engine.fakekern import run

            def kick():
                run(time.time())  # scar: noqa[SCAR007]
            """, module="svc", path="svc.py"), select=["SCAR007"])
        assert report.clean
        assert [f.code for f in report.suppressed] == ["SCAR007"]


# ---------------------------------------------------------------------------
# SCAR008: wire-schema drift against the golden file

_EMITTER = """\
    class Thing:
        def to_dict(self):
            return {"kind": "thing", "alpha": self.alpha,
                    "beta": self.beta}

        @classmethod
        def from_dict(cls, data):
            return cls(alpha=data["alpha"], beta=data["beta"])
    """


def _write_golden(root: Path, kinds: dict) -> None:
    target = root / "analysis" / "schemas.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    document = {"format": 1, "note": "test fixture", "kinds": kinds}
    target.write_text(json.dumps(document, indent=2, sort_keys=True)
                      + "\n", encoding="utf-8")


_THING_GOLDEN = {"thing": {"modules": ["repro.wirefix"],
                           "fields": ["alpha", "beta", "kind"],
                           "parses": ["alpha", "beta"]}}


class TestSchemaDrift:
    def _emitter(self) -> SourceFile:
        return _source(_EMITTER, module="repro.wirefix",
                       path="repro/wirefix.py")

    def test_missing_golden_fires(self, tmp_path):
        report = _lint(self._emitter(), select=["SCAR008"],
                       root=tmp_path)
        assert _codes(report) == ["SCAR008"]
        assert "missing" in report.findings[0].message

    def test_matching_golden_is_quiet(self, tmp_path):
        _write_golden(tmp_path, _THING_GOLDEN)
        report = _lint(self._emitter(), select=["SCAR008"],
                       root=tmp_path)
        assert report.clean

    def test_field_drift_fires(self, tmp_path):
        stale = {"thing": {"modules": ["repro.wirefix"],
                           "fields": ["alpha", "kind"],
                           "parses": ["alpha", "beta"]}}
        _write_golden(tmp_path, stale)
        report = _lint(self._emitter(), select=["SCAR008"],
                       root=tmp_path)
        assert _codes(report) == ["SCAR008"]
        assert "added: beta" in report.findings[0].message

    def test_new_kind_fires(self, tmp_path):
        _write_golden(tmp_path, {})
        report = _lint(self._emitter(), select=["SCAR008"],
                       root=tmp_path)
        assert _codes(report) == ["SCAR008"]
        assert "new wire kind 'thing'" in report.findings[0].message

    def test_stale_kind_fires_when_emitter_module_checked(
            self, tmp_path):
        kinds = dict(_THING_GOLDEN)
        kinds["ghost"] = {"modules": ["repro.wirefix"],
                          "fields": ["kind"], "parses": []}
        _write_golden(tmp_path, kinds)
        report = _lint(self._emitter(), select=["SCAR008"],
                       root=tmp_path)
        assert _codes(report) == ["SCAR008"]
        assert "'ghost'" in report.findings[0].message

    def test_stale_kind_skipped_on_partial_lint(self, tmp_path):
        kinds = dict(_THING_GOLDEN)
        kinds["ghost"] = {"modules": ["repro.elsewhere"],
                          "fields": ["kind"], "parses": []}
        _write_golden(tmp_path, kinds)
        report = _lint(self._emitter(), select=["SCAR008"],
                       root=tmp_path)
        assert report.clean


# ---------------------------------------------------------------------------
# SCAR009: dead exports, unreachable registrations, orphan noqa


class TestDeadSymbols:
    def _tests_stub(self, text: str = "import repro.util\n"
                    ) -> SourceFile:
        return _source(text, module="test_stub",
                       path="tests/test_stub.py")

    def test_dead_export_fires(self):
        report = _lint(_source("""\
            __all__ = ["helper", "unused"]

            def helper():
                return 1

            def unused():
                return 2
            """, module="repro.util", path="repro/util.py"),
            self._tests_stub("from repro.util import helper\n"),
            select=["SCAR009"])
        assert _codes(report) == ["SCAR009"]
        assert "'unused'" in report.findings[0].message

    def test_imported_export_is_quiet(self):
        report = _lint(_source("""\
            __all__ = ["helper"]

            def helper():
                return 1
            """, module="repro.util", path="repro/util.py"),
            self._tests_stub("from repro.util import helper\n"),
            select=["SCAR009"])
        assert report.clean

    def test_reexport_chain_keeps_symbol_alive(self):
        package = _source("""\
            from repro.pkg.impl import helper

            __all__ = ["helper"]
            """, module="repro.pkg", path="repro/pkg/__init__.py")
        impl = _source("""\
            __all__ = ["helper"]

            def helper():
                return 1
            """, module="repro.pkg.impl", path="repro/pkg/impl.py")
        consumer = self._tests_stub(
            "from repro.pkg import helper\n")
        report = _lint(package, impl, consumer, select=["SCAR009"])
        assert report.clean

    def test_without_test_module_liveness_is_skipped(self):
        report = _lint(_source("""\
            __all__ = ["unused"]

            def unused():
                return 2
            """, module="repro.util", path="repro/util.py"),
            select=["SCAR009"])
        assert report.clean

    def test_unreachable_registration_fires(self):
        cli = _source("names = ['baseline']\n", module="repro.cli",
                      path="repro/cli.py")
        plugin = _source("""\
            from repro.registry import register_policy

            @register_policy("ghost")
            class GhostPolicy:
                pass
            """, module="repro.plug", path="repro/plug.py")
        report = _lint(cli, plugin, self._tests_stub(),
                       select=["SCAR009"])
        codes = _codes(report)
        assert "SCAR009" in codes
        assert any("'ghost'" in f.message for f in report.findings)

    def test_registration_named_in_cli_is_quiet(self):
        cli = _source("names = ['ghost']\n", module="repro.cli",
                      path="repro/cli.py")
        plugin = _source("""\
            from repro.registry import register_policy

            @register_policy("ghost")
            class GhostPolicy:
                pass
            """, module="repro.plug", path="repro/plug.py")
        report = _lint(cli, plugin, self._tests_stub(),
                       select=["SCAR009"])
        assert report.clean

    def test_orphan_noqa_fires(self):
        report = _lint(_source("""\
            def plain():  # scar: noqa[SCAR010]
                return 1
            """, module="repro.util", path="repro/util.py"),
            select=["SCAR009", "SCAR010"])
        assert _codes(report) == ["SCAR009"]
        assert "orphan suppression" in report.findings[0].message

    def test_orphan_judgement_needs_all_codes_enabled(self):
        report = _lint(_source("""\
            def plain():  # scar: noqa[SCAR010]
                return 1
            """, module="repro.util", path="repro/util.py"),
            select=["SCAR009"])
        assert report.clean

    def test_working_noqa_is_not_an_orphan(self):
        report = _lint(_source("""\
            import time
            from repro.engine.fakekern import run

            def kick():
                run(time.time())  # scar: noqa[SCAR007]
            """, module="svc", path="svc.py"),
            _source(_SINK, module="repro.engine.fakekern",
                    path="repro/engine/fakekern.py"),
            select=["SCAR007", "SCAR009"])
        assert report.clean


# ---------------------------------------------------------------------------
# SCAR010: hot-path allocation discipline


class TestHotPath:
    def test_dict_display_in_innermost_loop_fires(self):
        report = _lint(_source("""\
            # scar: hot
            def score(rows):
                out = []
                for row in rows:
                    out.append({"row": row})
                return out
            """), select=["SCAR010"])
        assert _codes(report) == ["SCAR010"]
        assert "dict construction" in report.findings[0].message

    def test_without_pragma_is_quiet(self):
        report = _lint(_source("""\
            def score(rows):
                out = []
                for row in rows:
                    out.append({"row": row})
                return out
            """), select=["SCAR010"])
        assert report.clean

    def test_outer_loop_allocations_are_ignored(self):
        report = _lint(_source("""\
            # scar: hot
            def score(grid):
                for row in grid:
                    buckets = {"row": row}
                    while buckets:
                        buckets.popitem()
            """), select=["SCAR010"])
        assert report.clean

    def test_fstring_in_innermost_loop_fires(self):
        report = _lint(_source("""\
            # scar: hot
            def render(rows):
                parts = []
                for row in rows:
                    parts.append(f"row={row}")
                return parts
            """), select=["SCAR010"])
        assert _codes(report) == ["SCAR010"]
        assert "f-string" in report.findings[0].message

    def test_repeated_deep_chain_fires_once(self):
        report = _lint(_source("""\
            # scar: hot
            def total(self_like, rows):
                acc = 0
                for row in rows:
                    acc += self_like.store.data[row]
                    acc -= self_like.store.data[0]
                return acc
            """), select=["SCAR010"])
        assert _codes(report) == ["SCAR010"]
        assert "self_like.store.data" in report.findings[0].message

    def test_hoisted_chain_is_quiet(self):
        report = _lint(_source("""\
            # scar: hot
            def total(self_like, rows):
                data = self_like.store.data
                acc = 0
                for row in rows:
                    acc += data[row]
                    acc -= data[0]
                return acc
            """), select=["SCAR010"])
        assert report.clean

    def test_empty_accumulator_reset_is_allowed(self):
        report = _lint(_source("""\
            # scar: hot
            def drain(rows, flush):
                batch = []
                for row in rows:
                    batch.append(row)
                    if len(batch) > 8:
                        flush(batch)
                        batch = []
            """), select=["SCAR010"])
        assert report.clean

    def test_noqa_suppresses(self):
        report = _lint(_source("""\
            # scar: hot
            def score(rows):
                out = []
                for row in rows:
                    out.append({"row": row})  # scar: noqa[SCAR010]
                return out
            """), select=["SCAR010"])
        assert report.clean
        assert [f.code for f in report.suppressed] == ["SCAR010"]


# ---------------------------------------------------------------------------
# file discovery


class TestIterPythonFiles:
    def _tree(self, tmp_path: Path) -> Path:
        root = tmp_path / "pkg"
        for rel in ("a.py", "sub/b.py", ".venv/lib/x.py",
                    "venv/y.py", "build/z.py", "dist/w.py",
                    ".eggs/e.py", "demo.egg-info/i.py",
                    "sub/__pycache__/c.py", "notes.txt"):
            target = root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text("x = 1\n", encoding="utf-8")
        return root

    def test_skip_dirs_filtered_at_any_depth(self, tmp_path):
        root = self._tree(tmp_path)
        names = [p.name for p in iter_python_files([root])]
        assert names == ["a.py", "b.py"]

    def test_explicit_file_arguments_pass_through(self, tmp_path):
        root = self._tree(tmp_path)
        files = iter_python_files([root / "a.py", root / "sub" / "b.py"])
        assert [p.name for p in files] == ["a.py", "b.py"]

    def test_result_is_sorted_regardless_of_input_order(self, tmp_path):
        root = self._tree(tmp_path)
        forward = iter_python_files([root / "a.py",
                                     root / "sub" / "b.py"])
        backward = iter_python_files([root / "sub" / "b.py",
                                      root / "a.py"])
        assert forward == backward

    def test_symlink_spellings_deduplicate(self, tmp_path):
        root = self._tree(tmp_path)
        link = tmp_path / "alias"
        try:
            os.symlink(root, link)
        except OSError:  # pragma: no cover - platform without symlinks
            pytest.skip("symlinks unavailable")
        files = iter_python_files([root, link])
        assert [p.name for p in files] == ["a.py", "b.py"]


# ---------------------------------------------------------------------------
# lint_paths determinism


def _write_tree(tmp_path: Path) -> Path:
    root = tmp_path / "proj"
    pkg = root / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "alpha.py").write_text(textwrap.dedent("""\
        def helper():
            return 1
        """), encoding="utf-8")
    (pkg / "beta.py").write_text(textwrap.dedent("""\
        from repro.alpha import helper

        def twice():
            return helper() + helper()
        """), encoding="utf-8")
    return root


def _identity(report: LintReport) -> str:
    return json.dumps(strip_nonidentity(report.to_dict()),
                      sort_keys=True)


class TestLintPathsDeterminism:
    def test_report_identical_across_path_order(self, tmp_path):
        root = _write_tree(tmp_path)
        alpha = root / "repro" / "alpha.py"
        beta = root / "repro" / "beta.py"
        forward = lint_paths([alpha, beta], root=root)
        backward = lint_paths([beta, alpha], root=root)
        assert _identity(forward) == _identity(backward)

    def test_shared_module_name_pairs_summary_with_its_source(
            self, tmp_path, monkeypatch):
        for sibling in ("benchmarks", "tests"):
            conftest = tmp_path / sibling / "conftest.py"
            conftest.parent.mkdir()
            conftest.write_text(f"WHERE = {sibling!r}\n",
                                encoding="utf-8")
        built: list[ProgramModel] = []

        class Recorded(ProgramModel):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(runner, "ProgramModel", Recorded)
        lint_paths([tmp_path], root=tmp_path)
        program = built[0]
        assert "conftest" not in program.summaries
        for sibling in ("benchmarks", "tests"):
            module = f"{sibling}.conftest"
            summary = program.summaries[module]
            assert Path(summary.path).parent.name == sibling
            assert program.text(module) == \
                Path(summary.path).read_text(encoding="utf-8")
            assert deadsyms._is_test_module(summary)

    def test_report_v2_round_trips(self, tmp_path):
        root = _write_tree(tmp_path)
        report = lint_paths([root], root=root)
        clone = LintReport.from_dict(report.to_dict())
        assert clone.to_dict() == report.to_dict()
        stripped = strip_nonidentity(report.to_dict())
        assert all(v == 0.0 for v in stripped["timings"].values())


# ---------------------------------------------------------------------------
# CLI surface added with the engine


class TestCliEngineFlags:
    def test_output_writes_wire_document(self, tmp_path, capsys):
        root = _write_tree(tmp_path)
        out = tmp_path / "report.json"
        rc = main(["lint", str(root), "--output", str(out)])
        assert rc == 0
        report = LintReport.from_dict(
            json.loads(out.read_text(encoding="utf-8")))
        assert report.clean
        assert "lint report written" in capsys.readouterr().out

    def test_output_write_failure_is_an_error_document(
            self, tmp_path, capsys):
        root = _write_tree(tmp_path)
        rc = main(["lint", str(root), "--format", "json",
                   "--output", str(tmp_path)])  # a directory: OSError
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "error"

    def test_stats_prints_cache_and_timings(self, tmp_path, capsys):
        root = _write_tree(tmp_path)
        rc = main(["lint", str(root), "--stats"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "timings:" in out and "SCAR006:" in out
        assert "cache:" not in out

    def test_github_format_annotates_findings(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "engine" / "hot.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n",
                       encoding="utf-8")
        rc = main(["lint", str(tmp_path), "--format", "github"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "title=SCAR002" in out

    @pytest.mark.parametrize("flag", [["--jobs", "2"],
                                      ["--cache", "x.jsonl"]])
    def test_removed_engine_flags_are_usage_errors(self, tmp_path,
                                                   flag):
        root = _write_tree(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(root), *flag])
        assert excinfo.value.code == 2

    def test_update_schemas_writes_golden_and_passes(
            self, tmp_path, capsys, monkeypatch):
        root = _write_tree(tmp_path)
        wire = root / "repro" / "wire.py"
        wire.write_text(textwrap.dedent("""\
            def to_dict():
                return {"kind": "fixture_doc", "value": 1}
            """), encoding="utf-8")
        monkeypatch.chdir(root)
        rc = main(["lint", str(root), "--select", "SCAR008",
                   "--update-schemas"])
        assert rc == 0
        golden = json.loads((root / "analysis" / "schemas.json")
                            .read_text(encoding="utf-8"))
        assert "fixture_doc" in golden["kinds"]

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("scar ")
