"""Tests for the experiment run path and the CLI."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import Session
from repro.cli import _positive_int, build_parser, main
from repro.errors import ConfigError
from repro.experiments.runner import (
    CORE_STRATEGIES,
    STRATEGIES,
    ExperimentConfig,
    strategy_request,
)


REPO_ROOT = Path(__file__).resolve().parent.parent


def _request(scenario, strategy):
    return strategy_request(scenario, strategy, "edp",
                            ExperimentConfig.fast())


class TestRunner:
    """strategy_request + Session: how every experiment driver runs."""

    def test_unknown_strategy_rejected(self, tiny_scenario):
        with pytest.raises(ConfigError, match="unknown strategy"):
            _request(tiny_scenario, "magic")

    def test_standalone_strategy(self, tiny_scenario):
        run = Session().submit(_request(tiny_scenario, "stand_nvd"))
        assert run.latency_s > 0

    def test_scar_strategy_carries_population(self, tiny_scenario):
        session = Session()
        run = session.submit(_request(tiny_scenario, "het_sides"))
        assert run.num_evaluated > 0
        assert run.window_candidates
        assert session.perf_summary().num_evaluated > 0

    def test_memoization(self, tiny_scenario):
        session = Session()
        a = session.submit(_request(tiny_scenario, "het_sides"))
        b = session.submit(_request(tiny_scenario, "het_sides"))
        assert a is b

    def test_value_lookup(self, tiny_scenario):
        run = Session().submit(_request(tiny_scenario, "stand_nvd"))
        assert run.value("edp") == pytest.approx(
            run.value("latency") * run.value("energy"))
        with pytest.raises(ConfigError):
            run.value("power")

    def test_run_many(self, tiny_scenario):
        strategies = ("stand_nvd", "stand_shi")
        session = Session()
        runs = [session.submit(_request(tiny_scenario, name))
                for name in strategies]
        assert [run.request.template for run in runs] == \
            [STRATEGIES[name][0] for name in strategies]

    def test_core_strategies_registered(self):
        assert set(CORE_STRATEGIES) <= set(STRATEGIES)


class TestConfig:
    def test_fast_preset_is_cheaper(self):
        fast = ExperimentConfig.fast()
        full = ExperimentConfig.full()
        assert fast.budget.max_candidates_per_window \
            < full.budget.max_candidates_per_window
        assert fast.nsplits < full.nsplits

    def test_with_nsplits(self):
        assert ExperimentConfig.fast().with_nsplits(5).nsplits == 5


class TestCLI:
    def test_parser_knows_experiments(self):
        parser = build_parser()
        args = parser.parse_args(["table4", "--fast"])
        assert args.command == "table4" and args.fast

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table4" in out and "fig13" in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "fig2" in capsys.readouterr().out

    def test_schedule_command(self, capsys, tmp_path):
        out_file = tmp_path / "sched.json"
        code = main(["schedule", "--scenario", "1", "--template",
                     "het_sides_3x3", "--fast", "--output",
                     str(out_file)])
        assert code == 0
        assert out_file.exists()
        out = capsys.readouterr().out
        assert "EDP" in out and "window" in out
        # --output writes the full wire document
        doc = json.loads(out_file.read_text())
        assert doc["kind"] == "schedule_result"
        assert doc["schedule"]["windows"]

    def test_schedule_json_format(self, capsys):
        """`schedule --format json` emits the repro.api wire document."""
        from repro.api import ScheduleResult

        code = main(["schedule", "--scenario", "1", "--fast",
                     "--format", "json"])
        assert code == 0
        out = capsys.readouterr().out
        result = ScheduleResult.from_json(out)
        assert result.request.scenario_id == 1
        assert result.request.policy == "scar"
        assert result.metrics.latency_s > 0
        assert result.num_evaluated > 0
        # the document round-trips unchanged
        assert ScheduleResult.from_dict(json.loads(out)) == result

    def test_schedule_policy_option(self, capsys):
        code = main(["schedule", "--scenario", "1", "--fast",
                     "--policy", "standalone", "--format", "json"])
        assert code == 0
        from repro.api import ScheduleResult

        result = ScheduleResult.from_json(capsys.readouterr().out)
        assert result.request.policy == "standalone"
        assert result.window_candidates == ()

    def test_schedule_json_failure_emits_error_document(self, capsys):
        """No tracebacks on the wire: failures become error documents."""
        from repro.api import ErrorDocument

        code = main(["schedule", "--scenario", "99", "--fast",
                     "--format", "json"])
        assert code == 1
        doc = ErrorDocument.from_json(capsys.readouterr().out)
        assert doc.code == "config_error"
        assert "scenario_id must be None or one of" in doc.message

    def test_schedule_json_output_write_failure_is_structured(
            self, capsys):
        from repro.api import ErrorDocument

        code = main(["schedule", "--scenario", "1", "--fast",
                     "--format", "json", "--output",
                     "/nonexistent-dir/out.json"])
        assert code == 1
        doc = ErrorDocument.from_json(capsys.readouterr().out)
        assert doc.code == "internal_error"

    def test_schedule_text_failure_is_concise(self, capsys):
        code = main(["schedule", "--scenario", "99", "--fast"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8787
        assert args.workers == 2
        assert args.max_memo is None
        assert args.job_backend == "process"
        assert args.max_pending is None
        assert args.store is None

    def test_serve_scaling_flags(self):
        args = build_parser().parse_args(
            ["serve", "--workers", "3", "--job-backend", "thread",
             "--max-pending", "64", "--store", "cache.jsonl"])
        assert args.workers == 3
        assert args.job_backend == "thread"
        assert args.max_pending == 64
        assert args.store == "cache.jsonl"

    def test_serve_rejects_bad_workers(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--workers", "0"])
        assert "positive integer" in capsys.readouterr().err

    def test_removed_sweep_workers_flag_is_a_usage_error(self, capsys):
        """A sweep runs its cells one at a time in this process."""
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--scenarios", "1", "--fast", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_serve_rejects_bad_max_pending(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--max-pending", "0"])
        assert "positive integer" in capsys.readouterr().err

    def test_serve_rejects_negative_max_memo(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--max-memo", "-1"])
        assert ">= 0" in capsys.readouterr().err

    def test_serve_bind_failure_is_concise(self, capsys):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        try:
            code = main(["serve", "--port", str(port)])
        finally:
            blocker.close()
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot bind")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["schedule", "--scenario", "4", "--fast"],
        ["sweep", "--scenarios", "1", "--fast"],
        ["simulate", "--family", "uunifast", "--seed", "7", "--fast"],
        ["fig2", "--fast"],
    ], ids=["schedule", "sweep", "simulate", "fig2"])
    def test_removed_jobs_flag_is_a_usage_error(self, argv, capsys):
        """No scheduling or experiment command takes --jobs."""
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--jobs", "2"])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestPerfStatsCLI:
    @staticmethod
    def _perf_lines(out: str) -> list[str]:
        """The deterministic lines of a ``--perf-stats`` block (the
        evaluations line minus its wall-time rate)."""
        lines = []
        for line in out.splitlines():
            if line.startswith("evaluations"):
                lines.append(line.split("(")[0])
            elif line.startswith(("segments", "cache[")):
                lines.append(line)
        return lines

    def test_each_command_reports_only_its_own_runs(self, capsys):
        assert main(["fig2", "--fast", "--perf-stats"]) == 0
        first = self._perf_lines(capsys.readouterr().out)
        assert first[0].startswith("evaluations")
        assert any(line.startswith("cache[") for line in first)
        assert main(["fig2", "--fast", "--perf-stats"]) == 0
        assert self._perf_lines(capsys.readouterr().out) == first

    def test_no_block_without_the_flag(self, capsys):
        assert main(["fig2", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "wall time" not in out and not self._perf_lines(out)


class TestMinimalInstall:
    def test_cli_runs_without_numpy_or_networkx(self):
        """The declared (empty) dependency list is enough for the scalar
        path on a triangular NoP and for the linter."""
        script = (
            "import sys\n"
            "sys.modules['networkx'] = sys.modules['numpy'] = None\n"
            "from repro.cli import main\n"
            "assert main(['schedule', '--scenario', '4', '--template',"
            " 'het_t', '--fast']) == 0\n"
            "assert main(['lint', 'src/repro/perf.py']) == 0\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
            else "")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=300,
                              env=env, cwd=REPO_ROOT)
        assert proc.returncode == 0, proc.stderr

    def test_cli_import_leaves_sweep_and_service_unloaded(self):
        """Only the commands that use them import the sweep and the
        service layers (and, through the service, ``http.server``)."""
        script = (
            "import sys\n"
            "import repro.cli\n"
            "loaded = sorted(name for name in sys.modules\n"
            "                if name.startswith(('repro.sweep',"
            " 'repro.service')))\n"
            "assert not loaded, loaded\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
            else "")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=300,
                              env=env, cwd=REPO_ROOT)
        assert proc.returncode == 0, proc.stderr

    def test_scalar_start_leaves_numpy_unloaded(self):
        """numpy is an optional extra: the CLI, the simulator and a
        scalar session start without importing it, even where it is
        installed.  The vector kernel loads it on first use."""
        script = (
            "import sys\n"
            "import repro.cli, repro.sim\n"
            "from repro.api import Session\n"
            "Session(warm_caches=True)\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
            else "")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=300,
                              env=env, cwd=REPO_ROOT)
        assert proc.returncode == 0, proc.stderr


class TestGenerateCLI:
    def test_writes_loadable_scenario_files(self, capsys, tmp_path):
        from repro.config import load_json, scenario_from_dict

        out_dir = tmp_path / "scenarios"
        code = main(["generate", "--kind", "replicated", "--model",
                     "eyecod", "--batches", "30,60", "--use-case", "arvr",
                     "--output-dir", str(out_dir)])
        assert code == 0
        files = sorted(out_dir.glob("*.json"))
        assert len(files) == 1
        scenario = scenario_from_dict(load_json(files[0]))
        assert scenario.model_names == ("eyecod", "eyecod#2")
        assert "eyecod#2" in capsys.readouterr().out

    def test_stdout_document_is_deterministic(self, capsys):
        assert main(["generate", "--seed", "5", "--tenants", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["generate", "--seed", "5", "--tenants", "2"]) == 0
        assert capsys.readouterr().out == first
        from repro.config import scenario_from_dict

        scenario_from_dict(json.loads(first))  # loads as a scenario doc

    def test_replicated_without_model_is_an_error(self, capsys):
        code = main(["generate", "--kind", "replicated", "--format",
                     "json"])
        assert code == 1
        from repro.api import ErrorDocument

        doc = ErrorDocument.from_json(capsys.readouterr().out)
        assert doc.code == "config_error"


class TestScheduleScenarioFile:
    def _write_scenario(self, tmp_path):
        from repro.config import save_json, scenario_to_dict
        from repro.workloads import replicated

        path = tmp_path / "scenario.json"
        save_json(scenario_to_dict(
            replicated("eyecod", (30, 60), use_case="arvr")), path)
        return path

    def test_schedules_generated_file(self, capsys, tmp_path):
        from repro.api import ScheduleResult

        path = self._write_scenario(tmp_path)
        code = main(["schedule", "--scenario-file", str(path), "--fast",
                     "--format", "json"])
        assert code == 0
        result = ScheduleResult.from_json(capsys.readouterr().out)
        assert result.request.scenario_id is None
        names = [entry.get("name", entry["model"]) for entry in
                 result.request.scenario_spec["models"]]
        assert names == ["eyecod", "eyecod#2"]
        assert result.metrics.latency_s > 0

    def test_scenario_and_file_are_exclusive(self, capsys, tmp_path):
        path = self._write_scenario(tmp_path)
        code = main(["schedule", "--scenario", "1", "--scenario-file",
                     str(path), "--fast"])
        assert code == 1
        assert "exactly one" in capsys.readouterr().err

    def test_malformed_file_emits_error_document(self, capsys, tmp_path):
        from repro.api import ErrorDocument

        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "models": [{"model": "mynet"}]}')
        code = main(["schedule", "--scenario-file", str(bad), "--fast",
                     "--format", "json"])
        assert code == 1
        doc = ErrorDocument.from_json(capsys.readouterr().out)
        assert doc.code == "config_error"
        assert "mynet" in doc.message

    def test_scenario_defaults_to_none_in_parser(self):
        args = build_parser().parse_args(["schedule"])
        assert args.scenario is None and args.scenario_file is None


class TestSweepCLI:
    def _generate(self, tmp_path):
        out_dir = tmp_path / "scenarios"
        assert main(["generate", "--kind", "replicated", "--model",
                     "eyecod", "--batches", "30,60", "--use-case",
                     "arvr", "--output-dir", str(out_dir)]) == 0
        (path,) = out_dir.glob("*.json")
        return path

    def test_sweep_and_resume_skips_all_cells(self, capsys, tmp_path):
        scenario = self._generate(tmp_path)
        store = tmp_path / "campaign.jsonl"
        argv = ["sweep", "--scenario-file", str(scenario), "--policies",
                "scar,standalone", "--nsplits", "1", "--fast", "--store",
                str(store), "--format", "json"]
        capsys.readouterr()  # drop the generate output
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["cells"] == 2 and first["computed"] == 2
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["computed"] == 0 and second["skipped"] == 2
        # Resume verification: the engine's segment-eval counter is flat.
        assert second["num_segments"] == 0
        assert [row["edp"] for row in second["rows"]] \
            == [row["edp"] for row in first["rows"]]

    def test_sweep_without_scenarios_is_an_error(self, capsys):
        code = main(["sweep", "--fast", "--format", "json"])
        assert code == 1
        from repro.api import ErrorDocument

        doc = ErrorDocument.from_json(capsys.readouterr().out)
        assert doc.code == "config_error"

    def test_sweep_spec_file_replaces_grid_flags(self, capsys, tmp_path):
        from repro.api import scenario_spec
        from repro.core.budget import QUICK_BUDGET
        from repro.sweep import SweepSpec
        from repro.workloads import replicated

        spec = SweepSpec(
            scenarios=(scenario_spec(
                replicated("eyecod", (30,), use_case="arvr")),),
            nsplits=(1,), budget=QUICK_BUDGET)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        assert main(["sweep", "--spec", str(spec_path), "--format",
                     "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cells"] == 1 and doc["computed"] == 1
        code = main(["sweep", "--spec", str(spec_path), "--scenarios",
                     "1", "--format", "json"])
        assert code == 1  # grid flags alongside --spec are rejected
        for flag in (["--policies", "scar"], ["--fast"]):
            capsys.readouterr()
            assert main(["sweep", "--spec", str(spec_path), "--format",
                         "json", *flag]) == 1

    def test_scenario_files_normalize_to_workload_identity(self, capsys,
                                                           tmp_path):
        """Two cosmetically different files for the same workload share
        one store cell: the cache key is the normalized spec, not the
        file text."""
        sparse = tmp_path / "sparse.json"
        sparse.write_text('{"name": "w", "models": [{"model": "eyecod"}]}')
        explicit = tmp_path / "explicit.json"
        explicit.write_text(json.dumps({
            "name": "w", "use_case": "datacenter",
            "models": [{"model": "eyecod", "batch": 1}]}))
        store = tmp_path / "c.jsonl"
        base = ["--nsplits", "1", "--fast", "--store", str(store),
                "--format", "json"]
        assert main(["sweep", "--scenario-file", str(sparse), *base]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["computed"] == 1
        assert main(["sweep", "--scenario-file", str(explicit),
                     *base]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["computed"] == 0 and second["skipped"] == 1


class TestPositiveInt:
    @pytest.mark.parametrize("value,parsed", [("1", 1), ("8", 8)])
    def test_accepts_positive(self, value, parsed):
        assert _positive_int(value) == parsed

    @pytest.mark.parametrize("value", ["0", "-1", "-32"])
    def test_rejects_zero_and_negative(self, value):
        with pytest.raises(argparse.ArgumentTypeError,
                           match="positive integer"):
            _positive_int(value)

    @pytest.mark.parametrize("value", ["", "abc", "1.5", "2x"])
    def test_rejects_non_integers(self, value):
        with pytest.raises(argparse.ArgumentTypeError,
                           match="positive integer"):
            _positive_int(value)

    def test_argparse_error_message_is_clear(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["schedule", "--beam", "0"])
        err = capsys.readouterr().err
        assert "--beam" in err and "positive integer" in err


class TestSimulateCommand:
    @pytest.fixture
    def trace_file(self, tmp_path):
        from repro.sim import TenantEvent, Trace

        events = sorted([
            TenantEvent(tick=0, kind="arrive", tenant="eyecod#a",
                        model="eyecod", batch=1, deadline_s=0.5),
            TenantEvent(tick=1, kind="arrive", tenant="hand_sp#b",
                        model="hand_sp", batch=1),
            TenantEvent(tick=2, kind="depart", tenant="hand_sp#b"),
            TenantEvent(tick=3, kind="depart", tenant="eyecod#a"),
        ], key=TenantEvent.sort_key)
        trace = Trace(name="sim:cli:test", events=tuple(events),
                      use_case="arvr")
        path = tmp_path / "trace.json"
        path.write_text(trace.to_json())
        return path

    def test_parser_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.command == "simulate"
        assert args.family == "arrivals" and args.mode == "warm"
        assert args.trace is None and args.spec is None
        assert args.service is None

    def test_perf_stats_is_not_an_option(self, capsys):
        """The sim report carries the reschedule cost; the flag never
        printed anything."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["simulate", "--fast",
                                       "--perf-stats"])
        assert excinfo.value.code == 2
        assert "--perf-stats" in capsys.readouterr().err

    def test_replays_a_trace_file(self, capsys, trace_file):
        assert main(["simulate", "--trace", str(trace_file),
                     "--fast"]) == 0
        out = capsys.readouterr().out
        assert "trace sim:cli:test (warm replay)" in out
        assert "3/4 events scheduled, 1 memo hits" in out
        assert "eyecod#a" in out and "slack" in out

    def test_json_format_is_the_wire_document(self, capsys, trace_file,
                                              tmp_path):
        output = tmp_path / "report.json"
        assert main(["simulate", "--trace", str(trace_file), "--fast",
                     "--mode", "cold", "--format", "json",
                     "--output", str(output)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "sim_report"
        assert report["mode"] == "cold"
        assert report["num_events"] == 4
        assert json.loads(output.read_text()) == report

    def test_spec_file_generates_the_trace(self, capsys, tmp_path):
        from repro.sim import TraceSpec

        spec = TraceSpec(family="arrivals", seed=1, tenants=2,
                         horizon=6, use_case="arvr")
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert main(["simulate", "--spec", str(path), "--fast"]) == 0
        assert spec.trace_name() in capsys.readouterr().out

    def test_malformed_spec_is_a_config_error(self, capsys, tmp_path):
        from repro.api import ErrorDocument

        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "kind": "trace_spec", "version": 1, "family": "uunifast",
            "deadline_range": [0.05]}))
        assert main(["simulate", "--spec", str(path), "--fast",
                     "--format", "json"]) == 1
        doc = ErrorDocument.from_json(capsys.readouterr().out)
        assert doc.code == "config_error"
        assert "deadline_range" in doc.message

    def test_trace_and_spec_are_exclusive(self, capsys, trace_file):
        assert main(["simulate", "--trace", str(trace_file),
                     "--spec", str(trace_file)]) == 1
        assert "at most one" in capsys.readouterr().err

    def test_malformed_trace_is_structured_in_json(self, capsys,
                                                   tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"kind\": \"schedule\"}")
        assert main(["simulate", "--trace", str(path),
                     "--format", "json"]) == 1
        err = json.loads(capsys.readouterr().out)
        assert err["kind"] == "error"


class TestSweepStatusCommand:
    ARGS = ["sweep", "--scenarios", "1", "--nsplits", "1", "--fast"]

    def test_all_pending_without_store(self, capsys):
        assert main(self.ARGS + ["--status"]) == 0
        out = capsys.readouterr().out
        assert "0/1 cells finished" in out and "pending:" in out

    def test_json_document(self, capsys, tmp_path):
        assert main(self.ARGS + ["--status", "--format", "json",
                                 "--store",
                                 str(tmp_path / "s.jsonl")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "sweep_status"
        assert doc["finished"] == 0 and doc["pending"] == 1
        assert not doc["complete"]

    def test_status_runs_nothing(self, capsys, tmp_path):
        store = tmp_path / "s.jsonl"
        assert main(self.ARGS + ["--status", "--store",
                                 str(store)]) == 0
        capsys.readouterr()
        assert not store.exists() or store.read_text() == ""

    def test_status_after_run_reports_complete(self, capsys, tmp_path):
        store = tmp_path / "s.jsonl"
        assert main(self.ARGS + ["--store", str(store)]) == 0
        capsys.readouterr()
        assert main(self.ARGS + ["--status", "--store",
                                 str(store)]) == 0
        out = capsys.readouterr().out
        assert "1/1 cells finished" in out
        assert "campaign complete" in out


class TestEvalModeFlags:
    """--eval-mode picks the session's costing kernel on every command."""

    def test_parser_defaults_to_unset(self):
        args = build_parser().parse_args(["schedule"])
        assert args.eval_mode is None
        args = build_parser().parse_args(["simulate"])
        assert args.eval_mode is None
        args = build_parser().parse_args(["serve"])
        assert args.eval_mode is None
        args = build_parser().parse_args(["sweep"])
        assert args.eval_mode is None

    def test_unknown_mode_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", "--eval-mode",
                                       "turbo"])
        assert "invalid choice" in capsys.readouterr().err

    def test_schedule_vector_matches_scalar(self, capsys):
        pytest.importorskip("numpy")
        from repro.api import ScheduleResult

        def run(mode):
            assert main(["schedule", "--scenario", "1", "--fast",
                         "--eval-mode", mode, "--format", "json"]) == 0
            return ScheduleResult.from_json(capsys.readouterr().out)

        vector, scalar = run("vector"), run("scalar")
        # Same bits everywhere but perf: the kernel is not part of
        # the request.
        assert vector.same_payload(scalar)

    def test_sweep_crosses_eval_modes(self, capsys, tmp_path):
        """The kernel is a session setting, not a grid axis: a cell the
        vector kernel computed is a store hit for a scalar rerun."""
        pytest.importorskip("numpy")
        store = str(tmp_path / "campaign.jsonl")
        args = ["sweep", "--scenarios", "1", "--fast", "--store", store,
                "--format", "json"]
        assert main([*args, "--eval-mode", "vector"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["computed"] == 1
        assert main([*args, "--eval-mode", "scalar"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["computed"] == 0 and second["skipped"] == 1
        assert "eval_mode" not in second["rows"][0]

    def test_spec_rejects_eval_modes_flag(self, capsys, tmp_path):
        """The removed --eval-modes grid flag fails loudly instead of
        being ignored."""
        from repro.sweep import SweepSpec

        path = tmp_path / "spec.json"
        path.write_text(SweepSpec(scenarios=(1,)).to_json())
        with pytest.raises(SystemExit):
            main(["sweep", "--spec", str(path), "--eval-modes", "vector"])
        assert "--eval-modes" in capsys.readouterr().err

    def test_spec_combines_with_execution_flags(self, capsys, tmp_path):
        """--eval-mode configures the session, not the grid, so it is
        allowed alongside --spec."""
        pytest.importorskip("numpy")
        from repro.core.budget import QUICK_BUDGET
        from repro.sweep import SweepSpec

        path = tmp_path / "spec.json"
        path.write_text(SweepSpec(scenarios=(1,), nsplits=(1,),
                                  budget=QUICK_BUDGET).to_json())
        assert main(["sweep", "--spec", str(path),
                     "--eval-mode", "vector", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cells"] == 1 and doc["computed"] == 1
