"""Command-line interface: ``scar <experiment>`` / ``python -m repro``.

Regenerates any paper table/figure from the terminal::

    scar table4 --fast          # Table IV on the reduced budget
    scar fig9                   # Fig. 9 / Table VI breakdown
    scar schedule --scenario 4 --template het_sides_3x3
    scar schedule --scenario 4 --fast --format json   # wire document
    scar schedule --scenario-file mix.json --fast     # generated workload
    scar generate --kind random-mix --seed 7 --count 4 --output-dir work/
    scar sweep --scenarios 1,2 --policies scar,standalone \
        --store campaign.jsonl --fast                 # resumable campaign
    scar sweep --scenarios 1,2 --store campaign.jsonl --status
    scar simulate --family uunifast --seed 7 --fast   # dynamic tenants
    scar serve --port 8787 --workers 2                # HTTP job service
    scar lint src/              # project-invariant static checkers
    scar list                   # available experiments

The ``schedule`` command is a thin shell over :mod:`repro.api`: it builds
one ``ScheduleRequest``, submits it to a ``Session`` and prints either
the human-readable breakdown or (``--format json``) the result's JSON
wire document; ``--output`` writes that same document to a file.
``--scenario-file`` schedules a scenario description file (e.g. one
written by ``scar generate``) as an inline-spec request.  Failures on
the JSON path print a structured error document (``kind: "error"``)
instead of a traceback.  The ``generate`` and ``sweep`` commands drive
:mod:`repro.workloads.generator` and :mod:`repro.sweep` (seeded
scenario families; resumable grid campaigns, run one cell at a time
in this process -- see DESIGN.md "Scenario generation and sweeps");
``sweep --status`` reports a campaign's finished/pending cells against
its store without running anything.
The ``simulate`` command replays a dynamic tenant arrival/departure
trace through :mod:`repro.sim` -- re-scheduling the active tenant set
at every event and reporting deadline misses, SLA slack and schedule
churn (see DESIGN.md "The simulation layer").  The ``serve`` command
runs the
:mod:`repro.service` HTTP front-end (``POST /v1/jobs`` and friends, see
DESIGN.md "The repro.service layer") until interrupted.

``--fast`` uses the CI budget (seconds-to-minutes); the default budget
matches the paper's settings and can take several minutes per experiment.
``--eval-mode vector`` picks the numpy costing kernel, which only
changes speed (results are bit-identical).  ``--beam K`` narrows the
window search to the K best segmentation combos (default: exhaustive,
the paper's exact behaviour -- see DESIGN.md, "The search engine
layer").  ``--perf-stats`` prints evaluation-throughput,
delta-evaluation and cache-hit statistics after the run.
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import Callable

from repro.experiments import (
    ExperimentConfig,
    run_arvr,
    run_breakdown,
    run_datacenter,
    run_fig2,
    run_fig8,
    run_fig11,
    run_fig12,
    run_fig13,
    run_nsplits_ablation,
    run_packing_ablation,
    run_prov_ablation,
)
from repro.core.scoring import OptTarget
from repro.engine import EVAL_MODES
from repro.perf import diff_reports, process_total
from repro.workloads.scenarios import USE_CASES

#: ``--objective`` choices: the built-in optimization targets.
_OBJECTIVES = tuple(target.value for target in OptTarget)

_EXPERIMENTS: dict[str, tuple[str, Callable[[ExperimentConfig], str]]] = {
    "fig2": ("Fig. 2 motivational 2x2 study",
             lambda cfg: run_fig2(cfg.budget).render()),
    "table4": ("Table IV datacenter latency/EDP search",
               lambda cfg: run_datacenter(cfg).render_table4()),
    "fig7": ("Fig. 7 normalized search grid",
             lambda cfg: run_datacenter(cfg).render_fig7()),
    "fig8": ("Fig. 8 datacenter Pareto fronts",
             lambda cfg: run_fig8(cfg).render()),
    "fig9": ("Fig. 9 / Table VI Het-Sides schedule breakdown",
             lambda cfg: run_breakdown(config=cfg).render()),
    "table5": ("Table V / Fig. 10 AR-VR EDP search",
               lambda cfg: run_arvr(cfg).render()),
    "fig11": ("Fig. 11 AR/VR Pareto fronts",
              lambda cfg: run_fig11(cfg).render()),
    "fig12": ("Fig. 12 triangular-NoP ablation",
              lambda cfg: run_fig12(cfg).render()),
    "fig13": ("Fig. 13 6x6 evolutionary scaling",
              lambda cfg: run_fig13(cfg).render()),
    "abl-nsplits": ("Time-partitioning ablation",
                    lambda cfg: run_nsplits_ablation(cfg).render()),
    "abl-prov": ("Rule-based vs exhaustive PROV ablation",
                 lambda cfg: run_prov_ablation(cfg).render()),
    "abl-packing": ("Greedy vs uniform packing ablation",
                    lambda cfg: run_packing_ablation(cfg).render()),
}


def _cmd_list() -> int:
    for name, (description, _) in _EXPERIMENTS.items():
        print(f"{name:12s} {description}")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro.api import ScheduleRequest, Session
    from repro.config import load_json, scenario_from_dict
    from repro.errors import ConfigError, ReproError
    from repro.mcm import templates

    config = ExperimentConfig.fast() if args.fast else ExperimentConfig()
    try:
        if args.scenario is not None and args.scenario_file:
            raise ConfigError(
                "use exactly one of --scenario and --scenario-file")
        if args.scenario_file:
            # Validate the document up front so malformed files surface
            # as config errors (an ErrorDocument under --format json),
            # then submit the normalized inline spec.
            workload = scenario_from_dict(load_json(args.scenario_file))
        else:
            workload = args.scenario if args.scenario is not None else 4
        request = ScheduleRequest.for_scenario(
            workload, template=args.template,
            policy=args.policy, objective=args.objective,
            nsplits=config.nsplits, budget=config.budget, beam=args.beam)
        result = Session(eval_mode=args.eval_mode).submit(request)
    except ReproError as exc:
        return _report_error(exc, args.format)
    if args.output:
        from repro.config import save_json

        try:
            save_json(result.to_dict(), args.output)
        except OSError as exc:
            return _report_error(exc, args.format)
    if args.format == "json":
        print(result.to_json())
    else:
        sc = request.resolve_scenario()
        print(templates.build(args.template, sc.use_case).summary())
        print(sc.summary())
        print(result.schedule.describe(sc))
        print(result.metrics.summary())
        if args.perf_stats and result.perf is not None:
            print()
            print(result.perf.render())
        if args.output:
            print(f"schedule written to {args.output}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    import json
    import re
    from pathlib import Path

    from repro.config import save_json, scenario_to_dict
    from repro.errors import ReproError
    from repro.workloads import GeneratorSpec, generate

    try:
        spec = GeneratorSpec(
            kind=args.kind.replace("-", "_"), seed=args.seed,
            count=args.count, use_case=args.use_case,
            tenants=args.tenants, model=args.model,
            models=tuple(args.models) if args.models else None,
            batches=tuple(args.batches) if args.batches else None)
        scenarios = generate(spec)
    except ReproError as exc:
        return _report_error(exc, args.format)
    documents = [scenario_to_dict(sc) for sc in scenarios]
    if not args.output_dir:
        payload = documents[0] if len(documents) == 1 else documents
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    out_dir = Path(args.output_dir)
    paths = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for scenario, document in zip(scenarios, documents):
            name = re.sub(r"[^A-Za-z0-9._-]+", "-", scenario.name)
            path = out_dir / f"{name}.json"
            save_json(document, path)
            paths.append(path)
    except OSError as exc:
        return _report_error(exc, args.format)
    if args.format == "json":
        print(json.dumps({"kind": "generated_scenarios",
                          "files": [str(p) for p in paths]},
                         indent=2, sort_keys=True))
    else:
        for scenario, path in zip(scenarios, paths):
            print(f"{path}: {scenario.name} "
                  f"({', '.join(scenario.model_names)})")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.api import Session, scenario_spec
    from repro.config import load_json, scenario_from_dict
    from repro.errors import ConfigError, ReproError
    from repro.sweep import (
        ResultStore,
        SweepSpec,
        run_sweep,
        sweep_report,
        sweep_status,
    )

    try:
        if args.spec:
            # The spec document carries the whole grid; reject every
            # flag it replaces rather than silently ignoring it.  The
            # execution flag --eval-mode configures the session, not
            # the grid, so it combines with --spec.
            overridden = [flag for flag, value in (
                ("--scenarios", args.scenarios),
                ("--scenario-file", args.scenario_file),
                ("--templates", args.templates),
                ("--policies", args.policies),
                ("--objectives", args.objectives),
                ("--nsplits", args.nsplits),
                ("--beams", args.beams),
                ("--fast", args.fast or None),
            ) if value]
            if overridden:
                raise ConfigError(
                    "--spec replaces the grid flags; drop "
                    + ", ".join(overridden))
            spec = SweepSpec.from_dict(load_json(args.spec))
        else:
            scenarios: list = list(args.scenarios or [])
            for path in args.scenario_file or []:
                # Normalize through the scenario IR so the cell's
                # cache key (store/memo identity) depends on the
                # workload, not on the file's formatting or omitted
                # optional keys.
                scenarios.append(
                    scenario_spec(scenario_from_dict(load_json(path))))
            if not scenarios:
                raise ConfigError(
                    "sweep needs --spec, --scenarios or --scenario-file")
            config = ExperimentConfig.fast() if args.fast \
                else ExperimentConfig()
            spec = SweepSpec(
                scenarios=tuple(scenarios),
                templates=tuple(args.templates or ["het_sides_3x3"]),
                policies=tuple(args.policies or ["scar"]),
                objectives=tuple(args.objectives or ["edp"]),
                nsplits=tuple(args.nsplits) if args.nsplits
                else (config.nsplits,),
                beams=tuple(args.beams) if args.beams else (None,),
                budget=config.budget)
        store = ResultStore(args.store) if args.store else None
        if args.status:
            # Read-only progress view: expand the grid, check each
            # cell against the store, run nothing.
            status = sweep_status(spec, store)
            if args.format == "json":
                print(json.dumps(status.to_document(), indent=2,
                                 sort_keys=True))
            else:
                print(status.render())
            return 0
        outcome = run_sweep(spec, store=store,
                            session=Session(eval_mode=args.eval_mode))
    except ReproError as exc:
        return _report_error(exc, args.format)
    report = sweep_report(outcome)
    if args.format == "json":
        print(json.dumps(report.to_document(), indent=2, sort_keys=True))
    else:
        print(report.render())
        if args.perf_stats and outcome.perf is not None:
            print()
            print(outcome.perf.render())
    return 1 if outcome.failures else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    import json

    from repro.config import load_json
    from repro.errors import ConfigError, ReproError
    from repro.sim import (
        Trace,
        TraceSpec,
        build_report,
        generate_trace,
        replay,
    )

    config = ExperimentConfig.fast() if args.fast else ExperimentConfig()
    try:
        if args.trace and args.spec:
            raise ConfigError(
                "use at most one of --trace and --spec")
        if args.trace:
            trace = Trace.from_dict(load_json(args.trace))
        elif args.spec:
            trace = generate_trace(TraceSpec.from_dict(
                load_json(args.spec)))
        else:
            trace = generate_trace(TraceSpec(
                family=args.family, seed=args.seed,
                tenants=args.tenants, horizon=args.horizon,
                use_case=args.use_case,
                utilization=args.utilization))
        client = None
        if args.service:
            from repro.service import ServiceClient

            client = ServiceClient(args.service)
        outcomes = replay(
            trace, mode=args.mode, template=args.template,
            policy=args.policy, objective=args.objective,
            nsplits=config.nsplits, budget=config.budget, beam=args.beam,
            eval_mode=args.eval_mode, client=client)
        report = build_report(trace, args.mode, outcomes)
    except ReproError as exc:
        return _report_error(exc, args.format)
    if args.output:
        from repro.config import save_json

        try:
            save_json(report.to_dict(), args.output)
        except OSError as exc:
            return _report_error(exc, args.format)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render())
        if args.output:
            print(f"sim report written to {args.output}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import lint_paths
    from repro.errors import ReproError

    paths = args.paths
    if not paths:
        # Bare `scar lint` at the repo root lints the library tree.
        paths = ["src"] if Path("src").is_dir() else ["."]
    try:
        report = lint_paths(paths, select=args.select,
                            ignore=args.ignore,
                            update_schemas=args.update_schemas)
    except ReproError as exc:
        # Usage/config failures (unknown code, unreadable file) exit 2
        # so CI can tell "findings" (1) from "lint could not run".
        _report_error(exc, args.format)
        return 2
    if args.output:
        from repro.config import save_json

        try:
            save_json(report.to_dict(), args.output)
        except OSError as exc:
            # Same contract as `scar schedule --output`: report the
            # write failure as an error document, never a traceback.
            return _report_error(exc, args.format)
    if args.format == "json":
        print(report.to_json())
    elif args.format == "github":
        # GitHub Actions workflow-command annotations: one ::error
        # line per finding, pinned to file/line/col in the PR diff.
        for finding in report.findings:
            print(f"::error file={finding.path},line={finding.line},"
                  f"col={finding.col},title={finding.code}::"
                  f"{finding.message}")
        print(report.summary_line())
    else:
        print(report.render())
        if args.output:
            print(f"lint report written to {args.output}")
    if args.stats:
        for line in report.stats_lines():
            print(line)
    return 0 if report.clean else 1


def _report_error(exc: Exception, output_format: str) -> int:
    """Print a failure without a traceback; JSON gets the error document."""
    from repro.api import ErrorDocument

    if output_format == "json":
        print(ErrorDocument.from_exception(exc).to_json())
    else:
        print(f"error: {exc}", file=sys.stderr)
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api import Session
    from repro.service import SchedulerService, ServiceServer
    from repro.sweep import ResultStore

    store = ResultStore(args.store) if args.store is not None else None
    service = SchedulerService(Session(max_memo=args.max_memo,
                                       eval_mode=args.eval_mode),
                               workers=args.workers,
                               retain=args.retain,
                               job_backend=args.job_backend,
                               max_pending=args.max_pending,
                               store=store)
    try:
        server = ServiceServer((args.host, args.port), service)
    except (OSError, OverflowError) as exc:  # Overflow: port > 65535
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        service.close()
        return 1
    extras = "" if store is None else f", store {args.store}"
    print(f"repro scheduling service on {server.url}/v1/jobs "
          f"({args.workers} {args.job_backend} "
          f"worker{'s' if args.workers != 1 else ''}{extras}); "
          f"Ctrl-C to stop")
    # SIGTERM (systemd/docker stop) takes the same graceful path as
    # Ctrl-C: without it, process-backed pool workers forked after the
    # bind outlive the parent and keep the listening socket open, so
    # the next replica on this port binds EADDRINUSE or hangs clients.
    def _terminate(_signum, _frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
        # Prompt shutdown: Ctrl-C under a deep backlog cancels the
        # queued jobs instead of draining them for hours.
        service.close(cancel_pending=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="scar",
        description="SCAR reproduction: regenerate paper experiments.")
    parser.add_argument("--version", action="version",
                        version=f"scar {__version__}")
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list available experiments")

    from repro.api import DEFAULT_REGISTRY

    sched = sub.add_parser("schedule",
                           help="schedule one scenario on one template")
    sched.add_argument("--scenario", type=int, default=None,
                       help="Table III scenario id (1-10; default: 4)")
    sched.add_argument("--scenario-file", default=None, metavar="JSON",
                       help="schedule a scenario description file instead "
                       "of a Table III id (e.g. one written by "
                       "'scar generate')")
    sched.add_argument("--template", default="het_sides_3x3",
                       help="MCM template name")
    sched.add_argument("--policy", default="scar",
                       choices=DEFAULT_REGISTRY.names(),
                       help="scheduler policy (default: scar)")
    sched.add_argument("--objective", default="edp",
                       choices=_OBJECTIVES)
    sched.add_argument("--format", default="text",
                       choices=("text", "json"),
                       help="output format: human-readable text or the "
                       "repro.api JSON wire document")
    sched.add_argument("--output", default=None,
                       help="write the schedule-result JSON document here")
    _add_engine_options(sched)
    _add_common_options(sched)

    generate = sub.add_parser(
        "generate",
        help="generate seeded scenario description files")
    generate.add_argument("--kind", default="random-mix",
                          choices=("random-mix", "replicated"),
                          help="scenario family (default: random-mix)")
    generate.add_argument("--seed", type=int, default=0,
                          help="generator seed (same seed = identical "
                          "scenarios)")
    generate.add_argument("--count", type=_positive_int, default=1,
                          metavar="N",
                          help="scenarios to generate (default: 1)")
    generate.add_argument("--tenants", type=_positive_int, default=3,
                          metavar="N",
                          help="tenants per scenario (default: 3)")
    generate.add_argument("--use-case", default="datacenter",
                          choices=USE_CASES,
                          help="constrains the model/batch pools to the "
                          "Table III families (default: datacenter)")
    generate.add_argument("--model", default=None,
                          help="replicated: the zoo model to replicate")
    generate.add_argument("--models", type=_csv_strs, default=None,
                          metavar="A,B,...",
                          help="random-mix: override the model pool")
    generate.add_argument("--batches", type=_csv_ints, default=None,
                          metavar="N,M,...",
                          help="override the batch pool (replicated: one "
                          "tenant per batch)")
    generate.add_argument("--output-dir", default=None, metavar="DIR",
                          help="write one <scenario>.json per scenario "
                          "(default: print the documents to stdout)")
    generate.add_argument("--format", default="text",
                          choices=("text", "json"),
                          help="summary format with --output-dir")

    sweep = sub.add_parser(
        "sweep",
        help="run a scheduling campaign over a scenario/policy grid")
    sweep.add_argument("--spec", default=None, metavar="JSON",
                       help="load a sweep_spec document instead of the "
                       "grid flags below")
    sweep.add_argument("--scenarios", type=_csv_ints, default=None,
                       metavar="1,2,...",
                       help="Table III scenario ids to sweep")
    sweep.add_argument("--scenario-file", action="append", default=None,
                       metavar="JSON",
                       help="add a scenario description file to the grid "
                       "(repeatable)")
    sweep.add_argument("--templates", type=_csv_strs, default=None,
                       metavar="A,B,...",
                       help="MCM templates (default: het_sides_3x3)")
    sweep.add_argument("--policies", type=_csv_strs, default=None,
                       metavar="A,B,...",
                       help="scheduler policies (default: scar)")
    sweep.add_argument("--objectives", type=_csv_strs, default=None,
                       metavar="A,B,...",
                       help="search objectives (default: edp)")
    sweep.add_argument("--nsplits", type=_csv_ints, default=None,
                       metavar="N,M,...",
                       help="time-partitioning depths (default: from "
                       "--fast/full config)")
    sweep.add_argument("--beams", type=_csv_ints, default=None,
                       metavar="K,L,...",
                       help="window-search beam widths (default: "
                       "exhaustive)")
    sweep.add_argument("--store", default=None, metavar="JSONL",
                       help="resumable result store; finished cells are "
                       "skipped on rerun")
    sweep.add_argument("--status", action="store_true",
                       help="report campaign progress (finished/pending "
                       "cells against --store) without running anything")
    sweep.add_argument("--format", default="text",
                       choices=("text", "json"),
                       help="report format (json: the sweep_report "
                       "document)")
    _add_eval_mode_option(sweep)
    _add_common_options(sweep)

    simulate = sub.add_parser(
        "simulate",
        help="replay a dynamic tenant arrival/departure trace")
    simulate.add_argument("--trace", default=None, metavar="JSON",
                          help="replay a trace document "
                          "(kind: \"trace\")")
    simulate.add_argument("--spec", default=None, metavar="JSON",
                          help="generate the trace from a trace_spec "
                          "document instead")
    simulate.add_argument("--family", default="arrivals",
                          choices=("arrivals", "uunifast"),
                          help="without --trace/--spec: the seeded trace "
                          "family (default: arrivals)")
    simulate.add_argument("--seed", type=int, default=0,
                          help="trace seed (same seed = identical trace)")
    simulate.add_argument("--tenants", type=_positive_int, default=4,
                          metavar="N",
                          help="tenant lifecycles to generate "
                          "(default: 4)")
    simulate.add_argument("--horizon", type=_positive_int, default=16,
                          metavar="T",
                          help="trace length in ticks (default: 16)")
    simulate.add_argument("--use-case", default="datacenter",
                          choices=USE_CASES,
                          help="constrains the model/batch pools "
                          "(default: datacenter)")
    simulate.add_argument("--utilization", type=float, default=0.5,
                          metavar="U",
                          help="uunifast: total utilization budget in "
                          "(0, 1] (default: 0.5)")
    simulate.add_argument("--template", default="het_sides_3x3",
                          help="MCM template name")
    simulate.add_argument("--policy", default="scar",
                          choices=DEFAULT_REGISTRY.names(),
                          help="scheduler policy (default: scar)")
    simulate.add_argument("--objective", default="edp",
                          choices=_OBJECTIVES)
    simulate.add_argument("--mode", default="warm",
                          choices=("warm", "cold"),
                          help="warm: one session re-used across events, "
                          "whose result memo answers a recurring tenant "
                          "set; cold: a fresh session per event.  "
                          "Results are bit-identical either way "
                          "(default: warm)")
    simulate.add_argument("--service", default=None, metavar="URL",
                          help="submit each event's request to a live "
                          "'scar serve' replica instead of scheduling "
                          "in-process")
    simulate.add_argument("--format", default="text",
                          choices=("text", "json"),
                          help="output format: human-readable text or "
                          "the sim_report JSON wire document")
    simulate.add_argument("--output", default=None,
                          help="write the sim_report JSON document here")
    _add_engine_options(simulate)
    # No --perf-stats: the sim report already prints the reschedule
    # cost.
    _add_fast_option(simulate)

    lint = sub.add_parser(
        "lint",
        help="run the project-invariant static checkers (SCAR001..)")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to lint (default: src/ "
                      "when it exists, else the working directory)")
    lint.add_argument("--select", type=_csv_strs, default=None,
                      metavar="CODES",
                      help="run only these checker codes "
                      "(e.g. SCAR001,SCAR006)")
    lint.add_argument("--ignore", type=_csv_strs, default=None,
                      metavar="CODES",
                      help="skip these checker codes")
    lint.add_argument("--format", default="text",
                      choices=("text", "json", "github"),
                      help="output format: one finding per line, the "
                      "lint_report JSON wire document, or GitHub "
                      "Actions ::error annotations")
    lint.add_argument("--output", default=None,
                      help="write the lint_report JSON document here")
    lint.add_argument("--stats", action="store_true",
                      help="print per-checker wall time after the "
                      "report")
    lint.add_argument("--update-schemas", action="store_true",
                      help="regenerate the SCAR008 golden "
                      "analysis/schemas.json from the current tree "
                      "before checking (wire changes must land with "
                      "this golden update)")

    serve = sub.add_parser("serve",
                           help="run the HTTP job-scheduling service")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8787,
                       help="bind port (default: 8787; 0 = ephemeral)")
    serve.add_argument("--workers", type=_positive_int, default=2,
                       metavar="N",
                       help="job worker threads (default: 2)")
    serve.add_argument("--max-memo", type=_nonnegative_int, default=None,
                       metavar="N",
                       help="LRU cap on the session result memo "
                       "(default: unbounded; 0 disables it)")
    serve.add_argument("--retain", type=_positive_int, default=None,
                       metavar="N",
                       help="keep only the N most recent finished job "
                       "records/results; size comfortably above the "
                       "number of jobs in flight (default: unbounded)")
    _add_eval_mode_option(serve)
    serve.add_argument("--job-backend", default="process",
                       choices=("thread", "process"),
                       help="run each job's search on a process pool "
                       "(default; escapes the GIL so concurrent jobs "
                       "overlap) or in the worker thread itself")
    serve.add_argument("--max-pending", type=_positive_int, default=None,
                       metavar="N",
                       help="admission control: reject submits past N "
                       "queued jobs with HTTP 429 service_overloaded "
                       "(default: unbounded)")
    serve.add_argument("--store", default=None, metavar="PATH",
                       help="shared JSONL schedule cache (the sweep "
                       "ResultStore): results are served from / "
                       "recorded to it, so replicas sharing one PATH "
                       "share finished schedules (default: none)")

    for name, (description, _) in _EXPERIMENTS.items():
        exp = sub.add_parser(name, help=description)
        _add_common_options(exp)
    return parser


def _int_at_least(minimum: int, what: str):
    """An argparse type validating an integer ``>= minimum``."""

    def parse(value: str) -> int:
        try:
            parsed = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {what}, got {value!r}") from None
        if parsed < minimum:
            raise argparse.ArgumentTypeError(
                f"expected {what} >= {minimum}, got {value!r}")
        return parsed

    return parse


_positive_int = _int_at_least(1, "a positive integer")
_nonnegative_int = _int_at_least(0, "an integer")


def _csv_ints(value: str) -> list[int]:
    """An argparse type for comma-separated integer lists."""
    try:
        return [int(item) for item in value.split(",") if item.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {value!r}") from None


def _csv_strs(value: str) -> list[str]:
    """An argparse type for comma-separated name lists."""
    return [item.strip() for item in value.split(",") if item.strip()]


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    """Search-engine knobs (``schedule`` and ``simulate``)."""
    parser.add_argument("--beam", type=_positive_int, default=None,
                        metavar="K",
                        help="beam width for the window search: keep "
                        "only the K best proxy-scored segmentation "
                        "combos (default: exhaustive search, the "
                        "paper's exact behaviour)")
    _add_eval_mode_option(parser)


def _add_eval_mode_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eval-mode", default=None,
                        choices=EVAL_MODES,
                        help="candidate-costing kernel: the pure-Python "
                        "scalar reference (default) or the numpy tensor "
                        "kernel (bit-identical results, requires numpy)")


def _add_fast_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fast", action="store_true",
                        help="use the reduced search budget")


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    _add_fast_option(parser)
    parser.add_argument("--perf-stats", action="store_true",
                        help="print evaluation throughput and cache-hit "
                        "statistics after the run")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None or args.command == "list":
        return _cmd_list()
    if args.command == "schedule":
        return _cmd_schedule(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "serve":
        return _cmd_serve(args)
    config = ExperimentConfig.fast() if args.fast else ExperimentConfig()
    perf_before = process_total()
    _, runner = _EXPERIMENTS[args.command]
    print(runner(config))
    if args.perf_stats:
        print()
        print(diff_reports(process_total(), perf_before).render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
