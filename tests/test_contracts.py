"""The wire, error and registry contracts, checked on the running program.

Three contracts span modules, so no one module's tests own them:

* **Wire documents.**  Every kind that ``analysis/schemas.json`` lists
  with parse keys has a real document here.  Its reader refuses a
  non-dict, a wrong ``kind`` and a version it does not read with a
  ``ConfigError``.  Whatever a top-level field holds, the document
  parses or fails with a ``ReproError``, never another exception.
* **Error codes.**  Every literal code the HTTP handler sends is a
  service condition of :mod:`repro.api.wire`, so a client rebuilds a
  typed exception from it.  Each class's own code and HTTP status are
  pinned by ``tests/test_service_http.py::TestErrorContract``.
* **Policy registry.**  The ``--policy`` choices of ``scar schedule`` and
  ``scar simulate`` are the registered policies, and each is named in
  README.md or DESIGN.md.  The other closed CLI vocabularies are the
  tuples the program validates against.

Each rule is a helper that takes what it checks and returns what
breaks it; :class:`TestHelpersFire` feeds each one a seeded violation.
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import re
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, Mapping, Sequence

import pytest

from repro import errors
from repro.analysis import Finding, LintReport
from repro.api import (
    DEFAULT_REGISTRY,
    ErrorDocument,
    ScheduleRequest,
    ScheduleResult,
    Session,
    scenario_spec,
)
from repro.api import wire
from repro.cli import build_parser
from repro.core.budget import QUICK_BUDGET, SearchBudget
from repro.core.scoring import OptTarget
from repro.engine import EVAL_MODES
from repro.errors import ConfigError, ReproError
from repro.service import FAILED, RUNNING, JobRecord
from repro.service import http
from repro.service.scheduler import JOB_BACKENDS
from repro.sim import (
    MODES,
    SimReport,
    TenantEvent,
    Trace,
    TraceSpec,
    build_report,
    replay,
)
from repro.sim.trace import _FAMILIES
from repro.sweep import SweepSpec
from repro.workloads import GeneratorSpec, scenario, zoo
from repro.workloads.layer import conv
from repro.workloads.model import Model, ModelInstance, Scenario

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Values each top-level field of a document is set to in turn.
_FIELD_VALUES = (None, True, -1, 0, 1.5, 10**400, "x", [], {}, [None],
                 [{}])

#: Versions no reader accepts: a boolean is no version, though
#: ``True == 1``, and neither is the string ``"1"``.
_BAD_VERSIONS = (99, True, None, "1")


# ---------------------------------------------------------------------------
# the rule helpers


def _unless_config_error(parse: Callable[[Any], Any], data: Any,
                         what: str) -> list[str]:
    try:
        parse(data)
    except ConfigError:
        return []
    except Exception as exc:  # any other error breaks the rule
        return [f"{what}: {type(exc).__name__}: {exc}"]
    return [f"{what}: accepted"]


def envelope_violations(kind: str, document: dict[str, Any],
                        reader: Any) -> list[str]:
    """How ``reader`` (a document class) breaks the envelope rule on a
    real ``document`` of ``kind``.

    The document names ``kind`` and parses; a non-dict, a wrong kind
    and each of :data:`_BAD_VERSIONS` are a ``ConfigError``, and so is
    malformed JSON text when the reader has ``from_json``.
    """
    problems: list[str] = []
    if document.get("kind") != kind:
        problems.append(f"to_dict() emits kind {document.get('kind')!r}")
    try:
        reader.from_dict(document)
    except Exception as exc:  # the real document must parse
        problems.append(f"the document itself: {type(exc).__name__}: "
                        f"{exc}")
    mutants = [("a list", [document]),
               ("a wrong kind", {**document, "kind": f"not_{kind}"})]
    mutants += [(f"version {version!r}", {**document, "version": version})
                for version in _BAD_VERSIONS]
    for what, mutant in mutants:
        problems += _unless_config_error(reader.from_dict, mutant, what)
    if hasattr(reader, "from_json"):
        problems += _unless_config_error(reader.from_json, "{not json",
                                         "malformed JSON")
    return problems


def boundary_violations(document: dict[str, Any],
                        parse: Callable[[Any], Any]) -> list[str]:
    """Top-level mutants of ``document`` on which ``parse`` raises
    anything but a ``ReproError``.

    Each key is dropped, an unknown key is added, and each key is set
    to each of :data:`_FIELD_VALUES`.
    """
    mutants: list[tuple[str, dict[str, Any]]] = [
        ("an unknown key", {**document, "unknown_key": 1})]
    for key in document:
        mutants.append((f"{key} dropped",
                        {k: v for k, v in document.items() if k != key}))
        mutants += [(f"{key} = {value!r:.20}", {**document, key: value})
                    for value in _FIELD_VALUES]
    problems: list[str] = []
    for what, mutant in mutants:
        try:
            parse(copy.deepcopy(mutant))
        except ReproError:
            pass
        except Exception as exc:  # any other error breaks the rule
            problems.append(f"{what}: {type(exc).__name__}: {exc}")
    return problems


def unknown_error_codes(handler_source: str,
                        known: Collection[str]) -> list[str]:
    """Each code ``handler_source`` passes to ``_send_error_doc`` that is
    not in ``known``; a code that is no string literal is unknown."""
    unknown: list[str] = []
    for node in ast.walk(ast.parse(handler_source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_send_error_doc"):
            continue
        code = node.args[1] if len(node.args) > 1 else \
            {kw.arg: kw.value for kw in node.keywords}.get("code")
        if not (isinstance(code, ast.Constant) and code.value in known):
            unknown.append("<none>" if code is None else ast.unparse(code))
    return unknown


def choice_drift(parser: argparse.ArgumentParser,
                 expected: Mapping[tuple[str, str], Sequence[str]]) \
        -> list[str]:
    """Each ``(command, option)`` of ``expected`` whose choices in
    ``parser`` are not the expected ones, in order."""
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    problems: list[str] = []
    for (command, option), choices in expected.items():
        found = [tuple(action.choices or ())
                 for action in commands[command]._actions
                 if option in action.option_strings]
        if found != [tuple(choices)]:
            problems.append(f"scar {command} {option}: {found} != "
                            f"{tuple(choices)}")
    return problems


def undocumented(names: Iterable[str], text: str) -> list[str]:
    """The names that ``text`` never mentions as a word."""
    return [name for name in names
            if not re.search(rf"(?<![A-Za-z0-9_]){re.escape(name)}"
                             rf"(?![A-Za-z0-9_])", text)]


# ---------------------------------------------------------------------------
# one real document per parsed wire kind


_INLINE_LAYER_MODEL = Model(name="inline_conv", layers=(
    conv("c0", c=3, k=16, y=32, x=32, r=3),))

#: A scenario with a zoo model and a model whose layers ride inline.
_INLINE_SCENARIO = Scenario(name="inline", use_case="arvr", instances=(
    ModelInstance(zoo.build("d2go"), 30),
    ModelInstance(_INLINE_LAYER_MODEL, 2)))

_TRACE = Trace(name="contract", use_case="arvr", events=(
    TenantEvent(tick=0, kind="arrive", tenant="a", model="eyecod",
                batch=2, deadline_s=0.05),
    TenantEvent(tick=2, kind="depart", tenant="a")))


def _job_record() -> JobRecord:
    record = JobRecord(job_id="job-7", request=ScheduleRequest(
        scenario_id=4), priority=2)
    return record.transition(RUNNING, queue_s=0.25).transition(
        FAILED, note="boom", run_s=1.5,
        error=ErrorDocument(code="search_error", message="no window"))


def _lint_report() -> LintReport:
    finding = Finding(code="SCAR002", message="process-wide RNG",
                      path="repro/engine/x.py", line=3, col=4)
    return LintReport(findings=(finding,), suppressed=(finding,),
                      checked_files=2, codes=("SCAR001", "SCAR002"),
                      timings={"SCAR001": 0.001, "SCAR002": 0.002})


def _schedule_result() -> ScheduleResult:
    return Session().submit(ScheduleRequest.for_scenario(
        scenario(4), template="het_sides_3x3", budget=QUICK_BUDGET,
        nsplits=1))


def _sim_report() -> SimReport:
    return build_report(_TRACE, "warm",
                        replay(_TRACE, nsplits=1, budget=QUICK_BUDGET))


#: Case -> (wire kind, builder of a value whose ``to_dict`` is a real
#: document of that kind).  Every optional field is set.
_CASES: dict[str, tuple[str, Callable[[], Any]]] = {
    "error": ("error", lambda: ErrorDocument(
        code="config_error", message="bad entry", field="requests[2]")),
    "generator_spec": ("generator_spec", lambda: GeneratorSpec(
        kind="random_mix", seed=9, count=3, use_case="arvr", tenants=2,
        models=("eyecod", "hand_sp"), batches=(1, 2))),
    "job": ("job", _job_record),
    "lint_report": ("lint_report", _lint_report),
    "schedule_request": ("schedule_request", lambda: ScheduleRequest(
        scenario_id=4, template="simba_nvd_3x3", policy="evolutionary",
        objective="latency", latency_bound_s=0.5, nsplits=2,
        budget=SearchBudget(top_k_segmentations=2, seed=3),
        packing="uniform", provisioning="exhaustive", prov_limit=8,
        max_nodes_per_model=3, seg_search="evolutionary", beam=2)),
    "schedule_request+scenario_spec": (
        "schedule_request",
        lambda: ScheduleRequest(scenario_spec=scenario_spec(
            _INLINE_SCENARIO))),
    "schedule_result": ("schedule_result", _schedule_result),
    "sim_report": ("sim_report", _sim_report),
    "sweep_spec": ("sweep_spec", lambda: SweepSpec(
        scenarios=(4, scenario_spec(_INLINE_SCENARIO)),
        templates=("het_sides_3x3", "simba_nvd_3x3"),
        policies=("scar", "standalone"), objectives=("edp", "latency"),
        nsplits=(1, 2), beams=(None, 4), budget=QUICK_BUDGET)),
    "trace": ("trace", lambda: _TRACE),
    "trace_spec": ("trace_spec", lambda: TraceSpec(
        family="uunifast", seed=7, tenants=3, horizon=8, use_case="arvr",
        models=("eyecod", "hand_sp"), batches=(1, 2, 4),
        utilization=0.75, deadline_range=(0.05, 0.5), name="contract")),
}


@pytest.fixture(scope="module")
def documents() -> dict[str, tuple[dict[str, Any], type]]:
    """Case -> (its real document, the class that reads it)."""
    built = {}
    for case, (_, build) in _CASES.items():
        value = build()
        built[case] = (value.to_dict(), type(value))
    return built


class TestWireDocuments:
    def test_every_parsed_kind_has_a_case(self):
        golden = json.loads((REPO_ROOT / "analysis" / "schemas.json")
                            .read_text(encoding="utf-8"))
        parsed = {kind for kind, entry in golden["kinds"].items()
                  if entry["parses"]}
        assert {kind for kind, _ in _CASES.values()} == parsed

    @pytest.mark.parametrize("case", sorted(_CASES))
    def test_envelope(self, documents, case):
        document, reader = documents[case]
        assert envelope_violations(_CASES[case][0], document, reader) \
            == []

    @pytest.mark.parametrize("case", sorted(_CASES))
    def test_top_level_fields_parse_or_fail_typed(self, documents, case):
        document, reader = documents[case]
        assert boundary_violations(document, reader.from_dict) == []

    @pytest.mark.parametrize("part", ["spec", "zoo model", "inline model",
                                      "inline layer"])
    def test_inline_scenario_spec_fields_parse_or_fail_typed(
            self, documents, part):
        """The same mutations one level down: the inline spec's own
        keys, a zoo model entry, an inline-layer model entry and one of
        its layers."""
        request, _ = documents["schedule_request+scenario_spec"]
        spec = request["scenario_spec"]
        zoo_model, inline_model = spec["models"]

        def with_spec(new_spec):
            return ScheduleRequest.from_dict(
                {**request, "scenario_spec": new_spec})

        def with_models(*models):
            return with_spec({**spec, "models": list(models)})

        cases = {
            "spec": (spec, with_spec),
            "zoo model": (zoo_model,
                          lambda m: with_models(m, inline_model)),
            "inline model": (inline_model,
                             lambda m: with_models(zoo_model, m)),
            "inline layer": (inline_model["layers"][0],
                             lambda layer: with_models(zoo_model, {
                                 **inline_model, "layers": [layer]})),
        }
        document, parse = cases[part]
        assert boundary_violations(document, parse) == []


# ---------------------------------------------------------------------------
# error codes and CLI vocabularies


class TestErrorCodes:
    def test_http_sends_only_service_conditions(self):
        source = Path(http.__file__).read_text(encoding="utf-8")
        assert unknown_error_codes(source, ()), \
            "no _send_error_doc call found"
        assert unknown_error_codes(source,
                                   wire._SERVICE_CONDITIONS) == []
        assert all(getattr(errors, cls.__name__, None) is cls
                   for cls in wire._SERVICE_CONDITIONS.values())


#: Each closed CLI vocabulary -> the tuple the program validates with.
_CLI_VOCABULARIES = {
    **{(command, "--policy"): DEFAULT_REGISTRY.names()
       for command in ("schedule", "simulate")},
    **{(command, "--objective"): tuple(target.value
                                       for target in OptTarget)
       for command in ("schedule", "simulate")},
    **{(command, "--eval-mode"): EVAL_MODES
       for command in ("schedule", "simulate", "sweep", "serve")},
    ("simulate", "--family"): _FAMILIES,
    ("simulate", "--mode"): MODES,
    ("serve", "--job-backend"): JOB_BACKENDS,
}


class TestPolicyRegistry:
    def test_cli_choices_are_the_canonical_tuples(self):
        assert choice_drift(build_parser(), _CLI_VOCABULARIES) == []

    def test_every_policy_is_documented(self):
        docs = "\n".join((REPO_ROOT / name).read_text(encoding="utf-8")
                         for name in ("README.md", "DESIGN.md"))
        assert DEFAULT_REGISTRY.names()
        assert undocumented(DEFAULT_REGISTRY.names(), docs) == []


# ---------------------------------------------------------------------------
# each helper fires on a seeded violation


class _KindOnlyReader:
    """A reader that checks the kind but not the version."""

    @staticmethod
    def from_dict(data: Any) -> dict[str, Any]:
        if not isinstance(data, dict) or data.get("kind") != "doc":
            raise ConfigError("not a doc")
        return data

    @classmethod
    def from_json(cls, text: str) -> dict[str, Any]:
        return cls.from_dict(wire.loads_document(text, "doc"))


class TestHelpersFire:
    def test_a_wrong_version_that_is_accepted(self):
        problems = envelope_violations("doc", {"kind": "doc",
                                               "version": 1},
                                       _KindOnlyReader)
        assert problems == [f"version {version!r}: accepted"
                            for version in _BAD_VERSIONS]

    def test_a_kind_that_is_not_emitted(self):
        assert envelope_violations("doc", {"kind": "other"},
                                   _KindOnlyReader)[0] == \
            "to_dict() emits kind 'other'"

    def test_a_non_repro_error_escaping_a_parser(self):
        def read_timings(data):
            if "timings" not in data:
                raise ConfigError("no timings")
            return dict(data["timings"])

        problems = boundary_violations({"timings": {}}, read_timings)
        assert "timings = 'x': ValueError" in "\n".join(problems)
        assert not any("dropped" in problem for problem in problems)

    def test_an_unknown_error_code(self):
        source = ("class H:\n"
                  "    def fail(self, code):\n"
                  "        self._send_error_doc(400, 'bad_request', 'm')\n"
                  "        self._send_error_doc(400, 'mystery_code', 'm')\n"
                  "        self._send_error_doc(400, code, 'm')\n")
        assert unknown_error_codes(source, wire._SERVICE_CONDITIONS) == \
            ["'mystery_code'", "code"]

    def test_a_policy_missing_from_the_cli_choices(self):
        parser = argparse.ArgumentParser()
        command = parser.add_subparsers().add_parser("schedule")
        command.add_argument("--policy", choices=("scar", "standalone"))
        expected = {("schedule", "--policy"): ("nn_baton", "scar",
                                               "standalone")}
        assert choice_drift(parser, expected) == [
            "scar schedule --policy: [('scar', 'standalone')] != "
            "('nn_baton', 'scar', 'standalone')"]

    def test_a_policy_missing_from_the_docs(self):
        text = "scar and nn_baton; a standalones aside"
        assert undocumented(("scar", "nn_baton", "standalone"), text) == \
            ["standalone"]
