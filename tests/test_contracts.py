"""The wire, error and registry contracts, checked on the running program.

Three contracts span modules, so no one module's tests own them:

* **Wire documents.**  One real document of every kind the program
  writes, each built by the code path that writes it, has the shape
  recorded in ``tests/fixtures/wire_shapes.json``: its keys at every
  depth, the type of every value, and the ``kind`` and ``version`` of
  every document in it.  The kinds are the ones a ``"kind"`` dict
  display in ``src/repro`` names.  A kind whose class defines
  ``from_dict`` is read back: its reader refuses a non-dict, a wrong
  ``kind`` and a version it does not read with a ``ConfigError``, and
  whatever a field holds, the document parses or fails with a
  ``ReproError``.  A request that parses runs, or fails with a
  ``ReproError``.
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
When a wire shape changes on purpose, the shape test prints the
observed shape of each kind that differs: copy it into the fixture.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import copy
import functools
import io
import json
import re
import tempfile
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, Mapping, Sequence

import pytest

from repro import errors
from repro.analysis import SourceFile, run_checkers
from repro.api import (
    DEFAULT_REGISTRY,
    ErrorDocument,
    ScheduleRequest,
    ScheduleResult,
    SchedulerRegistry,
    Session,
    scenario_spec,
)
from repro.api import wire
from repro.cli import build_parser, main
from repro.core.budget import QUICK_BUDGET, SearchBudget
from repro.core.packing import MAX_NSPLITS
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
from repro.sweep import (
    ResultStore,
    SweepSpec,
    run_sweep,
    sweep_report,
    sweep_status,
)
from repro.workloads import zoo
from repro.workloads.layer import MAX_LAYER_DIM, Layer, LayerOp, conv
from repro.workloads.model import MAX_BATCH, Model, ModelInstance, Scenario
from service_helpers import failing_registry

REPO_ROOT = Path(__file__).resolve().parents[1]
SHAPES_PATH = REPO_ROOT / "tests" / "fixtures" / "wire_shapes.json"

#: Values each top-level field of a document is set to in turn.
_FIELD_VALUES = (None, True, -1, 0, 1.5, 10**400, "x", [], {}, [None],
                 [{}])

#: Versions no reader accepts: a boolean is no version, though
#: ``True == 1``, and neither is the string ``"1"``.
_BAD_VERSIONS = (99, True, None, "1")

#: The type name of each JSON scalar in a wire shape.
_SCALARS = {bool: "bool", int: "int", float: "float", str: "str",
            type(None): "null"}


# ---------------------------------------------------------------------------
# the rule helpers


def wire_shape(value: Any) -> Any:
    """The shape of a JSON value.

    A dict's shape maps its keys to their shapes, a list's is the sorted
    set of its elements' shapes and a scalar's is its type name.  A dict
    that carries both ``kind`` and ``version`` is a document, nested or
    not, and keeps their values, so a version bump changes the shape.
    """
    if isinstance(value, dict):
        envelope = "kind" in value and "version" in value
        return {key: item if envelope and key in ("kind", "version")
                else wire_shape(item) for key, item in value.items()}
    if isinstance(value, list):
        shapes = {json.dumps(wire_shape(item), sort_keys=True)
                  for item in value}
        return [json.loads(shape) for shape in sorted(shapes)]
    return _SCALARS[type(value)]


def wire_kinds(package: Path) -> tuple[set[str], set[str]]:
    """The kinds ``package``'s source writes, and those it reads back.

    A kind is written where a dict display's ``"kind"`` value is a
    string constant or a module-level name bound to one, and read back
    where that display sits in a class that defines ``from_dict``.
    """
    written: set[str] = set()
    read: set[str] = set()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        constants: dict[str, str] = {}
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            if isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                constants.update((target.id, node.value.value)
                                 for target in targets
                                 if isinstance(target, ast.Name))

        def visit(node: ast.AST, reads: bool) -> None:
            if isinstance(node, ast.ClassDef):
                reads = any(isinstance(item, ast.FunctionDef)
                            and item.name == "from_dict"
                            for item in node.body)
            elif isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if not (isinstance(key, ast.Constant)
                            and key.value == "kind"):
                        continue
                    kind = value.value if isinstance(value, ast.Constant) \
                        else constants.get(getattr(value, "id", ""))
                    if isinstance(kind, str):
                        written.add(kind)
                        if reads:
                            read.add(kind)
            for child in ast.iter_child_nodes(node):
                visit(child, reads)

        visit(tree, False)
    return written, read


def shape_drift(documents: Mapping[str, Any], fixture: Mapping[str, Any],
                written: Collection[str]) -> list[str]:
    """How real ``documents`` (kind -> JSON document) break the shape
    contract of ``fixture`` (kind -> shape).

    Every kind in ``written`` needs a document and a fixture entry, the
    fixture has no other kind, and each document's shape is its entry.
    When a shape differs or is missing, the last problem is the
    observed shape of each such kind, as JSON to copy into the fixture.
    """
    problems = [f"{kind}: written, but no real document is built"
                for kind in sorted(set(written) - set(documents))]
    problems += [f"{kind}: a document is built, but nothing writes it"
                 for kind in sorted(set(documents) - set(written))]
    problems += [f"{kind}: in the fixture, but nothing writes it"
                 for kind in sorted(set(fixture) - set(written))]
    observed = {kind: wire_shape(document)
                for kind, document in sorted(documents.items())}
    changed = {kind: shape for kind, shape in observed.items()
               if fixture.get(kind) != shape}
    problems += [f"{kind}: differs from the fixture" if kind in fixture
                 else f"{kind}: missing from the fixture"
                 for kind in changed]
    if changed:
        problems.append("observed shapes:\n"
                        + json.dumps(changed, indent=2, sort_keys=True))
    return problems


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


def _mutants(document: dict[str, Any]) -> list[tuple[str, dict[str, Any]]]:
    """``document`` with each key dropped, an unknown key added, and
    each key set to each of :data:`_FIELD_VALUES`."""
    mutants: list[tuple[str, dict[str, Any]]] = [
        ("an unknown key", {**document, "unknown_key": 1})]
    for key in document:
        mutants.append((f"{key} dropped",
                        {k: v for k, v in document.items() if k != key}))
        mutants += [(f"{key} = {value!r:.20}", {**document, key: value})
                    for value in _FIELD_VALUES]
    return mutants


def boundary_violations(document: dict[str, Any],
                        parse: Callable[[Any], Any]) -> list[str]:
    """The :func:`_mutants` of ``document`` on which ``parse`` raises
    anything but a ``ReproError``."""
    problems: list[str] = []
    for what, mutant in _mutants(document):
        try:
            parse(copy.deepcopy(mutant))
        except ReproError:
            pass
        except Exception as exc:  # any other error breaks the rule
            problems.append(f"{what}: {type(exc).__name__}: {exc}")
    return problems


def _refuse_constant(name: str) -> None:
    raise ValueError(f"{name} is not strict JSON")


def run_violations(requests: Mapping[str, ScheduleRequest],
                   session: Session) -> list[str]:
    """Each of ``requests`` (label -> request) that ``session`` neither
    runs to a result whose wire form is strict JSON (no ``NaN`` or
    ``Infinity``) nor refuses with a ``ReproError``."""
    problems: list[str] = []
    for what, request in requests.items():
        try:
            result = session.submit(request)
            json.loads(result.wire_bytes, parse_constant=_refuse_constant)
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
# one real document per wire kind


_INLINE_LAYER_MODEL = Model(name="inline_conv", layers=(
    conv("c0", c=3, k=16, y=32, x=32, r=3),))

#: A scenario with a zoo model and a model whose layers ride inline.
_INLINE_SCENARIO = Scenario(name="inline", use_case="arvr", instances=(
    ModelInstance(zoo.build("d2go"), 30),
    ModelInstance(_INLINE_LAYER_MODEL, 2)))

#: A request whose only model rides inline: a search takes milliseconds.
_SMALL_REQUEST = ScheduleRequest.for_scenario(
    Scenario(name="small", use_case="arvr",
             instances=(ModelInstance(_INLINE_LAYER_MODEL, 2),)),
    budget=QUICK_BUDGET)

_TRACE = Trace(name="contract", use_case="arvr", events=(
    TenantEvent(tick=0, kind="arrive", tenant="a", model="eyecod",
                batch=2, deadline_s=0.05),
    TenantEvent(tick=2, kind="depart", tenant="a")))

#: A grid of one searched cell and one cell whose policy fails.
_SWEEP = SweepSpec(scenarios=(4,), policies=("scar", "failing"),
                   nsplits=(1,), budget=QUICK_BUDGET)


@functools.cache
def _session() -> Session:
    """One session for every search here: the sweep's searched cell is
    the schedule_result case's request, so it is a memo hit."""
    return Session(failing_registry())


def _job_record() -> JobRecord:
    record = JobRecord(job_id="job-7", request=ScheduleRequest(
        scenario_id=4), priority=2)
    return record.transition(RUNNING, queue_s=0.25).transition(
        FAILED, note="boom", run_s=1.5,
        error=ErrorDocument(code="search_error", message="no window"))


@functools.cache
def _schedule_result() -> ScheduleResult:
    return _session().submit(ScheduleRequest(
        scenario_id=4, budget=QUICK_BUDGET, nsplits=1))


def _sim_report() -> SimReport:
    return build_report(_TRACE, "warm",
                        replay(_TRACE, nsplits=1, budget=QUICK_BUDGET))


def _lint_report() -> dict[str, Any]:
    """``scar lint``'s report on a file with one finding and one
    suppressed finding."""
    source = SourceFile("repro/engine/x.py", (
        "import random\n"
        "x = random.random()\n"
        "y = random.random()  # scar: noqa[SCAR002]\n"))
    return run_checkers([source], select=["SCAR002"]).to_dict()


def _generated_scenarios() -> Any:
    """What ``scar generate --output-dir DIR --format json`` prints."""
    with tempfile.TemporaryDirectory() as out_dir, \
            contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["generate", "--seed", "7", "--count", "2",
                     "--output-dir", out_dir, "--format", "json"]) == 0
    return json.loads(out.getvalue())


def _sweep_documents() -> dict[str, Any]:
    """The store line, report and status of a real sweep of
    :data:`_SWEEP`."""
    with tempfile.TemporaryDirectory() as store_dir:
        store = ResultStore(Path(store_dir) / "cells.jsonl")
        outcome = run_sweep(_SWEEP, store=store, session=_session())
        (line,) = store.path.read_text(encoding="utf-8").splitlines()
        return {"sweep_cell": json.loads(line),
                "sweep_report": sweep_report(outcome).to_document(),
                "sweep_status": sweep_status(_SWEEP, store).to_document()}


#: Case -> (wire kind, builder of a value whose ``to_dict`` is a real
#: document of that kind): every kind the program reads back.  Every
#: optional field is set.
_CASES: dict[str, tuple[str, Callable[[], Any]]] = {
    "error": ("error", lambda: ErrorDocument(
        code="config_error", message="bad entry", field="requests[2]")),
    "job": ("job", _job_record),
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


@pytest.fixture(scope="module")
def wire_documents(documents) -> dict[str, Any]:
    """Kind -> one real document of it, as it goes on the wire."""
    written = {kind: documents[case][0]
               for case, (kind, _) in _CASES.items() if case == kind}
    written.update(_sweep_documents(),
                   generated_scenarios=_generated_scenarios(),
                   lint_report=_lint_report(),
                   sim_report=_sim_report().to_dict())
    return {kind: json.loads(json.dumps(document))
            for kind, document in written.items()}


class TestWireShapes:
    def test_shapes_match_the_fixture(self, wire_documents):
        fixture = json.loads(SHAPES_PATH.read_text(encoding="utf-8"))
        written, _ = wire_kinds(REPO_ROOT / "src" / "repro")
        problems = shape_drift(wire_documents, fixture, written)
        assert not problems, "\n".join(problems)

    def test_every_document_carries_its_envelope(self, wire_documents):
        for kind, document in wire_documents.items():
            version = document.get("version")
            assert document.get("kind") == kind
            assert isinstance(version, int) \
                and not isinstance(version, bool), (kind, version)


class TestWireDocuments:
    def test_every_parsed_kind_has_a_case(self):
        _, read = wire_kinds(REPO_ROOT / "src" / "repro")
        assert {kind for kind, _ in _CASES.values()} == read

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


#: The request's integer fields whose parsed mutants are run.
_RUN_FIELDS = ("nsplits", "prov_limit", "max_nodes_per_model", "beam")


def _with_layer(request: dict[str, Any],
                layer: dict[str, Any]) -> dict[str, Any]:
    """``request`` (a :data:`_SMALL_REQUEST` document) with ``layer`` as
    its inline model's one layer."""
    spec = request["scenario_spec"]
    (model,) = spec["models"]
    return {**request, "scenario_spec": {
        **spec, "models": [{**model, "layers": [layer]}]}}


class TestParsedRequestsRun:
    def test_every_parsed_mutant_runs_or_fails_typed(self):
        """Each distinct request that parses from a mutant of the top-level
        integers or of the inline layer runs to a strict-JSON result."""
        request = _SMALL_REQUEST.to_dict()
        rest = {k: v for k, v in request.items() if k not in _RUN_FIELDS}
        mutants = [(what, {**rest, **fields}) for what, fields in
                   _mutants({k: request[k] for k in _RUN_FIELDS})]
        (layer,) = request["scenario_spec"]["models"][0]["layers"]
        mutants += [(f"layer {what}", _with_layer(request, mutant))
                    for what, mutant in _mutants(layer)]
        parsed: dict[str, tuple[str, ScheduleRequest]] = {}
        for what, mutant in mutants:
            try:
                parsed_request = ScheduleRequest.from_dict(mutant)
            except ReproError:
                continue
            parsed.setdefault(parsed_request.cache_key(),
                              (what, parsed_request))
        assert len(parsed) > 10
        assert run_violations(dict(parsed.values()), Session()) == []

    @pytest.mark.parametrize("field,value", [
        ("nsplits", MAX_NSPLITS + 1), ("nsplits", 10**400),
        ("k", MAX_LAYER_DIM + 1), ("k", 10**200), ("k", True),
        ("bytes_per_element", 1.5)])
    def test_out_of_bounds_values_are_config_errors(self, field, value):
        request = _SMALL_REQUEST.to_dict()
        if field == "nsplits":
            mutant = {**request, "nsplits": value}
        else:
            (layer,) = request["scenario_spec"]["models"][0]["layers"]
            mutant = _with_layer(request, {**layer, field: value})
        with pytest.raises(ConfigError, match=f"{field}[ =]"):
            ScheduleRequest.from_dict(mutant)

    def test_the_bounds_run(self):
        """``nsplits`` at its cap, and a layer with every dimension at
        the cap at the largest batch, for each operator."""
        dims = dict.fromkeys(("n", "k", "c", "y", "x", "r", "s", "stride",
                              "bytes_per_element"), MAX_LAYER_DIM)
        requests = {"nsplits": _SMALL_REQUEST.replace(nsplits=MAX_NSPLITS)}
        for op in LayerOp:
            model = Model(name=f"cap_{op.value}",
                          layers=(Layer(name="l0", op=op, **dims),))
            requests[op.value] = ScheduleRequest.for_scenario(
                Scenario(name="cap", instances=(
                    ModelInstance(model, MAX_BATCH),)),
                budget=QUICK_BUDGET)
        for request in requests.values():
            result = Session().submit(request)
            json.loads(result.wire_bytes, parse_constant=_refuse_constant)


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


#: A real document of kind ``doc``, and the fixture that pins it.
_DOC = {"kind": "doc", "version": 1, "body": {"rows": [{"a": 1.5}]}}
_DOC_FIXTURE = {"doc": {"kind": "doc", "version": 1,
                        "body": {"rows": [{"a": "float"}]}}}


class TestHelpersFire:
    def test_a_shape_is_keys_types_and_envelopes(self):
        document = {"kind": "outer", "version": 2, "n": 1, "ok": True,
                    "none": None, "rows": [1.5, "x", 2.5, {"b": 1}],
                    "inner": {"kind": "inner", "version": 1},
                    "event": {"kind": "arrive"}}
        assert wire_shape(document) == {
            "kind": "outer", "version": 2, "n": "int", "ok": "bool",
            "none": "null", "rows": ["float", "str", {"b": "int"}],
            "inner": {"kind": "inner", "version": 1},
            "event": {"kind": "str"}}

    def test_a_renamed_nested_key(self):
        renamed = {**_DOC, "body": {"rows": [{"b": 1.5}]}}
        problems = shape_drift({"doc": renamed}, _DOC_FIXTURE, {"doc"})
        assert problems[0] == "doc: differs from the fixture"
        assert json.loads(problems[1].split("\n", 1)[1]) == \
            {"doc": wire_shape(renamed)}

    def test_a_version_bump(self):
        problems = shape_drift({"doc": {**_DOC, "version": 2}},
                               _DOC_FIXTURE, {"doc"})
        assert problems[0] == "doc: differs from the fixture"
        assert '"version": 2' in problems[1]

    def test_a_written_kind_missing_from_the_fixture(self):
        documents = {"doc": _DOC, "new": {"kind": "new", "version": 1}}
        problems = shape_drift(documents, _DOC_FIXTURE, {"doc", "new"})
        assert problems[0] == "new: missing from the fixture"
        assert json.loads(problems[1].split("\n", 1)[1]) == \
            {"new": {"kind": "new", "version": 1}}

    def test_a_fixture_kind_that_nothing_writes(self):
        fixture = {**_DOC_FIXTURE, "ghost": {"kind": "ghost",
                                             "version": 1}}
        assert shape_drift({"doc": _DOC}, fixture, {"doc"}) == \
            ["ghost: in the fixture, but nothing writes it"]
        assert shape_drift({"doc": _DOC}, _DOC_FIXTURE, {"doc"}) == []

    def test_the_kind_scan(self, tmp_path):
        (tmp_path / "docs.py").write_text(
            'KIND = "b_doc"\n'
            "class A:\n"
            "    def to_dict(self):\n"
            '        return {"kind": "a_doc", "rows": [{"kind": KIND}]}\n'
            "    @classmethod\n"
            "    def from_dict(cls, data):\n"
            "        return cls()\n"
            "def emit(event):\n"
            '    return {"kind": event.kind, "of": {"kind": OTHER}}\n',
            encoding="utf-8")
        assert wire_kinds(tmp_path) == ({"a_doc", "b_doc"},
                                        {"a_doc", "b_doc"})
        (tmp_path / "more.py").write_text(
            'def emit():\n    return {"kind": "c_doc", "version": 1}\n',
            encoding="utf-8")
        assert wire_kinds(tmp_path) == ({"a_doc", "b_doc", "c_doc"},
                                        {"a_doc", "b_doc"})

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

    def test_a_parsed_request_that_crashes(self):
        registry = SchedulerRegistry()

        @registry.register("overflowing")
        def _overflowing(ctx):
            raise OverflowError("int too large to convert to float")

        request = _SMALL_REQUEST.replace(policy="overflowing")
        assert run_violations({"big": request}, Session(registry)) == [
            "big: OverflowError: int too large to convert to float"]

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
