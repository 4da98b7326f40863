"""SCAR008: top-level wire fields only change with the golden file.

Every document the system puts on the wire is a dict literal carrying
a ``"kind"`` key.  This checker extracts, per kind, the set of emitted
top-level fields (the ``to_dict`` / ``to_document`` literal's keys)
and the set of parsed fields (the matching class's ``from_dict``
subscripts/`.get` reads) from the program model, and diffs them
against the checked-in golden ``analysis/schemas.json``.

Any difference -- a new kind, a removed kind, an added/removed
top-level field -- is a finding until the golden is regenerated with
``scar lint --update-schemas`` and the change lands in the same
commit.  Being static, it also covers emit-only documents
(sweep_report, trace) that have no parser to round-trip through.

The golden records names only: not a field's value shape, not what
lies below the top level and not the version number.  Moving
``schedule_result``'s ``window_candidates`` from one object per
candidate to three columns per window, with a version bump, left it
unchanged.  Tests pin the nested shapes instead: the version-1
``schedule_result`` fixture and the round-trip tests of
``tests/test_api_wire.py``, and the parse-boundary tests of
``tests/test_contracts.py``.

Only project modules (``repro.*``) contribute schemas; fixture
snippets and test helpers never pollute the golden.  Partial lints
degrade gracefully: kinds whose recorded modules are outside the
checked set are skipped rather than reported stale.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.analysis.core import Checker, Finding, register_checker

#: Golden schema file, relative to the lint root.
GOLDEN_PATH = Path("analysis") / "schemas.json"

#: Version of the extraction itself (bump when the extractor's shape
#: changes and regenerate the golden).
SCHEMA_FORMAT = 1


def extract_schemas(program: Any) -> dict[str, dict[str, Any]]:
    """``{kind: {modules, fields, parses}}`` from the program model."""
    kinds: dict[str, dict[str, Any]] = {}
    for module in sorted(program.summaries):
        if not (module == "repro" or module.startswith("repro.")):
            continue
        summary = program.summaries[module]
        for emitter in summary.emitters:
            kind = emitter["kind"]
            entry = kinds.setdefault(
                kind, {"modules": [], "fields": [], "parses": []})
            if module not in entry["modules"]:
                entry["modules"].append(module)
            entry["fields"] = sorted(
                set(entry["fields"]) | set(emitter["fields"]))
            owner = emitter.get("owner")
            if owner:
                parses = summary.classes.get(owner, {}).get("parses")
                if parses:
                    entry["parses"] = sorted(
                        set(entry["parses"]) | set(parses))
    for entry in kinds.values():
        entry["modules"].sort()
    return kinds


def golden_document(program: Any,
                    note: str | None = None) -> dict[str, Any]:
    """The full golden document for the current program."""
    return {
        "format": SCHEMA_FORMAT,
        "note": note or ("regenerate with `scar lint "
                         "--update-schemas` and describe the wire "
                         "change in the commit"),
        "kinds": extract_schemas(program),
    }


def write_golden(program: Any, root: Path,
                 note: str | None = None) -> Path:
    """Regenerate the golden schema file under ``root``."""
    target = Path(root) / GOLDEN_PATH
    target.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(golden_document(program, note), indent=2,
                      sort_keys=True) + "\n"
    target.write_text(text, encoding="utf-8")
    return target


def load_golden(root: Path) -> dict[str, Any] | None:
    target = Path(root) / GOLDEN_PATH
    if not target.is_file():
        return None
    try:
        data = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(data, dict) \
            or not isinstance(data.get("kinds"), dict):
        return None
    return data


@register_checker
class SchemaDriftChecker(Checker):
    code = "SCAR008"
    name = "wire-schema-drift"
    description = ("every kind's emitted/parsed field set matches the "
                   "golden analysis/schemas.json; wire changes require "
                   "an explicit `scar lint --update-schemas` golden "
                   "update in the same change")

    def check_program(self, program: Any) -> Iterable[Finding]:
        current = extract_schemas(program)
        if not current:
            return ()
        golden = load_golden(program.root)
        golden_rel = str(GOLDEN_PATH)
        if golden is None:
            site = self._emitter_site(program, sorted(current)[0])
            return [Finding(
                code=self.code,
                message=(f"wire kinds are emitted but {golden_rel} is "
                         f"missing or unreadable; generate it with "
                         f"`scar lint --update-schemas`"),
                path=site[0], line=site[1], col=site[2])]
        findings: list[Finding] = []
        known: dict[str, Any] = golden["kinds"]
        for kind in sorted(set(current) - set(known)):
            path, line, col = self._emitter_site(program, kind)
            findings.append(Finding(
                code=self.code,
                message=(f"new wire kind {kind!r} is not in "
                         f"{golden_rel}; run `scar lint "
                         f"--update-schemas` and commit the golden "
                         f"with a version note"), path=path,
                line=line, col=col))
        for kind in sorted(set(known) - set(current)):
            modules = known[kind].get("modules", [])
            if not any(module in program.modules
                       for module in modules):
                continue  # partial lint: the emitter was not checked
            findings.append(Finding(
                code=self.code,
                message=(f"golden {golden_rel} still lists wire kind "
                         f"{kind!r} but nothing emits it; run "
                         f"`scar lint --update-schemas`"),
                path=str(Path(program.root) / GOLDEN_PATH), line=1,
                col=0))
        for kind in sorted(set(current) & set(known)):
            findings.extend(self._diff_kind(program, kind,
                                            current[kind], known[kind],
                                            golden_rel))
        return findings

    def _diff_kind(self, program: Any, kind: str,
                   current: dict[str, Any], golden: dict[str, Any],
                   golden_rel: str) -> Iterable[Finding]:
        for facet in ("fields", "parses"):
            now = set(current.get(facet, ()))
            then = set(golden.get(facet, ()))
            if now == then:
                continue
            added = ", ".join(sorted(now - then)) or "-"
            removed = ", ".join(sorted(then - now)) or "-"
            what = "emits" if facet == "fields" else "parses"
            path, line, col = self._emitter_site(program, kind)
            yield Finding(
                code=self.code,
                message=(f"wire kind {kind!r} {what} drifted from "
                         f"{golden_rel} (added: {added}; removed: "
                         f"{removed}); update the golden with "
                         f"`scar lint --update-schemas` in the same "
                         f"change"), path=path, line=line, col=col)

    def _emitter_site(self, program: Any,
                      kind: str) -> tuple[str, int, int]:
        for module in sorted(program.summaries):
            summary = program.summaries[module]
            for emitter in summary.emitters:
                if emitter["kind"] == kind:
                    return (summary.path, emitter["line"],
                            emitter["col"])
        return (str(Path(program.root) / GOLDEN_PATH), 1, 0)
