"""SCAR004: the exception/wire-code/HTTP mapping stays closed.

Every exception class in :mod:`repro.errors` must be mappable to a
stable wire code (the ``_ERROR_CODES`` table in
:mod:`repro.api.wire`) and every wire-facing code must resolve back to
a real exception class -- otherwise a service boundary either leaks
``internal_error`` for a typed failure or rebuilds the wrong exception
on the client.  Concretely, over the three modules:

* every :class:`~repro.errors.ReproError` subclass (and the base) has
  an ``_ERROR_CODES`` entry, and every entry names a class that exists;
* ``_ERROR_CODES`` is ordered most-derived first (the MRO walk in
  ``ErrorDocument.from_exception`` takes the first match, so an entry
  after its own subclass would shadow it);
* every class named in ``_CODE_TO_EXCEPTION`` and in
  ``service/http.py``'s ``_status_for`` isinstance chain exists in
  :mod:`repro.errors`;
* every literal code ``http.py`` puts on the wire via
  ``_send_error_doc`` is resolvable by clients through
  ``_CODE_TO_EXCEPTION``.

This checker runs once per lint as a whole-program pass, and only
when the errors/wire modules are both in the checked set; it reads
the three modules' parsed sources from the program model.
"""

from __future__ import annotations

import ast
from typing import Any, Iterable, Iterator

from repro.analysis.core import (
    Checker,
    Finding,
    SourceFile,
    register_checker,
)

_ERRORS_MODULE = "repro.errors"
_WIRE_MODULE = "repro.api.wire"
_HTTP_MODULE = "repro.service.http"

_BASE_EXCEPTION = "ReproError"


def _assign_value(tree: ast.Module, name: str) \
        -> tuple[ast.expr, int] | None:
    """Module-level ``name = value`` (or annotated) value + line."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == name
               for t in targets):
            value = node.value
            assert value is not None
            return value, node.lineno
    return None


def _exception_classes(tree: ast.Module) -> dict[str, list[str]]:
    """``{class name: base names}`` for ReproError's hierarchy."""
    bases: dict[str, list[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            bases[node.name] = [base.id for base in node.bases
                                if isinstance(base, ast.Name)]
    reachable = {_BASE_EXCEPTION} if _BASE_EXCEPTION in bases else set()
    changed = True
    while changed:
        changed = False
        for name, parents in bases.items():
            if name not in reachable \
                    and any(parent in reachable for parent in parents):
                reachable.add(name)
                changed = True
    return {name: parents for name, parents in bases.items()
            if name in reachable}


def _ancestors(name: str, bases: dict[str, list[str]]) -> set[str]:
    seen: set[str] = set()
    frontier = list(bases.get(name, ()))
    while frontier:
        parent = frontier.pop()
        if parent in seen:
            continue
        seen.add(parent)
        frontier.extend(bases.get(parent, ()))
    return seen


def _codes_table(value: ast.expr) -> list[tuple[str, str, int]]:
    """``_ERROR_CODES`` entries as ``(class name, code, line)``."""
    entries = []
    if isinstance(value, (ast.Tuple, ast.List)):
        for item in value.elts:
            if isinstance(item, (ast.Tuple, ast.List)) \
                    and len(item.elts) == 2 \
                    and isinstance(item.elts[0], ast.Name) \
                    and isinstance(item.elts[1], ast.Constant):
                entries.append((item.elts[0].id,
                                str(item.elts[1].value), item.lineno))
    return entries


def _dict_literal_entries(value: ast.expr) \
        -> list[tuple[str, ast.expr, int]]:
    """Literal ``{code: Class}`` entries (``**`` unpacks are skipped)."""
    entries = []
    if isinstance(value, ast.Dict):
        for key, val in zip(value.keys, value.values):
            if key is not None and isinstance(key, ast.Constant):
                entries.append((str(key.value), val, val.lineno))
    return entries


@register_checker
class ErrorCodeChecker(Checker):
    code = "SCAR004"
    name = "error-code-mapping"
    description = ("every repro.errors exception has a wire code "
                   "(_ERROR_CODES, most-derived first), no orphan "
                   "codes, and http.py only emits resolvable codes")

    def check_program(self, program: Any) -> Iterable[Finding]:
        errors_src = program.source(_ERRORS_MODULE)
        wire_src = program.source(_WIRE_MODULE)
        if errors_src is None or wire_src is None:
            return ()
        findings = list(self._check_wire(errors_src, wire_src))
        http_src = program.source(_HTTP_MODULE)
        if http_src is not None:
            findings.extend(self._check_http(errors_src, wire_src,
                                             http_src))
        return findings

    def _check_wire(self, errors_src: SourceFile,
                    wire_src: SourceFile) -> Iterator[Finding]:
        bases = _exception_classes(errors_src.tree)
        table = _assign_value(wire_src.tree, "_ERROR_CODES")
        if table is None:
            yield wire_src.finding(
                self.code, "repro.api.wire must define the "
                "_ERROR_CODES exception-to-code table")
            return
        value, table_line = table
        entries = _codes_table(value)
        mapped = {name for name, _, _ in entries}
        for name in sorted(bases):
            if name not in mapped:
                yield wire_src.finding(
                    self.code,
                    f"exception {name} from repro.errors has no wire "
                    f"code in _ERROR_CODES", line=table_line)
        for name, code, line in entries:
            if name not in bases:
                yield wire_src.finding(
                    self.code,
                    f"orphan wire code {code!r}: {name} is not an "
                    f"exception class in repro.errors", line=line)
        for i, (earlier, _, _) in enumerate(entries):
            for name, _, line in entries[i + 1:]:
                if earlier in _ancestors(name, bases):
                    yield wire_src.finding(
                        self.code,
                        f"_ERROR_CODES entry {name} is shadowed by its "
                        f"base {earlier} listed first; most-derived "
                        f"entries must come first", line=line)
        reverse = _assign_value(wire_src.tree, "_CODE_TO_EXCEPTION")
        if reverse is not None:
            for code, val, line in _dict_literal_entries(reverse[0]):
                if isinstance(val, ast.Name) and val.id not in bases:
                    yield wire_src.finding(
                        self.code,
                        f"_CODE_TO_EXCEPTION maps {code!r} to {val.id}, "
                        f"which is not an exception class in "
                        f"repro.errors", line=line)

    def _check_http(self, errors_src: SourceFile, wire_src: SourceFile,
                    http_src: SourceFile) -> Iterator[Finding]:
        bases = _exception_classes(errors_src.tree)
        status_for = None
        for node in ast.walk(http_src.tree):
            if isinstance(node, ast.FunctionDef) \
                    and node.name == "_status_for":
                status_for = node
                break
        if status_for is None:
            yield http_src.finding(
                self.code, "service/http.py must define _status_for, "
                "the exception-to-HTTP-status mapping")
        else:
            for node in ast.walk(status_for):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Name) \
                        and node.func.id == "isinstance" \
                        and len(node.args) == 2 \
                        and isinstance(node.args[1], ast.Name) \
                        and node.args[1].id not in bases:
                    yield http_src.finding(
                        self.code,
                        f"_status_for checks {node.args[1].id}, which "
                        f"is not an exception class in repro.errors",
                        node)
        yield from self._check_http_codes(wire_src, http_src)

    def _check_http_codes(self, wire_src: SourceFile,
                          http_src: SourceFile) -> Iterator[Finding]:
        known = set()
        table = _assign_value(wire_src.tree, "_ERROR_CODES")
        if table is not None:
            known.update(code for _, code, _ in _codes_table(table[0]))
        reverse = _assign_value(wire_src.tree, "_CODE_TO_EXCEPTION")
        if reverse is not None:
            known.update(code for code, _, _
                         in _dict_literal_entries(reverse[0]))
        for node in ast.walk(http_src.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_send_error_doc"
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)):
                continue
            code = str(node.args[1].value)
            if code not in known:
                yield http_src.finding(
                    self.code,
                    f"http.py emits wire code {code!r} with no "
                    f"_CODE_TO_EXCEPTION entry; clients cannot rebuild "
                    f"a typed exception from it", node.args[1])
