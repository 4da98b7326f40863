"""SCAR004: every wire error code has one owner and resolves.

Each exception class in :mod:`repro.errors` declares its own wire code
(a ``code`` class attribute) and the transports read it from there, so
a class without one would inherit its base's code and a client would
rebuild the base class.  Concretely:

* :class:`~repro.errors.ReproError` and every subclass declare ``code``
  as a string literal in their own class body;
* no two classes share a code, and no service condition (the
  ``_SERVICE_CONDITIONS`` table of :mod:`repro.api.wire`: wire codes
  without a class of their own) reuses one;
* every service condition names an exception class of
  :mod:`repro.errors`;
* every literal code ``service/http.py`` puts on the wire via
  ``_send_error_doc`` is a class's code or a service condition, so a
  client can rebuild a typed exception from it.

This checker runs once per lint as a whole-program pass over the
parsed sources of the three modules, when :mod:`repro.errors` is in
the checked set; the wire and HTTP checks need their modules too.
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


def _assign_value(body: list[ast.stmt], name: str) \
        -> tuple[ast.expr, int] | None:
    """The ``name = value`` (or annotated) statement in ``body``:
    value + line."""
    for node in body:
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


def _exception_classes(tree: ast.Module) -> dict[str, ast.ClassDef]:
    """ReproError's hierarchy in ``tree``, in source order."""
    classes = {node.name: node for node in tree.body
               if isinstance(node, ast.ClassDef)}
    reachable = {_BASE_EXCEPTION} if _BASE_EXCEPTION in classes else set()
    changed = True
    while changed:
        changed = False
        for name, node in classes.items():
            if name not in reachable and any(
                    isinstance(base, ast.Name) and base.id in reachable
                    for base in node.bases):
                reachable.add(name)
                changed = True
    return {name: node for name, node in classes.items()
            if name in reachable}


@register_checker
class ErrorCodeChecker(Checker):
    code = "SCAR004"
    name = "error-code-mapping"
    description = ("every repro.errors exception declares its own "
                   "unique wire code, service conditions name real "
                   "classes, and http.py only emits resolvable codes")

    def check_program(self, program: Any) -> Iterable[Finding]:
        errors_src = program.source(_ERRORS_MODULE)
        if errors_src is None:
            return ()
        classes = _exception_classes(errors_src.tree)
        owners: dict[str, str] = {}
        findings = list(self._check_classes(errors_src, classes, owners))
        wire_src = program.source(_WIRE_MODULE)
        if wire_src is not None:
            findings.extend(self._check_conditions(wire_src, classes,
                                                   owners))
            http_src = program.source(_HTTP_MODULE)
            if http_src is not None:
                findings.extend(self._check_http(http_src, owners))
        return findings

    def _check_classes(self, errors_src: SourceFile,
                       classes: dict[str, ast.ClassDef],
                       owners: dict[str, str]) -> Iterator[Finding]:
        """Fills ``owners`` (code -> class name) as it checks."""
        for name, node in classes.items():
            declared = _assign_value(node.body, "code")
            if declared is None \
                    or not isinstance(declared[0], ast.Constant) \
                    or not isinstance(declared[0].value, str):
                yield errors_src.finding(
                    self.code,
                    f"exception {name} declares no wire code of its "
                    f"own: give it a code = \"...\" string literal",
                    node)
                continue
            code, line = declared[0].value, declared[1]
            if code in owners:
                yield errors_src.finding(
                    self.code,
                    f"exception {name} reuses wire code {code!r} of "
                    f"{owners[code]}", line=line)
            else:
                owners[code] = name

    def _check_conditions(self, wire_src: SourceFile,
                          classes: dict[str, ast.ClassDef],
                          owners: dict[str, str]) -> Iterator[Finding]:
        """Adds each service condition to ``owners`` as it checks."""
        table = _assign_value(wire_src.tree.body, "_SERVICE_CONDITIONS")
        if table is None or not isinstance(table[0], ast.Dict):
            return
        for key, value in zip(table[0].keys, table[0].values):
            if not isinstance(key, ast.Constant):
                continue
            code = str(key.value)
            if code in owners:
                yield wire_src.finding(
                    self.code,
                    f"service condition {code!r} reuses the wire code "
                    f"of {owners[code]}", value)
            owners.setdefault(code, "a service condition")
            if not (isinstance(value, ast.Name) and value.id in classes):
                yield wire_src.finding(
                    self.code,
                    f"service condition {code!r} maps to "
                    f"{ast.unparse(value)}, which is not an exception "
                    f"class in repro.errors", value)

    def _check_http(self, http_src: SourceFile,
                    owners: dict[str, str]) -> Iterator[Finding]:
        for node in ast.walk(http_src.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_send_error_doc"
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)):
                continue
            code = str(node.args[1].value)
            if code not in owners:
                yield http_src.finding(
                    self.code,
                    f"http.py emits wire code {code!r}, which is "
                    f"neither a repro.errors class's code nor a "
                    f"service condition; clients cannot rebuild a "
                    f"typed exception from it", node.args[1])
