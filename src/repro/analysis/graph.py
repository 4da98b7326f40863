"""The cross-module program model behind the whole-program checkers.

One pass over each file (:func:`summarize`) distills its AST into a
:class:`FileSummary`: the module's imports, exports, registry
registrations, class/function inventory, per-function lock
acquisitions and call sites, taint facts and wire-schema fragments.

:class:`ProgramModel` stitches the summaries together:

* the **import edges** (:meth:`FileSummary.project_imports`: module ->
  project modules it imports), which SCAR009 reads as module liveness;
* a **symbol table** (module-level defs, classes and methods,
  ``__all__`` exports, ``@register_*`` registrations);
* the **call graph**: dotted call paths resolved through import
  aliases, ``from``-imports (one re-export hop) and per-class
  attribute types to ``module:Qual.name`` function ids;
* the **lock-acquisition graph** consumed by SCAR006: which locks each
  function takes directly (``with self._lock:``), propagated through
  resolved calls to a transitive closure.

The model is deliberately static and conservative: dynamic dispatch,
monkey-patching and ``getattr`` strings resolve to nothing rather than
to wrong edges, so program checkers err on the quiet side.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.analysis.core import SourceFile

#: ``threading`` constructors whose instances count as locks.  The
#: reentrant ones may legally self-nest; plain ``Lock`` may not.
_LOCK_CTORS = frozenset({"Lock", "RLock", "Condition"})
_REENTRANT_CTORS = frozenset({"RLock", "Condition"})


# -- call descriptors --------------------------------------------------------
#
# A call site is recorded as its dotted path plus whether the path is
# rooted at ``self``:  ``run(x)`` -> ["run"],  ``templates.build(...)``
# -> ["templates", "build"],  ``self._session.submit(...)`` ->
# ["_session", "submit"] with self_rooted=True.  JSON form:
# ``[path..., line, col, self_rooted]`` flattened into a dict.


def _call_path(func: ast.expr) -> tuple[list[str], bool] | None:
    """Dotted path of a call target (``None`` when not name-rooted)."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        if node.id == "self":
            if not parts:
                return None
            return list(reversed(parts)), True
        parts.append(node.id)
        return list(reversed(parts)), False
    return None


def call_desc(node: ast.Call) -> dict[str, Any] | None:
    """JSON-able descriptor of one call site (``None`` = unresolvable)."""
    path = _call_path(node.func)
    if path is None:
        return None
    parts, self_rooted = path
    return {"path": parts, "self": self_rooted,
            "line": node.lineno, "col": node.col_offset}


def call_key(desc: dict[str, Any]) -> str:
    """Stable identity of a call target (ignores the call site)."""
    prefix = "self." if desc.get("self") else ""
    return prefix + ".".join(desc["path"])


# -- per-file summaries ------------------------------------------------------


@dataclass
class FileSummary:
    """Everything the program checkers need from one parsed file."""

    path: str
    module: str
    imports: dict[str, str] = field(default_factory=dict)
    from_imports: list[list[str]] = field(default_factory=list)
    constants: dict[str, str] = field(default_factory=dict)
    assigns: list[str] = field(default_factory=list)
    exports: list[str] = field(default_factory=list)
    exports_line: int = 0
    registrations: list[dict[str, Any]] = field(default_factory=list)
    classes: dict[str, dict[str, Any]] = field(default_factory=dict)
    functions: dict[str, dict[str, Any]] = field(default_factory=dict)
    uses: list[list[str]] = field(default_factory=list)
    emitters: list[dict[str, Any]] = field(default_factory=list)

    def project_imports(self, modules: set[str]) -> set[str]:
        """Modules of this project this file imports (direct deps)."""
        deps: set[str] = set()
        for target in self.imports.values():
            deps.update(_module_prefixes(target, modules))
        for entry in self.from_imports:
            target, name = entry[0], entry[1]
            deps.update(_module_prefixes(target, modules))
            if f"{target}.{name}" in modules:
                deps.add(f"{target}.{name}")
        deps.discard(self.module)
        return deps


def _module_prefixes(dotted: str, modules: set[str]) -> set[str]:
    """Project modules ``dotted`` resolves through (incl. packages)."""
    found = set()
    parts = dotted.split(".")
    for stop in range(1, len(parts) + 1):
        prefix = ".".join(parts[:stop])
        if prefix in modules:
            found.add(prefix)
    return found


def _resolve_relative(module: str, level: int, target: str | None) -> str:
    """Absolute module of a ``from . import x``-style import."""
    base = module.split(".")
    # level=1 strips the module's own name (package __init__ keeps it).
    trimmed = base[:len(base) - level] if level <= len(base) else []
    if target:
        trimmed.append(target)
    return ".".join(trimmed)


def _annotation_name(node: ast.expr | None) -> str | None:
    """Class name of a simple annotation (``T``, ``T | None``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return (_annotation_name(node.left)
                or _annotation_name(node.right))
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotations ("Session") are common under
        # `from __future__ import annotations`.
        return node.value if node.value.isidentifier() else None
    return None


def _self_attr(node: ast.AST) -> str | None:
    if isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


def _const_str(node: ast.expr | None,
               constants: dict[str, str]) -> str | None:
    """A string constant, directly or through a module-level name."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    return None


# -- extraction walkers ------------------------------------------------------


def _collect_module_level(source: SourceFile,
                          summary: FileSummary) -> None:
    """Imports, constants, ``__all__`` and top-level symbol inventory."""
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                summary.imports[bound] = target
                if alias.asname is None and "." in alias.name:
                    # `import a.b` binds `a` but imports a.b: record
                    # the full target as a dependency-only edge.
                    summary.from_imports.append(
                        [alias.name.rsplit(".", 1)[0],
                         alias.name.rsplit(".", 1)[1], ""])
        elif isinstance(node, ast.ImportFrom):
            target = node.module or ""
            if node.level:
                target = _resolve_relative(summary.module, node.level,
                                           node.module)
            for alias in node.names:
                if alias.name == "*":
                    continue
                summary.from_imports.append(
                    [target, alias.name, alias.asname or alias.name])
    for node in source.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names or value is None:
            continue
        for name in names:
            if name not in summary.assigns:
                summary.assigns.append(name)
        if isinstance(value, ast.Constant) \
                and isinstance(value.value, str):
            for name in names:
                summary.constants[name] = value.value
        if "__all__" in names and isinstance(value,
                                             (ast.List, ast.Tuple)):
            summary.exports = [
                item.value for item in value.elts
                if isinstance(item, ast.Constant)
                and isinstance(item.value, str)]
            summary.exports_line = node.lineno


#: registrar name -> registry label (shared with SCAR005/SCAR009).
REGISTRARS: dict[str, str] = {
    "register_policy": "policy",
}


def _collect_registrations(source: SourceFile,
                           summary: FileSummary) -> None:
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        registrar = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        if registrar not in REGISTRARS:
            continue
        if node.args and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            summary.registrations.append(
                {"registrar": registrar, "name": node.args[0].value,
                 "line": node.lineno, "col": node.col_offset})


def _collect_uses(source: SourceFile, summary: FileSummary) -> None:
    """Attribute loads rooted at import aliases (export-usage facts).

    ``wire.WIRE_VERSION`` with ``from repro.api import wire`` records
    the pair ``(repro.api.wire, WIRE_VERSION)`` -- resolved later, once
    the model knows which dotted prefixes are project modules.  Stored
    raw as ``[root_alias, attr, ...]`` paths.
    """
    seen: set[tuple[str, ...]] = set()
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Attribute) \
                or not isinstance(node.ctx, ast.Load):
            continue
        parts: list[str] = [node.attr]
        inner = node.value
        while isinstance(inner, ast.Attribute):
            parts.append(inner.attr)
            inner = inner.value
        if not isinstance(inner, ast.Name) or inner.id == "self":
            continue
        parts.append(inner.id)
        path = tuple(reversed(parts))
        if path not in seen:
            seen.add(path)
            summary.uses.append(list(path))


def _lock_attrs_of_class(source: SourceFile,
                         cls: ast.ClassDef) -> dict[str, bool]:
    """``{lock attr: reentrant?}`` declared in ``__init__``.

    A lock is an attribute assigned ``threading.Lock()`` / ``RLock()``
    / ``Condition()`` (bare or module-qualified), plus any lock named
    by a ``# guarded by: <lock>`` comment -- the existing SCAR001
    annotations seed the deadlock analysis, reentrancy unknown locks
    default to reentrant (quiet side).
    """
    locks: dict[str, bool] = {}
    for item in cls.body:
        if not isinstance(item, ast.FunctionDef) \
                or item.name != "__init__":
            continue
        for node in ast.walk(item):
            if not isinstance(node, ast.Assign):
                continue
            attrs = [a for a in map(_self_attr, node.targets)
                     if a is not None]
            if not attrs or not isinstance(node.value, ast.Call):
                continue
            func = node.value.func
            ctor = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            if ctor in _LOCK_CTORS:
                for attr in attrs:
                    locks[attr] = ctor in _REENTRANT_CTORS
    import re as _re
    for match in _re.finditer(r"#\s*guarded by:\s*(\w+)",
                              source.text):
        locks.setdefault(match.group(1), True)
    return locks


def _attr_types(cls: ast.ClassDef) -> dict[str, str]:
    """``{self attr: class name as written}`` from ``__init__``.

    Both forms count: ``self.x = Session(...)`` (constructor call) and
    ``self.x = session`` where the ``session`` parameter is annotated
    ``Session`` (optionally ``| None``).
    """
    types: dict[str, str] = {}
    for item in cls.body:
        if not isinstance(item, ast.FunctionDef) \
                or item.name != "__init__":
            continue
        params: dict[str, str] = {}
        args = item.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            name = _annotation_name(arg.annotation)
            if name is not None:
                params[arg.arg] = name
        for node in ast.walk(item):
            if not isinstance(node, ast.Assign):
                continue
            attrs = [a for a in map(_self_attr, node.targets)
                     if a is not None]
            if not attrs:
                continue
            typename: str | None = None
            value = node.value
            if isinstance(value, ast.Call) \
                    and isinstance(value.func, ast.Name) \
                    and value.func.id[:1].isupper():
                typename = value.func.id
            elif isinstance(value, ast.Name):
                typename = params.get(value.id)
            if typename is not None:
                for attr in attrs:
                    types[attr] = typename
    return types


def _function_facts(source: SourceFile, func: ast.AST,
                    taint_extractor: Callable | None) -> dict[str, Any]:
    """Call sites, lock acquisitions and taint facts of one function.

    Nested function bodies are excluded from lock regions (a closure
    can outlive the ``with`` that created it -- same rule as SCAR001)
    but their calls still count toward the call graph via their own
    entries.
    """
    calls: list[dict[str, Any]] = []
    acquires: list[dict[str, Any]] = []
    lock_pairs: list[dict[str, Any]] = []
    locked_calls: list[dict[str, Any]] = []

    def visit(node: ast.AST, held: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)) and node is not func:
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            taken: list[str] = []
            for item in node.items:
                attr = _self_attr(item.context_expr)
                if attr is not None:
                    taken.append(attr)
                    acquires.append({"lock": attr, "line": node.lineno,
                                     "col": node.col_offset})
                    for holder in held:
                        lock_pairs.append(
                            {"held": holder, "acquired": attr,
                             "line": node.lineno,
                             "col": node.col_offset})
                visit(item.context_expr, held)
            inner = held + tuple(taken)
            for stmt in node.body:
                visit(stmt, inner)
            return
        if isinstance(node, ast.Call):
            desc = call_desc(node)
            if desc is not None:
                calls.append(desc)
                for holder in held:
                    locked_calls.append({"held": holder, "call": desc})
        for child in ast.iter_child_nodes(node):
            visit(child, held)

    body = func.body if isinstance(func.body, list) else [func.body]
    for stmt in body:
        visit(stmt, ())
    facts: dict[str, Any] = {
        "line": func.lineno, "col": func.col_offset,
        "calls": calls, "acquires": acquires,
        "lock_pairs": lock_pairs, "locked_calls": locked_calls,
    }
    if taint_extractor is not None:
        facts["taint"] = taint_extractor(source, func)
    return facts


def _collect_defs(source: SourceFile, summary: FileSummary,
                  taint_extractor: Callable | None) -> None:
    for node in source.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.functions[node.name] = _function_facts(
                source, node, taint_extractor)
        elif isinstance(node, ast.ClassDef):
            methods: list[str] = []
            for item in node.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    methods.append(item.name)
                    summary.functions[f"{node.name}.{item.name}"] = \
                        _function_facts(source, item, taint_extractor)
            summary.classes[node.name] = {
                "line": node.lineno,
                "methods": methods,
                "locks": _lock_attrs_of_class(source, node),
                "attr_types": _attr_types(node),
            }


def _collect_emitters(source: SourceFile,
                      summary: FileSummary) -> None:
    """Wire-document emitters: dict literals carrying a ``"kind"`` key.

    Only kinds that resolve to a string constant count (``"kind":
    self.kind`` is a payload field, not a document kind).  The owning
    class (when the literal sits inside a method) links the emitter to
    its ``from_dict`` parser for the schema diff.
    """

    def scan(node: ast.AST, owner: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            for child in ast.iter_child_nodes(node):
                scan(child, node.name)
            return
        if isinstance(node, ast.Dict):
            kind: str | None = None
            fields: list[str] = []
            for key, value in zip(node.keys, node.values):
                name = _const_str(key, {})
                if name is None:
                    continue
                fields.append(name)
                if name == "kind":
                    kind = _const_str(value, summary.constants)
            if kind is not None:
                summary.emitters.append(
                    {"kind": kind, "fields": sorted(set(fields)),
                     "owner": owner, "line": node.lineno,
                     "col": node.col_offset})
        for child in ast.iter_child_nodes(node):
            scan(child, owner)

    for top in source.tree.body:
        scan(top, None)
    # from_dict parse keys, linked per class.
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if not isinstance(item, ast.FunctionDef) \
                    or item.name != "from_dict":
                continue
            params = [a.arg for a in item.args.args if a.arg != "cls"]
            if not params:
                continue
            data = params[0]
            parsed: set[str] = set()
            for inner in ast.walk(item):
                if isinstance(inner, ast.Subscript) \
                        and isinstance(inner.value, ast.Name) \
                        and inner.value.id == data:
                    name = _const_str(inner.slice, {})
                    if name is not None:
                        parsed.add(name)
                elif isinstance(inner, ast.Call) \
                        and isinstance(inner.func, ast.Attribute) \
                        and inner.func.attr == "get" \
                        and isinstance(inner.func.value, ast.Name) \
                        and inner.func.value.id == data \
                        and inner.args:
                    name = _const_str(inner.args[0], {})
                    if name is not None:
                        parsed.add(name)
            info = summary.classes.setdefault(node.name, {})
            info["parses"] = sorted(parsed)
            info["parses_line"] = item.lineno


def summarize(source: SourceFile,
              taint_extractor: Callable | None = None) -> FileSummary:
    """Distill one parsed source into its :class:`FileSummary`.

    ``taint_extractor`` is injected by the runner (it lives in
    :mod:`repro.analysis.taint`) to keep this module free of checker
    specifics; ``None`` skips taint facts (graph-only consumers).
    """
    summary = FileSummary(path=source.path, module=source.module)
    _collect_module_level(source, summary)
    _collect_registrations(source, summary)
    _collect_uses(source, summary)
    _collect_defs(source, summary, taint_extractor)
    _collect_emitters(source, summary)
    return summary


# -- the whole-program model -------------------------------------------------


class ProgramModel:
    """Cross-module view the program checkers run against.

    Built from the per-file summaries plus the parsed sources they
    were distilled from (``sources[i]`` is the file ``summaries[i]``
    summarizes): ``program.source(module)`` is the parsed file
    (SCAR004 reads three modules' ASTs), ``program.text(module)`` its
    raw text (registry-name greps).  A lint run gives files that
    share a module name (sibling ``conftest.py`` files) path-qualified
    names first; should two summaries still share one, the first keeps
    both its summary and its source, so a module's text is always the
    text of its summary's file.
    """

    def __init__(self, summaries: Sequence[FileSummary], root: Path,
                 sources: Sequence[SourceFile]) -> None:
        self.root = Path(root)
        self.summaries: dict[str, FileSummary] = {}
        self._sources: dict[str, SourceFile] = {}
        for summary, source in zip(summaries, sources, strict=True):
            if summary.module not in self.summaries:
                self.summaries[summary.module] = summary
                self._sources[summary.module] = source
        self.modules: set[str] = set(self.summaries)
        self._lock_closure: dict[str, frozenset[str]] | None = None

    # -- sources ----------------------------------------------------------

    def source(self, module: str) -> SourceFile | None:
        """Parsed source of ``module`` (``None`` when absent)."""
        return self._sources.get(module)

    def text(self, module: str) -> str | None:
        """Raw text of ``module`` (``None`` when absent)."""
        source = self._sources.get(module)
        return source.text if source is not None else None

    # -- symbol resolution -------------------------------------------------

    def resolve_export(self, module: str, name: str,
                       depth: int = 4) -> tuple[str, str] | None:
        """Chase ``name`` in ``module`` through re-export hops.

        Returns the defining ``(module, qualname)`` or ``None``.  One
        hop per ``from x import y`` level, bounded to stay cycle-safe.
        """
        summary = self.summaries.get(module)
        if summary is None or depth <= 0:
            return None
        if name in summary.functions or name in summary.classes:
            return module, name
        for target, orig, bound in summary.from_imports:
            if (bound or orig) != name:
                continue
            if f"{target}.{orig}" in self.modules:
                return None  # a module import, not a symbol
            resolved = self.resolve_export(target, orig, depth - 1)
            if resolved is not None:
                return resolved
        return None

    def canonical_symbol(self, module: str, name: str,
                         depth: int = 6) -> tuple[str, str | None]:
        """The defining ``(module, symbol)`` of a name, any-kind.

        Unlike :meth:`resolve_export` (functions/classes only, used
        for call resolution) this also treats module-level assignments
        as definitions and resolves submodule re-exports to
        ``(submodule, None)`` -- the identity SCAR009's liveness
        matching needs.  Unresolvable names canonicalize to
        themselves.
        """
        summary = self.summaries.get(module)
        if summary is None or depth <= 0:
            return module, name
        if name in summary.functions or name in summary.classes \
                or name in summary.assigns:
            return module, name
        for target, orig, bound in summary.from_imports:
            if (bound or orig) != name:
                continue
            if f"{target}.{orig}" in self.modules:
                return f"{target}.{orig}", None
            if target in self.modules:
                return self.canonical_symbol(target, orig, depth - 1)
            return target, orig  # external import, e.g. pathlib.Path
        if f"{module}.{name}" in self.modules:
            return f"{module}.{name}", None
        return module, name

    def _resolve_class(self, module: str,
                       typename: str) -> tuple[str, str] | None:
        """Find the defining module of a class named in ``module``."""
        resolved = self.resolve_export(module, typename)
        if resolved is not None:
            defining, qual = resolved
            summary = self.summaries.get(defining)
            if summary is not None and qual in summary.classes:
                return defining, qual
        return None

    def resolve_call(self, module: str, context_class: str | None,
                     desc: dict[str, Any]) -> str | None:
        """Resolve a call descriptor to a ``module:qualname`` id.

        Handles: ``self.m()`` (same class), ``self.attr.m()`` (via the
        class's attribute types), bare names (local defs, from-imports
        with one re-export hop), and ``alias.sub.f()`` dotted paths
        through import aliases and project submodules.  Constructor
        calls resolve to ``Class.__init__`` when it exists, else to the
        class marker ``module:Class``.
        """
        path = desc["path"]
        if desc.get("self"):
            if context_class is None:
                return None
            summary = self.summaries[module]
            cls = summary.classes.get(context_class, {})
            if len(path) == 1:
                qual = f"{context_class}.{path[0]}"
                if qual in summary.functions:
                    return f"{module}:{qual}"
                return None
            if len(path) == 2:
                typename = cls.get("attr_types", {}).get(path[0])
                if typename is None:
                    return None
                target = self._resolve_class(module, typename)
                if target is None:
                    return None
                t_module, t_class = target
                qual = f"{t_class}.{path[1]}"
                if qual in self.summaries[t_module].functions:
                    return f"{t_module}:{qual}"
            return None
        return self._resolve_dotted(module, path)

    def _resolve_dotted(self, module: str,
                        path: list[str]) -> str | None:
        summary = self.summaries.get(module)
        if summary is None:
            return None
        head = path[0]
        # Local definition?
        if head in summary.functions and len(path) == 1:
            return f"{module}:{head}"
        if head in summary.classes:
            return self._class_target(module, head, path[1:])
        # From-import of a symbol (one re-export hop)?
        resolved = self.resolve_export(module, head)
        if resolved is not None:
            r_module, r_qual = resolved
            if r_module != module or r_qual != head:
                return self._qual_target(r_module, [r_qual] + path[1:])
        # Import alias / module path: walk into project submodules.
        target = summary.imports.get(head)
        if target is None:
            for t, orig, bound in summary.from_imports:
                if (bound or orig) == head \
                        and f"{t}.{orig}" in self.modules:
                    target = f"{t}.{orig}"
                    break
        if target is None:
            return None
        rest = list(path[1:])
        while rest and f"{target}.{rest[0]}" in self.modules:
            target = f"{target}.{rest[0]}"
            rest.pop(0)
        if not rest:
            return None
        return self._qual_target(target, rest)

    def _qual_target(self, module: str, path: list[str]) -> str | None:
        summary = self.summaries.get(module)
        if summary is None:
            return None
        head = path[0]
        if head in summary.classes:
            return self._class_target(module, head, path[1:])
        if head in summary.functions and len(path) == 1:
            return f"{module}:{head}"
        resolved = self.resolve_export(module, head)
        if resolved is not None and (resolved != (module, head)):
            return self._qual_target(resolved[0],
                                     [resolved[1]] + path[1:])
        return None

    def _class_target(self, module: str, cls: str,
                      rest: list[str]) -> str | None:
        summary = self.summaries[module]
        if not rest:
            init = f"{cls}.__init__"
            if init in summary.functions:
                return f"{module}:{init}"
            return f"{module}:{cls}"
        qual = f"{cls}.{rest[0]}"
        if len(rest) == 1 and qual in summary.functions:
            return f"{module}:{qual}"
        return None

    # -- function iteration ------------------------------------------------

    def functions(self) -> Iterator[tuple[str, str, str | None,
                                          dict[str, Any]]]:
        """Every function: ``(id, module, class or None, facts)``."""
        for module in sorted(self.summaries):
            summary = self.summaries[module]
            for qualname in sorted(summary.functions):
                cls = qualname.split(".")[0] if "." in qualname else None
                yield (f"{module}:{qualname}", module, cls,
                       summary.functions[qualname])

    # -- lock closure ------------------------------------------------------

    def lock_id(self, module: str, cls: str, attr: str) -> str:
        """Stable identity of one class's lock (``module.Class.attr``)."""
        return f"{module}.{cls}.{attr}"

    def class_locks(self, module: str, cls: str) -> dict[str, bool]:
        summary = self.summaries.get(module)
        if summary is None:
            return {}
        return summary.classes.get(cls, {}).get("locks", {})

    def lock_closure(self) -> dict[str, frozenset[str]]:
        """``function id -> locks it may acquire`` (transitive).

        Direct acquisitions are ``with self.<lock>:`` statements whose
        attribute is a declared lock of the function's class; closure
        propagates through resolved calls to a fixpoint.
        """
        if self._lock_closure is not None:
            return self._lock_closure
        direct: dict[str, set[str]] = {}
        edges: dict[str, set[str]] = {}
        for func_id, module, cls, facts in self.functions():
            locks = self.class_locks(module, cls) if cls else {}
            direct[func_id] = {
                self.lock_id(module, cls, entry["lock"])
                for entry in facts.get("acquires", ())
                if cls and entry["lock"] in locks}
            edges[func_id] = set()
            for desc in facts.get("calls", ()):
                target = self.resolve_call(module, cls, desc)
                if target is not None:
                    edges[func_id].add(target)
        closure = {f: set(locks) for f, locks in direct.items()}
        changed = True
        while changed:
            changed = False
            for func_id, callees in edges.items():
                mine = closure[func_id]
                before = len(mine)
                for callee in callees:
                    mine.update(closure.get(callee, ()))
                if len(mine) != before:
                    changed = True
        self._lock_closure = {f: frozenset(locks)
                              for f, locks in closure.items()}
        return self._lock_closure
