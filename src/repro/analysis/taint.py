"""SCAR007: inter-procedural RNG/wall-clock taint dataflow.

SCAR002 bans nondeterminism *inside* the kernel modules by name; this
checker closes the remaining hole -- nondeterminism produced elsewhere
and handed in.  A value derived from the process-wide ``random``
module, a wall-clock read (``time.time``/``monotonic``/
``perf_counter`` and friends, ``datetime.now``), ``os.urandom`` or
``uuid.uuid*`` is *tainted*; a call that passes a tainted argument
into :mod:`repro.engine`, :mod:`repro.sweep`, :mod:`repro.sim` or
:mod:`repro.workloads` is a finding at the call site.  Seeded
``random.Random(seed)`` streams are clean sources by design -- they
are exactly how the project does randomness.

The analysis is flow-insensitive within a function (a name once
tainted stays tainted) and propagates across functions through the
call graph: a function returning taint taints its callers' values, a
function forwarding a parameter propagates its callers' argument
taint one level.  Extraction happens once per file (the facts ride in
its :class:`~repro.analysis.graph.FileSummary`); the fixpoint runs
once per lint over the whole-program model.
"""

from __future__ import annotations

import ast
import functools
from typing import Any, Iterable

from repro.analysis.core import (
    Checker,
    Finding,
    SourceFile,
    register_checker,
)
from repro.analysis.graph import call_desc, call_key

#: Module prefixes whose call sites are determinism *sinks*.
SINK_PREFIXES = ("repro.engine", "repro.sweep", "repro.sim",
                 "repro.workloads")

#: Wall-clock reads on the ``time`` module.
_TIME_SOURCES = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns",
    "process_time", "process_time_ns",
})

#: ``random`` attributes that are *not* taint sources: constructing a
#: seeded generator is the sanctioned way to randomize.
_RANDOM_CLEAN = frozenset({"Random", "SystemRandom"})

_DATETIME_SOURCES = frozenset({"now", "utcnow", "today"})
_UUID_SOURCES = frozenset({"uuid1", "uuid4"})


def in_sink_scope(module: str) -> bool:
    """Is ``module`` inside a determinism-sink package (exact dots)?"""
    return any(module == prefix or module.startswith(prefix + ".")
               for prefix in SINK_PREFIXES)


@functools.lru_cache(maxsize=1)
def _bindings(source: SourceFile) -> dict[str, tuple[str, str | None]]:
    """``{bound name: (module, original attr or None)}`` per file.

    ``import time`` binds ``time -> ("time", None)``; ``from time
    import monotonic as mono`` binds ``mono -> ("time",
    "monotonic")``.  Built once per file: the summary extracts every
    function of one file in a row, so a one-entry cache (keyed on the
    source object) turns the per-function module walk into one walk
    per file.
    """
    bound: dict[str, tuple[str, str | None]] = {}
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                bound[name] = (target, None)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = \
                        (node.module or "", alias.name)
    return bound


def _is_source_path(path: list[str],
                    bindings: dict[str, tuple[str, str | None]]) -> bool:
    """Is this dotted call path a process-wide nondeterminism read?"""
    head = bindings.get(path[0])
    if head is None:
        return False
    module, original = head
    attrs = ([original] if original is not None else []) + path[1:]
    if not attrs:
        return False
    if module == "random":
        return attrs[0] not in _RANDOM_CLEAN
    if module == "time":
        return attrs[0] in _TIME_SOURCES
    if module == "os":
        return attrs[0] == "urandom"
    if module == "uuid":
        return attrs[0] in _UUID_SOURCES
    if module == "datetime":
        # import datetime; datetime.datetime.now() or
        # from datetime import datetime/date; datetime.now().
        return attrs[-1] in _DATETIME_SOURCES
    return False


# -- per-function extraction -------------------------------------------------
#
# Taint *atoms* (JSON-able, ride in FileSummary.functions[..]["taint"]):
#   ["src"]           -- directly derived from a nondeterminism read
#   ["param", name]   -- derived from parameter `name` (caller decides)
#   ["call", desc]    -- derived from this call's return value


def _atom_key(atom: list) -> str:
    if atom[0] == "call":
        return "call:" + call_key(atom[1])
    return ":".join(atom[:2])


class _FunctionTaint:
    """One pass over a function body collecting taint facts."""

    def __init__(self, bindings: dict[str, tuple[str, str | None]],
                 func: ast.AST) -> None:
        self.bindings = bindings
        self.func = func
        self.local: dict[str, list[list]] = {}
        self.ret: dict[str, list] = {}
        self.flows: list[dict[str, Any]] = []

    def _merge(self, *atom_sets: list[list]) -> list[list]:
        merged: dict[str, list] = {}
        for atoms in atom_sets:
            for atom in atoms:
                merged[_atom_key(atom)] = atom
        return list(merged.values())

    def atoms_of(self, node: ast.expr) -> list[list]:
        """Taint atoms a value expression may carry."""
        if isinstance(node, ast.Name):
            return self.local.get(node.id, [])
        if isinstance(node, ast.Call):
            return self._call_atoms(node)
        if isinstance(node, (ast.BinOp,)):
            return self._merge(self.atoms_of(node.left),
                               self.atoms_of(node.right))
        if isinstance(node, ast.UnaryOp):
            return self.atoms_of(node.operand)
        if isinstance(node, ast.IfExp):
            return self._merge(self.atoms_of(node.body),
                               self.atoms_of(node.orelse))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return self._merge(*(self.atoms_of(e) for e in node.elts))
        if isinstance(node, ast.Starred):
            return self.atoms_of(node.value)
        if isinstance(node, ast.Subscript):
            return self.atoms_of(node.value)
        if isinstance(node, ast.Attribute):
            # `tainted.attr` stays tainted; module-attr reads like
            # `math.pi` root at a clean Name and resolve to [].
            return self.atoms_of(node.value)
        if isinstance(node, ast.Compare):
            return self._merge(self.atoms_of(node.left),
                               *(self.atoms_of(c)
                                 for c in node.comparators))
        if isinstance(node, ast.JoinedStr):
            parts = [v.value for v in node.values
                     if isinstance(v, ast.FormattedValue)]
            return self._merge(*(self.atoms_of(p) for p in parts))
        return []

    def _call_atoms(self, node: ast.Call) -> list[list]:
        desc = call_desc(node)
        arg_atom_sets = [self.atoms_of(arg) for arg in node.args]
        kw_atom_sets = [self.atoms_of(kw.value)
                        for kw in node.keywords]
        if desc is not None and not desc.get("self") \
                and _is_source_path(desc["path"], self.bindings):
            return [["src"]]
        if desc is not None:
            args = [self._merge(atoms) for atoms in arg_atom_sets]
            if any(args) or any(kw_atom_sets):
                self.flows.append({
                    "call": desc,
                    "args": args,
                    "kw_tainted": bool(any(kw_atom_sets)),
                })
        result = self._merge(*arg_atom_sets, *kw_atom_sets)
        if desc is not None:
            result = self._merge(result, [["call", desc]])
        return result

    def run(self) -> dict[str, Any]:
        args = self.func.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            if arg.arg != "self":
                self.local[arg.arg] = [["param", arg.arg]]
        # Two sweeps give loop-carried taint a chance to settle.
        for _ in range(2):
            self._sweep(self.func)
        params = [a.arg for a in
                  (args.posonlyargs + args.args + args.kwonlyargs)
                  if a.arg != "self"]
        return {"params": params,
                "ret": sorted(self.ret.values(), key=_atom_key),
                "flows": self.flows}

    def _sweep(self, root: ast.AST) -> None:
        self.flows = []

        def visit(node: ast.AST) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)) and node is not root:
                return
            if isinstance(node, ast.Assign):
                atoms = self.atoms_of(node.value)
                for target in node.targets:
                    self._bind(target, atoms)
            elif isinstance(node, ast.AnnAssign) \
                    and node.value is not None:
                self._bind(node.target, self.atoms_of(node.value))
            elif isinstance(node, ast.AugAssign):
                atoms = self._merge(self.atoms_of(node.value),
                                    self.atoms_of(node.target))
                self._bind(node.target, atoms)
            elif isinstance(node, ast.For):
                self._bind(node.target, self.atoms_of(node.iter))
            elif isinstance(node, ast.Return) \
                    and node.value is not None:
                for atom in self.atoms_of(node.value):
                    self.ret[_atom_key(atom)] = atom
            elif isinstance(node, ast.Expr):
                self.atoms_of(node.value)  # record flows
            elif isinstance(node, (ast.If, ast.While)):
                self.atoms_of(node.test)
            for child in ast.iter_child_nodes(node):
                visit(child)

        body = root.body if isinstance(root.body, list) else [root.body]
        for stmt in body:
            visit(stmt)

    def _bind(self, target: ast.expr, atoms: list[list]) -> None:
        if isinstance(target, ast.Name):
            if atoms:
                self.local[target.id] = \
                    self._merge(self.local.get(target.id, []), atoms)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, atoms)


def extract_taint(source: SourceFile, func: ast.AST) -> dict[str, Any]:
    """The taint facts of one function (plugged into ``summarize``)."""
    return _FunctionTaint(_bindings(source), func).run()


# -- the whole-program fixpoint ----------------------------------------------


@register_checker
class TaintFlowChecker(Checker):
    code = "SCAR007"
    name = "rng-taint-flow"
    description = ("no value derived from process-wide random / "
                   "wall-clock / os.urandom flows into repro.engine, "
                   "repro.sweep, repro.sim or repro.workloads call "
                   "sites; seeded Random(...) streams are clean")

    def check_program(self, program: Any) -> Iterable[Finding]:
        tainted_returns = self._tainted_returns(program)
        findings: list[Finding] = []
        for func_id, module, cls, facts in program.functions():
            taint = facts.get("taint")
            if taint is None:
                continue
            if in_sink_scope(module):
                # Inside the sink modules SCAR002 already polices
                # sources directly; flows between sink functions would
                # double-report every internal helper call.
                continue
            for flow in taint.get("flows", ()):
                finding = self._check_flow(
                    program, module, cls, flow, tainted_returns)
                if finding is not None:
                    findings.append(finding)
        return findings

    # A call's return is tainted when the callee (transitively)
    # returns something derived from a source.  Parameter-derived
    # returns are resolved at the call site, one level deep.

    def _tainted_returns(self, program: Any) -> set[str]:
        ret_atoms: dict[str, list] = {}
        for func_id, module, cls, facts in program.functions():
            taint = facts.get("taint")
            if taint is not None:
                ret_atoms[func_id] = [
                    (atom, module, cls) for atom in taint["ret"]]
        tainted: set[str] = set()
        changed = True
        while changed:
            changed = False
            for func_id, atoms in ret_atoms.items():
                if func_id in tainted:
                    continue
                for atom, module, cls in atoms:
                    if atom[0] == "src":
                        tainted.add(func_id)
                        changed = True
                        break
                    if atom[0] == "call":
                        target = program.resolve_call(
                            module, cls, atom[1])
                        if target in tainted:
                            tainted.add(func_id)
                            changed = True
                            break
        return tainted

    def _atom_tainted(self, program: Any, module: str,
                      cls: str | None, atom: list,
                      tainted_returns: set[str]) -> bool:
        if atom[0] == "src":
            return True
        if atom[0] == "call":
            target = program.resolve_call(module, cls, atom[1])
            return target in tainted_returns
        return False  # param taint needs the caller's caller: 1 level

    def _check_flow(self, program: Any, module: str, cls: str | None,
                    flow: dict[str, Any],
                    tainted_returns: set[str]) -> Finding | None:
        desc = flow["call"]
        target = program.resolve_call(module, cls, desc)
        if target is None:
            return None
        target_module = target.partition(":")[0]
        if not in_sink_scope(target_module):
            return None
        hot_args = [
            index for index, atoms in enumerate(flow.get("args", ()))
            if any(self._atom_tainted(program, module, cls, atom,
                                      tainted_returns)
                   for atom in atoms)]
        if not hot_args:
            return None
        summary = program.summaries[module]
        arg_list = ", ".join(f"arg {i}" for i in hot_args)
        return Finding(
            code=self.code,
            message=(f"nondeterministic value ({arg_list}) flows into "
                     f"{target_module} via {call_key(desc)}(); derive "
                     f"it from a seeded random.Random stream instead"),
            path=summary.path, line=desc["line"], col=desc["col"])
