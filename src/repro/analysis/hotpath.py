"""SCAR010: allocation discipline in ``# scar: hot`` modules.

The vectorized cost kernel (PR 9) exists because per-candidate python
allocations dominated scheduling time; this checker keeps them from
creeping back.  A module opts in with a ``# scar: hot`` comment
pragma (the three kernels: ``core/metrics.py``,
``engine/tensorkernel.py``, ``core/evalcache.py``) and the checker
then flags, **inside innermost loops only** (a loop containing no
other loop -- the iteration hot spot):

* container construction: dict/list/set displays and comprehensions
  build a fresh object every iteration;
* string formatting: f-strings, ``%``-formatting and ``.format()``
  allocate per iteration;
* repeated deep attribute loads: the same ``a.b.c`` chain (depth >= 2,
  value position) read more than once in one innermost loop -- hoist
  it to a local before the loop.

The rules are deliberately narrow: single-level attribute access,
method *calls* and one-off chains stay quiet, so ordinary code in a
hot module does not drown in findings.  Anything slower-but-clearer
that survives review gets a line-level ``# scar: noqa[SCAR010]``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.core import (
    Checker,
    Finding,
    SourceFile,
    register_checker,
)

_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)


def _innermost_loops(tree: ast.Module) -> Iterator[ast.AST]:
    """Loops containing no other loop, in one linear pass."""
    loops: list[ast.AST] = []
    has_inner: set[int] = set()
    stack: list[ast.AST] = []

    def visit(node: ast.AST) -> None:
        is_loop = isinstance(node, _LOOPS)
        if is_loop:
            for enclosing in stack:
                has_inner.add(id(enclosing))
            stack.append(node)
            loops.append(node)
        for child in ast.iter_child_nodes(node):
            visit(child)
        if is_loop:
            stack.pop()

    visit(tree)
    return (loop for loop in loops if id(loop) not in has_inner)


def _attr_chain(node: ast.Attribute) -> tuple[str, ...] | None:
    """Dotted path of a pure-Name-rooted attribute load, else None."""
    parts = [node.attr]
    inner = node.value
    while isinstance(inner, ast.Attribute):
        parts.append(inner.attr)
        inner = inner.value
    if isinstance(inner, ast.Name):
        parts.append(inner.id)
        return tuple(reversed(parts))
    return None


@register_checker
class HotPathChecker(Checker):
    code = "SCAR010"
    name = "hot-path-allocation"
    description = ("no per-iteration dict/list/str-format allocation "
                   "or repeated deep attribute lookup in the "
                   "innermost loops of # scar: hot modules")

    def applies_to(self, source: SourceFile) -> bool:
        return source.has_hot_pragma()

    def check(self, source: SourceFile) -> Iterable[Finding]:
        findings: list[Finding] = []
        for loop in _innermost_loops(source.tree):
            findings.extend(self._check_loop(source, loop))
        findings.sort(key=lambda f: (f.line, f.col))
        return findings

    def _check_loop(self, source: SourceFile,
                    loop: ast.AST) -> Iterator[Finding]:
        chains: dict[tuple[str, ...], int] = {}
        body = getattr(loop, "body", []) + getattr(loop, "orelse", [])
        call_funcs: set[int] = set()
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute):
                    call_funcs.add(id(node.func))
        for stmt in body:
            for node in ast.walk(stmt):
                finding = self._allocation(source, node)
                if finding is not None:
                    yield finding
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Load) \
                        and id(node) not in call_funcs:
                    yield from self._deep_lookup(source, node, chains)

    def _allocation(self, source: SourceFile,
                    node: ast.AST) -> Finding | None:
        if isinstance(node, (ast.Dict, ast.List, ast.Set)):
            kind = {ast.Dict: "dict", ast.List: "list",
                    ast.Set: "set"}[type(node)]
            if isinstance(node, (ast.List, ast.Set)) \
                    and not node.elts:
                pass  # empty displays are accumulator resets; allow
            elif isinstance(node, ast.Dict) and not node.keys:
                pass
            else:
                return source.finding(
                    self.code,
                    f"{kind} construction inside an innermost loop "
                    f"allocates every iteration; build it once "
                    f"outside or use a preallocated buffer", node)
        if isinstance(node, _COMPREHENSIONS):
            return source.finding(
                self.code,
                "comprehension inside an innermost loop allocates "
                "every iteration; hoist it or fuse the loops", node)
        if isinstance(node, ast.JoinedStr):
            return source.finding(
                self.code,
                "f-string inside an innermost loop formats every "
                "iteration; move formatting out of the hot loop",
                node)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) \
                and isinstance(node.left, ast.Constant) \
                and isinstance(node.left.value, str):
            return source.finding(
                self.code,
                "%-formatting inside an innermost loop allocates "
                "every iteration; move formatting out of the hot "
                "loop", node)
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "format" \
                and isinstance(node.func.value, ast.Constant) \
                and isinstance(node.func.value.value, str):
            return source.finding(
                self.code,
                "str.format inside an innermost loop allocates every "
                "iteration; move formatting out of the hot loop",
                node)
        return None

    def _deep_lookup(self, source: SourceFile, node: ast.Attribute,
                     chains: dict[tuple[str, ...], int]
                     ) -> Iterator[Finding]:
        chain = _attr_chain(node)
        if chain is None or len(chain) < 3:
            return  # root name + >= 2 attrs, e.g. self.store.data
        seen = chains.get(chain, 0)
        chains[chain] = seen + 1
        if seen == 1:  # report once, at the second occurrence
            yield source.finding(
                self.code,
                f"attribute chain {'.'.join(chain)} is re-read "
                f"multiple times in one innermost loop; hoist it to "
                f"a local before the loop", node)
