"""Static-analysis framework: findings, sources, the checker registry.

A *checker* is a small `ast`-based analysis pass guarding one project
invariant (lock discipline, determinism, wire contracts, ...).  Each
checker owns one stable code (``SCAR001``, ``SCAR002``, ...); a
:class:`Finding` pins a violation to a file/line and a finding can be
suppressed in place with a ``# scar: noqa[CODE]`` comment on the
offending line.

Checkers come in two flavours:

* per-file checkers implement :meth:`Checker.check` and run once per
  :class:`SourceFile` they :meth:`apply to <Checker.applies_to>`;
* program checkers implement :meth:`Checker.check_program` and run once
  over the whole-program model (cross-file invariants, e.g. the
  exception-to-wire-code table).

New checkers subclass :class:`Checker`, pick the next free ``SCARnnn``
code and register with :func:`register_checker`; the runner
(:mod:`repro.analysis.runner`) discovers them through the registry.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.errors import AnalysisError, ConfigError

#: ``# scar: noqa[SCAR001]`` / ``# scar: noqa[SCAR001,SCAR006]``.
_NOQA_RE = re.compile(r"#\s*scar:\s*noqa\[(?P<codes>[A-Z0-9,\s]+)\]")

#: A noqa *directive*: the whole comment is the suppression.  Orphan
#: detection (SCAR009) only counts these, so prose that merely mentions
#: the syntax (docs comments, fixture strings) never reads as a
#: suppression that suppresses nothing.
_NOQA_DIRECTIVE_RE = re.compile(
    r"^#\s*scar:\s*noqa\[(?P<codes>[A-Z0-9,\s]+)\]\s*$")

#: ``# scar: hot`` file pragma: opt this module into the hot-path
#: allocation lint (SCAR010).  Trailing prose is allowed.
_HOT_PRAGMA_RE = re.compile(r"^#\s*scar:\s*hot\b")

#: Stable checker-code shape; the registry enforces it.
_CODE_RE = re.compile(r"^SCAR\d{3}$")


@dataclass(frozen=True)
class Finding:
    """One violation of one checker's invariant, pinned to a line."""

    code: str
    message: str
    path: str
    line: int
    col: int = 0

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: " \
               f"{self.code} {self.message}"

    # Nested wire payload of the lint_report document (no envelope of
    # its own, like CandidatePoint inside a schedule_result).

    def to_dict(self) -> dict[str, Any]:
        return {"code": self.code, "message": self.message,
                "path": self.path, "line": self.line, "col": self.col}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Finding":
        try:
            return cls(code=data["code"], message=data["message"],
                       path=data["path"], line=data["line"],
                       col=data.get("col", 0))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed finding: {exc}") from exc


def module_name_for(path: str | Path) -> str:
    """Dotted module name for a source path (``repro``-rooted).

    ``src/repro/service/http.py`` -> ``repro.service.http``; package
    ``__init__.py`` files name the package itself.  Files outside a
    ``repro`` tree fall back to their stem, so fixture snippets still
    get a usable module identity.
    """
    parts = list(Path(path).parts)
    name = Path(path).stem
    if "repro" in parts:
        start = len(parts) - 1 - parts[::-1].index("repro")
        dotted = [part for part in parts[start:-1]]
        if name != "__init__":
            dotted.append(name)
        return ".".join(dotted)
    return name


class SourceFile:
    """One parsed python source: path, module identity, AST, noqa map."""

    def __init__(self, path: str | Path, text: str,
                 module: str | None = None) -> None:
        self.path = str(path)
        self.text = text
        self.module = module if module is not None \
            else module_name_for(path)
        self.lines = text.splitlines()
        self._tree: ast.Module | None = None
        self._comments: dict[int, str] | None = None

    @classmethod
    def load(cls, path: str | Path) -> "SourceFile":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise AnalysisError(f"cannot read {path}: {exc}") from exc
        return cls(path, text)

    @property
    def tree(self) -> ast.Module:
        if self._tree is None:
            try:
                self._tree = ast.parse(self.text, filename=self.path)
            except SyntaxError as exc:
                raise AnalysisError(
                    f"cannot parse {self.path}: {exc}") from exc
        return self._tree

    def line(self, lineno: int) -> str:
        """1-indexed source line ('' when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def node_lines(self, node: ast.AST) -> str:
        """The source lines a node spans, joined (comments included)."""
        end = getattr(node, "end_lineno", node.lineno)
        return "\n".join(self.lines[node.lineno - 1:end])

    def comments(self) -> dict[int, str]:
        """Real ``#`` comment tokens by line (tokenize-backed).

        Unlike a per-line regex, this never mistakes a ``#`` inside a
        string literal (fixture snippets, docstrings) for a comment.
        Token errors (the file may be unparsable) degrade to an empty
        map -- the parse error is reported elsewhere.
        """
        if self._comments is None:
            found: dict[int, str] = {}
            try:
                for token in tokenize.generate_tokens(
                        io.StringIO(self.text).readline):
                    if token.type == tokenize.COMMENT:
                        found[token.start[0]] = token.string
            except (tokenize.TokenError, IndentationError,
                    SyntaxError, ValueError):
                found = {}
            self._comments = found
        return self._comments

    def noqa_codes(self, lineno: int) -> frozenset[str]:
        """Checker codes suppressed on ``lineno`` (empty = none)."""
        match = _NOQA_RE.search(self.line(lineno))
        if match is None:
            return frozenset()
        return frozenset(code.strip()
                         for code in match.group("codes").split(",")
                         if code.strip())

    def noqa_directives(self) -> dict[int, frozenset[str]]:
        """Lines carrying a whole-comment noqa directive (for SCAR009).

        Only comment tokens that *are* the directive count; a comment
        that merely mentions the syntax is prose, not a suppression.
        A directive comment contains ``scar:``, so a file without it
        is never tokenized.
        """
        directives: dict[int, frozenset[str]] = {}
        if "scar:" not in self.text:
            return directives
        for lineno, comment in self.comments().items():
            match = _NOQA_DIRECTIVE_RE.match(comment)
            if match is not None:
                directives[lineno] = frozenset(
                    code.strip()
                    for code in match.group("codes").split(",")
                    if code.strip())
        return directives

    def has_hot_pragma(self) -> bool:
        """True when a ``# scar: hot`` comment opts this file in
        (a file without ``scar:`` is never tokenized)."""
        return "scar:" in self.text and any(
            _HOT_PRAGMA_RE.match(comment)
            for comment in self.comments().values())

    def finding(self, code: str, message: str,
                node: ast.AST | None = None, *,
                line: int = 1, col: int = 0) -> Finding:
        """Build a finding against this file (node pins line/col)."""
        if node is not None:
            line, col = node.lineno, node.col_offset
        return Finding(code=code, message=message, path=self.path,
                       line=line, col=col)


class Checker:
    """Base class of one invariant's analysis pass.

    Subclasses set ``code``/``name``/``description`` and implement
    :meth:`check` (per file) or :meth:`check_program` (once over the
    whole-program model -- see :mod:`repro.analysis.graph`).
    ``applies_to`` scopes per-file checkers to the modules whose
    invariant they guard.
    """

    code: str = ""
    name: str = ""
    description: str = ""

    def applies_to(self, source: SourceFile) -> bool:
        return True

    def check(self, source: SourceFile) -> Iterable[Finding]:
        return ()

    def check_program(self, program: Any) -> Iterable[Finding]:
        """Whole-program pass over a :class:`~repro.analysis.graph.\
ProgramModel` (every file's summary and parsed source)."""
        return ()

    @classmethod
    def is_per_file(cls) -> bool:
        """True when this checker implements the per-file pass."""
        return cls.check is not Checker.check

    @classmethod
    def is_program(cls) -> bool:
        """True when this checker implements a whole-program pass."""
        return cls.check_program is not Checker.check_program


_CHECKERS: dict[str, type[Checker]] = {}


def register_checker(cls: type[Checker]) -> type[Checker]:
    """Register a checker class under its stable code (decorator)."""
    if not _CODE_RE.match(cls.code):
        raise AnalysisError(
            f"checker code must match SCARnnn, got {cls.code!r}")
    if cls.code in _CHECKERS:
        raise AnalysisError(
            f"checker code {cls.code} is already registered")
    _CHECKERS[cls.code] = cls
    return cls


def checker_codes() -> tuple[str, ...]:
    """Registered checker codes, sorted."""
    return tuple(sorted(_CHECKERS))


def build_checkers(select: Sequence[str] | None = None,
                   ignore: Sequence[str] | None = None) -> list[Checker]:
    """Instantiate the selected checkers (unknown codes are errors)."""
    known = checker_codes()
    for given in list(select or []) + list(ignore or []):
        if given not in known:
            raise AnalysisError(
                f"unknown checker code {given!r}; known: {known}")
    codes = [code for code in known
             if (select is None or code in select)
             and (ignore is None or code not in ignore)]
    return [_CHECKERS[code]() for code in codes]
