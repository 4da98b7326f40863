"""Append-only JSONL result store: what makes sweeps resumable.

One line per finished cell::

    {"kind": "sweep_cell", "version": 1,
     "key": "<ScheduleRequest.cache_key()>",
     "result": {<schedule_result wire document>}}

The key is the request's canonical wire form, so a rerun of the same
spec recognizes finished cells regardless of how the grid was produced,
and a stored result rebuilds bit-identically through
:meth:`~repro.api.request.ScheduleResult.from_dict` (the wire round-trip
is exact on the determinism payload).

The store is also the service layer's cross-replica schedule cache:
several processes may share one file, each appending finished cells and
periodically calling :meth:`ResultStore.refresh` to pick up lines the
others wrote.  Loading is therefore incremental and tolerant of an
unterminated final line -- either another replica's append still in
flight or the torn signature of a run killed mid-write -- which is left
pending and re-examined on the next refresh instead of being consumed.
Complete lines that do not parse are counted in
:attr:`ResultStore.corrupt_lines` rather than aborting the campaign.
Appends flush per line, so at most the line being written when a
process died is lost: the next append starts on a fresh line, and the
torn bytes end as one corrupt line.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Iterator

from repro.api.request import ScheduleResult
from repro.api.wire import WIRE_VERSION
from repro.errors import ConfigError

#: Document kind of one stored cell line.
CELL_KIND = "sweep_cell"


class ResultStore:
    """JSONL-backed map ``cache_key -> schedule-result document``.

    Results are kept as raw wire documents and parsed to
    :class:`ScheduleResult` on access, so loading a large store stays
    cheap.  Recording an already-stored key is a no-op (duplicate grid
    cells never duplicate lines).  All methods are thread-safe; cross-
    process coherence is explicit via :meth:`refresh`.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.RLock()
        self._documents: dict[str, dict[str, Any]] = {}
        self._offset = 0
        #: bytes after the last newline at the last refresh: a torn
        #: line, or another replica's append still in flight.
        self._tail_pending = False
        self.corrupt_lines = 0
        self.refresh()

    def refresh(self) -> int:
        """Incrementally load lines appended since the last load.

        Reads forward from the byte offset of the last fully consumed
        line, so a refresh after another replica's append costs one
        seek plus the new bytes.  Only newline-terminated lines are
        consumed: an unterminated tail stays pending (the writer may
        still be mid-append) and is retried next time.  Returns the
        number of newly loaded cells.
        """
        with self._lock:
            try:
                with self.path.open("rb") as handle:
                    handle.seek(self._offset)
                    data = handle.read()
            except FileNotFoundError:
                self._tail_pending = False
                return 0
            end = data.rfind(b"\n")
            self._tail_pending = end + 1 < len(data)
            if end < 0:
                return 0
            loaded = 0
            for raw in data[:end].split(b"\n"):
                line = raw.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    self.corrupt_lines += 1
                    continue
                if (not isinstance(entry, dict)
                        or entry.get("kind") != CELL_KIND
                        or not isinstance(entry.get("key"), str)
                        or not isinstance(entry.get("result"), dict)):
                    self.corrupt_lines += 1
                    continue
                self._documents[entry["key"]] = entry["result"]
                loaded += 1
            self._offset += end + 1
            return loaded

    # -- mapping surface ---------------------------------------------------

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._documents

    def __len__(self) -> int:
        with self._lock:
            return len(self._documents)

    def keys(self) -> Iterator[str]:
        with self._lock:
            return iter(list(self._documents))

    def get(self, key: str) -> ScheduleResult | None:
        """Rebuild the stored result for ``key`` (``None`` if absent).

        A stored document that no longer parses -- a wire-version bump,
        mid-file corruption that still decoded as JSON -- is dropped
        (counted in :attr:`corrupt_lines`) and reported as absent, so
        the runner recomputes and re-records the cell instead of
        aborting the campaign.
        """
        with self._lock:
            document = self._documents.get(key)
            if document is None:
                return None
            try:
                return ScheduleResult.from_dict(document)
            except ConfigError:
                del self._documents[key]
                self.corrupt_lines += 1
                return None

    # -- recording ---------------------------------------------------------

    def record(self, result: ScheduleResult, *,
               key: str | None = None) -> None:
        """Persist one finished cell (idempotent per cache key).

        ``key`` lets callers that already computed the request's cache
        key (the runner) skip re-serializing the request document.
        Refreshes first, so a cell another replica finished in the
        meantime is adopted instead of appended again.
        """
        if key is None:
            key = result.request.cache_key()
        with self._lock:
            self.refresh()
            if key in self._documents:
                return
            document = result.to_dict()
            line = json.dumps({"kind": CELL_KIND, "version": WIRE_VERSION,
                               "key": key, "result": document},
                              sort_keys=True, separators=(",", ":"))
            if self._tail_pending:
                # Start on a fresh line, so torn bytes from a run killed
                # mid-append end as one corrupt line instead of
                # swallowing this one.  If the tail is instead another
                # replica's append still in flight, that append lands
                # whole before ours, and the extra newline only leaves
                # a blank line, which refresh() skips.
                line = "\n" + line
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()
            self._documents[key] = document
