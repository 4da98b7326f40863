"""JSON wire-format converters for the public API value types.

Everything the :mod:`repro.api` facade puts on the wire is plain JSON:
dicts, lists, strings, numbers, booleans.  The converters here are exact
inverses of each other -- ``from_dict(to_dict(x)) == x`` bit-for-bit --
because every numeric field is a python float/int and JSON round-trips
both losslessly (floats use shortest-repr round-tripping).

Every document carries a ``{"kind", "version"}`` envelope, checked by
:func:`check_envelope`.  Versions are per kind: ``schedule_result`` is
at :data:`RESULT_WIRE_VERSION` (2), which writes each window of
candidates as three columns (:meth:`CandidateColumns.to_dict`), and
still reads version 1's one object per candidate
(:meth:`CandidateColumns.from_dicts`); every other kind is at
:data:`WIRE_VERSION` (1).

Derived quantities (``edp``, ``hit_rate``, ``evals_per_s``) are emitted
for the benefit of non-python consumers but ignored on the way back in,
so they can never drift from the primary fields.
"""

from __future__ import annotations

import json
import operator
from array import array
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.core.metrics import (
    ModelWindowMetrics,
    ScheduleMetrics,
    WindowMetrics,
)
from repro import errors
from repro.errors import ConfigError, ReproError, ServiceError
from repro.perf import CacheStats, PerfReport

#: Wire-format version of every document kind but ``schedule_result``
#: (requests, jobs, errors, ...); bumped on incompatible schema changes.
WIRE_VERSION = 1
#: Wire-format version of ``schedule_result`` documents: version 2 writes
#: each window of ``window_candidates`` as three columns, where version 1
#: wrote one object per candidate.
RESULT_WIRE_VERSION = 2


def loads_document(text: str, what: str) -> dict[str, Any]:
    """Parse a JSON wire document, wrapping parse errors as ConfigError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot parse {what}: {exc}") from exc


def check_envelope(data: Any, kind: str,
                   versions: tuple[int, ...] = (WIRE_VERSION,)) -> int:
    """Validate the shared ``{"kind": ..., "version": ...}`` envelope.

    The single implementation every document kind parses through, so a
    future envelope change (version negotiation, new fields) lands in
    one place.  ``versions`` are the ones the caller reads; the
    document's version is returned, so a reader of several can branch
    on it.  A boolean is no version, although ``True == 1``.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"expected a {kind} document, got "
                          f"{type(data).__name__}")
    got_kind = data.get("kind")
    if got_kind != kind:
        raise ConfigError(f"expected kind {kind!r}, got {got_kind!r}")
    version = data.get("version")
    if isinstance(version, bool) or version not in versions:
        supported = ", ".join(map(str, versions))
        raise ConfigError(f"unsupported wire version {version!r} "
                          f"(supported: {supported})")
    return version


@dataclass(frozen=True)
class CandidatePoint:
    """Wire-friendly summary of one evaluated window candidate.

    ``score`` is the candidate's objective score inside its window (lower
    is better); latency/energy are the window metrics the Pareto figures
    consume.  A :class:`~repro.api.ScheduleResult` keeps only these
    summaries, as :class:`CandidateColumns`; full
    :class:`~repro.core.sched_engine.WindowCandidate` objects live in
    the :class:`~repro.core.scar.SCARResult` of a direct
    :class:`~repro.core.scar.SCARScheduler` run.
    """

    score: float
    latency_s: float
    energy_j: float

    def to_dict(self) -> dict[str, Any]:
        return {"score": self.score, "latency_s": self.latency_s,
                "energy_j": self.energy_j}


#: Bytes per packed double in a :class:`CandidateColumns` column.
_DOUBLE = array("d").itemsize
#: A :class:`CandidateColumns` window's columns, in order, by wire name.
_COLUMNS = ("score", "latency_s", "energy_j")


class CandidateColumns:
    """One window's evaluated candidates as three float columns.

    The ``score``, ``latency_s`` and ``energy_j`` of every candidate,
    in collection order, each column one ``bytes`` of packed doubles:
    8 bytes per value, immutable and not tracked by the garbage
    collector (an ``array('d')`` is a tracked object on CPython 3.11),
    where one frozen :class:`CandidatePoint` per candidate is a tracked
    object of its own.  Iterating or indexing yields
    :class:`CandidatePoint` values, and ``==``, ``hash``, ``repr`` and
    pickling go by value, so the type reads like the tuple of points it
    stores.  A memoized result shares its windows with every caller:
    :attr:`columns` are read-only views.
    """

    __slots__ = ("_score", "_latency_s", "_energy_j")

    def __init__(self, score: Iterable[float] = (),
                 latency_s: Iterable[float] = (),
                 energy_j: Iterable[float] = ()) -> None:
        self._score = array("d", score).tobytes()
        self._latency_s = array("d", latency_s).tobytes()
        self._energy_j = array("d", energy_j).tobytes()
        if not len(self._score) == len(self._latency_s) \
                == len(self._energy_j):
            raise ConfigError(
                "candidate columns differ in length: "
                f"{len(self._score) // _DOUBLE} scores, "
                f"{len(self._latency_s) // _DOUBLE} latencies, "
                f"{len(self._energy_j) // _DOUBLE} energies")

    @property
    def columns(self) -> tuple[memoryview, memoryview, memoryview]:
        """Read-only ``(score, latency_s, energy_j)`` float views."""
        return (memoryview(self._score).cast("d"),
                memoryview(self._latency_s).cast("d"),
                memoryview(self._energy_j).cast("d"))

    def __len__(self) -> int:
        return len(self._score) // _DOUBLE

    def __iter__(self) -> Iterator[CandidatePoint]:
        return map(CandidatePoint, *self.columns)

    def __getitem__(self, index: int) -> CandidatePoint:
        index = operator.index(index)
        return CandidatePoint(*(column[index] for column in self.columns))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CandidateColumns):
            return NotImplemented
        return self.columns == other.columns

    def __hash__(self) -> int:
        return hash(tuple(tuple(column) for column in self.columns))

    def __repr__(self) -> str:
        score, latency_s, energy_j = (column.tolist()
                                      for column in self.columns)
        return (f"CandidateColumns(score={score!r}, "
                f"latency_s={latency_s!r}, energy_j={energy_j!r})")

    def __reduce__(self) -> tuple[Any, ...]:
        # array('d', <bytes>) reads packed doubles (frombytes), so the
        # columns pickle as their bytes and rebuild without a per-value
        # step.
        return (CandidateColumns,
                (self._score, self._latency_s, self._energy_j))

    def to_dict(self) -> dict[str, list[float]]:
        """The window's wire form (``schedule_result`` version 2): one
        list per column, ``{"score": [...], "latency_s": [...],
        "energy_j": [...]}``, with no object per candidate."""
        score, latency_s, energy_j = self.columns
        return {"score": score.tolist(), "latency_s": latency_s.tolist(),
                "energy_j": energy_j.tolist()}

    @classmethod
    def from_dict(cls, data: Any) -> "CandidateColumns":
        """Rebuild a window from its wire form (:meth:`to_dict`).

        Each column must be a list of real numbers that fit a double,
        and the three must be equally long, so a missing or non-list
        column, a non-number value, an integer too large for a float
        or columns of unequal length is a :class:`ConfigError`.
        """
        if not isinstance(data, dict):
            raise ConfigError("malformed candidate columns: expected an "
                              f"object, got {type(data).__name__}")
        for name in _COLUMNS:
            if not isinstance(data.get(name), list):
                raise ConfigError(f"malformed candidate columns: {name} "
                                  "is missing or not a list")
        try:
            return cls(*(data[name] for name in _COLUMNS))
        except (TypeError, OverflowError) as exc:
            raise ConfigError(
                f"malformed candidate columns: {exc}") from exc

    @classmethod
    def from_dicts(cls, points: Any) -> "CandidateColumns":
        """Rebuild a window from its ``schedule_result`` version-1 wire
        form: one ``{"score", "latency_s", "energy_j"}`` object per
        candidate.

        The columns take only real numbers that fit a double, so a
        missing key, a non-object point, a non-number value or an
        integer too large for a float is a :class:`ConfigError`.
        """
        try:
            return cls([point["score"] for point in points],
                       [point["latency_s"] for point in points],
                       [point["energy_j"] for point in points])
        except (KeyError, TypeError, OverflowError) as exc:
            raise ConfigError(f"malformed candidate point: {exc}") from exc


# -- schedule metrics ------------------------------------------------------


def metrics_to_dict(metrics: ScheduleMetrics) -> dict[str, Any]:
    """Serialize a full schedule evaluation (windows and per-model rows)."""
    return {
        "latency_s": metrics.latency_s,
        "energy_j": metrics.energy_j,
        "edp": metrics.edp,  # derived; ignored by metrics_from_dict
        "windows": [
            {
                "index": w.index,
                "latency_s": w.latency_s,
                "energy_j": w.energy_j,
                "per_model": [
                    {
                        "model": m.model,
                        "latency_s": m.latency_s,
                        "energy_j": m.energy_j,
                        "minibatch": m.minibatch,
                        "tile_factor": m.tile_factor,
                        "segment_latencies_s": list(m.segment_latencies_s),
                    }
                    for m in w.per_model
                ],
            }
            for w in metrics.windows
        ],
    }


def metrics_from_dict(data: dict[str, Any]) -> ScheduleMetrics:
    """Rebuild a :class:`ScheduleMetrics` from its serialized form."""
    try:
        windows = tuple(
            WindowMetrics(
                index=w["index"],
                latency_s=w["latency_s"],
                energy_j=w["energy_j"],
                per_model=tuple(
                    ModelWindowMetrics(
                        model=m["model"],
                        latency_s=m["latency_s"],
                        energy_j=m["energy_j"],
                        minibatch=m["minibatch"],
                        tile_factor=m["tile_factor"],
                        segment_latencies_s=tuple(
                            m["segment_latencies_s"]),
                    )
                    for m in w["per_model"]
                ),
            )
            for w in data["windows"]
        )
        return ScheduleMetrics(latency_s=data["latency_s"],
                               energy_j=data["energy_j"], windows=windows)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed metrics: {exc}") from exc


# -- perf reports ----------------------------------------------------------


def perf_to_dict(perf: PerfReport) -> dict[str, Any]:
    """Serialize a perf report (same payload as ``PerfReport.to_dict``)."""
    return perf.to_dict()


def perf_from_dict(data: dict[str, Any]) -> PerfReport:
    """Rebuild a :class:`PerfReport`; derived rate fields are ignored.

    Reports written before the window search lost its worker pool carry
    a ``jobs`` key, and those written before evaluator caches lived for
    one request carry a per-table ``evictions`` count; both parse, and
    neither is read.
    """
    try:
        return PerfReport(
            wall_s=data["wall_s"],
            num_evaluated=data["num_evaluated"],
            num_windows=data["num_windows"],
            cache={table: CacheStats(hits=entry["hits"],
                                     misses=entry["misses"])
                   for table, entry in data.get("cache", {}).items()},
            num_segments=data.get("num_segments", 0),
            num_segments_recosted=data.get("num_segments_recosted", 0),
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"malformed perf report: {exc}") from exc


# -- error documents -------------------------------------------------------

_ERROR_KIND = "error"

#: Wire codes of service conditions that have no exception class of
#: their own, and the class a client rebuilds for each.
_SERVICE_CONDITIONS: dict[str, type[ReproError]] = {
    "job_not_done": ServiceError,
    "job_cancelled": ServiceError,
    "unknown_endpoint": ServiceError,
    "bad_request": ConfigError,
}

#: Wire code -> the exception class a client rebuilds: every
#: :mod:`repro.errors` class under the code it declares, and the
#: service conditions.
_CODE_TO_EXCEPTION: dict[str, type[ReproError]] = {
    **{exc_type.code: exc_type for exc_type in vars(errors).values()
       if isinstance(exc_type, type) and issubclass(exc_type, ReproError)
       and "code" in vars(exc_type)},
    **_SERVICE_CONDITIONS,
}


@dataclass(frozen=True)
class ErrorDocument:
    """Structured wire form of a failure (``kind: "error"``).

    Replaces raw tracebacks at every serialized boundary (CLI
    ``--format json``, the HTTP service): ``code`` is a stable
    machine-readable identifier, ``message`` the human-readable detail,
    and ``field`` the offending request field path where one is known
    (e.g. ``"requests[2]"`` for a malformed batch entry).
    """

    code: str
    message: str
    field: str | None = None

    @classmethod
    def from_exception(cls, exc: BaseException,
                       field: str | None = None) -> "ErrorDocument":
        """Map an exception to its wire document: its class's ``code``.

        The class's code, not ``exc.code``: a rebuilt exception carries
        its document's code, which may name a service condition.
        Non-:class:`ReproError` exceptions become ``internal_error`` so a
        service can report crashes without leaking a traceback.
        """
        if isinstance(exc, ReproError):
            return cls(code=type(exc).code, message=str(exc), field=field)
        return cls(code="internal_error",
                   message=f"{type(exc).__name__}: {exc}", field=field)

    def exception(self) -> ReproError:
        """Rebuild a typed exception (unknown codes -> ReproError).

        The wire code rides along as ``exc.code`` so transport layers
        can branch on the precise condition (e.g. ``job_not_done``)
        without parsing the message.
        """
        exc = _CODE_TO_EXCEPTION.get(self.code, ReproError)(self.message)
        exc.code = self.code
        return exc

    def to_dict(self) -> dict[str, Any]:
        return {"kind": _ERROR_KIND, "version": WIRE_VERSION,
                "code": self.code, "message": self.message,
                "field": self.field}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ErrorDocument":
        check_envelope(data, _ERROR_KIND)
        try:
            return cls(code=data["code"], message=data["message"],
                       field=data.get("field"))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed error document: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ErrorDocument":
        return cls.from_dict(loads_document(text, "error document"))


def is_error_document(data: Any) -> bool:
    """True when ``data`` looks like an error wire document."""
    return isinstance(data, dict) and data.get("kind") == _ERROR_KIND
