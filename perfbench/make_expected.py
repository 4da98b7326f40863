"""Regenerate ``expected.json``: payload digests of every op any seed makes.

Runs every replay active set (41, reached by replaying a trace that
visits them all) and every request of :data:`ops.SEARCH_GRID` (180) once,
on the scalar reference kernel, and writes their payload digests.  Every
benchmark op is checked against this file; a vector-kernel result must
match its scalar digest bit for bit.

    PYTHONPATH=src python3 perfbench/make_expected.py   # ~15 min, 1 CPU
"""

from __future__ import annotations

import json
import sys

import ops
from worker import EXPECTED_PATH, payload


def main() -> int:
    from repro.api import ScheduleRequest, Session
    from repro.sim import TenantEvent, Trace, replay

    document = ops.replay_trace(0)
    trace = Trace(name=document["name"], use_case=document["use_case"],
                  events=tuple(TenantEvent(**event)
                               for event in document["events"]))
    replayed = {}
    for outcome in replay(trace, mode="warm", eval_mode="scalar"):
        replayed[ops.set_key(outcome.tenants)] = \
            ops.payload_digest(payload(outcome.result))
    missing = {ops.set_key(s) for s in ops.ACTIVE_SETS} - set(replayed)
    if missing:
        print(f"trace missed active sets: {sorted(missing)}",
              file=sys.stderr)
        return 1

    session = Session(eval_mode="scalar")
    search = {}
    for index, spec in enumerate(ops.SEARCH_GRID):
        result = session.submit(ScheduleRequest(**spec))
        search[ops.search_key(spec)] = ops.payload_digest(payload(result))
        print(f"search {index + 1}/{len(ops.SEARCH_GRID)} "
              f"{ops.search_key(spec)}", file=sys.stderr, flush=True)

    with open(EXPECTED_PATH, "w", encoding="utf-8") as sink:
        json.dump({"kernel": "scalar", "search": search,
                   "replay": dict(sorted(replayed.items()))},
                  sink, indent=1, sort_keys=True)
        sink.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
