"""Benchmark configuration and ``BENCH_*.json`` artifact plumbing.

Benches run the reduced (``fast``) search budget by default so the whole
suite finishes in CI time; set ``REPRO_FULL=1`` to regenerate every
artifact at the paper's full settings (several minutes per bench).

Each bench prints the regenerated table/figure rows, so running with
``pytest benchmarks/ --benchmark-only -s`` (or capturing the output file)
reproduces the paper artifacts alongside the timing numbers.

Machine-readable trajectory artifacts
-------------------------------------

Benches may additionally record timing / evaluation-count payloads via
the ``bench_artifact`` fixture, which writes ``benchmarks/BENCH_<name>.json``
with the schema::

    {
      "bench":  "<name>",            # artifact name (file stem suffix)
      "budget": "fast" | "full",     # which search budget produced it
      "data":   { ... }              # bench-specific payload; perf-stats
    }                                #   entries use PerfReport.to_dict():
                                     #   wall_s, num_evaluated,
                                     #   num_windows, evals_per_s,
                                     #   cache[table] -> hits/misses/
                                     #   hit_rate

Artifacts are overwritten on every run, so the committed files always
reflect the latest bench trajectory (the perf-regression bench fails if
the evaluator cache degrades -- see ``test_perf_regression.py``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable

import pytest

from repro.experiments import ExperimentConfig

BENCH_DIR = Path(__file__).resolve().parent


def pytest_collection_modifyitems(config, items):
    """Mark everything under benchmarks/ as ``bench``.

    The fast tier-1 loop can then skip the timing rewrites with
    ``pytest -m "not bench"`` (marker declared in pytest.ini).
    """
    for item in items:
        if str(item.fspath).startswith(str(BENCH_DIR)):
            item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    if os.environ.get("REPRO_FULL"):
        return ExperimentConfig.full()
    return ExperimentConfig.fast()


@pytest.fixture(scope="session")
def bench_artifact() -> Callable[[str, dict], Path]:
    """Writer for ``benchmarks/BENCH_<name>.json`` trajectory artifacts."""

    def write(name: str, data: dict) -> Path:
        path = BENCH_DIR / f"BENCH_{name}.json"
        payload = {
            "bench": name,
            "budget": "full" if os.environ.get("REPRO_FULL") else "fast",
            "data": data,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                        + "\n")
        return path

    return write
