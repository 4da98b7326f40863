"""Chaos tests: real ``scar sweep`` processes, killed or run side by side.

The in-process store tests share one interpreter; these run ``python -m
repro sweep`` as separate processes, so they cover what those cannot:
a campaign killed by SIGTERM mid-run and resumed from its store, and two
processes appending to one store file at the same time.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.api import Session
from repro.sweep import ResultStore

REPO_ROOT = Path(__file__).resolve().parent.parent

#: An 8-cell ``--fast`` grid: scenarios 1-4 x scar/standalone.
GRID = ["--scenarios", "1,2,3,4", "--policies", "scar,standalone", "--fast"]
CELLS = 8


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _sweep_argv(store: Path) -> list[str]:
    return [sys.executable, "-m", "repro", "sweep", *GRID,
            "--store", str(store), "--format", "json"]


def _run_sweep(store: Path) -> dict:
    """Run the grid to completion; returns its ``sweep_report``."""
    proc = subprocess.run(_sweep_argv(store), capture_output=True,
                          text=True, timeout=300, env=_env(),
                          cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _complete_lines(store: Path) -> int:
    try:
        return store.read_bytes().count(b"\n")
    except FileNotFoundError:
        return 0


def test_sigterm_mid_campaign_then_resume(tmp_path):
    store = tmp_path / "campaign.jsonl"
    proc = subprocess.Popen(_sweep_argv(store), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, env=_env(),
                            cwd=REPO_ROOT)
    try:
        deadline = time.monotonic() + 120
        while _complete_lines(store) < 1:
            assert proc.poll() is None, "the sweep ended before the kill"
            assert time.monotonic() < deadline, "no cell was stored"
            time.sleep(0.005)
        stored_at_kill = _complete_lines(store)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == -signal.SIGTERM
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert stored_at_kill < CELLS

    resumed = _run_sweep(store)
    assert resumed["cells"] == CELLS and resumed["failed"] == 0
    assert resumed["skipped"] >= stored_at_kill
    assert resumed["computed"] + resumed["skipped"] == CELLS
    assert _run_sweep(store)["computed"] == 0

    reloaded = ResultStore(store)
    assert len(reloaded) == CELLS
    session = Session()
    for key in reloaded.keys():
        result = reloaded.get(key)
        assert result.same_payload(session.submit(result.request))


def test_two_writers_share_one_store(tmp_path):
    store = tmp_path / "campaign.jsonl"
    writers = [subprocess.Popen(_sweep_argv(store), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                env=_env(), cwd=REPO_ROOT)
               for _ in range(2)]
    try:
        for writer in writers:
            _, err = writer.communicate(timeout=300)
            assert writer.returncode == 0, err
    finally:
        for writer in writers:
            if writer.poll() is None:
                writer.kill()
                writer.wait()

    assert _run_sweep(store)["computed"] == 0
    reloaded = ResultStore(store)
    assert len(reloaded) == CELLS
    assert reloaded.corrupt_lines == 0
