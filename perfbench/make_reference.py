#!/usr/bin/env python3
"""Regenerate the benchmark's store fixture and reference digests.

Run from the repository root when the program's decisions change on
purpose (a change that keeps them must leave both files as they are)::

    python3 perfbench/make_reference.py

1. ``fixtures/retune_store``: one cold D1 session (budget 40, seed 0) per
   application through ``repro tune --store-dir``, sharing one store.
2. ``reference.json``: the ``evaluation_digest`` (selection plus tuning
   stream), evaluation count, best time and search cost of every pool
   session of every workload, each run in process.  ``served`` sessions
   are recorded from ``run_session`` of the same spec, so a served run
   matching them shows the daemon path is bit-identical to in-process.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads as wk  # noqa: E402


def build_store_fixture() -> None:
    shutil.rmtree(wk.STORE_FIXTURE, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for app in wk.APPS:
        subprocess.run([sys.executable, "-m", "repro", "tune",
                        "--workload", app, "--dataset", "D1",
                        "--budget", "40", "--seed", "0",
                        "--store-dir", str(wk.STORE_FIXTURE)],
                       cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)


def main() -> int:
    build_store_fixture()
    sessions = {}
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        store = wk.StoreFixture(Path(tmp))
        for workload in wk.WORKLOADS:
            uses_store = workload in ("retune", "batch4")
            for choices in wk.slots(workload):
                for slot in choices:
                    result, _ = wk.execute(
                        slot, store.fresh_copy() if uses_store else None)
                    best, _ = wk.best_of(result)
                    sessions[slot.key] = {
                        "digest": wk.session_digest(result),
                        "n_evaluations": int(result.n_evaluations),
                        "best_s": best,
                        "search_cost_s": float(result.search_cost_s),
                    }
                    print(slot.key, sessions[slot.key]["digest"][:16],
                          flush=True)
    wk.REFERENCE.write_text(json.dumps(
        {"format": 1, "sessions": sessions}, indent=1, sort_keys=True)
        + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
