"""The benchmark's four workloads: session pools, seeded schedules, runners.

Every workload is a closed loop driven from this process.  A workload owns
a fixed *pool* of sessions; ``--seed`` picks, round after round, a seeded
order of the pool's slots and one tuner seed per slot, so one seed always
yields the same session sequence.  The program only ever receives a
:class:`~repro.tuners.objective.WorkloadObjective` with a
:class:`~repro.core.tuner.ROBOTune`, or a
:class:`~repro.serve.session.SessionSpec`.

* ``cold``    fresh-store sessions at the paper defaults on D1
* ``retune``  memoized re-tunes on D2/D3 from the stored cold sessions
* ``batch4``  the ``retune`` sessions with constant-liar rounds of four
* ``served``  small journaled sessions through an in-process daemon,
  two outstanding, each polled over the socket every ``POLL_S``

Each finished session is checked: it must not raise, must settle DONE when
served, must report ``budget`` evaluations, a finite best and a best
configuration inside the space, and its ``evaluation_digest`` must equal
the reference recorded in ``reference.json`` (for ``served``, the digest
of the same spec run in process).
"""

from __future__ import annotations

import json
import math
import random
import shutil
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.core.memo import ConfigMemoizationBuffer, ParameterSelectionCache
from repro.core.tuner import ROBOTune
from repro.serve import (ServiceClient, SessionSpec, SessionStore,
                         TuningDaemon, build_objective, evaluation_digest,
                         run_session)
from repro.space.spark_params import spark_space

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
#: The stores `repro tune --store-dir` left after one cold D1 session
#: (seed 0) per workload; every re-tune starts from a fresh copy.
STORE_FIXTURE = HERE / "fixtures" / "retune_store"
STORE_FILES = ("selection_cache.json", "memo_buffer.json")

APPS = ("kmeans", "pagerank", "terasort", "logisticregression",
        "connectedcomponents")
TUNER_SEEDS = (0, 1)
WORKLOADS = ("cold", "retune", "batch4", "served")

#: served: sessions kept outstanding and the client's status poll interval.
OUTSTANDING = 2
POLL_S = 0.05
#: a served session not settled after this long counts as failed.
SESSION_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Slot:
    """One pool entry: which application, dataset and tuner seed."""

    workload: str
    app: str
    dataset: str
    seed: int

    @property
    def key(self) -> str:
        return f"{self.workload}:{self.app}:{self.dataset}:{self.seed}"

    def spec(self) -> SessionSpec:
        if self.workload == "cold":
            return SessionSpec(self.app, "D1", budget=40, seed=self.seed)
        if self.workload == "served":
            return SessionSpec(self.app, "D1", budget=16, seed=self.seed,
                               init_samples=6, selection_samples=10,
                               selection_repeats=2)
        return SessionSpec(self.app, self.dataset, budget=60, seed=self.seed)


def slots(workload: str) -> list[list[Slot]]:
    """One round's positions, each with the pool sessions it may run.

    A round visits every application (and, for re-tunes, both datasets)
    once; ``served`` sessions are short, so its round also covers both
    tuner seeds.
    """
    if workload == "served":
        return [[Slot(workload, app, "D1", s)]
                for app in APPS for s in TUNER_SEEDS]
    datasets = ("D2", "D3") if workload in ("retune", "batch4") else ("D1",)
    return [[Slot(workload, app, ds, s) for s in TUNER_SEEDS]
            for app in APPS for ds in datasets]


def schedule(workload: str, seed: int) -> Iterator[list[Slot]]:
    """Endless seeded sequence of rounds: a shuffled pick per position."""
    rng = random.Random(f"{workload}/{seed}")
    positions = slots(workload)
    while True:
        order = list(range(len(positions)))
        rng.shuffle(order)
        yield [rng.choice(positions[i]) for i in order]


@dataclass
class Outcome:
    """One finished (or failed) session as the benchmark saw it."""

    key: str
    wall_s: float
    cpu_s: float = 0.0
    error: str | None = None
    best_s: float = math.nan
    search_cost_s: float = math.nan

    @property
    def ok(self) -> bool:
        return self.error is None


def load_reference() -> dict[str, dict[str, Any]]:
    return json.loads(REFERENCE.read_text())["sessions"]


class Checker:
    """Validates a session against the space and the reference digests."""

    def __init__(self, reference: dict[str, dict[str, Any]]) -> None:
        self.reference = reference
        self.space = spark_space()

    def check(self, slot: Slot, n_evaluations: int, best: float | None,
              best_config: dict | None, digest: str) -> str | None:
        """Why this session is invalid, or None when it is valid."""
        budget = slot.spec().budget
        if n_evaluations != budget:
            return f"{n_evaluations} evaluations, expected {budget}"
        if best is None or not math.isfinite(best):
            return f"non-finite best {best!r}"
        unknown = set(best_config or {}) - set(self.space.names)
        bad = self.space.validate(best_config or {})
        if not best_config or unknown or bad:
            return f"best config outside the space: {sorted(unknown | set(bad))}"
        ref = self.reference.get(slot.key)
        if ref is None:
            return "no reference digest"
        if digest != ref["digest"]:
            return f"digest {digest[:12]} != reference {ref['digest'][:12]}"
        return None


# -- in-process workloads -----------------------------------------------------------
class StoreFixture:
    """The retune stores, read once; each session gets a fresh copy."""

    def __init__(self, scratch: Path) -> None:
        self.files = {name: (STORE_FIXTURE / name).read_bytes()
                      for name in STORE_FILES}
        # Parse once so a corrupt fixture fails set-up, not session one.
        ParameterSelectionCache(STORE_FIXTURE / STORE_FILES[0])
        ConfigMemoizationBuffer(STORE_FIXTURE / STORE_FILES[1])
        self.scratch = scratch
        self._n = 0

    def fresh_copy(self) -> Path:
        self._n += 1
        path = self.scratch / f"store-{self._n:05d}"
        path.mkdir()
        for name, data in self.files.items():
            (path / name).write_bytes(data)
        return path

    def unchanged(self) -> bool:
        """The fixture on disk still matches what was read at set-up."""
        return all((STORE_FIXTURE / name).read_bytes() == data
                   for name, data in self.files.items())


def execute(slot: Slot, store_dir: Path | None):
    """Run *slot* in this thread: the program's own in-process entry points.

    Returns the :class:`~repro.core.tuner.ROBOTuneResult` and any
    ``RuntimeWarning`` the session raised.
    """
    spec = slot.spec()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        if store_dir is None:
            result = run_session(spec)
        else:
            tuner = ROBOTune(
                selection_cache=ParameterSelectionCache(
                    store_dir / STORE_FILES[0]),
                memo_buffer=ConfigMemoizationBuffer(
                    store_dir / STORE_FILES[1]),
                batch_size=4 if slot.workload == "batch4" else 1,
                rng=spec.seed)
            result = tuner.tune(build_objective(spec), spec.budget,
                                rng=spec.seed)
    return result, list(caught)


def warm_up() -> None:
    """One tiny session through every layer, run before timing.

    A process's first session pays ~0.7 s of first-use cost (BLAS thread
    start-up, lazy imports) that later ones do not; untreated, it would
    land on whichever session the seed ordered first.
    """
    run_session(SessionSpec("terasort", "D1", budget=4, seed=1,
                            init_samples=2, selection_samples=10,
                            selection_repeats=1))


def session_digest(result) -> str:
    """The selection-plus-tuning stream digest a served result reports."""
    return evaluation_digest(list(result.selection_evaluations)
                             + list(result.evaluations))


def best_of(result) -> tuple[float | None, dict | None]:
    try:
        return result.best_time_s, dict(result.best_config)
    except RuntimeError:  # no successful evaluation at all
        return None, None


def run_inprocess(slot: Slot, checker: Checker,
                  store: StoreFixture | None) -> Outcome:
    """Run one cold/retune/batch4 session, timed, and check it."""
    store_dir = store.fresh_copy() if store is not None else None
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        result, caught = execute(slot, store_dir)
    except Exception as exc:  # a raising session is a failed session
        return Outcome(slot.key, time.perf_counter() - wall0,
                       time.process_time() - cpu0,
                       error=f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    digest = session_digest(result)
    best, best_config = best_of(result)
    error = checker.check(slot, result.n_evaluations, best, best_config,
                          digest)
    if error is None and any("degraded to serial" in str(w.message)
                             for w in caught):
        error = "batch.serial_fallback: concurrent evaluation went serial"
    if error is None and store_dir is not None:
        if not result.selection_cache_hit:
            error = "retune session missed the selection cache"
        elif result.memoized_used != 4:
            error = f"replayed {result.memoized_used} memoized configs, not 4"
    return Outcome(slot.key, wall, cpu, error=error,
                   best_s=best if best is not None else math.nan,
                   search_cost_s=result.search_cost_s)


# -- served workload ---------------------------------------------------------------
class ServedHarness:
    """An in-process TuningDaemon plus one socket client.

    The daemon runs with its defaults: one worker, per-session traces, a
    fsync'd store, ``socket_address="auto"``.
    """

    def __init__(self, scratch: Path) -> None:
        self.root = Path(tempfile.mkdtemp(prefix="served-", dir=scratch))
        self.daemon = TuningDaemon(self.root, socket_address="auto")
        self.thread = threading.Thread(target=self.daemon.run,
                                       name="perfbench-daemon", daemon=True)
        self.thread.start()
        store = SessionStore(self.root)
        for _ in range(int(30 / 0.01)):
            info = store.daemon_info()
            if info and info.get("address"):
                break
            time.sleep(0.01)
        else:
            raise RuntimeError("daemon never registered its socket")
        self.client = ServiceClient.for_socket("auto", store_root=self.root)
        if not self.client.ping():
            raise RuntimeError("daemon does not answer ping")

    def close(self) -> None:
        self.daemon.stop()
        self.thread.join(timeout=60.0)
        if self.thread.is_alive():
            raise RuntimeError("daemon thread did not stop")
        shutil.rmtree(self.root, ignore_errors=True)

    def run(self, sessions: list[Slot], checker: Checker, *,
            status_ms: list[float] | None = None,
            submitted_at: dict[str, float] | None = None) -> list[Outcome]:
        """Run *sessions* keeping OUTSTANDING of them in flight.

        Each outstanding session's status is read every POLL_S; a session
        ends when the client sees it terminal.
        """
        outcomes: list[Outcome] = []
        inflight: dict[str, tuple[Slot, float]] = {}
        queue = list(sessions)
        while True:
            while len(inflight) < OUTSTANDING and queue:
                slot = queue.pop(0)
                t = time.perf_counter()
                sid = self.client.submit(slot.spec())
                inflight[sid] = (slot, t)
                if submitted_at is not None:
                    submitted_at[sid] = t
            if not inflight:
                break
            tick = time.perf_counter()
            for sid in list(inflight):
                slot, t_submit = inflight[sid]
                t0 = time.perf_counter()
                view = self.client.status(sid)
                t1 = time.perf_counter()
                if status_ms is not None:
                    status_ms.append(1e3 * (t1 - t0))
                if view["state"] in ("PENDING", "RUNNING"):
                    if t1 - t_submit > SESSION_TIMEOUT_S:
                        del inflight[sid]
                        self.client.cancel(sid)
                        outcomes.append(Outcome(slot.key, t1 - t_submit,
                                                error="timed out"))
                    continue
                del inflight[sid]
                outcomes.append(self._settled(slot, view, t1 - t_submit,
                                              checker))
            time.sleep(max(0.0, POLL_S - (time.perf_counter() - tick)))
        return outcomes

    @staticmethod
    def _settled(slot: Slot, view: dict[str, Any], latency: float,
                 checker: Checker) -> Outcome:
        if view["state"] != "DONE":
            return Outcome(slot.key, latency,
                           error=f"settled {view['state']}: "
                                 f"{(view.get('error') or '')[:200]}")
        res = view.get("result") or {}
        digest = res.get("digest", "")
        error = checker.check(slot, int(res.get("n_evaluations", -1)),
                              res.get("best_objective"),
                              res.get("best_config"), digest)
        return Outcome(slot.key, latency, error=error,
                       best_s=res.get("best_objective") or math.nan,
                       search_cost_s=res.get("search_cost_s", math.nan))
