"""Per-layer timers and counters, attached from outside the program.

The program under test is never edited for measurement: :class:`LayerProbe`
replaces the public functions at each layer boundary with timing wrappers,
patching every name where its caller looks it up (a class attribute for
methods, the importing module's global for functions bound with
``from x import f``), and restores the originals on exit.  With the probe
off the program runs exactly as shipped.

Each wrapped name feeds one *key*: a call count and the wall time spent
inside the outermost call on that thread (recursion and nested calls of
the same key are not counted twice).  Keys of different layers nest
freely, so ``selection.select`` includes ``ml.forest_fit``.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict
from statistics import median
from typing import Any, Callable

import repro.core.bo as bo_mod
import repro.core.selection as selection_mod
import repro.core.tuner as tuner_mod
import repro.gp.gpr as gpr_mod
import repro.ml.forest as forest_mod
import repro.ml.importance as importance_mod
import repro.serve.daemon as daemon_mod
import repro.utils.parallel as parallel_mod
from repro.core.hedge import GPHedge
from repro.core.journal import EvaluationJournal
from repro.core.memo import ParameterSelectionCache
from repro.core.selection import ParameterSelector
from repro.core.tuner import ROBOTune
from repro.gp.gpr import GaussianProcessRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor
from repro.obs.sinks import JsonlTraceWriter
from repro.serve.store import SessionStore
from repro.space.space import ConfigSpace
from repro.sparksim.simulator import SparkSimulator
from repro.tuners.objective import WorkloadObjective

__all__ = ["LayerProbe", "quantile_tail"]

_INHERITED = object()


def quantile_tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond.

    Never below the median: with fewer than 21 samples no percentile above
    the median has ten samples beyond it, and the median is returned with
    percentile 50.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0
    if n >= 21:
        return xs[n - 11], 100.0 * (n - 10) / n
    return median(xs), 50.0


class LayerProbe:
    """Install/remove the per-layer wrappers and fold what they saw.

    Use as a context manager; it is thread-safe, since served sessions run
    on daemon threads while the client polls from another.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tls = threading.local()
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: sid -> perf_counter() of its first successful claim.
        self.claimed_at: dict[str, float] = {}
        self._saved: list[tuple[Any, str, Any]] = []

    # -- bookkeeping -------------------------------------------------------------
    def _depths(self) -> dict[str, int]:
        depths = getattr(self._tls, "depths", None)
        if depths is None:
            depths = self._tls.depths = defaultdict(int)
        return depths

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.extra[key] += value

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples[key].append(value)

    def _wrap(self, key: str, fn: Callable,
              after: Callable[[Any, tuple, float], None] | None = None,
              before: Callable[[tuple, float], None] | None = None
              ) -> Callable:
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depths = probe._depths()
            outer = depths[key] == 0
            depths[key] += 1
            start = time.perf_counter()
            if outer and before is not None:
                before(args, start)
            try:
                out = fn(*args, **kwargs)
            finally:
                depths[key] -= 1
            end = time.perf_counter()
            if outer:
                with probe._lock:
                    probe.calls[key] += 1
                    probe.seconds[key] += end - start
                if after is not None:
                    after(out, args, end)
            return out

        return wrapper

    def _patch(self, owner: Any, name: str, key: str, **hooks) -> None:
        # An inherited method is shadowed on *owner* and deleted again on
        # exit, so the class hierarchy is left exactly as it was.
        own = vars(owner).get(name, _INHERITED)
        self._saved.append((owner, name, own))
        setattr(owner, name, self._wrap(key, getattr(owner, name), **hooks))

    # -- hooks ----------------------------------------------------------------------
    def _bo_enter(self, args: tuple, start: float) -> None:
        self._tls.bo_last = start

    def _bo_exit(self, evals: Any, args: tuple, end: float) -> None:
        self._tls.bo_last = None
        self.add("bo.iterations", len(evals))
        self.add("bo.fallbacks", args[0].fallbacks)

    def _eval_start(self, args: tuple, start: float) -> None:
        last = getattr(self._tls, "bo_last", None)
        if last is not None:
            self.sample("bo.decide_ms", 1e3 * (start - last))

    def _eval_end(self, out: Any, args: tuple, end: float) -> None:
        if getattr(self._tls, "bo_last", None) is not None:
            self._tls.bo_last = end
        evals = out if isinstance(out, list) else [out]
        self.add("eval.count", len(evals))
        self.add("eval.ok", sum(1 for ev in evals if ev.ok))

    def _claimed(self, claim: Any, args: tuple, end: float) -> None:
        if claim is None:
            self.add("serve.claim_empty", 1)
        else:
            with self._lock:
                self.claimed_at.setdefault(claim.sid, end)

    def _cache_get(self, found: Any, args: tuple, end: float) -> None:
        self.add("memo.selection_hits" if found is not None
                 else "memo.selection_misses", 1)

    # -- install/remove ---------------------------------------------------------
    def __enter__(self) -> "LayerProbe":
        p = self._patch
        # core.selection + ml
        p(ParameterSelector, "collect", "selection.collect")
        p(ParameterSelector, "select", "selection.select")
        p(RandomForestRegressor, "fit", "ml.forest_fit")
        p(selection_mod, "grouped_permutation_importance", "ml.importance")
        p(DecisionTreeRegressor, "predict", "ml.tree_predict")
        # gp
        p(GaussianProcessRegressor, "fit", "gp.fit")
        p(GaussianProcessRegressor, "update", "gp.update")
        p(GaussianProcessRegressor, "predict", "gp.predict")
        p(GaussianProcessRegressor, "fast_predict", "gp.fast_predict",
          after=lambda out, args, end: self.add("gp.fast_predict_points",
                                                len(args[1])))
        # core.bo: the loop, L-BFGS-B refinement (scipy's minimize as bo
        # binds it), the Hedge portfolio, and the decide gaps between
        # evaluations inside the loop.
        p(bo_mod.BOEngine, "minimize", "bo.minimize",
          before=self._bo_enter, after=self._bo_exit)
        p(bo_mod, "minimize", "bo.refine",
          after=lambda res, args, end: self.add("bo.refine_nfev", res.nfev))
        p(GPHedge, "choose", "bo.hedge")
        p(GPHedge, "update", "bo.hedge")
        p(WorkloadObjective, "__call__", "eval.call",
          before=self._eval_start, after=self._eval_end)
        p(WorkloadObjective, "evaluate_batch", "eval.batch",
          before=self._eval_start, after=self._eval_end)
        # sparksim
        p(SparkSimulator, "run", "sparksim.run")
        p(SparkSimulator, "run_batch", "sparksim.run_batch")
        # sampling / space
        p(tuner_mod, "maximin_latin_hypercube", "sampling.lhs")
        p(bo_mod, "latin_hypercube", "sampling.lhs")
        p(selection_mod, "latin_hypercube", "sampling.lhs")
        p(ConfigSpace, "decode", "space.decode")
        # core.memo: selection-cache hits/misses; configs_used comes from
        # each session's result (ROBOTune.tune's return value).
        p(ParameterSelectionCache, "get", "memo.get", after=self._cache_get)
        p(ROBOTune, "tune", "tune",
          after=lambda res, args, end: self.add("memo.configs_used",
                                                res.memoized_used))
        # core.journal + obs.sinks + the fsyncs under both
        p(EvaluationJournal, "append", "journal.append")
        p(EvaluationJournal, "append_dispatch", "journal.append")
        p(EvaluationJournal, "write_meta", "journal.append")
        p(JsonlTraceWriter, "write", "obs.trace_write")
        p(os, "fsync", "io.fsync")
        # serve
        p(SessionStore, "claim", "serve.claim", after=self._claimed)
        p(SessionStore, "complete", "serve.complete")
        p(SessionStore, "view", "serve.view")
        p(daemon_mod, "run_session", "serve.run_session")
        # utils.parallel, wherever it was imported by name
        for mod in (parallel_mod, bo_mod, forest_mod, importance_mod,
                    gpr_mod):
            p(mod, "parallel_map", "parallel.map")
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            if original is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    # -- folding ------------------------------------------------------------------
    def per_session(self, n_sessions: int) -> dict[str, float]:
        """Counts and busy seconds per session, keyed by metric name."""
        n = max(n_sessions, 1)
        out: dict[str, float] = {}

        def calls(metric: str, key: str) -> None:
            out[metric] = self.calls.get(key, 0) / n

        def secs(metric: str, key: str) -> None:
            out[metric] = self.seconds.get(key, 0.0) / n

        def extra(metric: str, key: str) -> None:
            out[metric] = self.extra.get(key, 0.0) / n

        secs("selection.collect_s", "selection.collect")
        secs("selection.select_s", "selection.select")
        secs("ml.forest_fit_s", "ml.forest_fit")
        calls("ml.forest_fit_calls", "ml.forest_fit")
        secs("ml.importance_s", "ml.importance")
        calls("ml.tree_predict_calls", "ml.tree_predict")
        calls("gp.fit_calls", "gp.fit")
        secs("gp.fit_s", "gp.fit")
        calls("gp.update_calls", "gp.update")
        calls("gp.predict_calls", "gp.predict")
        secs("gp.predict_s", "gp.predict")
        calls("gp.fast_predict_calls", "gp.fast_predict")
        secs("gp.fast_predict_s", "gp.fast_predict")
        extra("gp.fast_predict_points", "gp.fast_predict_points")
        secs("bo.minimize_s", "bo.minimize")
        extra("bo.iterations", "bo.iterations")
        calls("bo.refine_calls", "bo.refine")
        secs("bo.refine_s", "bo.refine")
        extra("bo.refine_nfev", "bo.refine_nfev")
        secs("bo.hedge_s", "bo.hedge")
        extra("bo.fallbacks", "bo.fallbacks")
        decide = self.samples.get("bo.decide_ms", [])
        out["bo.decide_ms.p50"] = median(decide) if decide else 0.0
        out["bo.decide_ms.tail"] = quantile_tail(decide)[0]
        calls("sparksim.run_calls", "sparksim.run")
        secs("sparksim.run_s", "sparksim.run")
        calls("sparksim.run_batch_calls", "sparksim.run_batch")
        secs("sparksim.run_batch_s", "sparksim.run_batch")
        secs("sampling.lhs_s", "sampling.lhs")
        calls("space.decode_calls", "space.decode")
        secs("space.decode_s", "space.decode")
        extra("memo.selection_hits", "memo.selection_hits")
        extra("memo.selection_misses", "memo.selection_misses")
        extra("memo.configs_used", "memo.configs_used")
        calls("journal.append_calls", "journal.append")
        secs("journal.append_s", "journal.append")
        calls("obs.trace_writes", "obs.trace_write")
        secs("obs.trace_write_s", "obs.trace_write")
        calls("io.fsyncs", "io.fsync")
        secs("io.fsync_s", "io.fsync")
        calls("serve.claim_calls", "serve.claim")
        extra("serve.claim_empty", "serve.claim_empty")
        secs("serve.claim_s", "serve.claim")
        secs("serve.run_session_s", "serve.run_session")
        secs("serve.complete_s", "serve.complete")
        calls("serve.view_calls", "serve.view")
        secs("serve.view_s", "serve.view")
        calls("parallel.map_calls", "parallel.map")
        secs("parallel.map_s", "parallel.map")
        return out

    def decide_tail_pct(self) -> float:
        return quantile_tail(self.samples.get("bo.decide_ms", []))[1]
