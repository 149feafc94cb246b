#!/usr/bin/env python3
"""The repository benchmark: timed ROBOTune tuning sessions.

Run from the repository root::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 22 --trace 0

``--workload`` is one of ``cold``, ``retune``, ``batch4`` and ``served``
(see ``perfbench/workloads.py`` and ``BENCHMARK.json``).  ``--seed`` picks
which pool sessions run and in what order.  ``--seconds`` is the
measurement window: whole rounds of sessions run, at least one, and
another starts only while it is projected to end within the window.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the same session list twice: half the window untraced,
then the same sessions with :class:`perfbench.layers.LayerProbe` attached,
and reports per-layer metrics plus the tracing overhead.

Informational lines go first, each as ``name value unit`` or a ``record``
JSON line with the environment stamp; the last line of standard output is
the result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402  (the import time above is part of setup_s)
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
_IMPORTS = "perfbench.workloads, perfbench.layers, perfbench.envstamp"
_PROBE = ("import time; t = time.perf_counter(); import " + _IMPORTS
          + "; print(time.perf_counter() - t)")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("cold", "retune", "batch4", "served"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_probe() -> float:
    """Import time of the benchmark's program modules in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    out = subprocess.run([sys.executable, "-c", _PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


class Context:
    """What a workload needs before its first timed session."""

    def __init__(self, wk, workload: str, scratch: Path) -> None:
        self.checker = wk.Checker(wk.load_reference())
        self.store = wk.StoreFixture(scratch) \
            if workload in ("retune", "batch4") else None
        self.harness = wk.ServedHarness(scratch) \
            if workload == "served" else None

    def close(self) -> None:
        if self.harness is not None:
            self.harness.close()
            self.harness = None


def set_up(wk, workload: str, scratch: Path, import_s: float):
    """Set up SETUP_REPEATS times and keep the last; then warm up once.

    setup_s is the median set-up plus the warm-up session, which only a
    process's first session needs.
    """
    samples = []
    ctx = None
    for i in range(SETUP_REPEATS):
        if ctx is not None:
            ctx.close()
        imp = import_s if i == 0 else import_probe()
        t = time.perf_counter()
        ctx = Context(wk, workload, scratch)
        samples.append(imp + time.perf_counter() - t)
    t = time.perf_counter()
    wk.warm_up()
    warm_up_s = time.perf_counter() - t
    return ctx, median(samples) + warm_up_s, samples + [warm_up_s]


def measure(wk, ctx: Context, rounds, seconds=None):
    """Closed-loop rounds until the next is projected past *seconds*.

    With *seconds* None, *rounds* is a finite list run in full (the
    traced replay of an untraced pass).
    """
    status_ms: list[float] = []
    submitted: dict[str, float] = {}
    outcomes, taken = [], []
    start = time.perf_counter()
    cpu0 = time.process_time()
    for sessions in rounds:
        taken.append(sessions)
        if ctx.harness is not None:
            outcomes += ctx.harness.run(sessions, ctx.checker,
                                        status_ms=status_ms,
                                        submitted_at=submitted)
        else:
            outcomes += [wk.run_inprocess(slot, ctx.checker, ctx.store)
                         for slot in sessions]
        elapsed = time.perf_counter() - start
        if seconds is not None \
                and elapsed + elapsed / len(taken) > seconds:
            break
    return {"outcomes": outcomes, "rounds": taken,
            "window_s": time.perf_counter() - start,
            "cpu_s": time.process_time() - cpu0,
            "status_ms": status_ms, "submitted": submitted}


def session_metrics(run, workload: str, layers) -> dict:
    """Every end-to-end figure of one pass (gated and informational)."""
    outs = run["outcomes"]
    walls = [o.wall_s for o in outs]
    n = len(outs)
    tail, tail_pct = layers.quantile_tail(walls)
    # Served sessions overlap on daemon threads: charge process CPU evenly.
    if workload == "served":
        cpu_p50 = run["cpu_s"] / n
    else:
        cpu_p50 = median(o.cpu_s for o in outs)
    out = {
        "session_s.p50": (median(walls), "s"),
        "session_s.tail": (tail, "s"),
        "session_s.tail_pct": (tail_pct, "%"),
        "session_s.n": (n, "count"),
        "session_cpu_s.p50": (cpu_p50, "s"),
        "sessions_per_s": (n / run["window_s"], "1/s"),
        "error_rate": (sum(not o.ok for o in outs) / n, "ratio"),
        "best_s.p50": (_nanmedian(o.best_s for o in outs), "s"),
        "search_cost_s.p50": (_nanmedian(o.search_cost_s for o in outs), "s"),
    }
    if run["status_ms"]:
        st, st_pct = layers.quantile_tail(run["status_ms"])
        out["status_ms.p50"] = (median(run["status_ms"]), "ms")
        out["status_ms.tail"] = (st, "ms")
        out["status_ms.tail_pct"] = (st_pct, "%")
        out["status_ms.n"] = (len(run["status_ms"]), "count")
    return out


def _nanmedian(values) -> float:
    xs = [v for v in values if v is not None and math.isfinite(v)]
    return median(xs) if xs else math.nan


def layer_metrics(probe, base_run, traced_run, layers) -> dict:
    """Per-layer metrics of the traced pass, plus shares and overhead."""
    outs = traced_run["outcomes"]
    n = len(outs)
    m = probe.per_session(n)
    wall = sum(o.wall_s for o in outs)
    secs = probe.seconds
    count = probe.extra.get("eval.count", 0.0)
    m["eval.count"] = count / n
    m["eval.ok_ratio"] = probe.extra.get("eval.ok", 0.0) / count \
        if count else 0.0
    waits = [probe.claimed_at[sid] - t
             for sid, t in traced_run["submitted"].items()
             if sid in probe.claimed_at]
    m["serve.queue_wait_s.p50"] = median(waits) if waits else 0.0
    run_session_s = secs.get("serve.run_session", 0.0)
    m["serve.overhead_s"] = (wall - run_session_s) / n if run_session_s \
        else 0.0
    status = base_run["status_ms"]
    m["serve.status_ms.p50"] = median(status) if status else 0.0
    m["serve.status_ms.tail"] = layers.quantile_tail(status)[0]
    base_p50 = median(o.wall_s for o in base_run["outcomes"])
    traced_p50 = median(o.wall_s for o in outs)
    m["trace.untraced_session_s.p50"] = base_p50
    m["trace.traced_session_s.p50"] = traced_p50
    m["trace.overhead_ratio"] = traced_p50 / base_p50
    m["share.base_session_s"] = wall / n
    shares = {
        "share.selection": secs.get("selection.collect", 0.0)
        + secs.get("selection.select", 0.0),
        "share.bo": secs.get("bo.minimize", 0.0),
        "share.refine": secs.get("bo.refine", 0.0),
        "share.gp_fit": secs.get("gp.fit", 0.0) + secs.get("gp.update", 0.0),
        "share.sparksim": secs.get("sparksim.run", 0.0)
        + secs.get("sparksim.run_batch", 0.0),
        "share.fsync": secs.get("io.fsync", 0.0),
        "share.serve_overhead": wall - run_session_s if run_session_s
        else 0.0,
    }
    m.update({k: v / wall for k, v in shares.items()})
    return m


def unit_of(name: str) -> str:
    """Per-layer units follow the metric names' suffixes."""
    if name == "share.base_session_s":
        return "s"
    if name.startswith("share.") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith(("_ms.p50", "_ms.tail")):
        return "ms"
    if name.endswith("_s.p50"):
        return "s"
    if name.endswith("_s"):
        return "s/session"
    return "count/session"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import envstamp, layers
    from perfbench import workloads as wk
    import_s = time.perf_counter() - T0

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=tmp_root))
    ctx = None
    try:
        ctx, setup_s, setup_samples = set_up(wk, args.workload, scratch,
                                             import_s)
        rounds = wk.schedule(args.workload, args.seed)
        if not args.trace:
            run = measure(wk, ctx, rounds, args.seconds)
            runs = [run]
            info = session_metrics(run, args.workload, layers)
            gated = {
                "setup_s": (setup_s, "s"),
                "session_s.p50": info["session_s.p50"],
                "session_cpu_s.p50": info["session_cpu_s.p50"],
                "sessions_per_s": info["sessions_per_s"],
                "peak_rss_mb": (resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        else:
            base = measure(wk, ctx, rounds, args.seconds / 2)
            with layers.LayerProbe() as probe:
                traced = measure(wk, ctx, base["rounds"])
            runs = [base, traced]
            info = session_metrics(base, args.workload, layers)
            info.update({f"traced.{k}": v for k, v in
                         session_metrics(traced, args.workload,
                                         layers).items()})
            info["bo.decide_ms.tail_pct"] = (probe.decide_tail_pct(), "%")
            gated = {k: (v, unit_of(k)) for k, v in
                     layer_metrics(probe, base, traced, layers).items()}

        outcomes = [o for r in runs for o in r["outcomes"]]
        failed = [o for o in outcomes if not o.ok]
        problems = [f"{o.key}: {o.error}" for o in failed]
        if ctx.store is not None and not ctx.store.unchanged():
            problems.append("retune store fixture was modified")
        store_path = ctx.harness.root if ctx.harness is not None else scratch
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "setup_s.samples_and_warm_up": setup_samples,
                  "poll_interval_s": wk.POLL_S
                  if args.workload == "served" else None,
                  "outstanding": wk.OUTSTANDING
                  if args.workload == "served" else 1,
                  "sessions": [[o.key, round(o.wall_s, 4), round(o.cpu_s, 4)]
                               for o in outcomes],
                  "env": envstamp.stamp(store_path)}
    finally:
        if ctx is not None:
            ctx.close()
        shutil.rmtree(scratch, ignore_errors=True)

    for name, (value, unit) in {**info, **gated}.items():
        print(f"{name} {value:.6g} {unit}")
    for problem in problems:
        print(f"FAILED {problem}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in gated.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
