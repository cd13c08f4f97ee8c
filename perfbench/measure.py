"""Pass execution and the views of a pass the benchmark takes.

* timed untraced passes give the end-to-end numbers;
* one traced pass (``repro.obs`` on through its public API, plus the
  benchmark's own spans around each public call) gives the span metrics;
* one cProfile pass gives self-time shares per module bucket;
* one counter pass re-runs every point through the plugin's public
  ``run`` to read the ``RunResult`` counters the sweep API folds away.
"""

from __future__ import annotations

import cProfile
import gc
import json
import pstats
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

import repro.service.jobs  # noqa: F401 - scenario_payload imports it lazily
from repro import obs
from repro.harness.scenario import run_scenario, scenario_payload
from repro.scenarios import ScenarioSpec

from hostspeed import HostSpeed
from inputs import (
    ALLREDUCE_P,
    Op,
    allreduce_expected,
    canonical_bytes,
    point_observables,
    run_allreduce,
    run_digest,
    sweep_digest,
)


#: Renderings of each simulated sweep result, after the sweep, in a
#: timed pass: the library counterpart of a warm service job (the result
#: exists; only ``scenario_payload`` and the JSON wire round trip run).
WARM_RENDERS = 3


def run_op(op: Op, keep_payload: bool = False,
           profiler: Optional[cProfile.Profile] = None,
           warm_renders: int = 0,
           clock: Optional[HostSpeed] = None) -> Dict[str, Any]:
    """Execute one operation; returns its timings, digest and error.

    ``latency_s`` covers the whole public call chain of the operation
    (less the probe runs a ``clock`` makes between a sweep's points).
    ``warm_s`` times ``warm_renders`` further renderings of a sweep's
    result (``scenario_payload``, then the JSON encoding the service
    answers a result request with, decoded as its client does), made
    after the operation and its checks.  With a ``clock``, ``norm_s``
    and every ``warm_s`` entry are normalised to the nominal host speed
    and ``warm_raw_s`` keeps the raw render times.  ``profiler``, when
    given, runs over exactly the operation's calls.  An exception or a
    failed check makes the operation count as failed; it never stops
    the run.
    """
    rec: Dict[str, Any] = {"name": op.name, "error": None, "warm_s": [],
                           "warm_raw_s": []}
    lines: List[str] = []

    def progress(line: str) -> None:
        lines.append(line)
        if clock is not None:
            clock.split()  # a probe between two points

    gc.collect()  # no garbage of earlier operations collected in this one
    if profiler is not None:
        profiler.enable()
    if clock is not None:
        clock.start()
    t0 = time.perf_counter()
    try:
        if op.kind == "sweep":
            with obs.span("bench.spec", layer="scenarios"):
                spec = ScenarioSpec.from_dict(op.scenario)
            with obs.span("bench.run_scenario", layer="harness"):
                profile, metrics, intervals = run_scenario(
                    spec, progress=progress, jobs=1)
            with obs.span("bench.payload", layer="analysis"):
                payload = scenario_payload(spec, profile, metrics, intervals)
                canonical_bytes(payload)
        else:
            with obs.span("bench.run_mpi", layer="engine"):
                res = run_allreduce(op)
        t1 = time.perf_counter()
    except Exception as exc:  # noqa: BLE001 - a failed op is a measurement
        rec["latency_s"] = time.perf_counter() - t0
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec
    finally:
        if profiler is not None:
            profiler.disable()
    rec["latency_s"] = t1 - t0
    if clock is not None:
        rec["latency_s"], rec["norm_s"] = clock.stop()
    if op.kind == "sweep":
        rec["digest"] = sweep_digest(payload, lines)
        rec["points"] = point_observables(lines)
        if keep_payload:
            rec["payload"] = payload
        del payload
        for _ in range(warm_renders):
            gc.collect()
            t2 = time.perf_counter()
            json.loads(json.dumps(
                scenario_payload(spec, profile, metrics, intervals)))
            raw = time.perf_counter() - t2
            rec["warm_raw_s"].append(raw)
            rec["warm_s"].append(clock.normalise(raw) if clock else raw)
    else:
        want = allreduce_expected(op.p)
        if res.results != [want] * ALLREDUCE_P:
            rec["error"] = f"results differ from the closed form {want}"
        rec["digest"] = run_digest(res)
    return rec


def run_pass(ops: List[Op], keep_payload: bool = False,
             profiler: Optional[cProfile.Profile] = None,
             warm_renders: int = 0, clock: Optional[HostSpeed] = None,
             ) -> Tuple[float, List[Dict[str, Any]]]:
    """One pass over ``ops``: (seconds, per-op records).  The pass's
    seconds are the sum of its operations' raw latencies."""
    records = [run_op(op, keep_payload, profiler, warm_renders, clock)
               for op in ops]
    return sum(r["latency_s"] for r in records), records


def timed_passes(ops: List[Op], seconds: float, clock: HostSpeed,
                 min_passes: int = 2):
    """Untraced passes until the next one would overrun ``seconds``,
    every operation and render timed against the host-speed probe.

    Returns the list of (seconds, records) of every pass.
    """
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(ops, warm_renders=WARM_RENDERS, clock=clock))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if (len(passes) >= min_passes
                and elapsed + statistics.median(walls) > seconds):
            return passes


# -- traced pass ----------------------------------------------------------------

def traced_pass(ops: List[Op]):
    """One pass with ``repro.obs`` tracing on; returns (seconds, records,
    span metrics, spans dropped by the ring buffer)."""
    tracer = obs.start_trace("perfbench.pass", layer="bench")
    try:
        seconds, records = run_pass(ops)
    finally:
        tracer = obs.finish_trace()
    total: Dict[str, float] = {}
    for sp in tracer.spans():
        total[sp.name] = total.get(sp.name, 0.0) + sp.duration
    get = total.get
    point_s = get("point.simulate", 0.0)
    run_scen_s = get("bench.run_scenario", 0.0)
    spans = {
        "scenarios.spec_s": get("bench.spec", 0.0),
        "harness.run_scenario_s": run_scen_s,
        "analysis.payload_s": get("bench.payload", 0.0),
        "harness.point_s": point_s,
        "simmpi.engine.init_s": (point_s + get("bench.run_mpi", 0.0)
                                 - get("engine.run", 0.0)),
        "simmpi.engine.setup_s": get("engine.setup", 0.0),
        "simmpi.engine.schedule_s": get("engine.schedule", 0.0),
        "simmpi.engine.finalize_s": get("engine.finalize", 0.0),
        "harness.post_point_s": run_scen_s - point_s,
    }
    return seconds, records, spans, tracer.dropped


# -- counter pass -----------------------------------------------------------------

COUNTERS = (
    "simmpi.engine.sched_steps",
    "simmpi.network.messages",
    "simmpi.network.bytes",
    "simmpi.sections.events",
    "simmpi.macrostep.rounds_captured",
    "simmpi.macrostep.rounds_replayed",
    "simmpi.macrostep.deopts",
    "simmpi.coll_analytic.gated",
    "simmpi.coll_analytic.fast",
)


def _count(acc: Dict[str, float], res) -> None:
    acc["simmpi.engine.sched_steps"] += res.sched_steps
    acc["simmpi.network.messages"] += res.network["messages"]
    acc["simmpi.network.bytes"] += res.network["bytes"]
    acc["simmpi.sections.events"] += len(res.section_events)
    acc["simmpi.macrostep.rounds_captured"] += res.rounds_captured
    acc["simmpi.macrostep.rounds_replayed"] += res.rounds_replayed
    acc["simmpi.macrostep.deopts"] += res.deopts
    acc["simmpi.coll_analytic.gated"] += res.collectives_gated
    acc["simmpi.coll_analytic.fast"] += res.collectives_fast


def counter_pass(ops: List[Op]):
    """RunResult counters summed over one pass, plus the per-point
    (point, wall, messages) observables to cross-check the sweeps."""
    acc = {name: 0 for name in COUNTERS}
    points: Dict[str, List[List[str]]] = {}
    for op in ops:
        if op.kind == "run":
            _count(acc, run_allreduce(op))
            continue
        spec = ScenarioSpec.from_dict(op.scenario)
        plugin = spec.plugin()
        for p in spec.process_counts:
            for rep in range(spec.reps):
                res = plugin.run(
                    p, threads=spec.threads, machine=spec.machine_spec(),
                    ranks_per_node=spec.ranks_per_node,
                    seed=spec.base_seed + 1000 * p + rep,
                    compute_jitter=spec.compute_jitter,
                    noise_floor=spec.noise_floor, faults=spec.faults,
                )
                plugin.check(res)
                _count(acc, res)
                points.setdefault(op.name, []).append([
                    f"{spec.workload} p={p} rep={rep}",
                    f"{res.walltime:.3f}s", str(res.network["messages"]),
                ])
    captured = acc["simmpi.macrostep.rounds_captured"]
    gated = acc["simmpi.coll_analytic.gated"]
    acc["simmpi.macrostep.deopt_ratio"] = (
        acc["simmpi.macrostep.deopts"] / captured if captured else 0.0)
    acc["simmpi.coll_analytic.fast_ratio"] = (
        acc["simmpi.coll_analytic.fast"] / gated if gated else 0.0)
    return acc, points


# -- cProfile pass ----------------------------------------------------------------

SIMMPI_BUCKETS = ("engine", "sched", "network", "p2p", "comm", "collectives",
                  "coll_analytic", "macrostep", "sections_rt")
PACKAGE_BUCKETS = ("workloads", "omp", "machine", "analysis", "core", "harness")
SHARES = (
    [f"share.simmpi.{m}" for m in SIMMPI_BUCKETS]
    + ["share.simmpi.other"]
    + [f"share.{p}" for p in PACKAGE_BUCKETS]
    + ["share.numpy", "share.json", "share.other"]
)


def _bucket(func) -> str:
    """Module bucket of a profiled function; '' for a builtin that is
    charged to its callers instead."""
    filename, _, name = func
    if filename == "~":
        if "numpy" in name:
            return "numpy"
        return "json" if "_json" in name else ""
    path = filename.replace("\\", "/")
    i = path.rfind("/repro/")
    if i >= 0:
        parts = path[i + len("/repro/"):].split("/")
        if parts[0] == "simmpi" and len(parts) > 1:
            mod = parts[1].rsplit(".", 1)[0]
            return f"simmpi.{mod}" if mod in SIMMPI_BUCKETS else "simmpi.other"
        return parts[0] if parts[0] in PACKAGE_BUCKETS else "other"
    if "/numpy/" in path:
        return "numpy"
    return "json" if "/json/" in path else "other"


def profile_shares(profiler: cProfile.Profile):
    """Self-time share per bucket and the total self time (the base).

    Builtins other than numpy's are charged to the bucket of the
    function that called them, edge by edge.
    """
    stats = pstats.Stats(profiler).stats
    acc = {name[len("share."):]: 0.0 for name in SHARES}
    total = 0.0
    for func, (_, _, tt, _, callers) in stats.items():
        total += tt
        bucket = _bucket(func)
        if bucket:
            acc[bucket] += tt
            continue
        charged = 0.0
        for caller, edge in callers.items():
            acc[_bucket(caller) or "other"] += edge[2]
            charged += edge[2]
        acc["other"] += max(tt - charged, 0.0)
    shares = {f"share.{k}": (v / total if total else 0.0) for k, v in acc.items()}
    return shares, total


def profiled_pass(ops: List[Op]):
    """One pass under cProfile; returns (shares, total self seconds)."""
    profiler = cProfile.Profile()
    run_pass(ops, profiler=profiler)
    return profile_shares(profiler)
