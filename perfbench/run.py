#!/usr/bin/env python3
"""End-to-end benchmark of the simulator on its default configuration.

Usage (from the repository root)::

    python3 perfbench/run.py --workload steady-rounds --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes a separate traced run that yields the per-layer
metrics (``repro.obs`` spans, ``RunResult`` counters, cProfile module
shares and, for the service, job-record timings).  Every metric is
printed by name with its unit, and the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The benchmark drives public entry points only, with default flags:
``ScenarioSpec.from_dict`` -> ``run_scenario`` -> ``scenario_payload``,
``run_mpi``, and ``repro serve`` over HTTP through ``ServiceClient``.
It imports the package from ``src/`` next to this directory and exits
with code 2, printing no result, when that tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("steady-rounds", "irregular-comm", "wide-launch", "paper-service")

#: Fresh interpreters (or server starts) per run; setup_s is their median.
SETUP_REPS = 5

#: Run in each fresh interpreter: what a user's process pays before its
#: first simulation (import, plugin discovery, spec validation).
_SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import repro
import repro.harness.scenario, repro.simmpi.engine
from repro.workloads import registry
registry.discover()
from repro.scenarios import ScenarioSpec
for s in json.loads(sys.argv[2]):
    ScenarioSpec.from_dict(s)
"""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Tally:
    """Operations attempted and failed, with the reason of each failure.

    An operation fails once however many of its checks fail.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = set()
        self.failures = []

    def op(self, what, error=None):
        self.attempted += 1
        self.check(what, not error, error)

    def check(self, what, ok, why):
        """Count a failed correctness check against the op ``what``."""
        if not ok:
            self.failed.add(what)
            self.failures.append(f"{what}: {why}")


def _env(work):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work)
    return env


def _setup_times(env, scenarios, clock):
    """Normalised wall seconds of SETUP_REPS fresh interpreters doing
    _SETUP_CODE."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), json.dumps(scenarios)],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(clock.normalise(time.perf_counter() - t0))
    return times


def _reference(workload, seed):
    from inputs import DEFAULT_SEED

    if seed != DEFAULT_SEED:
        return None
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload, {})


def _check_passes(tally, passes, reference):
    """Every pass must reproduce the first one, and the reference."""
    first = {r["name"]: r for r in passes[0][1]}
    for i, (_, records) in enumerate(passes):
        for rec in records:
            tally.op(f"pass {i} {rec['name']}", rec["error"])
            if rec["error"]:
                continue
            tally.check(f"pass {i} {rec['name']}",
                        rec["digest"] == first[rec["name"]]["digest"],
                        "observables differ from the first pass")
            if reference is not None:
                tally.check(f"pass {i} {rec['name']}",
                            reference.get(rec["name"]) == rec["digest"],
                            "observables differ from the oracle reference")


# -- simulation workloads ------------------------------------------------------

def sim_end_to_end(workload, seed, seconds, env, tally):
    from hostspeed import HostSpeed
    from inputs import workload_ops
    from measure import timed_passes

    ops = workload_ops(workload, seed)
    clock = HostSpeed()
    setup = _setup_times(env, [op.scenario for op in ops if op.scenario],
                         clock)
    passes = timed_passes(ops, seconds, clock)
    _check_passes(tally, passes, _reference(workload, seed))
    for i, (seconds_, recs) in enumerate(passes):
        print(f"pass {i}: raw {seconds_:.4f} s  " + "  ".join(
            f"{r['name']}={r['latency_s']:.4f}/{r.get('norm_s', 0):.4f}"
            for r in recs))
    done = [r for _, recs in passes for r in recs if not r["error"]]
    raw = _by_kind((r["name"], r["latency_s"]) for r in done)
    cold = _by_kind((r["name"], r["norm_s"]) for r in done)
    warm = _by_kind((r["name"], t) for r in done for t in r["warm_s"])
    _print_raw(clock, raw, _by_kind((r["name"], t) for r in done
                                    for t in r["warm_raw_s"]))
    return _end_to_end(setup, sum(map(statistics.median, cold.values())),
                       resource.getrusage(resource.RUSAGE_SELF), cold, warm)


def _print_raw(clock, cold, warm):
    """The raw (not normalised) medians and the probe's, for reading
    alongside the normalised metrics."""
    from hostspeed import NOMINAL_S

    print(f"probe: median {statistics.median(clock.probes):.4f} s "
          f"(n={len(clock.probes)}, nominal {NOMINAL_S} s)")
    for what, samples in (("cold", cold), ("warm", warm)):
        print(f"raw {what} median: " + "  ".join(
            f"{k}={statistics.median(v):.4f}" for k, v in samples.items()))


def _by_kind(samples):
    """{kind: [seconds]} from (kind, seconds) pairs."""
    out = {}
    for kind, seconds in samples:
        out.setdefault(kind, []).append(seconds)
    return out


def _end_to_end(setup, pass_s, rusage, cold, warm):
    """The end-to-end metrics as (value, unit, sample count).

    ``cold`` and ``warm`` map each operation kind to its normalised
    latencies.  Job latencies are medians per kind averaged over the
    kinds: kinds differ in size, so a pooled median would jump between
    them as the run's mix of kinds changes.
    """
    count = lambda d: sum(map(len, d.values()))  # noqa: E731
    per_kind = lambda d: statistics.mean(  # noqa: E731
        map(statistics.median, d.values()))
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "pass_s": (pass_s, "s", count(cold)),
        "peak_rss_mb": (rusage.ru_maxrss / 1024.0, "MB", 1),
        "cold_job_s.p50": (per_kind(cold), "s", count(cold)),
        "warm_job_s.p50": (per_kind(warm), "s", count(warm)),
    }


def sim_per_layer(ops, tally, reference):
    """Untraced, traced, cProfile and counter passes over ``ops``.

    Returns the per-layer metrics and the untraced pass's records.
    """
    from measure import COUNTERS, counter_pass, profiled_pass, run_pass, traced_pass

    untraced_s, base = run_pass(ops, keep_payload=True)
    traced_s, traced, spans, dropped = traced_pass(ops)
    shares, self_total = profiled_pass(ops)
    counters, points = counter_pass(ops)
    # Tracing must not change what is simulated: the traced pass is
    # checked against the untraced one exactly like a repeated pass.
    _check_passes(tally, [(untraced_s, base), (traced_s, traced)], reference)
    first = {r["name"]: r for r in base}
    for name, pts in points.items():
        tally.op(f"counter pass {name}")
        tally.check(f"counter pass {name}", pts == first[name].get("points"),
                    "plugin.run points differ from run_scenario points")
    tally.op("traced pass spans", f"{dropped} spans dropped" if dropped else None)

    msgs = counters["simmpi.network.messages"]
    metrics = {name: (value, "s") for name, value in spans.items()}
    metrics["simmpi.engine.schedule_us_per_msg"] = (
        spans["simmpi.engine.schedule_s"] * 1e6 / msgs if msgs else 0.0, "us")
    metrics["obs.untraced_pass_s"] = (untraced_s, "s")
    metrics["obs.traced_pass_s"] = (traced_s, "s")
    metrics["obs.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    for name in COUNTERS:
        metrics[name] = (counters[name], "count")
    metrics["simmpi.macrostep.deopt_ratio"] = (
        counters["simmpi.macrostep.deopt_ratio"], "ratio")
    metrics["simmpi.coll_analytic.fast_ratio"] = (
        counters["simmpi.coll_analytic.fast_ratio"], "ratio")
    metrics["profile.self_s"] = (self_total, "s")
    for name, value in shares.items():
        metrics[name] = (value, "ratio")
    return metrics, base


SERVICE_LAYER = {
    "harness.cache.get_s": "s",
    "harness.cache.put_s": "s",
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.worker_run_s": "s",
    "service.result_fetch_s": "s",
    "service.warm_submits": "count",
    "service.registry_hit_ratio": "ratio",
    "service.result_bytes": "B",
}


# -- the service workload ------------------------------------------------------

def _start_servers(env, work, clock):
    """SETUP_REPS fresh servers, with their normalised start-up seconds;
    all but the last are stopped again."""
    from service_load import Server

    servers, times = [], []
    for i in range(SETUP_REPS):
        srv = Server(str(ROOT), str(work / f"cache{i}"),
                     str(work / "serve.log"), env)
        times.append(clock.normalise(srv.startup_s))
        if i < SETUP_REPS - 1:
            srv.stop()
        servers.append(srv)
    return servers[-1], times


def _check_service(tally, colds, warms, library, reference):
    """Warm results byte-equal their cold result; cold results byte-equal
    the library payload where ``library`` has it (one pair of cycles: the
    rest are covered by the reference digest at the default seed)."""
    from inputs import sweep_digest
    from service_load import canonical

    by_id = {}
    for rec in colds:
        tally.op(f"cold job cycle {rec['cycle']}")
        body = canonical(rec["result"])
        by_id[rec["job_id"]] = body
        tally.check(f"cold job cycle {rec['cycle']}", not rec["cached"],
                    "a fresh base_seed was served from the registry")
        if rec["cycle"] in library:
            tally.check(f"cold job cycle {rec['cycle']}",
                        body == canonical(library[rec["cycle"]]),
                        "service result differs from the library "
                        "scenario_payload")
        if reference is not None:
            tally.check(f"cold job cycle {rec['cycle']}",
                        reference.get(f"cycle-{rec['cycle']}")
                        == sweep_digest(rec["result"], []),
                        "service result differs from the oracle reference")
    for i, rec in enumerate(warms):
        tally.op(f"warm job {i}")
        tally.check(f"warm job {i}", rec["cached"],
                    "warm resubmit was not served from the registry")
        tally.check(f"warm job {i}", canonical(rec["result"]) == by_id[rec["of"]],
                    "warm result differs from the cold result")


def _library_payloads(colds):
    """The library's ``scenario_payload`` for the first pair of cycles."""
    from repro.harness.scenario import run_scenario, scenario_payload
    from repro.scenarios import ScenarioSpec

    out = {}
    for rec in colds[:2]:
        spec = ScenarioSpec.from_dict(rec["scenario"])
        out[rec["cycle"]] = scenario_payload(spec, *run_scenario(spec, jobs=1))
    return out


def service_end_to_end(seed, seconds, env, work, tally):
    from hostspeed import HostSpeed
    from service_load import WARM_PER_CYCLE, run_cycles, warm_up

    clock = HostSpeed()
    server, setup = _start_servers(env, work, clock)
    try:
        warm_up(server.client)
        pairs, colds, warms = run_cycles(server.client, seed, seconds, clock)
    finally:
        server.stop()
    _check_service(tally, colds, warms, _library_payloads(colds),
                   _reference("paper-service", seed))
    print("pairs: raw " + " ".join(f"{x:.4f}" for x in pairs))
    for what, recs in (("cold", colds), ("warm", warms)):
        print(f"{what}: " + " ".join(
            f"{r['kind']}={r['latency_s']:.4f}/{r['norm_s']:.4f}" for r in recs))
    _print_raw(clock, _by_kind((r["kind"], r["latency_s"]) for r in colds),
               _by_kind((r["kind"], r["latency_s"]) for r in warms))
    cold = _by_kind((r["kind"], r["norm_s"]) for r in colds)
    warm = _by_kind((r["kind"], r["norm_s"]) for r in warms)
    # A pass is one pair of cycles: one cold job and WARM_PER_CYCLE warm
    # jobs of each kind, each at its kind's median latency in the run.
    pass_s = sum(statistics.median(cold[k])
                 + WARM_PER_CYCLE * statistics.median(warm[k]) for k in cold)
    return _end_to_end(setup, pass_s,
                       resource.getrusage(resource.RUSAGE_CHILDREN), cold, warm)


def service_per_layer(seed, env, work, tally):
    from inputs import workload_ops
    from service_load import (
        Server, job_timestamps, registry_hits, run_cycles, trace_span_totals,
        warm_up,
    )

    ops = workload_ops("paper-service", seed)
    metrics, base = sim_per_layer(ops, tally, None)
    server = Server(str(ROOT), str(work / "cache"), str(work / "serve.log"), env)
    try:
        warm_up(server.client)
        hits0 = registry_hits(server.client)
        _, colds, warms = run_cycles(server.client, seed, 0.0, trace=True,
                                     min_pairs=1)
        hits = registry_hits(server.client) - hits0
        stamps = [job_timestamps(server.client, r["job_id"]) for r in colds]
        spans = [trace_span_totals(server.client.trace(r["job_id"]))
                 for r in colds]
    finally:
        server.stop()
    # The in-process passes ran the same two scenarios as cycles 0 and 1.
    library = {rec["cycle"]: lib.get("payload") for rec, lib in zip(colds, base)}
    _check_service(tally, colds, warms, library, None)
    cached = sum(w["cached"] for w in warms)
    tally.op("registry hit count",
             None if hits == cached else
             f"/metrics counts {hits} registry hits, the client saw {cached}")
    jobs = colds + warms
    metrics.update({
        "harness.cache.get_s": (sum(s.get("cache.get", 0.0) for s in spans), "s"),
        "harness.cache.put_s": (sum(s.get("cache.put", 0.0) for s in spans), "s"),
        "service.submit_s": (statistics.median(j["submit_s"] for j in jobs), "s"),
        "service.queue_wait_s": (
            statistics.median(s["queue_wait_s"] for s in stamps), "s"),
        "service.worker_run_s": (
            statistics.median(s["worker_run_s"] for s in stamps), "s"),
        "service.result_fetch_s": (
            statistics.median(j["result_fetch_s"] for j in jobs), "s"),
        "service.warm_submits": (len(warms), "count"),
        "service.registry_hit_ratio": (cached / len(warms), "ratio"),
        "service.result_bytes": (
            statistics.median(len(json.dumps(r["result"])) for r in colds), "B"),
    })
    return metrics


# -- entry point ---------------------------------------------------------------

def run(args, work, tally):
    from inputs import DEFAULT_SEED, workload_ops

    seed = DEFAULT_SEED if args.seed is None else args.seed
    env = _env(work)
    if args.trace == 0:
        if args.workload == "paper-service":
            return service_end_to_end(seed, args.seconds, env, work, tally)
        return sim_end_to_end(args.workload, seed, args.seconds, env, tally)
    if args.workload == "paper-service":
        metrics = service_per_layer(seed, env, work, tally)
    else:
        metrics, _ = sim_per_layer(workload_ops(args.workload, seed), tally,
                                   _reference(args.workload, seed))
        metrics.update({name: (0.0, unit) for name, unit in SERVICE_LAYER.items()})
    return {name: (value, unit, 1) for name, (value, unit) in metrics.items()}


def run_all(args) -> int:
    """Every workload in its own process (so peak_rss_mb stays per
    workload), then one combined result with ``workload/metric`` names."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        out = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]), flush=True)
        if out.returncode != 0 or not lines:
            return out.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(f"fail_ratio = {combined['failed'] / max(combined['attempted'], 1):.6g}"
          f" ratio ({combined['failed']} of {combined['attempted']} operations)")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]  # default configuration: no env overrides
    # One CPU for this process and every process it starts, so the
    # host-speed probe runs where the measured work runs: the shared
    # host slows its CPUs independently of each other.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=_workdir()))
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    sys.path.insert(0, str(SRC))
    tally = Tally()
    try:
        import repro

        if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
            print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
            return 2
        metrics = run(args, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    for line in tally.failures:
        print(f"FAILED {line}")
    failed = len(tally.failed)
    print(f"fail_ratio = {failed / max(tally.attempted, 1):.6g} ratio "
          f"({failed} of {tally.attempted} operations)")
    for name, (value, unit, n) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + (f" (n={n})" if n > 1 else ""))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def _workdir() -> str:
    path = ROOT / ".perfbench"
    path.mkdir(exist_ok=True)
    return str(path)


if __name__ == "__main__":
    sys.exit(main())
