"""Workload inputs of the benchmark, generated from the ``--seed`` argument.

A workload is a list of *operations*.  An operation is either a scenario
sweep (``ScenarioSpec.from_dict`` -> ``run_scenario`` ->
``scenario_payload``, what ``repro run --scenario`` does) or a direct
``run_mpi`` call.  One *pass* executes every operation once, in order.
Everything here uses the configuration a user gets by default: no
engine, macro-step or analytic-collective flags, ``jobs=1`` and no run
cache.

The seed only changes the simulated inputs (scenario ``base_seed``,
key/image seeds, the ``run_mpi`` seed), not the shape of the work: the
same sweeps at the same scales, the same message counts per pattern.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

#: Seed used when ``--seed`` is not given; ``reference.json`` holds the
#: oracle digests of every operation for this seed.
DEFAULT_SEED = 1

#: Execution counters that differ between execution tiers (threads,
#: interpreter, macro-step replay) while the simulated answer does not.
#: They are reported as per-layer counters, never digested.
EXEC_COUNTERS = ("sched_steps", "rounds_captured", "rounds_replayed", "deopts")

ALLREDUCE_P = 256
ALLREDUCE_ROUNDS = 48
ALLREDUCE_WIDTH = 16


@dataclass(frozen=True)
class Op:
    """One operation of a pass."""

    name: str
    kind: str                      # "sweep" | "run"
    scenario: Optional[Dict[str, Any]] = None
    p: int = 0
    seed: int = 0


def _scenario(workload: str, params: Dict[str, Any], machine: Dict[str, Any],
              process_counts: List[int], base_seed: int) -> Dict[str, Any]:
    return {
        "workload": workload,
        "params": params,
        "machine": machine,
        "process_counts": process_counts,
        "base_seed": base_seed,
    }


def _sweep(name: str, *args) -> Op:
    return Op(name, "sweep", scenario=_scenario(*args))


def convolution_scenario(seed: int, base_seed: int) -> Dict[str, Any]:
    """The paper's convolution scenario, image shrunk so that one cold
    service job costs about as much as the LULESH one (about 2 s)."""
    return _scenario("convolution",
                     {"height": 192, "width": 288, "steps": 60,
                      "image_seed": seed},
                     {"name": "nehalem"}, [1, 8, 32, 64], base_seed)


def lulesh_scenario(seed: int, base_seed: int) -> Dict[str, Any]:
    """LULESH at s=12 on the KNL node model."""
    del seed  # LULESH has no input data besides the point seeds
    return _scenario("lulesh", {"s": 12}, {"name": "knl"}, [1, 8, 27],
                     base_seed)


def service_base_seed(seed: int, cycle: int) -> int:
    """A fresh ``base_seed`` per service cycle, so every cold job must
    simulate (no registry record or run-cache point can match it)."""
    return 1_000_000 * (seed + 1) + 10 * cycle


def workload_ops(workload: str, seed: int) -> List[Op]:
    """The operations of one pass of ``workload`` for ``seed``."""
    if workload == "steady-rounds":
        return [
            _sweep("halo2d-sweep", "halo2d",
                   {"nx": 128, "ny": 128, "steps": 48},
                   {"name": "nehalem"}, [1, 16, 64, 256], seed),
            Op("allreduce-churn", "run", p=ALLREDUCE_P, seed=seed),
        ]
    if workload == "irregular-comm":
        return [
            _sweep("bucketsort-sweep", "bucketsort",
                   {"n_local": 2048, "key_seed": seed},
                   {"name": "nehalem"}, [1, 16, 64, 128], seed),
            _sweep("taskfarm-sweep", "taskfarm", {"ntasks": 1024},
                   {"name": "nehalem"}, [1, 16, 64, 128], seed),
        ]
    if workload == "wide-launch":
        return [
            _sweep("halo2d-wide", "halo2d", {"nx": 256, "ny": 256, "steps": 2},
                   {"name": "nehalem", "nodes": 256}, [1024], seed),
        ]
    if workload == "paper-service":
        # The in-process twin of the first service cycle pair: profiled
        # and counted here because worker processes are opaque to
        # cProfile and to RunResult counters.
        return [
            Op("convolution", "sweep",
               scenario=convolution_scenario(seed, service_base_seed(seed, 0))),
            Op("lulesh", "sweep",
               scenario=lulesh_scenario(seed, service_base_seed(seed, 1))),
        ]
    raise KeyError(workload)


# -- the allreduce churn -----------------------------------------------------

def allreduce_main(rounds: int = ALLREDUCE_ROUNDS):
    """Latency-bound 16-double ``g_Allreduce`` churn.

    Rank ``r`` contributes ``r + round + i`` in slot ``i``; every sum is
    an integer far below 2**53, so the result is exact whatever order
    the reduction adds in and :func:`allreduce_expected` is its closed
    form.
    """
    import numpy as np

    from repro.simmpi import SUM

    def gmain(ctx):
        slots = np.arange(float(ALLREDUCE_WIDTH))
        total = 0.0
        for rnd in range(rounds):
            ctx.compute(1e-6)
            out = np.empty(ALLREDUCE_WIDTH)
            yield from ctx.comm.g_Allreduce(slots + (ctx.rank + rnd), out, SUM)
            total += float(out.sum())
        return total

    return gmain


def allreduce_expected(p: int = ALLREDUCE_P,
                       rounds: int = ALLREDUCE_ROUNDS) -> float:
    """Closed form of every rank's return value in :func:`allreduce_main`."""
    return float(sum(
        p * (p - 1) // 2 + p * (rnd + i)
        for rnd in range(rounds) for i in range(ALLREDUCE_WIDTH)
    ))


def run_allreduce(op: Op, **engine_flags):
    """Execute the churn through ``run_mpi`` (default flags unless the
    reference generator passes oracle flags)."""
    from repro.machine.catalog import machine_from_dict
    from repro.simmpi.engine import run_mpi

    return run_mpi(op.p, allreduce_main(), machine=machine_from_dict(
        {"name": "nehalem"}), seed=op.seed, **engine_flags)


# -- digests -------------------------------------------------------------------

def _sha(obj: Any) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=repr).encode("utf-8")
    ).hexdigest()


def point_observables(progress_lines: List[str]) -> List[List[str]]:
    """(point, virtual wall, message count) parsed from the progress
    lines ``run_scenario`` emits for every simulated point."""
    out = []
    for line in progress_lines:
        head, _, rest = line.partition(": ")
        fields = dict(f.split("=", 1) for f in rest.split() if "=" in f)
        out.append([head, fields.get("wall", ""), fields.get("msgs", "")])
    return out


def sweep_digest(payload: Dict[str, Any], progress_lines: List[str]) -> str:
    """Digest of a sweep's simulated observables.

    Covers the profile JSON, the plugin metrics, the interval records,
    the timeline and every point's virtual wall time and message count.
    The spec echo and its content key are left out (an oracle run names
    its engine in the spec), and so are the execution counters.
    """
    metrics = {
        p: {k: v for k, v in m.items() if k not in EXEC_COUNTERS}
        for p, m in payload["metrics"].items()
    }
    return _sha({
        "profile_json": payload["profile_json"],
        "metrics": metrics,
        "failures": payload["failures"],
        "summary": payload["summary"],
        "intervals": payload["intervals"],
        "timeline": payload["timeline"],
        "points": point_observables(progress_lines),
    })


def run_digest(res) -> str:
    """Digest of a direct run's observables: clocks, results, virtual
    wall time, network counters and section events."""
    return _sha({
        "clocks": [float(c).hex() for c in res.clocks],
        "results": [float(r).hex() for r in res.results],
        "walltime": float(res.walltime).hex(),
        "network": res.network,
        "section_events": [repr(e) for e in res.section_events],
    })


def canonical_bytes(payload: Dict[str, Any]) -> bytes:
    """The artifact encoding ``repro run --scenario --out`` writes."""
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()

