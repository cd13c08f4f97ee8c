#!/usr/bin/env python3
"""Write ``perfbench/reference.json``: oracle digests for the default seed.

Every operation of every workload at ``DEFAULT_SEED`` runs once on the
thread-per-rank engine (the reference oracle), with the analytic
collective path and macro-step replay off.  The benchmark then requires
its default-configuration runs to reproduce these digests exactly.

Run from the repository root (takes a few minutes)::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Service cycles covered (cold jobs per run stay well below this).
SERVICE_CYCLES = 16


def _sweep(scenario, lines):
    from repro.harness.scenario import run_scenario, scenario_payload
    from repro.scenarios import ScenarioSpec

    spec = ScenarioSpec.from_dict({**scenario, "engine": "threads",
                                   "macrostep": False})
    return scenario_payload(spec, *run_scenario(
        spec, progress=lines.append, jobs=1))


def main() -> int:
    os.environ["REPRO_COLL_ANALYTIC"] = "0"
    sys.path.insert(0, str(SRC))
    from inputs import (
        DEFAULT_SEED, convolution_scenario, lulesh_scenario, run_allreduce,
        run_digest, service_base_seed, sweep_digest, workload_ops,
    )

    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in ("steady-rounds", "irregular-comm", "wide-launch"):
        digests = {}
        for op in workload_ops(workload, DEFAULT_SEED):
            t0 = time.perf_counter()
            if op.kind == "run":
                digests[op.name] = run_digest(run_allreduce(
                    op, engine="threads", coll_analytic=False, macrostep=False))
            else:
                lines = []
                payload = _sweep(op.scenario, lines)
                digests[op.name] = sweep_digest(payload, lines)
            print(f"{workload} {op.name}: "
                  f"{time.perf_counter() - t0:.1f}s", flush=True)
        out["workloads"][workload] = digests
    service = {}
    for cycle in range(SERVICE_CYCLES):
        make = (convolution_scenario, lulesh_scenario)[cycle % 2]
        scenario = make(DEFAULT_SEED, service_base_seed(DEFAULT_SEED, cycle))
        t0 = time.perf_counter()
        service[f"cycle-{cycle}"] = sweep_digest(
            _sweep(scenario, []), [])
        print(f"paper-service cycle {cycle}: "
              f"{time.perf_counter() - t0:.1f}s", flush=True)
    out["workloads"]["paper-service"] = service
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
