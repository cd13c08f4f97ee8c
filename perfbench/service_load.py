"""The paper-service workload: ``repro serve`` driven over HTTP.

The server runs as its own process with ``repro serve`` defaults
(process workers, 2 workers, durable journal) and a fresh cache
directory inside the benchmark's work directory.  Load is a closed loop
from one client over ``ServiceClient``: each cycle submits one cold
``kind: "scenario"`` job with a fresh ``base_seed`` (so it must
simulate), waits for its result, then resubmits completed specs, which
the registry answers without simulating.  Cycles come in pairs, one
convolution and one LULESH, so every pass mixes the two kinds equally.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List

from repro.service.client import ServiceClient

from inputs import convolution_scenario, lulesh_scenario, service_base_seed

#: Warm resubmits after each cold job.
WARM_PER_CYCLE = 6

#: A scenario small enough to warm both workers' imports before timing.
_WARMUP = {
    "workload": "halo2d",
    "params": {"nx": 16, "ny": 16, "steps": 3},
    "machine": {"name": "laptop", "cores": 4},
    "process_counts": [1, 2, 4],
}

_URL = re.compile(r"listening on (http://\S+)")


def _job(scenario: Dict[str, Any]) -> Dict[str, Any]:
    return {"kind": "scenario", "client": "perfbench", "scenario": scenario}


def canonical(result: Dict[str, Any]) -> bytes:
    return json.dumps(result, sort_keys=True).encode()


class Server:
    """One ``repro serve`` process; ``startup_s`` is start -> /healthz."""

    def __init__(self, root: str, cache_dir: str, log_path: str, env):
        self.log = open(log_path, "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--cache-dir", cache_dir],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.log,
            start_new_session=True,
        )
        try:
            self.url = self._read_url(deadline=time.monotonic() + 60)
            self.client = ServiceClient(self.url, timeout=120, retries=0)
            while True:
                try:
                    self.client.health()
                    break
                except Exception:  # noqa: BLE001 - not up yet
                    if self.proc.poll() is not None or \
                            time.perf_counter() - t0 > 60:
                        raise
                    time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - t0

    def _read_url(self, deadline: float) -> str:
        out = self.proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([out], [], [], 0.5)
            if ready:
                line = out.readline().decode("utf-8", "replace")
                if not line:
                    break
                m = _URL.search(line)
                if m:
                    return m.group(1)
        raise RuntimeError("repro serve did not report its address")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill the group if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.communicate()
        self.log.close()


def cold_job(client: ServiceClient, scenario: Dict[str, Any],
             trace: bool = False) -> Dict[str, Any]:
    """Submit -> result for a job that must simulate."""
    t0 = time.perf_counter()
    receipt = client.submit(_job(scenario), trace=trace)
    t1 = time.perf_counter()
    job_id, after = receipt["job_id"], 0
    while not receipt.get("cached"):
        chunk = client.progress(job_id, after=after, wait=5.0)
        after = chunk["next"]
        if chunk["done"]:
            break
    t2 = time.perf_counter()
    result = client.result(job_id)["result"]
    t3 = time.perf_counter()
    return {"job_id": job_id, "latency_s": t3 - t0, "submit_s": t1 - t0,
            "result_fetch_s": t3 - t2, "cached": bool(receipt.get("cached")),
            "result": result}


def warm_job(client: ServiceClient, scenario: Dict[str, Any]) -> Dict[str, Any]:
    """Submit -> result for a resubmit the registry should serve."""
    t0 = time.perf_counter()
    receipt = client.submit(_job(scenario))
    t1 = time.perf_counter()
    result = client.result(receipt["job_id"])["result"]
    t2 = time.perf_counter()
    return {"latency_s": t2 - t0, "submit_s": t1 - t0,
            "result_fetch_s": t2 - t1, "cached": bool(receipt.get("cached")),
            "result": result}


def warm_up(client: ServiceClient) -> None:
    """Run two tiny jobs at once so both workers finish their lazy
    start-up before anything is timed."""
    ids = [client.submit(_job({**_WARMUP, "base_seed": s}))["job_id"]
           for s in (1, 2)]
    for job_id in ids:
        client.wait(job_id, timeout=120, poll=0.05)


def run_cycles(client: ServiceClient, seed: int, seconds: float,
               clock=None, trace: bool = False, min_pairs: int = 2):
    """Closed-loop cycle pairs until the next pair would overrun.

    With a ``clock`` (a ``hostspeed.HostSpeed``), every job record also
    gets its latency normalised to the nominal host speed, ``norm_s``.
    Returns (pair seconds, cold job records, warm job records).
    """
    kinds = (convolution_scenario, lulesh_scenario)
    pairs: List[float] = []
    colds: List[Dict[str, Any]] = []
    warms: List[Dict[str, Any]] = []
    done: List[Dict[str, Any]] = []
    start = time.perf_counter()
    cycle = 0
    while True:
        t_pair = time.perf_counter()
        for make in kinds:
            scenario = make(seed, service_base_seed(seed, cycle))
            rec = cold_job(client, scenario, trace=trace)
            if clock is not None:
                rec["norm_s"] = clock.normalise(rec["latency_s"])
            rec["scenario"] = scenario
            rec["kind"] = scenario["workload"]
            rec["cycle"] = cycle
            colds.append(rec)
            done.append(rec)
            for _ in range(WARM_PER_CYCLE):
                target = done[len(warms) % len(done)]
                w = warm_job(client, target["scenario"])
                if clock is not None:
                    w["norm_s"] = clock.normalise(w["latency_s"])
                w["of"] = target["job_id"]
                w["kind"] = target["kind"]
                warms.append(w)
            cycle += 1
        pairs.append(time.perf_counter() - t_pair)
        elapsed = time.perf_counter() - start
        if len(pairs) >= min_pairs and elapsed + max(pairs) > seconds:
            break
    return pairs, colds, warms


def job_timestamps(client: ServiceClient, job_id: str) -> Dict[str, float]:
    """Queue wait and worker run time from the job's stored record."""
    rec = client.status(job_id)
    return {
        "queue_wait_s": rec["started_at"] - rec["submitted_at"],
        "worker_run_s": rec["finished_at"] - rec["started_at"],
    }


def trace_span_totals(doc: Dict[str, Any]) -> Dict[str, float]:
    """Seconds per span name in a job's Chrome trace document."""
    totals: Dict[str, float] = {}
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") == "X":
            totals[ev["name"]] = totals.get(ev["name"], 0.0) + ev["dur"] / 1e6
    return totals


def registry_hits(client: ServiceClient) -> float:
    """``repro_registry_hits_total`` (submissions served from the
    registry) from ``/metrics``."""
    for line in client.metrics_text().splitlines():
        if line.startswith("repro_registry_hits_total "):
            return float(line.split()[1])
    return 0.0
