"""Macro-step capture & replay benchmarks (the steady-state JIT).

Not a paper artifact — these track the perf trajectory of the
thread-free engine's macro-step layer (``repro.simmpi.macrostep``)
across PRs, merged under the ``"macrostep"`` key of the shared
``benchmarks/results/BENCH_engine.json`` (schema 3).

Metrics
-------
Replay drains whole steady-state rounds without per-rank ready-heap
pops where the collective emulator engages, so the raw ``sched_steps``
counter *shrinks* under macro-step.  Throughput is therefore reported
as **equivalent scheduling steps per second**: the interpreted path's
step count divided by each mode's wall-clock — i.e. how fast each mode
retires the *same* simulated work.  The equivalent-steps ratio equals
the wall-clock ratio by construction and is the acceptance number.

Bars
----
* allreduce-heavy p=1024: >= 3x equivalent sched-steps/s (full mode,
  ``coll_analytic`` off).  The same shape under the shipped defaults is
  recorded alongside as ``allreduce_heavy_default``.
* halo2d p=256 steady state: slope of wall-clock vs step count —
  measured between 24 and 96 Jacobi sweeps, which cancels startup,
  capture rounds and the REDUCE tail.  The honest measured ratio is
  ~1.6x (the workload's own numpy, the section runtime and generator
  resumption bound it; see docs/tuning.md), recorded as such with a
  1.25x floor asserted.
* p=4096 smoke: capture & replay complete at the largest scale and the
  artifact records the counters (``macrostep_p4096.txt``).

``REPRO_BENCH_FAST=1`` shrinks shapes and relaxes bars;
``REPRO_PERF_SMOKE=1`` enables the CI regression gates: one fails on
a >30% drop of the replay speedup against the committed baseline, the
other when the shipped defaults run more than 10% slower than the
faster single collective fast path.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.machine.catalog import nehalem_cluster
from repro.simmpi import SUM
from repro.simmpi.engine import run_mpi
from repro.workloads import registry

from benchmarks.conftest import merge_json_artifact, save_artifact

FAST_MODE = os.environ.get("REPRO_BENCH_FAST", "").strip() not in ("", "0")
PERF_SMOKE = os.environ.get("REPRO_PERF_SMOKE", "").strip() not in ("", "0")


def _machine(p):
    return nehalem_cluster(nodes=-(-p // 8), jitter=0.1)


def _allreduce_heavy(rounds):
    """Latency-bound 16-double Allreduce churn (the canonical shape)."""

    def gmain(ctx):
        acc = np.zeros(16)
        for _ in range(rounds):
            ctx.compute(1e-6)
            out = np.empty_like(acc)
            yield from ctx.comm.g_Allreduce(acc + ctx.rank, out, SUM)
            acc = out
        return float(acc[0])

    return gmain


def _best_of(reps, p, gmain, macrostep, coll_analytic=False):
    """Best-of-N wall-clock (min rides out shared-host noise) + result.

    ``None`` for a flag keeps its shipped default.
    """
    t_best, r_best = None, None
    for _ in range(reps):
        t0 = time.perf_counter()
        res = run_mpi(p, gmain, machine=_machine(p), seed=3,
                      coll_analytic=coll_analytic, engine="threadfree",
                      macrostep=macrostep)
        dt = time.perf_counter() - t0
        if t_best is None or dt < t_best:
            t_best, r_best = dt, res
    return t_best, r_best


def _eq(a, b):
    """Recursive exact equality that tolerates numpy payloads."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.dtype == b.dtype and np.array_equal(a, b)
        )
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_eq(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_eq(a[k], b[k]) for k in a))
    return a == b


def _assert_identical(on, off):
    """The bit-identity contract (sched_steps deliberately excluded)."""
    assert on.clocks == off.clocks
    assert _eq(on.results, off.results)
    assert on.walltime == off.walltime
    assert on.network == off.network
    assert on.section_events == off.section_events


def test_macrostep_allreduce_heavy_p1024():
    """Acceptance: >= 3x equivalent sched-steps/s at p=1024 (full mode)."""
    p = 128 if FAST_MODE else 1024
    rounds = 24 if FAST_MODE else 48
    reps = 2 if FAST_MODE else 3
    gmain = _allreduce_heavy(rounds)

    t_on, r_on = _best_of(reps, p, gmain, macrostep=True)
    t_off, r_off = _best_of(reps, p, gmain, macrostep=False)
    t_def, r_def = _best_of(reps, p, gmain, macrostep=None,
                            coll_analytic=None)
    _assert_identical(r_on, r_off)
    _assert_identical(r_def, r_off)
    assert r_on.rounds_captured > 0
    assert r_on.rounds_replayed > 0
    # The emulator drains whole rounds: fewer raw heap pops than the
    # interpreter for the same simulated work.
    assert r_on.sched_steps < r_off.sched_steps

    ratio = t_off / t_on                      # == equivalent-steps ratio
    merge_json_artifact("BENCH_engine", {"schema": 3, "macrostep": {
        "mode": "fast" if FAST_MODE else "full",
        "allreduce_heavy": {
            "ranks": p,
            "rounds": rounds,
            "wallclock_interpreted_s": t_off,
            "wallclock_macrostep_s": t_on,
            "equiv_sched_steps_per_sec_interpreted": r_off.sched_steps / t_off,
            "equiv_sched_steps_per_sec_macrostep": r_off.sched_steps / t_on,
            "speedup": ratio,
            "sched_steps_interpreted": r_off.sched_steps,
            "sched_steps_macrostep": r_on.sched_steps,
            "rounds_captured": r_on.rounds_captured,
            "rounds_replayed": r_on.rounds_replayed,
            "deopts": r_on.deopts,
        },
        # The same shape under the shipped defaults (coll_analytic and
        # macro-step both on), against the same interpreted baseline.
        "allreduce_heavy_default": {
            "ranks": p,
            "rounds": rounds,
            "wallclock_interpreted_s": t_off,
            "wallclock_default_s": t_def,
            "equiv_sched_steps_per_sec_default": r_off.sched_steps / t_def,
            "speedup": t_off / t_def,
            "sched_steps_default": r_def.sched_steps,
            "collectives_gated": r_def.collectives_gated,
            "collectives_fast": r_def.collectives_fast,
            "collectives_emulated": r_def.collectives_emulated,
        },
    }})
    if FAST_MODE:
        assert ratio > 1.5
    else:
        # The PR acceptance criterion: >= 3x at p=1024.
        assert ratio >= 3.0


def _halo_slope(p, steps_lo, steps_hi, reps, macrostep):
    """Per-step steady-state cost: (T(hi) - T(lo)) / (hi - lo).

    The difference quotient cancels everything that happens once per
    run — engine setup, the capture rounds, the REDUCE tail — leaving
    the marginal cost of one steady-state Jacobi sweep.
    """

    def once(steps):
        plugin = registry.get("halo2d")({"steps": steps})
        t_best = None
        for _ in range(reps):
            t0 = time.perf_counter()
            plugin.run(p, machine=_machine(p), seed=3,
                       engine="threadfree", macrostep=macrostep)
            dt = time.perf_counter() - t0
            t_best = dt if t_best is None else min(t_best, dt)
        return t_best

    return (once(steps_hi) - once(steps_lo)) / (steps_hi - steps_lo)


def test_macrostep_halo2d_p256_steady_state():
    """halo2d p=256: steady-state per-sweep cost, replay vs interpreter.

    The honest number: replay wins ~1.6x on the marginal sweep.  The
    remaining time is shared floor — the workload's own numpy halo
    assembly, section events and generator resumption — which replay
    cannot remove (docs/tuning.md quantifies the split).  The asserted
    floor is deliberately below the measured ratio so host noise does
    not flake the suite; the recorded artifact carries the real value.
    """
    p = 64 if FAST_MODE else 256
    lo, hi = (12, 36) if FAST_MODE else (24, 96)
    reps = 2 if FAST_MODE else 3

    slope_on = _halo_slope(p, lo, hi, reps, macrostep=True)
    slope_off = _halo_slope(p, lo, hi, reps, macrostep=False)
    ratio = slope_off / slope_on

    # Replay must stay bit-identical on the exact benchmark shape.
    plugin = registry.get("halo2d")({"steps": lo})
    on = plugin.run(p, machine=_machine(p), seed=3,
                    engine="threadfree", macrostep=True)
    off = plugin.run(p, machine=_machine(p), seed=3,
                     engine="threadfree", macrostep=False)
    _assert_identical(on, off)
    assert on.rounds_replayed > 0

    merge_json_artifact("BENCH_engine", {"schema": 3, "macrostep_halo2d": {
        "mode": "fast" if FAST_MODE else "full",
        "ranks": p,
        "steps_lo": lo,
        "steps_hi": hi,
        "steady_state_s_per_step_interpreted": slope_off,
        "steady_state_s_per_step_macrostep": slope_on,
        "steady_state_speedup": ratio,
        "target_speedup": 2.0,
        "note": "shared floor (workload numpy, sections, generator "
                "resumption) bounds the measured ratio near 1.6x; "
                "see docs/tuning.md",
    }})
    if not FAST_MODE:
        assert ratio >= 1.25


def test_macrostep_p4096_smoke():
    """p=4096 capture & replay smoke: the largest-scale claim.

    Always runs at p=4096 — a smaller fast-mode p would smoke a
    different claim.  Asserts completion, engagement and bit-exact
    global reduction; wall-clock is recorded, not asserted.
    """
    p = 4096
    rounds = 5
    gmain = _allreduce_heavy(rounds)
    t0 = time.perf_counter()
    res = run_mpi(p, gmain, machine=_machine(p), seed=3,
                  coll_analytic=False, engine="threadfree", macrostep=True)
    elapsed = time.perf_counter() - t0
    assert res.engine == "threadfree"
    assert len(res.results) == p
    assert res.rounds_captured == p
    assert res.rounds_replayed > 0
    # The allreduce chain must leave every rank with the same bitwise
    # value (exact equality across modes is the differential suite's
    # job at smaller p; the smoke proves scale).
    assert all(r == res.results[0] for r in res.results)
    assert res.results[0] > 0.0
    lines = [
        f"macro-step capture & replay: p={p} allreduce-heavy smoke",
        f"  rounds:            {rounds} Allreduce(16 doubles) + compute",
        f"  wall-clock:        {elapsed:8.3f} s",
        f"  scheduling steps:  {res.sched_steps}",
        f"  rounds captured:   {res.rounds_captured}",
        f"  rounds replayed:   {res.rounds_replayed}",
        f"  deopts:            {res.deopts}",
        f"  virtual walltime:  {res.walltime:8.6f} s",
    ]
    save_artifact("macrostep_p4096", "\n".join(lines))


#: Committed replay speedup of the perf-smoke shape (p=256, 24 rounds,
#: best-of-3) on the reference host.  The CI gate fails when the
#: measured speedup drops more than 30% below it — a relative bar, so
#: absolute host speed cancels out of the comparison.
PERF_SMOKE_BASELINE_SPEEDUP = 2.6


def test_perf_smoke_macrostep_regression():
    """CI regression gate: replay speedup within 30% of the baseline."""
    if not PERF_SMOKE:
        import pytest

        pytest.skip("set REPRO_PERF_SMOKE=1 to run the regression gate")
    p, rounds = 256, 24
    gmain = _allreduce_heavy(rounds)
    t_on, r_on = _best_of(3, p, gmain, macrostep=True)
    t_off, r_off = _best_of(3, p, gmain, macrostep=False)
    _assert_identical(r_on, r_off)
    speedup = t_off / t_on
    floor = PERF_SMOKE_BASELINE_SPEEDUP * 0.7
    assert speedup >= floor, (
        f"macro-step replay speedup regressed: {speedup:.2f}x measured, "
        f"floor {floor:.2f}x (baseline {PERF_SMOKE_BASELINE_SPEEDUP}x - 30%)"
    )


#: Allowed slack of the shipped defaults over the faster single fast
#: path on the perf-smoke shape (noise margin, not a tolerated loss).
DEFAULT_COMPOSE_SLACK = 1.10


def test_perf_smoke_default_composes():
    """CI gate on the shipped defaults: the two collective fast paths
    compose.  With ``coll_analytic`` and macro-step both on, replayed
    rounds go to the flat emulator, so the default must be no slower
    than the faster of macro-step alone and the analytic path alone."""
    if not PERF_SMOKE:
        import pytest

        pytest.skip("set REPRO_PERF_SMOKE=1 to run the regression gate")
    p, rounds = 256, 24
    gmain = _allreduce_heavy(rounds)
    t_def, r_def = _best_of(3, p, gmain, macrostep=None, coll_analytic=None)
    t_ms, r_ms = _best_of(3, p, gmain, macrostep=True, coll_analytic=False)
    t_ca, r_ca = _best_of(3, p, gmain, macrostep=False, coll_analytic=True)
    _assert_identical(r_def, r_ms)
    _assert_identical(r_def, r_ca)
    assert r_def.collectives_emulated > 0
    best = min(t_ms, t_ca)
    assert t_def <= DEFAULT_COMPOSE_SLACK * best, (
        f"default flags {t_def:.3f}s vs best single fast path {best:.3f}s "
        f"(macro-step only {t_ms:.3f}s, analytic only {t_ca:.3f}s): "
        f"over the {DEFAULT_COMPOSE_SLACK}x bar"
    )
