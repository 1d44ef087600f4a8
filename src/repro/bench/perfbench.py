"""Engine workloads and the three engine gates.

The host cost of the whole simulator is measured by ``hostbench/``; this
module keeps only what a correctness role or an engine gate reads:

* :data:`SUITE` and :func:`run_workload` -- the fig5 ping-pong, fig8a
  streaming and fig8b 8-sink workloads.  They feed the golden corpus
  ``engine`` section (:mod:`repro.validate.golden`) and the fast-vs-legacy
  golden traces in ``tests/simnet/test_determinism.py``: only the event
  loop differs between engines, so simulated results must be
  bit-identical.
* :func:`run_churn` -- the engine-churn microbenchmark, the identical
  event stream on the fast :class:`repro.simnet.Simulator` and the legacy
  :class:`repro.simnet.legacy.LegacySimulator`, so its speedup is a pure
  event-loop comparison.
* :func:`check_churn_speedup`, :func:`check_trajectory` and
  :func:`check_ratchet` -- the gates ``benchmarks/bench_wallclock.py``
  runs, against the pinned constants below.
"""

import os
import time

from repro.bench.harness import InsaneBenchApp
from repro.hw import Testbed
from repro.hw.profiles import PROFILES
from repro.simnet import ChargeChain, Simulator
from repro.simnet.legacy import LegacySimulator

#: workload name -> (kind, kwargs) — fig5 ping-pong latency, fig8a
#: streaming throughput, fig8b 8-sink fan-out, exactly the shapes the
#: paper's evaluation leans on hardest.
SUITE = {
    "fig5_pingpong": {"kind": "pingpong", "size": 64},
    "fig8a_streaming": {"kind": "stream", "size": 1024, "sinks": 1},
    "fig8b_8sink": {"kind": "stream", "size": 1024, "sinks": 8},
}

ENGINES = {"fast": Simulator, "legacy": LegacySimulator}

#: default iteration counts of :func:`run_workload`
QUICK_ROUNDS = 400
QUICK_MESSAGES = 3000

#: repetitions per gate measurement — wall time is best-of-N because
#: scheduler noise only ever adds time, never removes it.
GATE_REPS = 3

#: engine-churn microbenchmark: enough events to swamp setup noise, small
#: enough for a CI smoke run.
CHURN_EVENTS = 200_000
CHURN_DRIVERS = 16
CHURN_BURST = 64
CHURN_CANCEL_FRACTION = 0.25


def run_workload(name, engine="fast", rounds=QUICK_ROUNDS,
                 messages=QUICK_MESSAGES, profile="local", seed=0, reps=1):
    """Run one suite workload on one engine.

    ``engine="legacy"`` is the golden-trace configuration: only the event
    loop changes, so results must be bit-identical to the fast engine.
    ``reps`` repeats the whole run and keeps the fastest wall clock.
    """
    best = None
    for _ in range(max(1, reps)):
        record = _run_workload_once(name, engine, rounds, messages,
                                    profile, seed)
        if best is None or record["wall_s"] < best["wall_s"]:
            best = record
    return best


def _run_workload_once(name, engine, rounds, messages, profile, seed):
    spec = SUITE[name]
    sim = ENGINES[engine](seed=seed)
    testbed = Testbed(PROFILES[profile], hosts=2, seed=seed, sim=sim)
    app = InsaneBenchApp(testbed, "fast")
    wall_start = time.perf_counter()
    if spec["kind"] == "pingpong":
        tally = app.pingpong(rounds, spec["size"])
        result = {"median_rtt_ns": tally.median, "rounds": rounds}
    else:
        meters = app.stream(messages, spec["size"], sinks=spec["sinks"])
        result = {
            "per_sink_gbps": [meter.gbps() for meter in meters],
            "messages": messages,
        }
    wall_s = time.perf_counter() - wall_start
    stats = sim.stats()
    events = stats["events_executed"]
    return {
        "workload": name,
        "engine": engine,
        "seed": seed,
        "wall_s": wall_s,
        "events": events,
        "events_per_sec": events / wall_s if wall_s > 0 else 0.0,
        "sim_ns": sim.now,
        "result": result,
        "sim_stats": stats,
        "failures": len(sim.failures),
    }


def _noop():
    pass


class _ChurnRecord:
    """An inert slotted stand-in for a packet inside a churn chain."""

    __slots__ = ("payload_len", "hits")

    def __init__(self):
        self.payload_len = 64
        self.hits = 0


class _ChurnHost:
    """The minimal host shape a chain caches (stage costs)."""

    __slots__ = ()

    @staticmethod
    def stage_cost(key, size, burst=1, jitter=True):
        return 0.0  # never reached: churn chains declare no stages


class _ChurnDp:
    """The minimal datapath shape :class:`ChargeChain` constructs from."""

    __slots__ = ("sim", "host")

    def __init__(self, sim):
        self.sim = sim
        self.host = _ChurnHost()


class _ChurnChain(ChargeChain):
    """A charge chain over inert records: pure per-step engine cost.

    ``stages`` is empty (no rng draws, zero-cost steps), so every step
    measures exactly the chain-execution machinery: the per-record action,
    the inline-next proof, and the ``now``/``_executed`` bookkeeping.
    """

    __slots__ = ()

    stages = ()

    def _act(self, record):
        record.hits += 1


class _ChurnDriver:
    """One self-rescheduling burst source.

    Each tick draws from the shared rng, occasionally spawns an
    immediately-cancelled decoy timer (the per-packet retransmission-timer
    pattern that lazy compaction exists for), then runs one
    :class:`_ChurnChain` over its record batch; the chain resumes the
    driver, which schedules the next tick a short random delay out (so
    chains from different drivers almost always run with an empty lane and
    the inline path engages, as in a real poll loop).
    """

    __slots__ = ("sim", "dp", "batch", "budget", "_random", "_schedule",
                 "_cancellable")

    def __init__(self, sim, dp, budget):
        self.sim = sim
        self.dp = dp
        self.batch = [_ChurnRecord() for _ in range(CHURN_BURST)]
        self.budget = budget
        self._random = sim.rng.random
        self._schedule = sim.schedule
        self._cancellable = sim.schedule_cancellable

    def tick(self, _=None):
        budget = self.budget
        if budget[0] <= 0:
            return
        budget[0] -= 1
        if self._random() < CHURN_CANCEL_FRACTION:
            self._cancellable(1e6 + self._random(), _noop).cancel()
        _ChurnChain(self.dp, self.batch).apply(self.sim, self)

    def resume(self, value=None, exc=None):
        """Chain completion callback (the driver plays the process role)."""
        if exc is not None:
            raise exc
        self._schedule(1.0 + self._random() * 100.0, self.tick, None)


def run_churn(engine="fast", events=CHURN_EVENTS, seed=0, reps=1):
    """Pure engine churn: the identical event stream on either engine.

    :data:`CHURN_DRIVERS` drivers each run :class:`_ChurnChain` bursts of
    :data:`CHURN_BURST` zero-cost steps over slotted records, plus timed
    rescheduling (heap churn) and immediately-cancelled decoy timers
    (compaction coverage).  No processes, stores, or application code
    runs, so this isolates the per-event cost of the batched hot path —
    the machinery the paper workloads dilute with stack callback time (see
    the Amdahl decomposition in DESIGN.md).  Both engines execute the same
    stream — on the legacy engine every chain step is a normally-scheduled
    heap event, on the fast engine steps run inline when provably next —
    so event counts and final simulated time must match exactly (asserted
    by :func:`check_churn_speedup`).

    ``events`` is a budget: each tick accounts CHURN_BURST + 1 executed
    events (the tick plus its chain steps), and ticks stop once the budget
    is spent.
    """
    best = None
    for _ in range(max(1, reps)):
        record = _run_churn_once(engine, events, seed)
        if best is None or record["wall_s"] < best["wall_s"]:
            best = record
    return best


def _run_churn_once(engine, events, seed):
    sim = ENGINES[engine](seed=seed)
    dp = _ChurnDp(sim)
    ticks = max(events // (CHURN_BURST + 1), CHURN_DRIVERS)
    budget = [ticks]
    drivers = [_ChurnDriver(sim, dp, budget) for _ in range(CHURN_DRIVERS)]
    for driver in drivers:
        driver.tick()
    wall_start = time.perf_counter()
    sim.run()
    wall_s = time.perf_counter() - wall_start
    stats = sim.stats()
    executed = stats["events_executed"]
    return {
        "workload": "engine_churn",
        "engine": engine,
        "seed": seed,
        "wall_s": wall_s,
        "events": executed,
        "events_per_sec": executed / wall_s if wall_s > 0 else 0.0,
        "sim_ns": sim.now,
        "result": {"events_requested": events, "ticks": ticks,
                   "burst": CHURN_BURST, "drivers": CHURN_DRIVERS},
        "sim_stats": stats,
        "failures": len(sim.failures),
    }


# -- the engine gates ---------------------------------------------------------
#
# Every value below comes from the last entry of the retired wall-clock
# history: host ``vm``, CPython 3.11.7, 2026-08-09; quick mode, seed 0,
# best-of-3.
# The wall-clock gates are loose on purpose: CI runners are shared and
# slow, so they catch "the batched hot path stopped engaging" (a many-x
# cliff), not percent-level drift.

#: fast-engine events/s must be at least this multiple of the legacy
#: engine's on the identical churn stream
CHURN_MIN_SPEEDUP = 2.5

#: the tracing-off trajectory run: fig8a streaming at
#: :func:`run_workload`'s defaults (fast engine, 3000 messages, seed 0)
TRAJECTORY_WORKLOAD = "fig8a_streaming"
#: its simulated outcome, which must match exactly
TRAJECTORY_EVENTS = 30206
TRAJECTORY_SIM_NS = 978055.2258978866
#: its recorded wall time, and the factor a rerun may take at most
TRAJECTORY_WALL_S = 0.06893787199987855
TRAJECTORY_WALL_FACTOR = 5.0

#: recorded fast-engine churn events/s, and the fraction of it a rerun
#: must reach
RATCHET_EVENTS_PER_S = 5_628_279.104572232
RATCHET_FLOOR_FRACTION = 0.25

#: set (to anything non-empty) to skip the ratchet, e.g. on a machine
#: known to be much slower than the recorded host
RATCHET_SKIP_ENV = "INSANE_PERF_RATCHET_SKIP"


def check_churn_speedup():
    """The churn race: both engines on one stream, fast >= 2.5x legacy.

    Returns ``(ok, lines)``.
    """
    fast = run_churn("fast", reps=GATE_REPS)
    legacy = run_churn("legacy", reps=GATE_REPS)
    identical = (fast["events"] == legacy["events"]
                 and fast["sim_ns"] == legacy["sim_ns"])
    speedup = fast["events_per_sec"] / legacy["events_per_sec"]
    ok = identical and speedup >= CHURN_MIN_SPEEDUP
    lines = [
        "churn: fast %.3f Mev/s vs legacy %.3f Mev/s = %.2fx "
        "(required %.1fx), identical stream %s -> %s"
        % (fast["events_per_sec"] / 1e6, legacy["events_per_sec"] / 1e6,
           speedup, CHURN_MIN_SPEEDUP, "yes" if identical else "NO",
           "OK" if ok else "FAIL")
    ]
    return ok, lines


def check_trajectory():
    """The no-op-hook check: a tracing-off fig8a run vs the pinned record.

    The simulated outcome (event count, final sim time) must match
    **exactly** — the lifecycle hooks added for ``repro.obs`` are inert
    when no tracer is configured — and wall clock must stay within
    :data:`TRAJECTORY_WALL_FACTOR` of the recorded run.

    Returns ``(ok, lines)``.
    """
    current = run_workload(TRAJECTORY_WORKLOAD, reps=GATE_REPS)
    ratio = current["wall_s"] / TRAJECTORY_WALL_S
    ok = (current["events"] == TRAJECTORY_EVENTS
          and current["sim_ns"] == TRAJECTORY_SIM_NS
          and ratio <= TRAJECTORY_WALL_FACTOR)
    lines = [
        "trajectory: %s events=%d sim_ns=%r (pinned %d, %r), wall %.3fs "
        "vs %.3fs (%.2fx, allowed %.1fx) -> %s"
        % (TRAJECTORY_WORKLOAD, current["events"], current["sim_ns"],
           TRAJECTORY_EVENTS, TRAJECTORY_SIM_NS, current["wall_s"],
           TRAJECTORY_WALL_S, ratio, TRAJECTORY_WALL_FACTOR,
           "OK" if ok else "FAIL")
    ]
    return ok, lines


def check_ratchet():
    """The perf ratchet: fast-engine churn events/s above a fixed floor.

    Fails when the rerun lands below :data:`RATCHET_FLOOR_FRACTION` of
    :data:`RATCHET_EVENTS_PER_S`.  Setting :data:`RATCHET_SKIP_ENV` in the
    environment skips the check (returns ok with a note).

    Returns ``(ok, lines)``.
    """
    if os.environ.get(RATCHET_SKIP_ENV):
        return True, ["ratchet: skipped (%s is set)" % RATCHET_SKIP_ENV]
    floor = RATCHET_EVENTS_PER_S * RATCHET_FLOOR_FRACTION
    current = run_churn("fast", reps=GATE_REPS)
    ok = current["events_per_sec"] >= floor
    lines = [
        "ratchet: engine_churn fast %.3f Mev/s vs recorded %.3f Mev/s "
        "(floor %.3f = %.0f%%) -> %s"
        % (current["events_per_sec"] / 1e6, RATCHET_EVENTS_PER_S / 1e6,
           floor / 1e6, RATCHET_FLOOR_FRACTION * 100,
           "OK" if ok else "FAIL")
    ]
    if not ok:
        lines.append(
            "ratchet: the batched hot path is likely not engaging — run "
            "tests/simnet/test_burst.py::test_churn_chains_run_inline, or "
            "attribute with 'python3 hostbench/run.py --workload paper_figs "
            "--trace 1' (or set %s on a known-slow machine)"
            % RATCHET_SKIP_ENV
        )
    return ok, lines
