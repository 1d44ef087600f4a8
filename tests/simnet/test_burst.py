"""Burst-chain semantics: inline execution must be unobservable.

A :class:`ChargeChain` may execute its steps inline (fast engine, empty
lane, no earlier heap event) or as normally-scheduled events (legacy
engine, contention, an installed observer).  These tests pin the
equivalence: both modes produce the same per-step timestamps, the same
rng draw order, the same executed-event totals, and the same failure
accounting.  One more pins that inlining actually engages on the
engine-churn stream, counted in dispatches rather than wall time.
"""

import pytest

from repro.bench import perfbench
from repro.simnet import ChargeChain, Simulator
from repro.simnet.legacy import LegacySimulator


class _Record:
    __slots__ = ("payload_len", "hits")

    def __init__(self, payload_len=64):
        self.payload_len = payload_len
        self.hits = 0


class _Host:
    """Stage costs with an rng draw per charge, like Host.stage_cost."""

    def __init__(self, sim, base=10.0):
        self.sim = sim
        self.base = base

    def stage_cost(self, key, size, burst=1, jitter=True):
        return self.base + self.sim.rng.random()


class _Dp:
    def __init__(self, sim):
        self.sim = sim
        self.host = _Host(sim)


class _TraceChain(ChargeChain):
    __slots__ = ("order",)

    stages = ("stage_a", "stage_b")

    def __init__(self, dp, batch, order):
        ChargeChain.__init__(self, dp, batch)
        self.order = order

    def _act(self, record):
        record.hits += 1
        self.order.append(round(self.sim.now, 9))


class _FailingChain(ChargeChain):
    __slots__ = ()

    stages = ()

    def _act(self, record):
        if record.payload_len == 999:
            raise RuntimeError("boom at record 3")
        record.hits += 1


class _Driver:
    """Plays the process role for a chain outside a generator."""

    def __init__(self, sim):
        self.sim = sim
        self.done = 0

    def resume(self, value=None, exc=None):
        if exc is not None:
            raise exc
        self.done += 1


def _run_chain(sim, n=16):
    dp = _Dp(sim)
    order = []
    batch = [_Record() for _ in range(n)]
    driver = _Driver(sim)
    chain = _TraceChain(dp, batch, order)
    sim.schedule(5.0, chain.apply, sim, driver)
    sim.run()
    assert driver.done == 1
    assert all(record.hits == 1 for record in batch)
    return order, sim.stats()["events_executed"], sim.rng.random()


def test_inline_matches_legacy_scheduled_execution():
    """Fast-engine inline steps == legacy-engine scheduled steps, exactly."""
    fast_order, fast_events, fast_draw = _run_chain(Simulator(seed=7))
    legacy_order, legacy_events, legacy_draw = _run_chain(
        LegacySimulator(seed=7))
    assert fast_order == legacy_order
    assert fast_events == legacy_events
    assert fast_draw == legacy_draw


def test_chain_charges_once_per_stage_per_packet():
    """Every (packet, stage) pair draws rng once, in batch order."""
    sim = Simulator(seed=3)
    order, _events, _draw = _run_chain(sim, n=4)
    # 4 packets x 2 stages, each completion strictly later than the last
    assert len(order) == 4
    assert order == sorted(order)
    assert len(set(order)) == 4


def test_chain_steps_count_as_engine_events():
    """Inline steps must appear in events_executed like scheduled ones."""
    sim = Simulator(seed=1)
    _order, events, _draw = _run_chain(sim, n=16)
    # the kickoff event + 16 per-packet steps, nothing else
    assert events == 17


def test_observer_sees_every_chain_step():
    """An installed observer disables inlining; on_event fires per step."""
    sim = Simulator(seed=7)
    seen = []

    class _Observer:
        def on_event(self, now):
            seen.append(now)

    sim.observer = _Observer()
    order, events, _draw = _run_chain(sim)
    assert len(seen) == events
    # observation must not change the execution itself
    bare_order, bare_events, _ = _run_chain(Simulator(seed=7))
    assert order == bare_order
    assert events == bare_events


def test_run_until_pauses_and_resumes_chain_mid_batch():
    """A chain must stop inlining at the run(until=) deadline and pick up
    where it left off, with identical overall execution."""
    reference_order, reference_events, reference_draw = _run_chain(
        Simulator(seed=11))
    sim = Simulator(seed=11)
    dp = _Dp(sim)
    order = []
    batch = [_Record() for _ in range(16)]
    driver = _Driver(sim)
    chain = _TraceChain(dp, batch, order)
    sim.schedule(5.0, chain.apply, sim, driver)
    deadline = 5.0
    while sim.peek() is not None:
        deadline += 40.0
        sim.run(until=deadline)
    assert driver.done == 1
    assert order == reference_order
    assert sim.stats()["events_executed"] == reference_events
    assert sim.rng.random() == reference_draw


def test_run_until_clock_never_overshoots_deadline():
    sim = Simulator(seed=11)
    dp = _Dp(sim)
    batch = [_Record() for _ in range(16)]
    chain = _TraceChain(dp, batch, [])
    sim.schedule(5.0, chain.apply, sim, _Driver(sim))
    sim.run(until=30.0)
    assert sim.now == 30.0  # mid-batch: inline must respect the bound


def test_chain_failure_lands_in_sim_failures():
    """_act exceptions route through the process into sim.failures, as if
    the per-packet loop had raised inside the generator."""
    sim = Simulator(seed=0)
    dp = _Dp(sim)
    batch = [_Record() for _ in range(8)]
    batch[2].payload_len = 999

    def proc():
        yield _FailingChain(dp, batch)

    sim.process(proc(), name="failing")
    sim.run()
    assert len(sim.failures) == 1
    assert "boom at record 3" in repr(sim.failures[0])


def test_chain_apply_failure_also_routed():
    """A failure drawing the first cost (empty batch) is routed the same way."""
    sim = Simulator(seed=0)
    dp = _Dp(sim)

    def proc():
        yield _TraceChain(dp, [], [])  # batch[0] raises IndexError

    sim.process(proc(), name="empty-batch")
    sim.run()
    assert len(sim.failures) == 1


def test_lane_contention_falls_back_to_scheduled_steps():
    """Zero-delay traffic on the lane must interleave with chain steps in
    global order, identically on both engines."""

    def run(sim):
        dp = _Dp(sim)
        order = []
        batch = [_Record() for _ in range(16)]
        driver = _Driver(sim)
        chain = _TraceChain(dp, batch, order)

        def zero(depth):
            order.append(("zero", depth, round(sim.now, 9)))
            if depth:
                sim.schedule(0, zero, depth - 1)

        def burst(_=None):
            order.append(("burst", round(sim.now, 9)))
            sim.schedule(0, zero, 2)

        sim.schedule(5.0, chain.apply, sim, driver)
        # timers landing between chain steps: each seeds a zero-delay
        # cascade, so the chain repeatedly meets a busy lane and an
        # earlier heap entry mid-batch
        for k in range(12):
            sim.schedule(5.0 + 13.0 * k, burst, None)
        sim.run()
        return order, sim.stats()["events_executed"]

    fast = run(Simulator(seed=5))
    legacy = run(LegacySimulator(seed=5))
    assert fast == legacy


def _churn_step_counts(engine, monkeypatch):
    """Run the engine-churn stream with a chain that counts ``_step``
    dispatches (steps the engine scheduled and popped) and ``_act`` calls
    (every step, inline or dispatched)."""
    counts = {"dispatches": 0, "acts": 0}
    base = perfbench._ChurnChain

    class _CountingChain(base):
        __slots__ = ()

        def _step(self):
            counts["dispatches"] += 1
            base._step(self)

        def _act(self, record):
            counts["acts"] += 1
            base._act(self, record)

    with monkeypatch.context() as patch:
        patch.setattr(perfbench, "_ChurnChain", _CountingChain)
        perfbench.run_churn(engine, events=20_000, seed=1)
    return counts


def test_churn_chains_run_inline(monkeypatch):
    """The batched inline path engages: on the fast engine most churn
    steps run inside an already-dispatched ``_step`` (about 7% are
    dispatched), while the legacy engine dispatches every one."""
    fast = _churn_step_counts("fast", monkeypatch)
    legacy = _churn_step_counts("legacy", monkeypatch)
    assert fast["acts"] == legacy["acts"] > 0
    assert fast["dispatches"] <= 0.10 * fast["acts"]
    assert legacy["dispatches"] == legacy["acts"]
