"""One repetition of one workload, in a process of its own.

``run.py`` starts this script once per repetition, so every repetition
pays the import of ``repro`` and starts from an empty heap, as a user's
run would.  Usage::

    python3 hostbench/rep.py '{"workload": "paper_figs", "seed": 0,
                               "size": "full", "trace": false}'

It prints one JSON line: per-cell phase times, output digests and broken
invariants, peak RSS, the simulator objects still alive after
``gc.collect()``, and, when traced, the per-layer aggregates and spans.
"""

import importlib
import json
import resource
import sys
import time
import traceback

import reference
import tracer as tracing
import workloads

def _sim(obj, counts):
    stats = _untraced(obj, "stats")()
    counts["simnet.events"] += stats["events_executed"]
    counts["simnet.peak_heap"] = max(counts["simnet.peak_heap"],
                                     stats["peak_heap"])


def _pool(obj, counts):
    counts["core.memory.allocations"] += obj.allocations.value
    counts["core.memory.exhaustions"] += obj.exhaustions.value


def _binding(obj, counts):
    counts["core.runtime.drops"] += (
        obj.pool_drops.value + obj.no_sink_drops.value
        + obj.unknown_drops.value + obj.sched_drops.value)


def _datapath(obj, counts):
    counts["datapaths.tx_packets"] += obj.tx_packets.value


def _nic(obj, counts):
    counts["hw.tx_frames"] += obj.tx_frames.value
    counts["hw.drops"] += obj.rx_dropped.value


def _switch(obj, counts):
    # a QoS port's class drops are also counted in the switch-wide total
    counts["hw.drops"] += obj.dropped.value + obj.hairpin_dropped.value


def _link(obj, counts):
    counts["hw.drops"] += obj.lost_frames.value


def _aggregate(obj, counts):
    counts["fluid.drain_ticks"] += obj.drain_ticks


def _controller(obj, counts):
    counts["fluid.promotions"] += obj.promotions


#: classes whose instances the traced run collects, and how their counters
#: add into the per-layer counts.
REGISTERED = {
    "repro.simnet.engine:Simulator": _sim,
    "repro.core.memory:SlotPool": _pool,
    "repro.core.runtime:DatapathBinding": _binding,
    "repro.datapaths.base:Datapath": _datapath,
    "repro.hw.nic:Nic": _nic,
    "repro.hw.switch:Switch": _switch,
    "repro.hw.link:Link": _link,
    "repro.fluid.aggregate:FluidAggregate": _aggregate,
    "repro.fluid.controller:FidelityController": _controller,
}

COUNTS = ("simnet.events", "simnet.peak_heap", "core.memory.allocations",
          "core.memory.exhaustions", "core.runtime.drops",
          "datapaths.tx_packets", "hw.tx_frames", "hw.drops",
          "fluid.drain_ticks", "fluid.promotions")


def _untraced(obj, name):
    method = getattr(type(obj), name)
    return getattr(method, "__wrapped__", method).__get__(obj)


def _harvest(tracer, counts):
    seen = set()
    for key, obj in tracer.instances:
        if id(obj) not in seen:
            seen.add(id(obj))
            REGISTERED[key](obj, counts)
    tracer.instances.clear()


class Phases:
    """Times phases; when traced, also splits layer self time by phase."""

    #: the per-layer fields of :meth:`tracer.Tracer.snapshot`
    FIELDS = ("self_s", "incl_s", "calls", "wrapper_s")

    def __init__(self, tracer):
        self.tracer = tracer
        self.spans = []
        self.origin = time.perf_counter()
        self.by_phase = {}

    def run(self, cell, phase, fn, *args):
        """``(fn(*args), seconds)``, recording the span either way."""
        tracer = self.tracer
        if tracer is not None:
            before = tracer.snapshot()
        start = time.perf_counter()
        try:
            return fn(*args), time.perf_counter() - start
        finally:
            elapsed = time.perf_counter() - start
            self.spans.append((cell, phase, start - self.origin, elapsed))
            if tracer is not None:
                after = tracer.snapshot()
                acc = self.by_phase.setdefault(phase, {
                    field: [0] * len(tracing.LAYERS)
                    for field in self.FIELDS})
                for field, old, new in zip(self.FIELDS, before, after):
                    values = acc[field]
                    for i, value in enumerate(new):
                        values[i] += value - old[i]


def run_cells(cells, phases, tracer, counts, gauge):
    records = []
    for cell in cells:
        gauge.sample()
        record = {"cell": cell.name, "setup_s": 0.0, "run_s": 0.0,
                  "check_s": 0.0, "digest": None, "problems": []}
        state = output = None
        try:
            state, record["setup_s"] = phases.run(cell.name, "setup",
                                                  cell.setup)
            output, record["run_s"] = phases.run(cell.name, "run", cell.run,
                                                 state)
            state = None
            (digest, problems), record["check_s"] = phases.run(
                cell.name, "check", cell.check, output)
            record["digest"] = digest
            record["problems"].extend(problems)
        except Exception:  # a cell that raises is a failed operation
            record["problems"].append(
                "%s raised:\n%s" % (cell.name, traceback.format_exc()))
        state = output = None
        if tracer is not None:
            _harvest(tracer, counts)
        records.append(record)
    gauge.sample(force=True)
    return records


def peak_rss_mb(children):
    """Peak resident set size in MB, plus the largest child's if asked."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def main(argv):
    args = json.loads(argv[1])
    workload, seed = args["workload"], args["seed"]
    start = time.perf_counter()
    for name in workloads.IMPORTS[workload]:
        importlib.import_module(name)
    import_s = time.perf_counter() - start
    tracer = None
    if args["trace"]:
        tracer = tracing.install(REGISTERED)
    counts = dict.fromkeys(COUNTS, 0)
    start = time.perf_counter()
    definition, cells, facts = workloads.cells(workload, seed, args["size"])
    build_s = time.perf_counter() - start
    phases = Phases(tracer)
    gauge = reference.Gauge()
    records = run_cells(cells, phases, tracer, counts, gauge)
    result = {
        "reference_s": gauge.samples,
        "import_s": import_s,
        "build_s": build_s,
        "definition": definition,
        "cells": records,
        "facts": facts,
        "peak_rss_mb": peak_rss_mb(children=workload == "metro_city"),
    }
    del cells
    from repro.core.memory import SlotPool
    from repro.simnet import Simulator

    result["live_pools"], result["live_sims"] = tracing.live_objects(
        (SlotPool, Simulator))
    if tracer is not None:
        result["layers"] = list(tracing.LAYERS)
        result["by_phase"] = phases.by_phase
        result["wrapper_costs"] = tracer.costs
        result["counts"] = counts
        result["spans"] = phases.spans
    _stop_resource_tracker()
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


def _stop_resource_tracker():
    """Reap the tracker a spawn-context queue starts, so no child outlives
    this process."""
    if "multiprocessing.resource_tracker" in sys.modules:
        tracker = sys.modules["multiprocessing.resource_tracker"]
        stop = getattr(tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()


if __name__ == "__main__":
    sys.exit(main(sys.argv))
