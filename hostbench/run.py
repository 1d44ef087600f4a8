#!/usr/bin/env python3
"""Host-cost benchmark of the simulator: wall time, set-up time and memory.

Measures what the simulator costs on the host to produce results that do
not change.  Every simulated output is checked, not measured: it must match
a pinned digest (at seed 0) and its invariants (at any seed).

Run from the repository root::

    python3 hostbench/run.py --workload paper_figs --seed 0 --seconds 30 --trace 0
    python3 hostbench/run.py --all --seconds 30          # every workload, untraced

Each repetition runs in a fresh process (``rep.py``), so set-up includes
importing ``repro``.  Repetitions continue (at least three) until the next
would end after ``--seconds``; every end-to-end metric is the median over
them, in reference-speed seconds (see ``reference.py``).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics instead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import collections
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PINS = os.path.join(HERE, "pins.json")

#: a run must finish within this many seconds, whatever ``--seconds`` says.
HARD_LIMIT_S = 170.0

#: fewest untraced repetitions a median is taken over.
MIN_REPS = 3

#: bumped when the benchmark changes what a workload definition means.
BENCH_VERSION = 1

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: per-layer metric -> unit, in report order (see README.md for the map
#: from each to the end-to-end metric it should move).
PER_LAYER = (
    ("simnet.self_s", "s"), ("simnet.events", "count"),
    ("simnet.events_per_s", "1/s"), ("simnet.peak_heap", "count"),
    ("simnet.live_sims", "count"),
    ("core.session.self_s", "s"), ("core.session.calls", "count"),
    ("core.runtime.self_s", "s"), ("core.runtime.drops", "count"),
    ("core.memory.self_s", "s"), ("core.memory.allocations", "count"),
    ("core.memory.exhaustions", "count"), ("core.memory.live_pools", "count"),
    ("core.build_s", "s"), ("hw.build_s", "s"),
    ("datapaths.self_s", "s"), ("datapaths.tx_packets", "count"),
    ("netstack.self_s", "s"),
    ("hw.self_s", "s"), ("hw.tx_frames", "count"), ("hw.drops", "count"),
    ("scenario.self_s", "s"), ("scenario.compile_s", "s"),
    ("scenario.slo_s", "s"), ("loadgen.self_s", "s"),
    ("baselines.self_s", "s"),
    ("fluid.self_s", "s"), ("fluid.drain_ticks", "count"),
    ("fluid.promotions", "count"), ("validate.self_s", "s"),
    ("dist.self_s", "s"), ("dist.events_ratio", "ratio"),
    ("dist.imbalance", "ratio"),
    ("app.self_s", "s"), ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
    ("cell.fig5_wall_s", "s"), ("cell.fig8a_wall_s", "s"),
    ("cell.fig8b_wall_s", "s"), ("cell.serial_wall_s", "s"),
    ("cell.partitioned_wall_s", "s"),
)

#: layers whose self time one per-layer metric sums.
SELF_TIME = {
    "simnet.self_s": ("simnet",),
    "core.session.self_s": ("core.session",),
    "core.runtime.self_s": ("core.runtime",),
    "core.memory.self_s": ("core.memory",),
    "datapaths.self_s": ("datapaths",),
    "netstack.self_s": ("netstack",),
    "hw.self_s": ("hw",),
    "scenario.self_s": ("scenario", "scenario.compile", "scenario.slo"),
    "loadgen.self_s": ("loadgen",),
    "baselines.self_s": ("baselines",),
    "fluid.self_s": ("fluid",),
    "validate.self_s": ("validate",),
    "dist.self_s": ("dist",),
    "app.self_s": ("app", "unattributed"),
}

CELL_WALLS = {"fig5": "cell.fig5_wall_s", "fig8a": "cell.fig8a_wall_s",
              "fig8b": "cell.fig8b_wall_s", "serial": "cell.serial_wall_s",
              "partitioned": "cell.partitioned_wall_s"}


class RepFailed(RuntimeError):
    """A repetition process crashed or overran; no result can be given."""


def run_rep(workload, seed, size, trace, deadline):
    """One repetition in a fresh process; returns its parsed record."""
    env = dict(os.environ, PYTHONPATH=SRC)
    command = [sys.executable, os.path.join(HERE, "rep.py"),
               json.dumps({"workload": workload, "seed": seed, "size": size,
                           "trace": trace})]
    proc = subprocess.Popen(command, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed("%s repetition overran the %.0f s limit"
                        % (workload, HARD_LIMIT_S))
    if proc.returncode != 0:
        raise RepFailed("%s repetition exited with code %d"
                        % (workload, proc.returncode))
    return json.loads(out.decode().strip().splitlines()[-1])


def warm_up(workload):
    """Import once untimed, so the first repetition does not pay for
    compiling bytecode."""
    code = "import " + ", ".join(workloads.IMPORTS[workload])
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   env=dict(os.environ, PYTHONPATH=SRC))


def definition_digest(workload, size, definition):
    """The workload-definition stamp: params, seed, corpus bytes, topology
    digest, ``repro`` version.  Results compare only when it is equal."""
    return workloads.output_digest({"bench": BENCH_VERSION,
                                    "workload": workload, "size": size,
                                    "definition": definition})


def load_pins():
    if not os.path.exists(PINS):
        return {}
    with open(PINS) as handle:
        return json.load(handle)


def measure(workload, seed, seconds, trace, size):
    """Repeat until another repetition would end after ``seconds``; returns
    the untraced and traced records."""
    warm_up(workload)
    start = time.time()
    deadline = start + HARD_LIMIT_S
    plain, traced = [], []
    while True:
        plain.append(run_rep(workload, seed, size, False, deadline))
        if trace:
            traced.append(run_rep(workload, seed, size, True, deadline))
        elapsed = time.time() - start
        next_end = elapsed + elapsed / len(plain)
        if next_end > HARD_LIMIT_S - 10:
            break
        if next_end > seconds and len(plain) >= (1 if trace else MIN_REPS):
            break
    return plain, traced


def check(workload, seed, size, plain, traced, pins):
    """Cell failures: broken invariants, a changed workload definition, and
    digests that differ from the expected one.  That is the pinned digest
    where the definition has one, and otherwise the digest most
    repetitions of the cell agree on, so one divergent repetition costs
    one failed cell."""
    stamp = definition_digest(workload, size, plain[0]["definition"])
    pinned = pins.get(stamp)
    if pinned is None and seed == 0 and size == "full":
        pinned = {"cells": {}}  # the default run must be pinned
    reps = plain + traced
    votes = {}
    for rep in reps:
        for cell in rep["cells"]:
            votes.setdefault(cell["cell"], collections.Counter())[
                cell["digest"]] += 1
    attempted = failed = 0
    problems = []
    for index, rep in enumerate(reps):
        kind = "traced" if index >= len(plain) else "untraced"
        for cell in rep["cells"]:
            attempted += 1
            found = list(cell["problems"])
            name, digest = cell["cell"], cell["digest"]
            if rep["definition"] != plain[0]["definition"]:
                found.append("workload definition changed between "
                             "repetitions")
            if pinned is None:
                want, source = votes[name].most_common(1)[0][0], "common"
            else:
                want, source = pinned["cells"].get(name), "pinned"
            if source == "pinned" and want is None:
                found.append("no pinned digest for definition %s "
                             "(re-pin with --repin)" % stamp[:16])
            elif digest != want:
                found.append("%s digest %s != %s %s"
                             % (kind, str(digest)[:16], source,
                                str(want)[:16]))
            if found:
                failed += 1
                problems.extend("%s rep %d %s: %s" % (kind, index, name, item)
                                for item in found)
    return stamp, attempted, failed, problems


def speed(reps):
    """Scale from the raw seconds of a run to reference-speed seconds: the
    mean of every reference sample the run took (see ``reference.py``)."""
    samples = [value for rep in reps for value in rep["reference_s"]]
    return reference.NOMINAL_S / statistics.mean(samples)


def _run_wall(rep, local=False):
    return sum(c["run_s"] for c in rep["cells"]
               if not local or c["cell"] not in workloads.REMOTE_CELLS)


def _setup(rep):
    return rep["import_s"] + rep["build_s"] + sum(
        c["setup_s"] for c in rep["cells"])


def _phase_wall(rep, local=False):
    return sum(c["setup_s"] + c["run_s"] + c["check_s"]
               for c in rep["cells"]
               if not local or c["cell"] not in workloads.REMOTE_CELLS)


def end_to_end(plain, scaled=True):
    """Medians over the untraced repetitions; ``scaled=False`` gives the
    raw host seconds, printed alongside."""
    factor = speed(plain) if scaled else 1.0
    return {
        "wall_s": statistics.median(
            [_run_wall(rep) for rep in plain]) * factor,
        "setup_s": statistics.median([_setup(rep) for rep in plain]) * factor,
        "peak_rss_mb": statistics.median(
            [rep["peak_rss_mb"] for rep in plain]),
    }


def per_layer(plain, traced):
    """Per-layer metrics, and the tracer cost subtracted from each self
    time: medians over traced repetitions of each layer's self time less
    its share of the tracer's cost, counts read from the layer objects,
    and the untraced repetitions' cell walls and live-object counts.

    The tracer's cost is the traced minus the untraced wall of the cells
    that run in this process.  It is split over the layers by their
    wrapper events weighted with the calibrated per-event costs
    (``tracer.calibrate``).
    """
    layers = traced[0]["layers"]
    index = {name: i for i, name in enumerate(layers)}
    factor = speed(plain + traced)

    def total(rep, field, names, phases=None):
        return sum(values[field][index[name]]
                   for phase, values in rep["by_phase"].items()
                   if phases is None or phase in phases
                   for name in names)

    def seconds(field, names, phases=None):
        return statistics.median([total(rep, field, names, phases)
                                  for rep in traced]) * factor

    untraced_wall = statistics.median(
        [_phase_wall(rep, local=True) for rep in plain]) * factor
    predicted = statistics.median([total(rep, "wrapper_s", layers)
                                   for rep in traced])
    measured = statistics.median([_phase_wall(rep, local=True)
                                  for rep in traced]) * factor \
        - untraced_wall
    scale = max(0.0, measured / predicted) if predicted else 0.0

    def self_time(names, phases=None):
        return statistics.median([
            max(0.0, total(rep, "self_s", names, phases) * factor
                - scale * total(rep, "wrapper_s", names, phases))
            for rep in traced])

    def wrapper(names, phases=None):
        return scale * statistics.median(
            [total(rep, "wrapper_s", names, phases) for rep in traced])

    selves = {metric: (names, None) for metric, names in SELF_TIME.items()}
    selves["core.build_s"] = (("core.session", "core.runtime",
                                "core.memory"), ("setup",))
    selves["hw.build_s"] = (("hw",), ("setup",))
    metrics = {metric: self_time(*args) for metric, args in selves.items()}
    subtracted = {metric: wrapper(*args) for metric, args in selves.items()}
    metrics["scenario.compile_s"] = seconds("incl_s", ("scenario.compile",))
    metrics["scenario.slo_s"] = seconds("incl_s", ("scenario.slo",))
    metrics["core.session.calls"] = total(traced[0], "calls",
                                          ("core.session",))
    metrics.update(traced[0]["counts"])
    local_wall = statistics.median(
        [_run_wall(rep, local=True) for rep in plain]) * factor
    metrics["simnet.events_per_s"] = metrics["simnet.events"] / local_wall
    metrics["simnet.live_sims"] = plain[0]["live_sims"]
    metrics["core.memory.live_pools"] = plain[0]["live_pools"]
    facts = plain[0]["facts"]
    parts = facts.get("partition_events")
    if parts and facts.get("serial_events"):
        metrics["dist.events_ratio"] = sum(parts) / facts["serial_events"]
        metrics["dist.imbalance"] = max(parts) / (sum(parts) / len(parts))
    else:
        metrics["dist.events_ratio"] = metrics["dist.imbalance"] = 0.0
    metrics["trace.overhead_frac"] = statistics.median(
        [_phase_wall(rep) for rep in traced]) / statistics.median(
        [_phase_wall(rep) for rep in plain]) - 1.0
    metrics["trace.unattributed_frac"] = statistics.median(
        [total(rep, "self_s", ("unattributed",)) / _phase_wall(rep)
         for rep in traced])
    for cell, metric in CELL_WALLS.items():
        walls = [c["run_s"] for rep in plain for c in rep["cells"]
                 if c["cell"] == cell]
        metrics[metric] = statistics.median(walls) * factor if walls else 0.0
    return metrics, subtracted


def run_workload(workload, seed, seconds, trace, size, repin=False):
    """Measure and check one workload; prints its report, returns the
    result object."""
    plain, traced = measure(workload, seed, seconds, trace, size)
    pins = load_pins()
    stamp, attempted, failed, problems = check(workload, seed, size, plain,
                                               traced, pins)
    notes, subtracted = {}, {}
    if trace:
        values, subtracted = per_layer(plain, traced)
        units = dict(PER_LAYER)
        for name, cost in subtracted.items():
            notes[name] = "  (tracer cost %.6f s subtracted)" % cost
    else:
        values, units = end_to_end(plain), dict(END_TO_END)
        for name, value in end_to_end(plain, scaled=False).items():
            if units[name] == "s":
                notes[name] = "  (raw %.6f s)" % value
    print("hostbench %s seed=%d size=%s trace=%d reps=%d definition=%s"
          % (workload, seed, size, trace, len(plain) + len(traced), stamp))
    for name, unit in units.items():
        print("  %-26s %16.6f %s%s"
              % (name, values[name], unit, notes.get(name, "")))
    print("  %-26s %16.6f (%d of %d cells failed)"
          % ("fail_frac", failed / attempted, failed, attempted))
    for problem in problems:
        print("FAIL " + problem)
    if repin:
        _repin(pins, stamp, workload, seed, size, plain[0])
    report = {"workload": workload, "seed": seed, "size": size,
              "trace": trace, "definition_digest": stamp,
              "definition": plain[0]["definition"],
              "repetitions": {"untraced": plain, "traced": traced},
              "tracer_cost_s": subtracted, "problems": problems}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-seed%d-%s-trace%d.json"
                        % (workload, seed, size, trace))
    with open(path, "w") as handle:
        json.dump(report, handle)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def _repin(pins, stamp, workload, seed, size, rep):
    """Pin the first repetition's digests for this definition (a deliberate
    act, reviewed like any change to the golden corpus)."""
    pins[stamp] = {"workload": workload, "seed": seed, "size": size,
                   "cells": {c["cell"]: c["digest"] for c in rep["cells"]}}
    with open(PINS, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("pinned %d cell digests for %s" % (len(rep["cells"]), stamp[:16]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--repin", action="store_true",
                        help="record this run's digests as the pins")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("hostbench: no src/repro under %s; run from a checkout of "
              "the repository" % ROOT, file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.all else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(
                name, args.seed, args.seconds, args.trace, args.size,
                repin=args.repin))
    except (RepFailed, subprocess.CalledProcessError) as exc:
        print("hostbench: %s" % exc, file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
