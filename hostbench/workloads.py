"""The four benchmark workloads, as cells with set-up, run and check phases.

Every workload is a fixed-size batch job driven through public entry
points only.  A cell is one operation: a figure point, a scenario, a city
run, the hybrid fan-out run, or one differential size.  Its three phases
are timed apart:

* ``setup()`` builds what must exist before the first simulated event
  (testbed and deployment, ``compile_scenario``, topology resolve,
  envelope calibration) and returns the cell state;
* ``run(state)`` is the simulated work whose wall time is reported;
* ``check(output)`` returns ``(digest, problems)``: a sha256 over the
  canonical JSON of the simulated output (event counts left out, so event
  fusion keeps it) and the invariants that output broke.

Sizes: ``full`` is what the benchmark measures; ``tiny`` is a
seconds-long version of the same code paths, for the benchmark's tests.
"""

import hashlib
import json
import os

WORKLOADS = ("paper_figs", "scenario_corpus", "metro_city", "fanout_1m")

SIZES = {
    "paper_figs": {
        "full": {"profile": "local", "rounds": 2000, "ping_size": 64,
                 "messages": 20000, "stream_size": 1024, "sinks": 8},
        "tiny": {"profile": "local", "rounds": 50, "ping_size": 64,
                 "messages": 200, "stream_size": 1024, "sinks": 8},
    },
    "scenario_corpus": {
        "full": {"scenarios": "all"},
        "tiny": {"scenarios": ["baseline-fast-vs-udp", "pingpong-dpdk-rtt",
                               "streaming-dpdk-clean"]},
    },
    "metro_city": {
        "full": {"preset": "metro1k", "messages": 16, "partitions": 2},
        "tiny": {"preset": "smoke64", "messages": 2, "partitions": 2},
    },
    "fanout_1m": {
        # the arguments ``repro.bench.fanout.run_fanout_bench`` passes
        "full": {"profile": "local", "size": 1024, "subscribers": 1_000_000,
                 "messages": 64, "hot_fraction": 1e-4,
                 "diff_subscribers": [64, 256, 1024], "diff_messages": 24,
                 "diff_hot_fraction": 0.05, "epsilon": 0.15},
        "tiny": {"profile": "local", "size": 1024, "subscribers": 10_000,
                 "messages": 8, "hot_fraction": 1e-3,
                 "diff_subscribers": [64], "diff_messages": 8,
                 "diff_hot_fraction": 0.05, "epsilon": 0.15},
    },
}

#: cells whose simulation runs in worker processes, out of the tracer's
#: sight: their events are not in ``simnet.events``.
REMOTE_CELLS = ("partitioned",)

#: what each workload imports; timed as part of ``setup_s``.
IMPORTS = {
    "paper_figs": ("repro.bench.harness",),
    "scenario_corpus": ("repro.scenario", "repro.scenario.runner"),
    "metro_city": ("repro.dist.sync", "repro.hw.generate"),
    "fanout_1m": ("repro.fluid", "repro.validate.fanout"),
}


class Cell:
    """One operation of a workload."""

    def __init__(self, name, setup, run, check):
        self.name = name
        self.setup = setup
        self.run = run
        self.check = check


def output_digest(payload):
    """sha256 over canonical JSON, as the golden corpus digests outputs
    (also the workload-definition stamp)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def cells(workload, seed, size="full"):
    """``(definition, cells, facts)`` for one workload at one seed.

    ``definition`` holds everything the inputs derive from; its digest
    stamps every result, so only runs of equal definitions are compared.
    ``facts`` is filled while the cells run with numbers the per-layer
    report needs but no layer object holds (partition event counts).
    """
    import repro

    definition, cells_, facts = _FACTORIES[workload](SIZES[workload][size],
                                                    seed)
    definition["repro_version"] = repro.__version__
    return definition, cells_, facts


# -- paper_figs ---------------------------------------------------------------

def _paper_figs(params, seed):
    from repro.bench.harness import InsaneBenchApp, make_system, make_testbed

    profile = params["profile"]

    def fig5_setup():
        testbed = make_testbed(profile, seed=seed)
        return testbed, make_system("insane_fast", testbed)

    def fig5_run(state):
        testbed, app = state
        return testbed, app.pingpong(params["rounds"], params["ping_size"])

    def fig5_check(output):
        testbed, tally = output
        problems = []
        if tally.count != params["rounds"]:
            problems.append("fig5 recorded %d of %d round trips"
                            % (tally.count, params["rounds"]))
        return _sim_digest(testbed, {"rtt_ns": tally.samples}, problems)

    def stream_setup(sinks):
        def setup():
            testbed = make_testbed(profile, seed=seed)
            if sinks == 1:
                return testbed, make_system("insane_fast", testbed)
            return testbed, InsaneBenchApp(testbed, "fast")
        return setup

    def stream_run(sinks):
        def run(state):
            testbed, app = state
            meters = app.stream(params["messages"], params["stream_size"],
                                sinks=sinks)
            return testbed, meters
        return run

    def stream_check(output):
        # the flood overruns the receive rings, so sinks see fewer than
        # ``messages``: the digest pins exactly how many
        testbed, meters = output
        problems = ["%s received nothing" % meter.name
                    for meter in meters if not meter.messages]
        result = [{"gbps": meter.gbps(), "messages": meter.messages,
                   "bytes": meter.bytes, "first_ns": meter.first_ns,
                   "last_ns": meter.last_ns}
                  for meter in meters]
        return _sim_digest(testbed, {"sinks": result}, problems)

    definition = {"params": params, "seed": seed}
    return definition, [
        Cell("fig5", fig5_setup, fig5_run, fig5_check),
        Cell("fig8a", stream_setup(1), stream_run(1), stream_check),
        Cell("fig8b", stream_setup(params["sinks"]),
             stream_run(params["sinks"]), stream_check),
    ], {}


def _sim_digest(testbed, result, problems):
    sim = testbed.sim
    if sim.failures:
        problems.append("%d simulated processes died: %s"
                        % (len(sim.failures), sim.failures[0]))
    return output_digest({"sim_ns": sim.now, "result": result,
                          "failures": len(sim.failures)}), problems


# -- scenario_corpus ----------------------------------------------------------

def _scenario_corpus(params, seed):
    from repro.scenario import (
        builtin_corpus_dir, compile_scenario, discover_scenarios,
        evaluate_slos, load_scenario, validate_scenario,
    )
    files = discover_scenarios(builtin_corpus_dir())
    if params["scenarios"] != "all":
        files = [path for path in files
                 if os.path.splitext(os.path.basename(path))[0]
                 in params["scenarios"]]
    corpus = {}
    for path in files:
        with open(path, "rb") as handle:
            corpus[os.path.basename(path)] = hashlib.sha256(
                handle.read()).hexdigest()

    def make(path):
        def setup():
            spec = load_scenario(path)
            spec = validate_scenario(dict(spec, seed=spec["seed"] + seed))
            return spec, compile_scenario(spec)

        def run(state):
            spec, compiled = state
            metrics = compiled.run()
            assertions, ok = evaluate_slos(spec["slo"], metrics)
            return spec, metrics, assertions, ok

        def check(output):
            spec, metrics, assertions, ok = output
            problems = []
            if not ok:
                problems.extend(
                    "%s: SLO %s failed: %s"
                    % (spec["scenario"], item["name"], item.get("reason"))
                    for item in assertions if not item["ok"])
            return output_digest(_without_events(metrics)), problems

        name = os.path.splitext(os.path.basename(path))[0]
        return Cell(name, setup, run, check)

    definition = {"params": params, "seed": seed, "corpus": corpus}
    return definition, [make(path) for path in files], {}


def _without_events(metrics):
    """The metrics minus engine event counts (a city run reports them)."""
    partition = metrics.get("partition")
    if isinstance(partition, dict) and "events" in partition:
        metrics = dict(metrics, partition={
            key: value for key, value in partition.items()
            if key != "events"})
    return metrics


# -- metro_city ---------------------------------------------------------------

def _metro_city(params, seed):
    from repro.dist.sync import run_city_partitioned, run_city_serial
    from repro.hw.generate import (
        CITY_PRESETS, city_plan, resolve_topology, topology_digest,
    )

    raw = dict(CITY_PRESETS[params["preset"]], messages=params["messages"],
               seed=seed)
    shared = {}
    facts = {}

    def serial_setup():
        spec = resolve_topology(raw)
        shared["expected"] = len(city_plan(spec)["flows"]) * spec["messages"]
        return spec

    def serial_check(run):
        shared["serial"] = run["digest"]
        problems = []
        delivered = len(run["records"]["deliveries"])
        if delivered != shared["expected"]:
            problems.append("serial city delivered %d of %d messages"
                            % (delivered, shared["expected"]))
        return run["digest"], problems

    def partitioned_run(spec):
        return run_city_partitioned(spec, params["partitions"],
                                    transport="process")

    def partitioned_check(run):
        problems = []
        if run["digest"] != shared.get("serial"):
            problems.append("partitioned digest %s != serial digest %s"
                            % (run["digest"][:16],
                               str(shared.get("serial"))[:16]))
        events = [meta["events"] for meta in run["per_partition"]]
        facts["partition_events"] = events
        return run["digest"], problems

    def serial_run(spec):
        run = run_city_serial(spec)
        facts["serial_events"] = run["events"]
        return run

    definition = {"params": params, "seed": seed,
                  "topology_digest": topology_digest(raw)}
    return definition, [
        Cell("serial", serial_setup, serial_run, serial_check),
        Cell("partitioned", lambda: resolve_topology(raw), partitioned_run,
             partitioned_check),
    ], facts


# -- fanout_1m ----------------------------------------------------------------

def _fanout_1m(params, seed):
    from repro.fluid import calibrate_envelope, run_hybrid_fanout
    from repro.validate.fanout import run_fanout_differential

    shared = {}

    def envelope():
        # calibrated once per repetition, like run_fanout_bench does
        if "envelope" not in shared:
            shared["envelope"] = calibrate_envelope(
                profile=params["profile"], size=params["size"],
                seed=seed + 7919)
        return shared["envelope"]

    def hybrid_run(env):
        return run_hybrid_fanout(
            params["subscribers"], messages=params["messages"],
            size=params["size"], hot_fraction=params["hot_fraction"],
            profile=params["profile"], seed=seed, envelope=env)

    def hybrid_check(metrics):
        problems = []
        expected = params["subscribers"] * params["messages"]
        if metrics["delivered"] != expected \
                or metrics["expected"] != expected:
            problems.append("hybrid fan-out delivered %d of %d"
                            % (metrics["delivered"], expected))
        return output_digest(metrics), problems

    def diff_run(count):
        def run(env):
            return run_fanout_differential(
                subscribers=(count,), messages=params["diff_messages"],
                size=params["size"],
                hot_fraction=max(params["hot_fraction"],
                                 params["diff_hot_fraction"]),
                epsilon=params["epsilon"], seed=seed,
                profile=params["profile"], envelope=env)
        return run

    def diff_check(result):
        problems = []
        if not result["ok"]:
            problems.append(
                "differential failed: exact=%s conserved=%s p50=%.4f "
                "p99=%.4f (epsilon %.2f)"
                % (result["delivered_exact"], result["wire_conserved"],
                   result["max_p50_rel_err"], result["max_p99_rel_err"],
                   result["epsilon"]))
        return output_digest(result), problems

    cells_ = [Cell("hybrid", envelope, hybrid_run, hybrid_check)]
    cells_.extend(Cell("diff%d" % count, envelope, diff_run(count),
                       diff_check)
                  for count in params["diff_subscribers"])
    return {"params": params, "seed": seed}, cells_, {}


_FACTORIES = {
    "paper_figs": _paper_figs,
    "scenario_corpus": _scenario_corpus,
    "metro_city": _metro_city,
    "fanout_1m": _fanout_1m,
}
