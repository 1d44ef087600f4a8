"""Stack lifetime across repeated runs in one process.

The kernel UDP stack is a per-host singleton.  It must die with its
host, so a long-lived process (a test session, a scenario sweep) does not
keep alive every simulator it ever built.
"""

import gc
import os
import weakref

from repro.core.memory import SlotPool
from repro.scenario.compile import compile_scenario
from repro.scenario.runner import builtin_corpus_dir, metrics_digest
from repro.scenario.schema import load_scenario
from repro.simnet import Simulator

#: slow QoS maps onto the kernel UDP datapath
UDP_SCENARIO = os.path.join(builtin_corpus_dir(), "pingpong-udp-slow-rtt.yaml")


def _run_once(spec):
    """Run ``spec``; returns its metrics digest and weakrefs to its
    simulator and every slot pool built on it."""
    compiled = compile_scenario(spec)
    sim = compiled.testbed.sim
    assert isinstance(sim, Simulator)
    digest = metrics_digest(compiled.run())
    pools = [obj for obj in gc.get_objects()
             if isinstance(obj, SlotPool) and obj.sim is sim]
    assert pools, "the scenario built no slot pool"
    return digest, [weakref.ref(sim)] + [weakref.ref(pool) for pool in pools]


def test_repeated_kernel_udp_runs_release_their_stacks():
    spec = load_scenario(UDP_SCENARIO)
    digests, refs = [], []
    for _ in range(3):
        digest, run_refs = _run_once(spec)
        digests.append(digest)
        refs.append(run_refs)
    gc.collect()
    for run, run_refs in enumerate(refs[:2], start=1):
        alive = [ref() for ref in run_refs if ref() is not None]
        assert alive == [], "run %d is still alive: %r" % (run, alive)
    assert digests[1] == digests[0]
    assert digests[2] == digests[0]
