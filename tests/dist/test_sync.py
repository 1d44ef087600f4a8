"""Conservative-sync partitioned execution: the bit-identical contract.

The headline assertion of :mod:`repro.dist`: running a generated city cut
across partitions — in-process or across real worker processes — produces
the *same* merged record digest as the serial run, bit for bit.  Everything
else here guards the mechanisms that make that possible: disjoint
packet-id spaces per partition, termination at quiescence (with a
provable simulation horizon as a tripwire), and a merge that refuses to
paper over overlapping counters.
"""

import math
import multiprocessing

import pytest

from repro.dist import (
    check_partition_equivalence,
    merge_partition_records,
    run_city_cell,
    run_city_partitioned,
    run_city_serial,
)
from repro.dist.partition import partition_regions
from repro.dist.sync import PartitionRunner, city_end_of_time
from repro.hw.generate import resolve_topology
from repro.netstack.packet import PARTITION_SEQ_STRIDE, partition_seq_base

TINY = {"hosts": 16, "regions": 4, "messages": 2, "seed": 11}

#: the acceptance-scale city: >= 256 edge hosts across 8 regions,
#: trimmed to 2 messages per flow so the process-transport run stays
#: test-suite fast.
ACCEPTANCE = {"hosts": 256, "regions": 8, "messages": 2, "seed": 3}


def serial(spec):
    return run_city_serial(resolve_topology(spec))


class TestInlineEquivalence:
    def test_partitioned_digests_match_serial(self):
        reference = serial(TINY)
        assert reference["events"] > 0
        for partitions in (2, 3, 4):
            run = run_city_partitioned(resolve_topology(TINY), partitions,
                                       transport="inline")
            assert run["digest"] == reference["digest"], \
                "diverged at %d partitions" % partitions
            assert run["partitions"] == partitions

    def test_single_partition_request_is_the_serial_run(self):
        run = run_city_partitioned(resolve_topology(TINY), 1)
        assert run["transport"] == "serial"
        assert run["digest"] == serial(TINY)["digest"]

    def test_checker_reports_clean(self):
        problems, details = check_partition_equivalence(
            TINY, partitions=(2, 4), transport="inline"
        )
        assert problems == []
        assert details["serial"]["digest"]
        assert len(details["partitioned"]) == 2

    def test_different_seeds_give_different_digests(self):
        assert serial(TINY)["digest"] \
            != serial(dict(TINY, seed=12))["digest"]


class TestProcessTransportAcceptance:
    def test_256_hosts_across_4_worker_processes_match_serial(self):
        """The issue's acceptance bar: a >= 256-node generated city runs
        partitioned across >= 4 real worker processes and the merged
        digest equals the serial run's, bit for bit."""
        spec = resolve_topology(ACCEPTANCE)
        reference = run_city_serial(spec)
        run = run_city_partitioned(spec, 4, transport="process")
        assert run["transport"] == "process"
        assert len(run["per_partition"]) == 4
        assert all(meta["events"] > 0 for meta in run["per_partition"])
        assert run["digest"] == reference["digest"]
        assert run["events"] == reference["events"]
        metas = run["per_partition"]
        assert sum(meta["frames_sent"] for meta in metas) \
            == sum(meta["frames_received"] for meta in metas)
        assert all(meta["blocked_s"] >= 0.0 for meta in metas)
        assert multiprocessing.active_children() == []


class TestSeqDisjointness:
    def test_partitions_mint_packet_ids_in_disjoint_ranges(self):
        """Satellite regression: every partition stamps packet ids from
        its own ``index << 48`` base, so merged records can never collide
        on sequence numbers minted by different partitions."""
        run = run_city_partitioned(resolve_topology(TINY), 4,
                                   transport="inline")
        metas = run["per_partition"]
        assert [meta["seq_base"] for meta in metas] \
            == [partition_seq_base(index) for index in range(4)]
        for meta in metas:
            assert meta["seq_base"] == meta["partition"] * PARTITION_SEQ_STRIDE
            assert meta["seq_base"] <= meta["seq_last"] \
                < meta["seq_base"] + PARTITION_SEQ_STRIDE

    def test_stride_leaves_headroom(self):
        assert PARTITION_SEQ_STRIDE == 1 << 48


class TestQuiescentTermination:
    @pytest.mark.parametrize("partitions", [2, 3, 4])
    def test_run_ends_at_quiescence_not_at_the_horizon(self, partitions):
        """A partitioned run stops once the cut is idle with nothing in
        flight.  Null messages may creep one lookahead per exchange while
        real events remain, but not on towards ``city_end_of_time``,
        which lies far beyond the last event."""
        spec = resolve_topology(TINY)
        reference = run_city_serial(spec)
        run = run_city_partitioned(spec, partitions, transport="inline")
        assert run["digest"] == reference["digest"]
        metas = run["per_partition"]
        creep = math.ceil(reference["now"] / spec["trunk_propagation_ns"])
        assert sum(meta["messages_sent"] for meta in metas) \
            <= partitions * (partitions - 1) * (creep + 8)
        assert sum(meta["frames_sent"] for meta in metas) \
            == sum(meta["frames_received"] for meta in metas) > 0
        assert all(meta["blocked_s"] == 0.0 for meta in metas)


class TestValidateCli:
    def test_prints_per_partition_sync_stats(self, capsys):
        from repro.cli import main

        assert main(["validate", "partitioned", "--topology", "smoke64",
                     "--partitions", "2", "--transport", "inline"]) == 0
        out = capsys.readouterr().out
        for index in (0, 1):
            line = next(line for line in out.splitlines()
                        if line.startswith("  p%d: events " % index))
            assert "messages " in line and "frames sent " in line
            assert line.endswith("blocked 0.000 s")


class TestQuiescenceSoundness:
    """Hand-made reports fed to partition 0 of a 3-way TINY cut whose
    own workload has already run dry: the run may end only when every
    partition is idle and every channel is empty."""

    @staticmethod
    def idle_runner():
        spec = resolve_topology(TINY)
        runner = PartitionRunner(spec, 0,
                                 partition_regions(spec["regions"], 3))
        runner.sim.run()
        runner.net.take_outbox()
        assert runner.sim.peek() is None
        return runner

    @staticmethod
    def report(runner, peer, sent, recv, idle=True):
        runner.receive(peer, (1000.0, [], (idle, tuple(sent), tuple(recv))))

    def test_idle_peer_with_a_frame_in_flight_is_not_quiescent(self):
        runner = self.idle_runner()
        # p1 sent p0 a frame that p0 has not received yet
        self.report(runner, 1, sent=(1, 0, 0), recv=(0, 0, 0))
        self.report(runner, 2, sent=(0, 0, 0), recv=(0, 0, 0))
        assert not runner.quiescent()
        assert runner.floor() == 1000.0

    def test_stale_idle_report_with_unbalanced_pair_is_not_quiescent(self):
        runner = self.idle_runner()
        # p1 reports a frame sent to p2; p2's idle report predates it
        self.report(runner, 1, sent=(0, 0, 1), recv=(0, 0, 0))
        self.report(runner, 2, sent=(0, 0, 0), recv=(0, 0, 0))
        assert not runner.quiescent()
        assert runner.floor() < float("inf")

    def test_busy_peer_is_not_quiescent(self):
        runner = self.idle_runner()
        self.report(runner, 1, sent=(0, 0, 0), recv=(0, 0, 0), idle=False)
        self.report(runner, 2, sent=(0, 0, 0), recv=(0, 0, 0))
        assert not runner.quiescent()

    def test_all_idle_and_balanced_is_quiescent(self):
        runner = self.idle_runner()
        self.report(runner, 1, sent=(0, 0, 1), recv=(0, 0, 0))
        self.report(runner, 2, sent=(0, 0, 0), recv=(0, 1, 0))
        assert runner.quiescent()
        assert runner.floor() == float("inf")
        messages = []
        runner.flush(lambda peer, message: messages.append((peer, message)))
        assert [peer for peer, _ in messages] == [1, 2]
        assert all(message[0] == float("inf") for _, message in messages)


class TestMerge:
    def test_overlapping_counters_refuse_to_merge(self):
        part = {"deliveries": [], "counters": {"tor0.forwarded": 1},
                "core_forwarded": 0}
        with pytest.raises(RuntimeError):
            merge_partition_records([part, dict(part)])

    def test_disjoint_counters_union_and_core_sums(self):
        a = {"deliveries": [[0, 0, 5.0]], "counters": {"tor0.forwarded": 2},
             "core_forwarded": 1}
        b = {"deliveries": [[1, 0, 3.0]], "counters": {"tor1.forwarded": 4},
             "core_forwarded": 2}
        merged = merge_partition_records([a, b])
        assert merged["counters"] == {"tor0.forwarded": 2,
                                      "tor1.forwarded": 4}
        assert merged["core_forwarded"] == 3
        assert merged["deliveries"] == [[0, 0, 5.0], [1, 0, 3.0]]


class TestHorizon:
    def test_end_of_time_bounds_the_last_event(self):
        """The horizon is a tripwire, not the termination rule; it must
        still bound every real event."""
        spec = resolve_topology(TINY)
        assert serial(TINY)["now"] < city_end_of_time(spec)

    def test_horizon_scales_with_workload(self):
        short = resolve_topology(TINY)
        long = resolve_topology(dict(TINY, messages=64))
        assert city_end_of_time(long) > city_end_of_time(short)


class TestCityCell:
    def test_cell_payload_shape_and_full_delivery(self):
        payload = run_city_cell(topology=dict(TINY), partitions=2, seed=11)
        assert payload["topology"] == "custom"
        assert payload["transport"] == "inline"
        assert payload["delivered"] == payload["expected"]
        assert payload["delivery_ratio"] == 1.0
        assert payload["latency"]["count"] > 0
        assert payload["digest"] == serial(TINY)["digest"]

    def test_cell_seed_param_overrides_the_spec(self):
        a = run_city_cell(topology=dict(TINY), partitions=1, seed=11)
        b = run_city_cell(topology=dict(TINY), partitions=1, seed=99)
        assert a["digest"] != b["digest"]
