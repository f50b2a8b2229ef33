"""Fast-path invariants: the dispatch memo, the lazy head heap, bulk
histogram observation, allocation replay, and sampled tracing must all
be invisible in the simulated results — same seed, same bytes.

The allocation lane is chosen by the allocator alone: memo replay while
nothing observes it, real buffers under ``record_timeline=True``."""

import json

import pytest

from repro.gpusim.allocator import DeviceAllocator
from repro.gpusim.device import TITAN_X
from repro.errors import DeviceOOMError
from repro.faults.plan import named_plan
from repro.obs.export import jsonl_lines
from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.obs.tracer import SimTracer, TraceSampler
from repro.serve import (Arrival, BatchPolicy, Server, ServerConfig,
                         TrafficSpec, generate_trace)
from repro.serve.loadgen import MODEL_SHAPES
from repro.serve.queue import AdmissionQueue
from repro.serve.request import Request, shape_key

KEY = shape_key(MODEL_SHAPES["AlexNet"][1][1])
KEY2 = shape_key(MODEL_SHAPES["AlexNet"][0][1])

TRACE = generate_trace(TrafficSpec(duration_s=1.0, rate_rps=4000.0, seed=7))


FAULT_PLANS = ["straggler", "transient-top", "memory-pressure",
               "cache-chaos", "chaos"]


def run_bytes(record_timeline, fault_plan=None, max_batch=64,
              trace_sample=0):
    """The report JSON of one run, and its JSONL trace (None when
    untraced).  ``record_timeline`` observes the allocator, which
    selects the real-buffer lane over memo replay."""
    policy = (BatchPolicy() if max_batch > 1
              else BatchPolicy(max_batch=1, max_wait_s=0.0))
    server = Server(ServerConfig(policy=policy), fault_plan=fault_plan,
                    fault_seed=11, record_timeline=record_timeline)
    tracer = server.enable_tracing(sample=trace_sample) \
        if trace_sample else None
    report = json.dumps(server.run(TRACE).to_dict(), sort_keys=True)
    return report, (None if tracer is None
                    else "\n".join(jsonl_lines(tracer)))


def report_bytes(record_timeline, fault_plan=None, max_batch=64,
                 trace_sample=0):
    return run_bytes(record_timeline, fault_plan, max_batch,
                     trace_sample)[0]


class TestMemoByteIdentity:
    """Unobserved (memo replay) vs observed (real buffers) runs."""

    def test_plain_run_identical(self):
        assert report_bytes(False) == report_bytes(True)

    def test_batch1_run_identical(self):
        assert (report_bytes(False, max_batch=1)
                == report_bytes(True, max_batch=1))

    @pytest.mark.parametrize("plan", FAULT_PLANS)
    def test_fault_plans_identical(self, plan):
        # Chaos runs must not observe the memo — the fault ladder
        # replays byte-exactly on either lane.
        assert (report_bytes(False, named_plan(plan))
                == report_bytes(True, named_plan(plan)))

    @pytest.mark.parametrize("sample", [1, 4])
    @pytest.mark.parametrize("plan", [None] + FAULT_PLANS)
    def test_traced_runs_identical(self, plan, sample):
        # Traced runs replay the memo too; the report and the exported
        # span trace must not see which allocation lane ran.
        fault_plan = named_plan(plan) if plan else None
        replay = run_bytes(False, fault_plan, trace_sample=sample)
        real = run_bytes(True, fault_plan, trace_sample=sample)
        assert replay[1] is not None
        assert replay == real

    def test_memo_counts_hits(self):
        server = Server(ServerConfig())
        server.run(TRACE)
        stats = server.dispatch_memo_stats()
        assert stats["hits"] > 0
        assert stats["entries"] == stats["misses"]
        # One cold miss per distinct point, everything else a hit.
        assert stats["hit_rate"] > 0.5

    def test_observed_server_reports_zero_memo_traffic(self):
        server = Server(ServerConfig(), record_timeline=True)
        server.run(TRACE)
        stats = server.dispatch_memo_stats()
        assert (stats["hits"], stats["misses"]) == (0, 0)
        assert server.memory_timeline

    def test_cache_corruption_keeps_memo_entries(self):
        # Corruption drops plan rankings, never a memory plan: the memo
        # is keyed by (shape, batch, implementation) only, so a
        # corrupted run re-ranks but replays the entries it already has.
        # Long enough for the plan's corruption events to fire.
        trace = generate_trace(TrafficSpec(duration_s=3.0, rate_rps=4000.0,
                                           seed=7))
        plain = Server(ServerConfig())
        plain.run(trace)

        def chaos_run(observed):
            server = Server(ServerConfig(),
                            fault_plan=named_plan("cache-chaos"),
                            fault_seed=11, record_timeline=observed)
            report = json.dumps(server.run(trace).to_dict(), sort_keys=True)
            return server, report

        chaos, report = chaos_run(False)
        assert chaos.plan_cache.corruptions > 0
        # cache-chaos leaves timing untouched, so the dispatch points
        # are the fault-free run's.
        assert (chaos.dispatch_memo_stats()["entries"]
                == plain.dispatch_memo_stats()["entries"])
        assert report == chaos_run(True)[1]


class TestHeadHeap:
    def offer(self, queue, rid, key, arrival_s, timeout_s=10.0):
        return queue.offer(Request(rid, "m", "l", key, arrival_s,
                                   timeout_s))

    def scan_oldest(self, queue):
        """The O(lanes) reference the heap replaced."""
        best = None
        for key, lane in queue._lanes.items():
            if lane and (best is None or lane[0].arrival_s < best[1].arrival_s):
                best = (key, lane[0])
        return best

    def test_matches_linear_scan_through_churn(self):
        queue = AdmissionQueue(max_depth=512)
        rid = 0
        for step in range(200):
            key = KEY if step % 3 else KEY2
            self.offer(queue, rid, key, 0.001 * step)
            rid += 1
            if step % 5 == 4:
                head = queue.oldest_lane()
                assert head == self.scan_oldest(queue)
                queue.take(head[0], 2)
            assert queue.oldest_lane() == self.scan_oldest(queue)

    def test_tie_breaks_by_lane_creation_order(self):
        queue = AdmissionQueue()
        self.offer(queue, 0, KEY, 1.0)
        self.offer(queue, 1, KEY2, 1.0)  # same arrival, later lane
        assert queue.oldest_lane()[0] == KEY

    def test_shed_rebuilds_heap(self):
        queue = AdmissionQueue()
        self.offer(queue, 0, KEY, 0.0, timeout_s=0.1)
        self.offer(queue, 1, KEY, 5.0)
        self.offer(queue, 2, KEY2, 1.0)
        dropped = queue.shed_expired(2.0)
        assert [r.rid for r in dropped] == [0]
        assert queue.oldest_lane() == self.scan_oldest(queue)
        assert queue.oldest_lane()[1].rid == 2

    def test_out_of_order_offer_keeps_min_deadline(self):
        queue = AdmissionQueue()
        self.offer(queue, 0, KEY, 0.0, timeout_s=10.0)
        # Earlier deadline appended behind a later one (cluster
        # requeue shape): the lane goes unsorted but still sheds.
        self.offer(queue, 1, KEY, 0.1, timeout_s=0.1)
        dropped = queue.shed_expired(1.0)
        assert [r.rid for r in dropped] == [1]
        assert queue.oldest_lane()[1].rid == 0

    def test_drain_clears_heap(self):
        queue = AdmissionQueue()
        self.offer(queue, 0, KEY, 1.0)
        queue.drain()
        assert queue.oldest_lane() is None
        assert queue._head_heap == []


class TestObserveMany:
    def test_equivalent_to_loop(self):
        reg = MetricsRegistry()
        one, many = reg.histogram("one"), reg.histogram("many")
        values = [0.5, 1.25, 3.0]
        for v in values:
            one.observe(v)
        many.observe_many(values)
        assert one.observations == many.observations
        assert one.snapshot_value() == many.snapshot_value()

    def test_rejects_non_finite_and_stays_clean(self):
        hist = MetricsRegistry().histogram("h")
        with pytest.raises(ValueError):
            hist.observe_many([1.0, float("nan"), 2.0])
        # All-or-nothing: a rejected batch must not half-apply.
        assert hist.observations == []

    def test_null_registry_noop(self):
        reg = NullRegistry()
        hist = reg.histogram("h")
        hist.observe_many([1.0, float("inf")])  # must not raise or record
        assert hist.observations == []
        assert len(reg) == 0


class TestReplayTransient:
    SIZES = [10 << 20, 900 << 20, 30 << 20]

    def real_episode(self, allocator, sizes):
        buffers = [allocator.alloc(s, tag="t") for s in sizes]
        for buf in buffers:
            allocator.free(buf)

    def test_same_peak_as_real_loop(self):
        real = DeviceAllocator(TITAN_X)
        fast = DeviceAllocator(TITAN_X)
        self.real_episode(real, self.SIZES)
        rounded = [((s + 511) // 512) * 512 for s in self.SIZES]
        fast.replay_transient(rounded, sum(rounded))
        assert fast.peak == real.peak
        assert fast.in_use == real.in_use == real.baseline

    def test_same_oom_at_same_buffer(self):
        sizes = [8 << 30, 6 << 30]  # second exceeds the 12 GB card
        real = DeviceAllocator(TITAN_X)
        with pytest.raises(DeviceOOMError) as real_err:
            self.real_episode(real, sizes)
        fast = DeviceAllocator(TITAN_X)
        with pytest.raises(DeviceOOMError) as fast_err:
            fast.replay_transient(sizes, sum(sizes))
        assert fast_err.value.requested == real_err.value.requested
        # The partially-allocated prefix is charged to the peak either
        # way (the real loop's caller frees the prefix afterwards).
        assert fast.peak == real.peak


class TestTraceSampler:
    def run_traced(self, sample):
        server = Server(ServerConfig())
        tracer = server.enable_tracing(sample=sample)
        report = server.run(TRACE)
        return tracer, json.dumps(report.to_dict(), sort_keys=True)

    def test_sample_1_is_plain_tracer(self):
        tracer, _ = self.run_traced(1)
        assert isinstance(tracer, SimTracer)

    def test_sampling_thins_spans_keeps_exact_report(self):
        full, full_report = self.run_traced(1)
        sampled, sampled_report = self.run_traced(4)
        assert isinstance(sampled, TraceSampler)
        # Exact unit accounting, thinned span forest.
        assert sampled.units_total == len(full.find("serve.batch"))
        kept = len(sampled.find("serve.batch"))
        assert kept == sampled.units_kept
        assert kept == (sampled.units_total + 3) // 4
        assert sampled.span_count() < full.span_count()
        # Sampling is host-side only: the report bytes do not move.
        assert sampled_report == full_report

    def test_untraced_report_matches_traced(self):
        # Tracing (full or sampled) must not perturb simulated results.
        assert report_bytes(False) == self.run_traced(1)[1]
        assert report_bytes(False) == report_bytes(False, trace_sample=4)

    def test_memo_traffic_independent_of_tracing(self):
        # One dispatch path: tracing and sampling never pick the lane,
        # so the memo sees the same hits and misses at any rate.
        def memo_stats(sample):
            server = Server(ServerConfig())
            if sample:
                server.enable_tracing(sample=sample)
            server.run(TRACE)
            return server.dispatch_memo_stats()

        untraced = memo_stats(0)
        assert untraced["hits"] > 0
        assert memo_stats(1) == untraced
        assert memo_stats(4) == untraced

    def test_sample_validation(self):
        server = Server(ServerConfig())
        with pytest.raises(ValueError):
            server.enable_tracing(sample=0)
