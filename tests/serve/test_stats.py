"""Serving stats: percentiles, accumulation, report rendering."""

import json

import pytest

from repro.errors import ReportSchemaError, ReproError
from repro.serve.request import Request
from repro.obs.hist import percentile
from repro.serve.stats import ServingStats, StatsReport

KEY = (27, 256, 5, 1, 96, 2)


def request(rid, arrival):
    return Request(rid=rid, model="m", layer="l", key=KEY,
                   arrival_s=arrival, timeout_s=1.0)


class TestPercentile:
    def test_empty(self):
        assert percentile([], 50) == 0.0

    def test_single(self):
        assert percentile([3.0], 99) == 3.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)

    def test_extremes(self):
        vals = [float(i) for i in range(1, 101)]
        assert percentile(vals, 0) == 1.0
        assert percentile(vals, 100) == 100.0
        assert percentile(vals, 95) == pytest.approx(95.05)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestReport:
    def make_report(self):
        stats = ServingStats()
        stats.offered = 5
        # One padded-to-4 batch of three requests, started at 2 ms and
        # finished at 4 ms: latencies 2, 3 and 4 ms.
        stats.record_dispatch([request(0, 0.002), request(1, 0.001),
                               request(2, 0.0)], start_s=0.002,
                              finish_s=0.004, padded=4, fill=3,
                              implementation="cuDNN")
        cache_stats = {"capacity": 8, "entries": 2, "hits": 9, "misses": 1,
                       "evictions": 0, "hit_rate": 0.9}
        return stats.finalize(duration_s=2.0, plan_cache_stats=cache_stats,
                              peak_memory_bytes=256 * 2**20)

    def test_counts_and_throughput(self):
        rep = self.make_report()
        assert rep.offered == 5
        assert rep.completed == 3
        assert rep.throughput_rps == pytest.approx(1.5)
        assert rep.peak_memory_mb == pytest.approx(256.0)

    def test_latency_is_arrival_to_finish(self):
        rep = self.make_report()
        assert rep.latency_p50_ms == pytest.approx(3.0)

    def test_batch_accounting(self):
        rep = self.make_report()
        assert rep.mean_batch_fill == pytest.approx(3.0)
        assert rep.mean_batch_size == pytest.approx(4.0)
        assert rep.batch_histogram == {4: 1}
        assert rep.implementations == {"cuDNN": 3}

    def test_shed_rate(self):
        stats = ServingStats()
        stats.offered = 10
        stats.rejected = 1
        stats.shed = 2
        stats.oom_shed = 1
        rep = stats.finalize(1.0, {"capacity": 1, "entries": 0, "hits": 0,
                                   "misses": 0, "evictions": 0,
                                   "hit_rate": 0.0}, 0)
        assert rep.shed_rate == pytest.approx(0.4)

    def test_render_mentions_key_lines(self):
        text = self.make_report().render()
        for needle in ("throughput", "latency p50/p95/p99", "plan cache",
                       "batch histogram", "dispatch mix"):
            assert needle in text

    def test_to_dict_is_json_serializable(self):
        d = self.make_report().to_dict()
        restored = json.loads(json.dumps(d))
        assert restored["completed"] == 3
        assert restored["latency_ms"]["p50"] == pytest.approx(3.0)
        assert restored["plan_cache"]["hit_rate"] == pytest.approx(0.9)

    def test_empty_run_report(self):
        stats = ServingStats()
        rep = stats.finalize(0.0, {"capacity": 1, "entries": 0, "hits": 0,
                                   "misses": 0, "evictions": 0,
                                   "hit_rate": 0.0}, 0)
        assert rep.throughput_rps == 0.0
        assert rep.shed_rate == 0.0
        assert rep.mean_batch_fill == 0.0


class TestFromDict:
    """Saved report documents load tolerantly or fail with a typed
    error, never an AttributeError or a silently wrong field."""

    def report_doc(self):
        return json.loads(json.dumps(TestReport().make_report().to_dict()))

    def test_round_trip(self):
        doc = self.report_doc()
        assert StatsReport.from_dict(doc).to_dict() == doc

    def test_missing_and_unknown_keys_tolerated(self):
        doc = self.report_doc()
        del doc["resilience"], doc["latency_ms"]
        doc["from_the_future"] = {"x": "y"}
        doc["shed_by_cause"]["cosmic_rays"] = 2
        rep = StatsReport.from_dict(doc)
        assert rep.retries == 0 and rep.latency_p99_ms == 0.0
        assert rep.shed_by_cause["cosmic_rays"] == 2
        assert StatsReport.from_dict({}).offered == 0

    @pytest.mark.parametrize("doc, match", [
        ([], r"StatsReport: document must be a JSON object, got list"),
        ("x", r"StatsReport: document must be a JSON object, got str"),
        (None, r"document must be a JSON object, got NoneType"),
        ({"latency_ms": []}, r"latency_ms must be a JSON object"),
        ({"resilience": "none"}, r"resilience must be a JSON object"),
        ({"shed_by_cause": [1]}, r"shed_by_cause must be a JSON object"),
        ({"offered": "x"}, r"field 'offered' must be an integer"),
        ({"completed": 1.5}, r"field 'completed' must be an integer"),
        ({"rejected": True}, r"field 'rejected' must be an integer"),
        ({"duration_s": "1"}, r"field 'duration_s' must be a number"),
        ({"latency_ms": {"p99": None}},
         r"latency_ms: field 'p99' must be a number"),
        ({"resilience": {"retries": "2"}},
         r"resilience: field 'retries' must be an integer"),
        ({"shed_by_cause": {"timeout": "3"}},
         r"shed_by_cause: field 'timeout' must be an integer"),
        ({"batch_histogram": {"8": "x"}},
         r"batch_histogram: field '8' must be an integer"),
        ({"batch_histogram": {"big": 1}},
         r"batch_histogram key 'big' is not a batch size"),
        ({"plan_cache": {"hits": "many"}},
         r"plan_cache: field 'hits' must be a number"),
        ({"implementations": {"cuDNN": None}},
         r"implementations: field 'cuDNN' must be an integer"),
    ])
    def test_malformed_documents_raise_typed_errors(self, doc, match):
        with pytest.raises(ReportSchemaError, match=match) as info:
            StatsReport.from_dict(doc)
        assert isinstance(info.value, ReproError)
        assert isinstance(info.value, ValueError)
