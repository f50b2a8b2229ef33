"""Load generator: determinism, arrival processes, shape mix."""

import pytest

from repro.config import ConvConfig
from repro.rng import make_rng
from repro.serve.batcher import Batch
from repro.serve.loadgen import (MODEL_SHAPES, Arrival, TrafficSpec,
                                 _instant_rate, generate_trace,
                                 trace_summary)
from repro.serve.request import Completion, Request, shape_key


class TestShapes:
    def test_all_shapes_are_batch_one(self):
        for layers in MODEL_SHAPES.values():
            for _, config in layers:
                assert config.batch == 1

    def test_shapes_are_valid_configs(self):
        for layers in MODEL_SHAPES.values():
            for _, config in layers:
                assert isinstance(config, ConvConfig)
                assert config.output_size >= 1


class TestSpec:
    def test_defaults(self):
        spec = TrafficSpec()
        assert spec.pattern == "poisson"

    @pytest.mark.parametrize("kwargs", [
        {"duration_s": 0}, {"rate_rps": -1}, {"pattern": "diurnal"},
        {"burst_factor": 0.5}, {"models": ("ResNet-999",)}])
    def test_validation(self, kwargs):
        with pytest.raises((ValueError, KeyError)):
            TrafficSpec(**kwargs)


class TestGeneration:
    def test_deterministic_per_seed(self):
        spec = TrafficSpec(duration_s=2.0, rate_rps=500, seed=7)
        assert generate_trace(spec) == generate_trace(spec)

    def test_different_seeds_differ(self):
        a = generate_trace(TrafficSpec(duration_s=2.0, rate_rps=500, seed=1))
        b = generate_trace(TrafficSpec(duration_s=2.0, rate_rps=500, seed=2))
        assert a != b

    def test_sorted_and_bounded(self):
        spec = TrafficSpec(duration_s=2.0, rate_rps=500, seed=3)
        trace = generate_trace(spec)
        times = [a.t_s for a in trace]
        assert times == sorted(times)
        assert all(0 < t < spec.duration_s for t in times)
        assert [a.rid for a in trace] == list(range(len(trace)))

    def test_rate_is_approximately_honoured(self):
        spec = TrafficSpec(duration_s=20.0, rate_rps=300, seed=11)
        trace = generate_trace(spec)
        mean_rate = len(trace) / spec.duration_s
        assert mean_rate == pytest.approx(300, rel=0.15)

    def test_mix_covers_all_requested_models(self):
        trace = generate_trace(TrafficSpec(duration_s=5.0, rate_rps=500, seed=5))
        assert {a.model for a in trace} == {"AlexNet", "VGG", "GoogLeNet"}

    def test_single_model_mix(self):
        trace = generate_trace(TrafficSpec(duration_s=2.0, rate_rps=500,
                                           models=("VGG",), seed=5))
        assert {a.model for a in trace} == {"VGG"}

    def test_keys_match_model_shapes(self):
        trace = generate_trace(TrafficSpec(duration_s=1.0, rate_rps=500, seed=5))
        valid = {shape_key(cfg) for layers in MODEL_SHAPES.values()
                 for _, cfg in layers}
        assert {a.key for a in trace} <= valid


class TestBursty:
    def test_bursty_clusters_in_burst_phase(self):
        spec = TrafficSpec(duration_s=10.0, rate_rps=300, pattern="bursty",
                           burst_factor=4.0, burst_period_s=1.0, seed=9)
        trace = generate_trace(spec)
        in_burst = sum(1 for a in trace
                       if (a.t_s % spec.burst_period_s) < 0.5)
        # Burst phase runs at 16x the off phase rate; well over half of
        # all arrivals must land there.
        assert in_burst / len(trace) > 0.7

    def test_bursty_deterministic(self):
        spec = TrafficSpec(duration_s=3.0, rate_rps=300, pattern="bursty", seed=4)
        assert generate_trace(spec) == generate_trace(spec)


class TestSummary:
    def test_summary_mentions_counts(self):
        spec = TrafficSpec(duration_s=2.0, rate_rps=500, seed=7)
        trace = generate_trace(spec)
        text = trace_summary(trace, spec)
        assert f"{len(trace)} arrivals" in text
        assert "AlexNet" in text and "seed 7" in text


def reference_trace(spec):
    """The generator loop as first written: every draw re-derives the
    rate, the model's layer list and the shape key."""
    rng = make_rng(spec.seed)
    out = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / _instant_rate(spec, t))
        if t >= spec.duration_s:
            break
        model = spec.models[int(rng.integers(len(spec.models)))]
        layers = MODEL_SHAPES[model]
        layer, config = layers[int(rng.integers(len(layers)))]
        out.append((len(out), t, model, layer, shape_key(config)))
    return out


class TestDifferential:
    """The hoisted generator draws exactly what the reference loop
    draws, in the same order."""

    @pytest.mark.parametrize("pattern", ["poisson", "bursty"])
    @pytest.mark.parametrize("seed", [1, 7, 20160816])
    @pytest.mark.parametrize("models", [
        ("AlexNet", "VGG", "GoogLeNet"), ("VGG",), ("GoogLeNet", "AlexNet"),
        ("VGG", "VGG", "AlexNet")])
    def test_matches_reference_loop(self, pattern, seed, models):
        spec = TrafficSpec(duration_s=0.5, rate_rps=2000, pattern=pattern,
                           seed=seed, models=models, burst_factor=3.0,
                           burst_period_s=0.1)
        trace = generate_trace(spec)
        assert [tuple(a) for a in trace] == reference_trace(spec)
        assert all(type(a) is Arrival for a in trace)


class TestRecordTuples:
    """Each serving record is a NamedTuple whose ``==`` and ``hash``
    are those of its field tuple, as the frozen dataclasses' were."""

    def records(self):
        key = shape_key(MODEL_SHAPES["VGG"][1][1])
        arrival = Arrival(3, 0.25, "VGG", "conv3_1", key)
        request = Request(3, "VGG", "conv3_1", key, 0.25, 0.5)
        completion = Completion(request, 0.5, 0.75, 8, 5, "cuDNN")
        batch = Batch((request,), key, 1)
        return [arrival, request, completion, batch]

    def test_hash_and_eq_are_the_field_tuples(self):
        for record, twin in zip(self.records(), self.records()):
            fields = tuple(getattr(record, f) for f in record._fields)
            assert record == fields and hash(record) == hash(fields)
            assert record == twin and hash(record) == hash(twin)
            assert record is not twin

    def test_field_names_properties_and_methods(self):
        arrival, request, completion, batch = self.records()
        assert Arrival._fields == ("rid", "t_s", "model", "layer", "key")
        assert Request._fields == ("rid", "model", "layer", "key",
                                   "arrival_s", "timeout_s")
        assert Completion._fields == ("request", "start_s", "finish_s",
                                      "batch", "fill", "implementation")
        assert Batch._fields == ("requests", "key", "batch")
        assert request.deadline_s == 0.75
        assert not request.expired(0.75) and request.expired(0.76)
        assert request.config(4).batch == 4
        assert completion.latency_s == 0.5
        assert completion.queue_wait_s == 0.25
        assert (batch.fill, batch.fill_fraction) == (1, 1.0)
        assert batch.config() == request.config(1)
        with pytest.raises(AttributeError):
            request.rid = 4
