"""The Fig. 3/5/6 pipelines evaluate each point once through
:func:`repro.core.evalcache.evaluate` on the cache they are given."""

from repro.config import SWEEPS, TABLE1_CONFIGS, ConvConfig, sweep_configs
from repro.core.evalcache import EvalCache, evaluate
from repro.core.gpu_metrics import gpu_metric_profile
from repro.core.memory_comparison import memory_sweep
from repro.core.runtime_comparison import all_runtime_sweeps, runtime_sweep
from repro.frameworks.registry import (resolve_implementation,
                                       shared_implementations)
from repro.gpusim.device import K40C

SMALL = ConvConfig(batch=16, input_size=32, filters=16, kernel_size=3,
                   stride=1, channels=3)


class TestDedup:
    def test_duplicate_points_compute_once(self):
        cudnn = resolve_implementation("cudnn")
        cache = EvalCache()
        records = [evaluate(cudnn, SMALL, K40C, cache=cache)
                   for _ in range(6)]
        assert cache.misses == 1 and len(cache) == 1
        assert all(r is records[0] for r in records)

    def test_shared_sweep_points_compute_once(self):
        # Every Fig. 3 sweep passes through the base configuration.
        cache = EvalCache()
        all_runtime_sweeps(cache=cache)
        points = len(shared_implementations()) * sum(
            len(sweep_configs(name)) for name in SWEEPS)
        assert cache.misses == len(cache) < points
        assert cache.hits == points - len(cache)

    def test_cache_spans_pipelines(self):
        cache = EvalCache()
        runtime_sweep("batch", cache=cache)
        misses = cache.misses
        memory_sweep("batch", cache=cache)
        runtime_sweep("batch", cache=cache)
        assert cache.misses == misses

    def test_uncacheable_points_still_evaluate(self):
        cudnn = resolve_implementation("cudnn")

        class Impostor(type(cudnn)):
            pass

        cache = EvalCache()
        impostor = runtime_sweep("kernel", implementations=[Impostor()],
                                 cache=cache)
        assert len(cache) == 0 and cache.misses == 0
        real = runtime_sweep("kernel", implementations=[cudnn],
                             cache=EvalCache())
        assert impostor.times == real.times


class TestGrid:
    def test_grid_shape(self):
        impls = shared_implementations()
        result = runtime_sweep("batch", cache=EvalCache())
        assert set(result.times) == {impl.paper_name for impl in impls}
        for col in result.times.values():
            assert len(col) == len(result.configs) == len(result.xs)

    def test_unsupported_points_carry_none_times(self):
        fbfft = resolve_implementation("fbfft")
        runtime = runtime_sweep("stride", implementations=[fbfft],
                                cache=EvalCache())
        memory = memory_sweep("stride", implementations=[fbfft],
                              cache=EvalCache())
        for cfg, t, peak in zip(runtime.configs, runtime.times["fbfft"],
                                memory.peaks["fbfft"]):
            assert (t is None) == (cfg.stride > 1)
            assert (peak is None) == (cfg.stride > 1)

    def test_metric_rows_follow_config_then_implementation_order(self):
        impls = shared_implementations()
        rows = gpu_metric_profile(implementations=impls, cache=EvalCache())
        expected = [(cname, impl.paper_name)
                    for cname, cfg in TABLE1_CONFIGS.items()
                    for impl in impls if impl.supports(cfg)]
        assert [(r.config_name, r.implementation) for r in rows] == expected
