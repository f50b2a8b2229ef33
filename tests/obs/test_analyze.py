"""Tests for the offline trace analytics (repro.obs.analyze)."""

import json
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import BASE_CONFIG
from repro.core.evalcache import evaluate, reset_cache
from repro.core.hotspot_kernels import CANONICAL_ROLES, hotspot_kernel_analysis
from repro.errors import TraceSchemaError
from repro.frameworks.registry import get_implementation
from repro.gpusim.device import K40C
from repro.gpusim.timing import SimClock
from repro.obs.analyze import (analyze_run, critical_path, fault_census,
                               from_tracer, hotspot_shares, hotspot_table,
                               load_jsonl, parse_jsonl, reconcile_hotspots,
                               span_aggregates)
from repro.obs.diff import profile_run
from repro.obs.export import jsonl_lines, write_jsonl
from repro.obs.tracer import SimTracer
from repro.serve import Server, ServerConfig, TrafficSpec, generate_trace


SPEC = TrafficSpec(duration_s=0.05, rate_rps=200.0, seed=7)


def traced_run(fault_plan=None, spec=SPEC):
    reset_cache()
    trace = generate_trace(spec)
    server = Server(ServerConfig(), fault_plan=fault_plan,
                    fault_seed=spec.seed)
    tracer = server.enable_tracing()
    server.run(trace)
    return tracer


@pytest.fixture(scope="module")
def run():
    """One serving trace, reloaded through the JSONL round trip."""
    return parse_jsonl(jsonl_lines(traced_run()), source="fixture")


def small_tracer():
    clock = SimClock()
    tracer = SimTracer(clock)
    with tracer.span("root", cat="serve"):
        with tracer.span("short", cat="serve"):
            clock.advance(0.010)
        with tracer.span("long", cat="serve"):
            clock.advance(0.020)
            with tracer.span("leaf", cat="gpu", role="GEMM"):
                pass
        clock.advance(0.005)
    return tracer


class TestLoading:
    def test_round_trip_preserves_tree(self, run):
        live = from_tracer(traced_run())
        assert run.span_count() == live.span_count()
        assert run.duration_s == pytest.approx(live.duration_s)
        assert [s.name for s in run.walk()] == [s.name for s in live.walk()]

    def test_load_jsonl_from_disk(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_jsonl(str(path), traced_run())
        run = load_jsonl(str(path))
        assert run.source == str(path)
        assert run.span_count() > 0

    def test_bad_json_rejected(self):
        with pytest.raises(TraceSchemaError, match="not valid JSON"):
            parse_jsonl(["{nope"])

    def test_record_without_type_rejected(self):
        with pytest.raises(TraceSchemaError, match="no 'type'"):
            parse_jsonl(['{"sid": 1}'])

    def test_unknown_record_type_rejected(self):
        with pytest.raises(TraceSchemaError, match="unknown record type"):
            parse_jsonl(['{"type": "mystery"}'])

    def test_duplicate_sid_rejected(self):
        span = json.dumps({"type": "span", "sid": 1, "parent": None,
                           "name": "a", "cat": "serve",
                           "start_s": 0.0, "end_s": 1.0, "attrs": {}})
        with pytest.raises(TraceSchemaError, match="duplicate span sid"):
            parse_jsonl([span, span])

    def test_dangling_event_reference_rejected(self):
        ev = json.dumps({"type": "event", "span": 42, "name": "x",
                         "t_s": 0.0, "attrs": {}})
        with pytest.raises(TraceSchemaError, match="unknown span 42"):
            parse_jsonl([ev])

    def test_unsupported_schema_version_rejected(self):
        header = json.dumps({"type": "header", "format": "repro-trace",
                             "schema_version": 99})
        with pytest.raises(TraceSchemaError, match="schema_version 99"):
            parse_jsonl([header])

    def test_header_not_first_rejected(self):
        span = json.dumps({"type": "span", "sid": 1, "parent": None,
                           "name": "a", "cat": "serve",
                           "start_s": 0.0, "end_s": 1.0, "attrs": {}})
        header = json.dumps({"type": "header", "schema_version": 1})
        with pytest.raises(TraceSchemaError, match="first record"):
            parse_jsonl([span, header])

    def test_legacy_log_without_header_loads_as_v1(self):
        span = json.dumps({"type": "span", "sid": 1, "parent": None,
                           "name": "a", "cat": "serve",
                           "start_s": 0.0, "end_s": 1.0, "attrs": {}})
        run = parse_jsonl([span])
        assert run.schema_version == 1
        assert run.span_count() == 1

    def test_parent_cycle_rejected(self):
        """Spans 1 and 2 parent each other: neither is a root nor
        reachable from root 3, so loading must fail, not drop them."""
        lines = [span_line(sid=1, parent=2), span_line(sid=2, parent=1),
                 span_line(sid=3, parent=None)]
        with pytest.raises(TraceSchemaError,
                           match=r"spans \[1, 2\] are unreachable"):
            parse_jsonl(lines)

    def test_self_parent_and_its_subtree_rejected(self):
        lines = [span_line(sid=1, parent=None), span_line(sid=2, parent=2),
                 span_line(sid=3, parent=2)]
        with pytest.raises(TraceSchemaError,
                           match=r"spans \[2, 3\] are unreachable"):
            parse_jsonl(lines)

    def test_dangling_parent_loads_as_root(self):
        run = parse_jsonl([span_line(sid=1, parent=7),
                           span_line(sid=2, parent=1)])
        assert [s.sid for s in run.roots] == [1]
        assert run.span_count() == 2


def span_line(**fields):
    rec = {"type": "span", "sid": 1, "parent": None, "name": "a",
           "cat": "serve", "start_s": 0.0, "end_s": 1.0, "attrs": {}}
    rec.update(fields)
    return json.dumps({k: v for k, v in rec.items() if v is not ...})


def event_line(**fields):
    rec = {"type": "event", "span": 1, "name": "x", "t_s": 0.5,
           "attrs": {}}
    rec.update(fields)
    return json.dumps({k: v for k, v in rec.items() if v is not ...})


class TestFieldTypes:
    """Malformed records raise TraceSchemaError naming the line, never
    a bare KeyError/TypeError from deep inside the analysis."""

    @pytest.mark.parametrize("line, match", [
        (event_line(name=...), r"<memory>:2: event record missing 'name'"),
        (event_line(t_s=...), r"<memory>:2: event record missing 't_s'"),
        (span_line(sid=2, attrs=[1, 2]), r"<memory>:2: span field 'attrs'"),
        (event_line(attrs=["a"]), r"<memory>:2: event field 'attrs'"),
        (event_line(attrs="a"), r"event field 'attrs' must be an object"),
        (span_line(sid=[2]), r"<memory>:2: span field 'sid' must be an int"),
        (span_line(sid=True), r"span field 'sid' must be an integer"),
        (span_line(sid=2.0), r"span field 'sid' must be an integer"),
        (span_line(sid=2, parent="1"), r"span field 'parent'"),
        (span_line(sid=2, parent=[1]), r"span field 'parent'"),
        (span_line(sid=2, name=7), r"span field 'name' must be a string"),
        (span_line(sid=2, cat=None), r"span field 'cat' must be a string"),
        (span_line(sid=2, start_s="0"), r"span field 'start_s' must be a nu"),
        (span_line(sid=2, end_s=False), r"span field 'end_s' must be a num"),
        (span_line(sid=2, end_s=10 ** 400), r"span field 'end_s'"),
        (event_line(span={"sid": 1}), r"event field 'span' must be an int"),
        (event_line(span="1"), r"event field 'span'"),
        (event_line(name=["x"]), r"event field 'name' must be a string"),
        (event_line(t_s="now"), r"event field 't_s' must be a number"),
        (event_line(t_s=None), r"event field 't_s' must be a number"),
    ])
    def test_bad_field_rejected_with_line(self, line, match):
        with pytest.raises(TraceSchemaError, match=match):
            parse_jsonl([span_line(), line])

    def test_null_or_absent_attrs_load_empty(self):
        run = parse_jsonl([span_line(attrs=None), span_line(sid=2,
                                                           attrs=...)])
        assert [s.attrs for s in run.walk()] == [{}, {}]

    def test_integer_times_load(self):
        run = parse_jsonl([span_line(start_s=0, end_s=3),
                           event_line(t_s=1)])
        assert run.roots[0].duration_s == 3
        assert analyze_run(run).span_count == 1

    @pytest.mark.parametrize("lines, match", [
        ([span_line(name="serve.batch", attrs={"batch": "many"})],
         r"span 1: attr 'batch' must be a number"),
        ([span_line(name="serve.batch", attrs={"fill": [1]})],
         r"span 1: attr 'fill' must be a number"),
        ([span_line(), event_line(name="fault.transient",
                                  attrs={"retry_cost_s": {}})],
         r"span 1: attr 'retry_cost_s' must be a number"),
        ([span_line(), event_line(name="fault.straggler",
                                  attrs={"slowdown": "fast"})],
         r"span 1: attr 'slowdown' must be a number"),
    ])
    def test_non_numeric_attr_rejected_by_analysis(self, lines, match):
        run = parse_jsonl(lines, source="t.jsonl")
        with pytest.raises(TraceSchemaError, match="t.jsonl: " + match):
            analyze_run(run)
        with pytest.raises(TraceSchemaError, match=match):
            profile_run(run)

    def test_non_integer_arrivals_rejected_by_profile(self):
        run = parse_jsonl([span_line(attrs={"arrivals": 1.5e400})])
        with pytest.raises(TraceSchemaError, match="attr 'arrivals'"):
            profile_run(run)


#: Span and event names the analysis treats specially, so random
#: records reach every attribute it reads.
_NAMES = st.sampled_from(["serve.run", "serve.batch", "serve.plan",
                          "serve.dispatch", "fault.transient",
                          "retry.backoff", "fault.straggler", "k"])
_KEYS = st.sampled_from(["batch", "fill", "hit", "implementation", "role",
                         "retry_cost_s", "backoff_s", "slowdown",
                         "arrivals", "x"])
_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.floats(allow_nan=True, allow_infinity=True)
                 | st.text(max_size=4))
_JSON = st.recursive(_JSON_SCALARS,
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=3), inner,
                                       max_size=3),
                     max_leaves=6)


def _mostly(good, bad=_JSON, odds=30):
    """``good``, except one draw in ``odds`` comes from ``bad``."""
    return st.integers(1, odds).flatmap(lambda i: bad if i == 1 else good)


_ATTR_VALUES = _mostly(st.floats(0.0, 10.0) | st.integers(0, 8)
                       | st.booleans() | st.sampled_from(["cudnn", "GEMM"]),
                       odds=10)
_ATTRS = _mostly(st.dictionaries(_KEYS, _ATTR_VALUES, max_size=4))
_TIME = _mostly(st.floats(0.0, 1.0) | st.integers(0, 2))


@st.composite
def _record(draw, index):
    """One JSONL line; record ``index`` is well formed (a span with sid
    ``index``, a child of an earlier span, or an event on one) unless
    one of its fields draws from the malformed side."""
    ids = st.integers(1, index)
    kind = draw(_mostly(st.sampled_from(["span"] * 4 + ["event"]),
                        st.sampled_from(["header", "other", "text"])))
    if kind == "span":
        rec = {"type": "span", "sid": draw(_mostly(st.just(index), ids)),
               "parent": draw(st.none() | _mostly(ids)),
               "name": draw(_NAMES),
               "cat": draw(_mostly(st.sampled_from(["serve", "gpu"]))),
               "start_s": draw(_TIME), "end_s": draw(_TIME),
               "attrs": draw(_ATTRS)}
    elif kind == "event":
        rec = {"type": "event", "span": draw(st.none() | _mostly(ids)),
               "name": draw(_mostly(_NAMES, odds=5)), "t_s": draw(_TIME),
               "attrs": draw(_ATTRS)}
    elif kind == "header":
        rec = {"type": "header",
               "schema_version": draw(_mostly(st.just(1), odds=2))}
    elif kind == "other":
        rec = draw(_JSON)
    else:
        return draw(st.text(max_size=8))
    if isinstance(rec, dict) and rec and draw(st.integers(1, 30)) == 1:
        del rec[draw(st.sampled_from(sorted(rec)))]
    return json.dumps(rec)


@st.composite
def _lines(draw):
    return [draw(_record(i)) for i in range(1, draw(st.integers(0, 8)) + 1)]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_lines())
def test_any_lines_load_and_analyse_or_raise_schema_error(lines):
    """Whatever the lines hold, the loader and both analyses either
    succeed or raise TraceSchemaError — never another exception."""
    try:
        run = parse_jsonl(lines)
        doc = analyze_run(run).to_dict()
        profile_run(run)
    except TraceSchemaError:
        return
    assert doc["span_count"] == run.span_count()
    records = [json.loads(line) for line in lines if line.strip()]
    assert run.span_count() == sum(r["type"] == "span" for r in records)
    json.dumps(doc)


class TestCriticalPath:
    def test_descends_into_dominant_child(self):
        run = from_tracer(small_tracer())
        steps = critical_path(run.roots[0])
        assert [s.name for s in steps] == ["root", "long", "leaf"]
        assert steps[0].duration_s == pytest.approx(0.035)
        assert steps[0].self_s == pytest.approx(0.005)

    def test_tie_breaks_on_earliest_start(self):
        clock = SimClock()
        tracer = SimTracer(clock)
        with tracer.span("root", cat="serve"):
            with tracer.span("first", cat="serve"):
                clock.advance(0.010)
            with tracer.span("second", cat="serve"):
                clock.advance(0.010)
        steps = critical_path(from_tracer(tracer).roots[0])
        assert [s.name for s in steps] == ["root", "first"]


class TestAggregates:
    def test_self_time_excludes_children(self):
        stats = {s.name: s for s in span_aggregates(from_tracer(
            small_tracer()))}
        assert stats["root"].total_s == pytest.approx(0.035)
        assert stats["root"].self_s == pytest.approx(0.005)
        assert stats["long"].self_s == pytest.approx(0.020)

    def test_sorted_longest_first(self, run):
        stats = span_aggregates(run)
        totals = [s.total_s for s in stats]
        assert totals == sorted(totals, reverse=True)
        assert stats[0].name == "serve.run"


class TestHotspots:
    def test_leaves_attributed_to_dispatch_implementation(self, run):
        table = hotspot_table(run)
        assert table
        assert "(unattributed)" not in table
        for roles in table.values():
            assert all(t >= 0 for t in roles.values())

    def test_shares_sum_to_one(self, run):
        for impl, shares in hotspot_shares(hotspot_table(run)).items():
            assert sum(shares.values()) == pytest.approx(1.0), impl

    def test_roles_reconcile_with_canonical_taxonomy(self, run):
        rec = reconcile_hotspots(hotspot_table(run))
        assert rec["taxonomy_ok"], rec["unknown_roles"]
        assert rec["canonical_roles"] == list(CANONICAL_ROLES)

    def test_unknown_role_flagged(self):
        rec = reconcile_hotspots({"x": {"warp drive": 1.0}})
        assert not rec["taxonomy_ok"]
        assert rec["unknown_roles"] == ["warp drive"]

    def test_trace_shares_match_fig4_breakdown(self):
        """A trace built from one implementation's kernel plan must
        reproduce the paper pipeline's Fig. 4 role shares exactly —
        the two derivations read the same kernels."""
        reset_cache()
        impl = get_implementation("cudnn")
        record = evaluate(impl, BASE_CONFIG, K40C)
        tracer = SimTracer(SimClock())
        with tracer.span("serve.dispatch", cat="serve",
                         implementation=impl.paper_name):
            t = 0.0
            for k in record.kernels:
                spec = getattr(k, "spec", None)
                name = spec.name if spec is not None else k.name
                role = spec.role.value if spec is not None else k.role
                tracer.add_span(name, cat="gpu", start_s=t,
                                end_s=t + k.time_s, role=role)
                t += k.time_s
        shares = hotspot_shares(hotspot_table(from_tracer(tracer)))
        (breakdown,) = hotspot_kernel_analysis(BASE_CONFIG,
                                               implementations=[impl])
        assert set(shares[impl.paper_name]) == set(breakdown.role_shares)
        for role, share in breakdown.role_shares.items():
            assert shares[impl.paper_name][role] == pytest.approx(share)


class TestFaultCensus:
    def test_fault_free_run_has_no_fault_time(self, run):
        events, fault_time = fault_census(run)
        assert fault_time == 0.0
        assert not any(name.startswith("fault.") for name in events)

    def test_chaos_run_attributes_fault_time(self):
        from repro.faults import named_plan

        spec = TrafficSpec(duration_s=1.0, rate_rps=1500.0, seed=7)
        plan = named_plan("chaos", duration_s=spec.duration_s)
        run = from_tracer(traced_run(fault_plan=plan, spec=spec))
        events, fault_time = fault_census(run)
        assert events.get("fault.transient", 0) > 0
        assert fault_time > 0.0


class TestAnalyzeRun:
    def test_full_analysis_shape(self, run):
        analysis = analyze_run(run)
        assert analysis.span_count == run.span_count()
        assert analysis.critical[0].name == "serve.run"
        assert analysis.plan_lookups["hits"] + \
            analysis.plan_lookups["misses"] > 0
        assert analysis.batches["count"] > 0
        assert analysis.reconciliation["taxonomy_ok"]

    def test_deterministic_output(self):
        blobs = []
        for _ in range(2):
            run = parse_jsonl(jsonl_lines(traced_run()), source="x")
            blobs.append(json.dumps(analyze_run(run).to_dict(),
                                    sort_keys=True))
        assert blobs[0] == blobs[1]

    def test_render_is_textual(self, run):
        text = analyze_run(run).render()
        assert "critical path" in text
        assert "span aggregates" in text
        assert "Fig. 4 view" in text


class TestLiveVsReloaded:
    """The JSONL round trip is invisible to both analyses: a traced
    fleet-chaos cluster's tracers analyse the same live and reloaded."""

    @pytest.fixture(scope="class")
    def fleet(self):
        from repro.cluster import Cluster, ClusterConfig, HealthConfig
        from repro.faults import named_fleet_plan

        reset_cache()
        cluster = Cluster(ClusterConfig(
            replicas=3, policy="p2c", seed=7,
            health=HealthConfig(hedge_after_s=0.02),
            fleet_fault_plan=named_fleet_plan("fleet-chaos", duration_s=0.5,
                                              replicas=3)))
        cluster.enable_tracing()
        cluster.run(generate_trace(TrafficSpec(duration_s=0.5,
                                               rate_rps=2500.0, seed=7)))
        return [("fleet", cluster.obs.tracer)] + cluster.replica_tracers

    def test_fleet_has_faults_and_replicas(self, fleet):
        assert len(fleet) > 3              # a restart adds a replica
        events = {}
        for _, tracer in fleet:
            for name, count in fault_census(from_tracer(tracer))[0].items():
                events[name] = events.get(name, 0) + count
        assert any(name.startswith("fault.") for name in events), events

    def test_analysis_and_profile_survive_reload(self, fleet):
        for name, tracer in fleet:
            live = from_tracer(tracer)
            reloaded = parse_jsonl(jsonl_lines(tracer))
            assert live.source != reloaded.source
            a, b = analyze_run(live).to_dict(), analyze_run(reloaded).to_dict()
            assert a.pop("source") == "<tracer>"
            assert b.pop("source") == "<memory>"
            assert a == b, name
            assert profile_run(live) == replace(profile_run(reloaded),
                                                source=live.source), name
