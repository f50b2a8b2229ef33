"""Trace analytics: critical paths, self-time, hotspot attribution.

The source paper's figures are not timelines — they are conclusions
*derived from* timelines (runtime shares per kernel group, crossover
points, transfer fractions).  This module is the same derivation step
for the repo's own traces: it consumes a span tree recorded by
:class:`~repro.obs.tracer.SimTracer` — live, or reloaded from the
JSONL event log :func:`~repro.obs.export.write_jsonl` wrote, so
analysis works offline on saved artifacts — and produces:

* the **critical path** per root span: the longest serial descent,
  each step with its self-time (the nvprof "where did the time go"
  question, answered per request instead of per process);
* **self-time vs child-time aggregates** per span kind, so scheduler
  overhead is separable from the kernel time it encloses;
* a **Fig-4-style hotspot table**: gpusim kernel leaves grouped by
  role (GEMM / im2col / FFT / transpose / ...) per implementation,
  cross-checked against the paper pipeline's canonical role taxonomy
  in :mod:`repro.core.hotspot_kernels`;
* a **fault census**: injected-fault events and the simulated time
  attributable to them (ECC replay cost, backoff, straggler drag) —
  the quantity :mod:`repro.obs.diff` uses to explain run-to-run
  regressions.

The loader streams (a JSONL line becomes its span node as soon as it
is decoded, so only the forest outlives the load) and every table
comes out of one preorder pass, :class:`RunSummary`, shared with
:func:`repro.obs.diff.profile_run`.

Everything here is a pure function of the trace: same JSONL in,
byte-identical report out, asserted by ``tests/obs/test_analyze.py``
and the ``trace-smoke`` CI gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import TraceSchemaError
from .export import SCHEMA_VERSION, SUPPORTED_SCHEMA_VERSIONS
from .tracer import SimTracer

#: Span names whose attrs identify the implementation running beneath
#: them (dispatch spans); kernel leaves inherit this label.
_IMPL_ATTR = "implementation"

#: Implementation label of kernel leaves outside any dispatch span.
_UNATTRIBUTED = "(unattributed)"


class TraceEvent:
    """A point-in-time event reloaded from a trace."""

    __slots__ = ("name", "t_s", "attrs")

    def __init__(self, name: str, t_s: float, attrs: Dict[str, object]):
        self.name = name
        self.t_s = t_s
        self.attrs = attrs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceEvent({self.name!r}, t_s={self.t_s!r})"


class TraceSpan:
    """One span reloaded from (or adapted out of) a trace.

    The offline twin of :class:`repro.obs.tracer.Span`: same fields,
    no tracer or clock attached, children linked by the loader.  A
    slotted class, not a dataclass: a reloaded fleet trace holds tens
    of thousands of these.
    """

    __slots__ = ("sid", "parent", "name", "cat", "start_s", "end_s",
                 "attrs", "children", "events")

    def __init__(self, sid: int, parent: Optional[int], name: str, cat: str,
                 start_s: float, end_s: float, attrs: Dict[str, object],
                 children: Optional[List["TraceSpan"]] = None,
                 events: Optional[List[TraceEvent]] = None):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.cat = cat
        self.start_s = start_s
        self.end_s = end_s
        self.attrs = attrs
        self.children = [] if children is None else children
        self.events = [] if events is None else events

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def self_s(self) -> float:
        """Time spent in this span but not in any child."""
        return self.duration_s - sum(c.duration_s for c in self.children)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TraceSpan({self.name!r}, cat={self.cat!r}, "
                f"sid={self.sid}, {len(self.children)} children)")


class TraceRun:
    """A loaded span forest: the unit every analysis consumes."""

    def __init__(self, roots: List[TraceSpan],
                 orphan_events: List[TraceEvent],
                 schema_version: int = SCHEMA_VERSION,
                 source: str = "<memory>"):
        self.roots = roots
        self.orphan_events = orphan_events
        self.schema_version = schema_version
        self.source = source

    def walk(self) -> Iterator[TraceSpan]:
        """Yield every span depth-first (preorder), roots in order."""
        stack = self.roots[::-1]
        while stack:
            span = stack.pop()
            yield span
            stack += span.children[::-1]

    def span_count(self) -> int:
        count = 0
        stack = list(self.roots)
        while stack:
            count += 1
            stack += stack.pop().children
        return count

    @property
    def duration_s(self) -> float:
        """Wall (simulated) extent of the forest."""
        if not self.roots:
            return 0.0
        return (max(r.end_s for r in self.roots)
                - min(r.start_s for r in self.roots))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TraceRun({self.span_count()} spans, "
                f"{self.duration_s:.6f}s, source={self.source!r})")


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def from_tracer(tracer: SimTracer) -> TraceRun:
    """Adapt a live tracer's span forest without re-serialising."""
    nodes: Dict[int, TraceSpan] = {}
    roots: List[TraceSpan] = []
    for span in tracer.walk():
        node = TraceSpan(sid=span.sid, parent=span.parent_sid,
                         name=span.name, cat=span.cat,
                         start_s=span.start_s,
                         end_s=span.end_s if span.end_s is not None else span.start_s,
                         attrs=dict(span.attrs),
                         events=[TraceEvent(e.name, e.t_s, dict(e.attrs))
                                 for e in span.events])
        nodes[node.sid] = node
        parent = nodes.get(node.parent) if node.parent is not None else None
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    orphans = [TraceEvent(e.name, e.t_s, dict(e.attrs))
               for e in tracer.orphan_events]
    return TraceRun(roots, orphans, source="<tracer>")


#: Largest integer magnitude accepted for a time field: every such
#: integer is exact as a float, so no arithmetic on it can overflow.
_MAX_EXACT_INT = 2 ** 53


def _is_real(value) -> bool:
    """A JSON number usable as simulated seconds (bool is not one)."""
    kind = type(value)
    return kind is float or (kind is int
                             and -_MAX_EXACT_INT <= value <= _MAX_EXACT_INT)


def _field_error(where: str, record: str, field: str, want: str,
                 value) -> TraceSchemaError:
    return TraceSchemaError(f"{where}: {record} field {field!r} must be "
                            f"{want}, got {value!r}")


def _attrs(rec: dict, where: str, record: str) -> Dict[str, object]:
    """The record's ``attrs`` object, uncopied (``json.loads`` already
    made it fresh); absent or null reads as empty."""
    attrs = rec.get("attrs")
    if attrs is None:
        return {}
    if type(attrs) is not dict:
        raise _field_error(where, record, "attrs", "an object", attrs)
    return attrs


def _span_record(rec: dict, where: str) -> TraceSpan:
    try:
        sid, parent = rec["sid"], rec["parent"]
        name, cat = rec["name"], rec["cat"]
        start_s, end_s = rec["start_s"], rec["end_s"]
    except KeyError as exc:
        raise TraceSchemaError(f"{where}: span record missing {exc}") from exc
    if type(sid) is not int:
        raise _field_error(where, "span", "sid", "an integer", sid)
    if parent is not None and type(parent) is not int:
        raise _field_error(where, "span", "parent", "an integer or null",
                           parent)
    if type(name) is not str:
        raise _field_error(where, "span", "name", "a string", name)
    if type(cat) is not str:
        raise _field_error(where, "span", "cat", "a string", cat)
    if not _is_real(start_s):
        raise _field_error(where, "span", "start_s", "a number", start_s)
    if not _is_real(end_s):
        raise _field_error(where, "span", "end_s", "a number", end_s)
    return TraceSpan(sid, parent, name, cat, start_s, end_s,
                     _attrs(rec, where, "span"))


def _event_record(rec: dict, where: str) -> Tuple[Optional[int], TraceEvent]:
    try:
        name, t_s = rec["name"], rec["t_s"]
    except KeyError as exc:
        raise TraceSchemaError(
            f"{where}: event record missing {exc}") from exc
    sid = rec.get("span")
    if sid is not None and type(sid) is not int:
        raise _field_error(where, "event", "span", "an integer or null", sid)
    if type(name) is not str:
        raise _field_error(where, "event", "name", "a string", name)
    if not _is_real(t_s):
        raise _field_error(where, "event", "t_s", "a number", t_s)
    return sid, TraceEvent(name, t_s, _attrs(rec, where, "event"))


def parse_jsonl(lines: Iterable[str], source: str = "<memory>") -> TraceRun:
    """Rebuild a span forest from JSONL event-log lines.

    Streaming: each line is decoded and turned into its node at once,
    so only the forest itself outlives the loop (``lines`` may be an
    open file).  The first record may be a ``header`` carrying
    ``schema_version`` (logs written before versioning are treated as
    version 1); an unknown version, a malformed record or a field of
    the wrong type raises :class:`~repro.errors.TraceSchemaError`
    rather than silently misreading the log.
    """
    version = SCHEMA_VERSION
    nodes: Dict[int, TraceSpan] = {}
    order: List[TraceSpan] = []
    orphans: List[TraceEvent] = []
    pending_events: List[Tuple[int, int, TraceEvent]] = []
    first = True
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceSchemaError(
                f"{source}:{lineno}: not valid JSON: {exc}") from exc
        if not isinstance(rec, dict) or "type" not in rec:
            raise TraceSchemaError(
                f"{source}:{lineno}: record has no 'type' field")
        kind = rec["type"]
        if kind == "span":
            node = _span_record(rec, f"{source}:{lineno}")
            if node.sid in nodes:
                raise TraceSchemaError(
                    f"{source}:{lineno}: duplicate span sid {node.sid}")
            nodes[node.sid] = node
            order.append(node)
        elif kind == "event":
            sid, ev = _event_record(rec, f"{source}:{lineno}")
            if sid is None:
                orphans.append(ev)
            else:
                pending_events.append((lineno, sid, ev))
        elif kind == "header":
            if not first:
                raise TraceSchemaError(
                    f"{source}:{lineno}: header must be the first record")
            version = rec.get("schema_version")
            if version not in SUPPORTED_SCHEMA_VERSIONS:
                raise TraceSchemaError(
                    f"{source}: unsupported trace schema_version {version!r} "
                    f"(supported: {list(SUPPORTED_SCHEMA_VERSIONS)})")
        else:
            raise TraceSchemaError(
                f"{source}:{lineno}: unknown record type {kind!r}")
        first = False
    roots: List[TraceSpan] = []
    for node in order:
        parent = nodes.get(node.parent) if node.parent is not None else None
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    # Spans whose parent links form a cycle are neither roots nor
    # reachable from one; a forest that silently lost them would
    # analyse as a smaller run.
    forest = TraceRun(roots, [])
    if forest.span_count() != len(order):
        reachable = {span.sid for span in forest.walk()}
        lost = [node.sid for node in order if node.sid not in reachable]
        raise TraceSchemaError(
            f"{source}: spans {lost} are unreachable from any root "
            f"(their parent links form a cycle)")
    for lineno, sid, ev in pending_events:
        span = nodes.get(sid)
        if span is None:
            raise TraceSchemaError(
                f"{source}:{lineno}: event references unknown span {sid}")
        span.events.append(ev)
    return TraceRun(roots, orphans, schema_version=version, source=source)


def load_jsonl(path: str) -> TraceRun:
    """Load a saved JSONL event log (``repro serve --trace x.jsonl``),
    streaming it line by line."""
    with open(path) as fh:
        return parse_jsonl(fh, source=path)


# ---------------------------------------------------------------------------
# critical path
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathStep:
    """One hop of a critical path."""

    name: str
    cat: str
    depth: int
    duration_s: float
    self_s: float


def critical_path(root: TraceSpan) -> List[PathStep]:
    """The longest serial descent from ``root``.

    At each level the child with the largest duration is followed
    (earliest start breaks ties, deterministically), mirroring how one
    reads an nvprof timeline: start at the request, keep descending
    into whatever dominated it.
    """
    steps: List[PathStep] = []
    node: Optional[TraceSpan] = root
    depth = 0
    while node is not None:
        steps.append(PathStep(name=node.name, cat=node.cat, depth=depth,
                              duration_s=node.duration_s,
                              self_s=node.self_s))
        node = max(node.children,
                   key=lambda c: (c.duration_s, -c.start_s),
                   default=None)
        depth += 1
    return steps


# ---------------------------------------------------------------------------
# aggregates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpanStat:
    """Per-span-kind totals across one run."""

    name: str
    cat: str
    count: int
    total_s: float
    self_s: float

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


def _number(attrs: Dict[str, object], key: str, default: float,
            source: str, sid: int, convert=float):
    """``convert(attrs.get(key, default))``, or a typed error naming
    the span when the attribute is not a number."""
    value = attrs.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise TraceSchemaError(
            f"{source}: span {sid}: attr {key!r} must be a number, "
            f"got {value!r}") from exc


class RunSummary:
    """Everything one preorder pass over a span forest yields.

    Span count, per-``(name, cat)`` aggregates, per-span self time,
    GPU-leaf time per implementation and role, the event census with
    its fault-attributed time, plan lookups and batch statistics all
    come out of a single walk, which :func:`analyze_run` and
    :func:`repro.obs.diff.profile_run` share.  Every sum accumulates in
    preorder, so each float is bit-identical to what a separate walk
    per table would produce.
    """

    def __init__(self, run: TraceRun):
        source = run.source
        #: Self time of every span, in preorder (``len`` is the count).
        self_times: List[float] = []
        stats: Dict[Tuple[str, str], List[float]] = {}
        #: (implementation, role) -> [GPU-leaf count, seconds].
        gpu: Dict[Tuple[str, str], List[float]] = {}
        events: Dict[str, int] = {}
        fault_time = 0.0
        plans = hits = 0
        sizes: List[float] = []
        fills: List[float] = []
        stack = [(root, _UNATTRIBUTED) for root in reversed(run.roots)]
        while stack:
            span, impl = stack.pop()
            attrs = span.attrs
            if _IMPL_ATTR in attrs:
                impl = str(attrs[_IMPL_ATTR])
            duration = span.end_s - span.start_s
            children = span.children
            self_s = (duration - sum([c.end_s - c.start_s for c in children])
                      if children else duration)
            self_times.append(self_s)
            name = span.name
            key = (name, span.cat)
            row = stats.get(key)
            if row is None:
                row = stats[key] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += duration
            row[2] += self_s
            if span.cat == "gpu":
                key = (impl, str(attrs.get("role", "other")))
                row = gpu.get(key)
                if row is None:
                    row = gpu[key] = [0, 0.0]
                row[0] += 1
                row[1] += duration
            if name == "serve.plan":
                plans += 1
                if attrs.get("hit"):
                    hits += 1
            elif name == "serve.batch":
                sizes.append(_number(attrs, "batch", 0, source, span.sid))
                fills.append(_number(attrs, "fill", 0, source, span.sid))
            for ev in span.events:
                events[ev.name] = events.get(ev.name, 0) + 1
                if ev.name == "fault.transient":
                    fault_time += _number(ev.attrs, "retry_cost_s", 0.0,
                                          source, span.sid)
                elif ev.name == "retry.backoff":
                    fault_time += _number(ev.attrs, "backoff_s", 0.0,
                                          source, span.sid)
                elif ev.name == "fault.straggler":
                    slowdown = _number(ev.attrs, "slowdown", 1.0,
                                       source, span.sid)
                    if slowdown > 1.0:
                        fault_time += duration * (1.0 - 1.0 / slowdown)
            if children:
                stack += [(child, impl) for child in reversed(children)]
        for ev in run.orphan_events:
            events[ev.name] = events.get(ev.name, 0) + 1

        self.self_times = self_times
        self.gpu = gpu
        self.events = events
        self.fault_time_s = fault_time
        self.plan_hits = hits
        self.plan_misses = plans - hits
        self.batch_count = len(sizes)
        self.mean_batch = sum(sizes) / len(sizes) if sizes else 0.0
        self.mean_fill = sum(fills) / len(fills) if fills else 0.0
        self._stats = stats

    @property
    def span_count(self) -> int:
        return len(self.self_times)

    def aggregates(self) -> List[SpanStat]:
        """Self-time vs total-time per ``(name, cat)``, longest first."""
        stats = [SpanStat(name=name, cat=cat, count=int(c), total_s=t,
                          self_s=s)
                 for (name, cat), (c, t, s) in self._stats.items()]
        stats.sort(key=lambda st: (-st.total_s, st.name))
        return stats

    def hotspot_table(self) -> Dict[str, Dict[str, float]]:
        """GPU-leaf seconds per implementation per kernel role."""
        table: Dict[str, Dict[str, float]] = {}
        for (impl, role), (_, secs) in self.gpu.items():
            table.setdefault(impl, {})[role] = secs
        return table


def span_aggregates(run: TraceRun) -> List[SpanStat]:
    """Self-time vs total-time per ``(name, cat)``, longest first."""
    return RunSummary(run).aggregates()


# ---------------------------------------------------------------------------
# hotspot attribution (Fig. 4 over a trace)
# ---------------------------------------------------------------------------

def hotspot_table(run: TraceRun) -> Dict[str, Dict[str, float]]:
    """GPU-leaf time per implementation per kernel role.

    The walk carries the innermost ``implementation`` attribute (set by
    dispatch spans) so each gpusim leaf is attributed to the
    implementation that launched it.  Leaves outside any dispatch land
    under ``"(unattributed)"``.
    """
    return RunSummary(run).hotspot_table()


def hotspot_shares(table: Dict[str, Dict[str, float]]
                   ) -> Dict[str, Dict[str, float]]:
    """Per-implementation role shares (each implementation sums to 1)."""
    shares: Dict[str, Dict[str, float]] = {}
    for impl, roles in table.items():
        total = sum(roles.values())
        if total > 0:
            shares[impl] = {role: t / total for role, t in roles.items()}
    return shares


def reconcile_hotspots(table: Dict[str, Dict[str, float]]) -> dict:
    """Cross-check trace-derived roles against the paper pipeline.

    The serving trace's kernel leaves and Fig. 4's breakdown both come
    from the same kernel plans, so every role observed in a trace must
    be a member of the canonical taxonomy
    (:data:`repro.core.hotspot_kernels.CANONICAL_ROLES`); an unknown
    role means the two pipelines have drifted apart.
    """
    from ..core.hotspot_kernels import CANONICAL_ROLES

    known = set(CANONICAL_ROLES)
    unknown = sorted({role for roles in table.values()
                      for role in roles} - known)
    return {
        "taxonomy_ok": not unknown,
        "unknown_roles": unknown,
        "canonical_roles": list(CANONICAL_ROLES),
    }


# ---------------------------------------------------------------------------
# fault census
# ---------------------------------------------------------------------------

def fault_census(run: TraceRun) -> Tuple[Dict[str, int], float]:
    """Event counts by name, plus simulated seconds attributable to
    fault handling: ECC replay costs, retry backoff, and straggler
    drag (the slowdown-inflated fraction of each hit dispatch)."""
    summary = RunSummary(run)
    return summary.events, summary.fault_time_s


# ---------------------------------------------------------------------------
# the full analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceAnalysis:
    """Everything ``repro analyze`` derives from one trace."""

    source: str
    span_count: int
    duration_s: float
    aggregates: Tuple[SpanStat, ...]
    critical: Tuple[PathStep, ...]
    hotspots: Dict[str, Dict[str, float]]       # impl -> role -> seconds
    shares: Dict[str, Dict[str, float]]         # impl -> role -> fraction
    reconciliation: dict
    events: Dict[str, int]
    fault_time_s: float
    plan_lookups: Dict[str, int]                # hits / misses
    batches: Dict[str, float]                   # count / mean_batch / mean_fill

    def to_dict(self) -> dict:
        """JSON-ready, deterministically ordered form."""
        return {
            "source": self.source,
            "span_count": self.span_count,
            "duration_s": self.duration_s,
            "aggregates": [
                {"name": a.name, "cat": a.cat, "count": a.count,
                 "total_s": a.total_s, "self_s": a.self_s,
                 "mean_s": a.mean_s}
                for a in self.aggregates],
            "critical_path": [
                {"name": p.name, "cat": p.cat, "depth": p.depth,
                 "duration_s": p.duration_s, "self_s": p.self_s}
                for p in self.critical],
            "hotspots_s": {impl: dict(sorted(roles.items()))
                           for impl, roles in sorted(self.hotspots.items())},
            "hotspot_shares": {impl: dict(sorted(roles.items()))
                               for impl, roles in sorted(self.shares.items())},
            "reconciliation": self.reconciliation,
            "events": dict(sorted(self.events.items())),
            "fault_time_s": self.fault_time_s,
            "plan_lookups": dict(sorted(self.plan_lookups.items())),
            "batches": dict(sorted(self.batches.items())),
        }

    def render(self, top: int = 10) -> str:
        """Human form: aggregates table, critical path, hotspots."""
        from ..core.report import table as text_table

        lines = [f"trace: {self.source}",
                 f"spans: {self.span_count}   "
                 f"simulated duration: {self.duration_s * 1000:.3f} ms"]
        rows = [[a.name, a.cat, str(a.count),
                 f"{a.total_s * 1000:.3f}", f"{a.self_s * 1000:.3f}",
                 f"{a.mean_s * 1000:.4f}"]
                for a in self.aggregates[:top]]
        lines.append("")
        lines.append(text_table(
            ["span", "cat", "count", "total (ms)", "self (ms)", "mean (ms)"],
            rows, title=f"span aggregates (top {min(top, len(self.aggregates))})"))
        lines.append("")
        lines.append("critical path (longest serial descent):")
        for p in self.critical:
            lines.append(f"  {'  ' * p.depth}{p.name:24s} "
                         f"{p.duration_s * 1000:9.3f} ms  "
                         f"(self {p.self_s * 1000:.3f} ms)")
        if self.shares:
            lines.append("")
            lines.append("hotspot roles per implementation (Fig. 4 view):")
            for impl in sorted(self.shares):
                parts = ", ".join(
                    f"{role} {share * 100:.1f}%"
                    for role, share in sorted(self.shares[impl].items(),
                                              key=lambda kv: (-kv[1], kv[0])))
                lines.append(f"  {impl:16s} {parts}")
            if not self.reconciliation["taxonomy_ok"]:
                lines.append("  WARNING: unknown roles "
                             f"{self.reconciliation['unknown_roles']}")
        if self.plan_lookups:
            lines.append("")
            lines.append(f"plan lookups          "
                         f"{self.plan_lookups.get('hits', 0)} hits / "
                         f"{self.plan_lookups.get('misses', 0)} misses")
        if self.batches.get("count"):
            lines.append(f"batches               {int(self.batches['count'])} "
                         f"(mean size {self.batches['mean_batch']:.2f}, "
                         f"mean fill {self.batches['mean_fill']:.2f})")
        if self.events:
            lines.append("")
            lines.append("events                " + " ".join(
                f"{name}:{count}"
                for name, count in sorted(self.events.items())))
        if self.fault_time_s:
            lines.append(f"fault-attributed time {self.fault_time_s * 1000:.3f} ms")
        return "\n".join(lines)


def analyze_run(run: TraceRun) -> TraceAnalysis:
    """Derive the full analysis from one loaded trace (one walk)."""
    summary = RunSummary(run)
    table = summary.hotspot_table()
    longest_root = max(run.roots, key=lambda r: (r.duration_s, -r.start_s),
                       default=None)
    return TraceAnalysis(
        source=run.source,
        span_count=summary.span_count,
        duration_s=run.duration_s,
        aggregates=tuple(summary.aggregates()),
        critical=tuple(critical_path(longest_root))
        if longest_root is not None else (),
        hotspots=table,
        shares=hotspot_shares(table),
        reconciliation=reconcile_hotspots(table),
        events=summary.events,
        fault_time_s=summary.fault_time_s,
        plan_lookups={"hits": summary.plan_hits,
                      "misses": summary.plan_misses}
        if summary.plan_hits or summary.plan_misses else {},
        batches={"count": float(summary.batch_count),
                 "mean_batch": summary.mean_batch,
                 "mean_fill": summary.mean_fill},
    )
