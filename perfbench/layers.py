#!/usr/bin/env python3
"""Per-layer report: turns a traced run's spans into per-layer metrics.

    python3 perfbench/layers.py SPANS_FILE [NODE_SUMMARY_JSON]

The spans file is what `perfbench_node --trace 1 --spans FILE` writes, one
span per line:

    id  parent  request  name  start_ns  end_ns  standalone  k=v;k=v

A span's self time is its duration minus the time its child spans cover.
Spans marked standalone are layer probes the node runs beside a request
(never inside it): they repeat work the untraced request does inside one
library call, so they are excluded from self-time accounting of `request`.

run.py imports `per_layer_metrics`; run directly, the tool prints the table
with the end-to-end metric each layer metric should move.
"""

import json
import statistics
import sys
from collections import defaultdict

# (name, unit, better, should move). The order is the report's order.
METRICS = [
    ("query.parse_us_p50", "us", "lower", "adhoc/request_ms_p50"),
    ("query.compile_us_p50", "us", "lower", "adhoc/request_ms_p50; fleet/request_ms_p50"),
    ("query.eval_union_ms_p50", "ms", "lower", "adhoc/request_ms_p50; fleet/request_ms_p50"),
    ("analysis.analyze_us_p50", "us", "lower", "adhoc/request_ms_p50 once Check classifies; fleet/setup_s"),
    ("dcsat.check_ms_p50", "ms", "lower", "adhoc and aggregate request_ms_p50"),
    ("dcsat.graph_ms_p50", "ms", "lower", "adhoc/request_ms_p50"),
    ("dcsat.search_ms_p50", "ms", "lower", "aggregate/request_ms_p50 and requests_per_s"),
    ("dcsat.cliques_per_check", "count", "lower", "aggregate/request_ms_p50"),
    ("dcsat.worlds_per_check", "count", "lower", "aggregate/request_ms_p50"),
    ("dcsat.components_per_check", "count", "lower", "adhoc/request_ms_p50"),
    ("dcsat.cover_ratio", "ratio", "lower", "adhoc/request_ms_p50"),
    ("dcsat.precheck_decided_frac", "ratio", "higher", "adhoc/request_ms_p50"),
    ("dcsat.steady_cache_hit_frac", "ratio", "higher", "adhoc/request_ms_p50"),
    ("steady.refresh_ms_p50", "ms", "lower", "stream/request_ms_p50 (none on adhoc, aggregate)"),
    ("steady.events_per_refresh", "count", "lower", "stream/request_ms_p50"),
    ("steady.full_rebuilds", "count", "lower", "stream/request_ms_tail"),
    ("steady.fallbacks", "count", "lower", "stream/request_ms_tail"),
    ("steady.cascade_invalidated", "count", "lower", "stream/request_ms_p50"),
    ("db.add_us_p50", "us", "lower", "stream/request_ms_p50"),
    ("db.apply_us_p50", "us", "lower", "stream/request_ms_p50"),
    ("db.discard_us_p50", "us", "lower", "stream/request_ms_p50"),
    ("db.unapply_us_p50", "us", "lower", "stream/request_ms_p50"),
    ("db.insert_us_p50", "us", "lower", "stream/request_ms_p50"),
    ("db.remove_us_p50", "us", "lower", "stream/request_ms_p50"),
    ("monitor.poll_ms_p50", "ms", "lower", "fleet/request_ms_p50 and requests_per_s"),
    ("monitor.register_ms", "ms", "lower", "fleet/setup_s"),
    ("monitor.evaluated_per_poll", "count", "lower", "fleet/request_ms_p50"),
    ("monitor.skipped_per_poll", "count", "higher", "fleet/request_ms_p50"),
    ("monitor.skip_ratio", "ratio", "higher", "fleet/request_ms_p50"),
    ("monitor.classes_per_poll", "count", "lower", "fleet/request_ms_p50"),
    ("monitor.batched_per_poll", "count", "higher", "fleet/request_ms_p50"),
    ("monitor.compile_misses_per_poll", "count", "lower", "fleet/request_ms_p50"),
    ("monitor.undecided", "count", "lower", "fleet/request_ms_tail"),
    ("storage.recover_ms", "ms", "lower", "setup_s on every workload"),
    ("storage.persist_us_p50", "us", "lower", "stream/request_ms_p50"),
    ("storage.wal_bytes_per_mutation", "B", "lower", "stream/request_ms_p50"),
    ("storage.write_amp", "ratio", "lower", "stream/request_ms_p50"),
    ("storage.wal_syncs", "count", "lower", "stream/request_ms_tail"),
    ("relational.value_pool_size", "count", "lower", "peak_rss_mb on stream and fleet"),
    ("trace.requests_per_s", "1/s", "higher", "tracing overhead: traced run"),
    ("trace.overhead_ratio", "ratio", "lower", "untraced / traced requests_per_s"),
]


class Span:
    __slots__ = ("id", "parent", "request", "name", "start", "end",
                 "standalone", "counters", "child_ns")

    def __init__(self, fields):
        self.id = int(fields[0])
        self.parent = int(fields[1])
        self.request = int(fields[2])
        self.name = fields[3]
        self.start = int(fields[4])
        self.end = int(fields[5])
        self.standalone = fields[6] == "1"
        self.counters = {}
        if len(fields) > 7 and fields[7]:
            for pair in fields[7].split(";"):
                key, value = pair.split("=", 1)
                self.counters[key] = float(value)
        self.child_ns = 0

    @property
    def duration_ns(self):
        return self.end - self.start

    @property
    def self_ns(self):
        return self.duration_ns - self.child_ns


def read_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line:
                spans.append(Span(line.split("\t")))
    # Children of one parent run one after another on the single client
    # thread, so the time they cover is the sum of their durations.
    for span in spans:
        if span.parent >= 0:
            spans[span.parent].child_ns += span.duration_ns
    return spans


def p50(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def per_layer_metrics(spans_path, summary):
    """Returns {name: value} for every metric in METRICS."""
    spans = read_spans(spans_path)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def self_times(name, scale):
        return [s.self_ns / scale for s in by_name[name]]

    def counter(name, key):
        return [s.counters.get(key, 0.0) for s in by_name[name]]

    checks = by_name["dcsat.check"]
    polls = by_name["monitor.poll"]
    info = summary["info"]
    m = {}
    m["query.parse_us_p50"] = p50(self_times("query.parse", 1e3))
    m["query.compile_us_p50"] = p50(self_times("query.compile", 1e3))
    m["query.eval_union_ms_p50"] = p50(self_times("query.eval_union", 1e6))
    m["analysis.analyze_us_p50"] = p50(self_times("analysis.analyze", 1e3))
    m["dcsat.check_ms_p50"] = p50([s.duration_ns / 1e6 for s in checks])
    # Graph and search times are taken over the checks the pre-check did not
    # settle: a settled check builds no graph and searches nothing.
    searched = [s for s in checks if not s.counters.get("precheck_decided")]
    m["dcsat.graph_ms_p50"] = p50(
        [s.counters.get("graph_s", 0) * 1e3 for s in searched])
    m["dcsat.search_ms_p50"] = p50(
        [(s.counters.get("total_s", 0) - s.counters.get("graph_s", 0)) * 1e3
         for s in searched])
    m["dcsat.cliques_per_check"] = mean(counter("dcsat.check", "cliques"))
    m["dcsat.worlds_per_check"] = mean(counter("dcsat.check", "worlds"))
    m["dcsat.components_per_check"] = mean(counter("dcsat.check", "components"))
    components = sum(counter("dcsat.check", "components"))
    m["dcsat.cover_ratio"] = (sum(counter("dcsat.check", "covered")) / components
                              if components else 0.0)
    m["dcsat.precheck_decided_frac"] = mean(
        counter("dcsat.check", "precheck_decided"))
    m["dcsat.steady_cache_hit_frac"] = mean(
        counter("dcsat.check", "steady_cache_hit"))
    m["steady.refresh_ms_p50"] = p50(self_times("steady.refresh", 1e6))
    m["steady.events_per_refresh"] = mean(counter("steady.refresh", "events"))
    m["steady.full_rebuilds"] = sum(counter("steady.refresh", "full_rebuilds"))
    m["steady.fallbacks"] = sum(counter("steady.refresh", "fallbacks"))
    m["steady.cascade_invalidated"] = sum(counter("steady.refresh", "cascade"))
    for kind in ("add", "apply", "discard", "unapply", "insert", "remove"):
        m[f"db.{kind}_us_p50"] = p50(self_times(f"db.{kind}", 1e3))
    m["monitor.poll_ms_p50"] = p50([s.duration_ns / 1e6 for s in polls])
    m["monitor.register_ms"] = p50(
        [s.duration_ns / 1e6 for s in by_name["monitor.register"]])
    evaluated = counter("monitor.poll", "evaluated")
    skipped = counter("monitor.poll", "skipped")
    m["monitor.evaluated_per_poll"] = mean(evaluated)
    m["monitor.skipped_per_poll"] = mean(skipped)
    considered = sum(evaluated) + sum(skipped)
    m["monitor.skip_ratio"] = sum(skipped) / considered if considered else 0.0
    m["monitor.classes_per_poll"] = mean(counter("monitor.poll", "classes"))
    m["monitor.batched_per_poll"] = mean(counter("monitor.poll", "batched"))
    m["monitor.compile_misses_per_poll"] = mean(
        counter("monitor.poll", "compile_misses"))
    m["monitor.undecided"] = sum(counter("monitor.poll", "undecided"))
    m["storage.recover_ms"] = p50(
        [s.duration_ns / 1e6 for s in by_name["storage.recover"]])
    m["storage.persist_us_p50"] = p50(self_times("storage.persist", 1e3))
    records = info["wal_records"]
    m["storage.wal_bytes_per_mutation"] = (info["wal_bytes"] / records
                                           if records else 0.0)
    m["storage.write_amp"] = info["write_amp"]
    m["storage.wal_syncs"] = info["wal_syncs"]
    m["relational.value_pool_size"] = info["value_pool_size"]
    traced = info["traced_requests_per_s"]
    m["trace.requests_per_s"] = traced
    m["trace.overhead_ratio"] = (info["untraced_requests_per_s"] / traced
                                 if traced else 0.0)
    return m


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    summary = {"info": {"wal_records": 0, "wal_bytes": 0, "write_amp": 0,
                        "wal_syncs": 0, "value_pool_size": 0,
                        "untraced_requests_per_s": 0,
                        "traced_requests_per_s": 0}}
    if len(argv) > 2:
        with open(argv[2]) as f:
            summary = json.loads(f.read().strip().splitlines()[-1])
    values = per_layer_metrics(argv[1], summary)
    print(f"{'metric':34} {'value':>14} {'unit':6}  should move")
    for name, unit, _, moves in METRICS:
        print(f"{name:34} {values[name]:14.6g} {unit:6}  {moves}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
