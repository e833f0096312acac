"""The traced run: per-layer metrics, the layer ledger and the timeline.

lud-bench-harness runs the workload's jobs in-process and records a span
around each public library call (see harness.cpp). This module turns those
spans into per-layer numbers. A span's layer is its name's prefix, which is
the src/ module the call lives in, with two kinds of calls split by
subtracting cumulative configurations of the same program in the same
pass, since no layer inside them can be called alone:

* a profiled run (profiling.run, profiling.run_clients) is the engine's
  uninstrumented time (runtime) plus the rest (profiling);
* a recorder-only capture (trace.record) is the engine's uninstrumented
  time (runtime) plus the rest (trace).

The ledger gives each job kind's self time per layer plus whatever no span
covers (bench.unattributed_s); its rows sum to the jobs' in-process wall.
"""

import json
import statistics
import time
from collections import defaultdict

LAYERS = ("workloads", "ir", "runtime", "profiling", "analysis", "trace")
# Spans whose time is engine time up to the program's baseline run.
SPLIT_FROM_RUNTIME = ("profiling.run", "profiling.run_clients",
                      "trace.record")

PER_LAYER = (  # name, unit
    ("workloads.generate_s", "s"),
    ("ir.parse_ns_per_byte", "ns/B"),
    ("ir.obfuscate_s", "s"),
    ("runtime.ns_per_instr", "ns/instr"),
    ("runtime.interp_ns_per_instr", "ns/instr"),
    ("runtime.instructions", "count"),
    ("profiling.substrate_ns_per_instr", "ns/instr"),
    ("profiling.clients_ns_per_instr", "ns/instr"),
    ("profiling.nodes", "count"),
    ("profiling.edges", "count"),
    ("profiling.tracked_per_node", "instr/node"),
    ("profiling.build_mb", "MB"),
    ("profiling.seal_ns_per_node", "ns/node"),
    ("profiling.frozen_mb", "MB"),
    ("analysis.report_ns_per_node", "ns/node"),
    ("analysis.dead_ns_per_node", "ns/node"),
    ("analysis.extras_ns_per_node", "ns/node"),
    ("analysis.client_reports_s", "s"),
    ("analysis.optimize_s", "s"),
    ("analysis.optimize_applied", "count"),
    ("analysis.optimize_rolled_back", "count"),
    ("analysis.optimize_apply_frac", "frac"),
    ("trace.events", "count"),
    ("trace.record_ns_per_event", "ns/event"),
    ("trace.bytes_per_event", "B/event"),
    ("trace.replay_ns_per_event", "ns/event"),
    *((f"ledger.{layer}_s", "s") for layer in LAYERS),
    ("bench.unattributed_s", "s"),
    ("bench.wall_s", "s"),
    ("bench.unattributed_frac", "frac"),
    ("bench.trace_overhead_frac", "frac"),
)


def ratio(num, den):
    return num / den if den else 0.0


class Pass:
    """One traced harness run's spans, indexed for the metrics."""

    def __init__(self, summary):
        self.jobs = summary["jobs"]
        self.spans = summary["spans"]
        for s in self.spans:
            job = self.jobs[s["job"]]
            s["kind"], s["program"] = job["kind"], job["program"]
        self.base = defaultdict(int)  # program -> baseline run ns
        for s in self.select("runtime.run", "baseline"):
            self.base[s["program"]] += s["dur_ns"]

    def select(self, name, kind=None):
        return [s for s in self.spans
                if s["name"] == name and (kind is None or s["kind"] == kind)]

    def ns(self, name, kind=None):
        return sum(s["dur_ns"] for s in self.select(name, kind))

    def arg(self, name, key, kind=None):
        return sum(s["args"].get(key, 0) for s in self.select(name, kind))

    def per(self, name, key, kind=None):
        return ratio(self.ns(name, kind), self.arg(name, key, kind))

    def self_times(self, span):
        """{layer: ns} for one span, splitting bundled calls."""
        layer = span["name"].split(".", 1)[0]
        if span["name"] not in SPLIT_FROM_RUNTIME:
            return {layer: span["dur_ns"]}
        engine = min(span["dur_ns"], self.base[span["program"]])
        return {"runtime": engine, layer: span["dur_ns"] - engine}

    def ledger(self):
        """{job kind: {layer or 'unattributed': ns}} and the worst job's
        unattributed share."""
        rows = defaultdict(lambda: defaultdict(int))
        covered = defaultdict(int)
        for s in self.spans:
            for layer, ns in self.self_times(s).items():
                rows[s["kind"]][layer] += ns
            covered[s["job"]] += s["dur_ns"]
        worst = 0.0
        for i, job in enumerate(self.jobs):
            gap = job["dur_ns"] - covered[i]
            rows[job["kind"]]["unattributed"] += gap
            worst = max(worst, ratio(gap, job["dur_ns"]))
        return rows, worst

    def metrics(self):
        instrs = self.arg("runtime.run", "instrs", "baseline")
        base = self.ns("runtime.run", "baseline")
        prof = self.ns("profiling.run", "profile")
        nodes = self.arg("profiling.run", "nodes", "profile")
        events = self.arg("trace.record", "events")
        applied = self.arg("analysis.optimize", "applied")
        rows, worst = self.ledger()
        layer_ns = defaultdict(int)
        for row in rows.values():
            for layer, ns in row.items():
                layer_ns[layer] += ns
        wall = sum(j["dur_ns"] for j in self.jobs)
        m = {
            "workloads.generate_s": self.ns("workloads.generate") / 1e9,
            "ir.parse_ns_per_byte": self.per("ir.parse", "bytes"),
            "ir.obfuscate_s": self.ns("ir.obfuscate") / 1e9,
            "runtime.ns_per_instr": ratio(base, instrs),
            "runtime.interp_ns_per_instr": self.per("runtime.run_interp",
                                                    "instrs"),
            "runtime.instructions": instrs,
            "profiling.substrate_ns_per_instr": ratio(prof - base, instrs),
            "profiling.clients_ns_per_instr": ratio(
                self.ns("profiling.run_clients") - prof, instrs),
            "profiling.nodes": nodes,
            "profiling.edges": self.arg("profiling.run", "edges", "profile"),
            "profiling.tracked_per_node": ratio(instrs, nodes),
            "profiling.build_mb": self.arg("profiling.summary", "build_bytes",
                                           "profile") / 1e6,
            "profiling.seal_ns_per_node": self.per("profiling.seal",
                                                   "nodes"),
            "profiling.frozen_mb": self.arg("profiling.seal", "frozen_bytes",
                                            "profile") / 1e6,
            "analysis.report_ns_per_node": self.per("analysis.report",
                                                    "nodes"),
            "analysis.dead_ns_per_node": self.per("analysis.dead", "nodes"),
            "analysis.extras_ns_per_node": self.per("analysis.extras",
                                                    "nodes"),
            "analysis.client_reports_s":
                self.ns("analysis.client_reports") / 1e9,
            "analysis.optimize_s": self.ns("analysis.optimize") / 1e9,
            "analysis.optimize_applied": applied,
            "analysis.optimize_rolled_back":
                self.arg("analysis.optimize", "rolled_back"),
            "analysis.optimize_apply_frac": ratio(
                applied, self.arg("analysis.optimize", "candidates")),
            "trace.events": events,
            "trace.record_ns_per_event": ratio(
                self.ns("trace.record") - base, events),
            "trace.bytes_per_event": ratio(self.arg("trace.record", "bytes"),
                                           events),
            "trace.replay_ns_per_event": self.per("trace.replay", "events"),
            "bench.unattributed_s": layer_ns["unattributed"] / 1e9,
            "bench.wall_s": wall / 1e9,
            "bench.unattributed_frac": worst,
        }
        for layer in LAYERS:
            m[f"ledger.{layer}_s"] = layer_ns[layer] / 1e9
        return m


def print_ledger(workload, p, log):
    rows, worst = p.ledger()
    kinds = [k for k in dict.fromkeys(j["kind"] for j in p.jobs)]
    log(f"layer ledger, {workload}: self time in ms per job kind "
        f"(rows sum to the jobs' in-process wall)")
    log(f"{'layer':<22}" + "".join(f"{k:>10}" for k in kinds) +
        f"{'total':>11}")
    total_by_kind = defaultdict(int)
    for layer in (*LAYERS, "unattributed"):
        cells = [rows[k].get(layer, 0) for k in kinds]
        for k, ns in zip(kinds, cells):
            total_by_kind[k] += ns
        name = "bench.unattributed_s" if layer == "unattributed" \
            else f"ledger.{layer}_s"
        log(f"{name:<22}" + "".join(f"{ns / 1e6:>10.1f}" for ns in cells) +
            f"{sum(cells) / 1e6:>11.1f}")
    walls = defaultdict(int)
    for j in p.jobs:
        walls[j["kind"]] += j["dur_ns"]
    log(f"{'in-process wall':<22}" +
        "".join(f"{walls[k] / 1e6:>10.1f}" for k in kinds) +
        f"{sum(walls.values()) / 1e6:>11.1f}")
    log(f"worst job unattributed share {worst:.4f}")


def write_timeline(path, passes):
    """Chrome trace-event JSON: one process per traced pass, one track."""
    events = []
    for pid, p in enumerate(passes, 1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 1, "args": {"name": f"traced pass {pid}"}})
        for j in p.jobs:
            events.append({"name": f"{j['kind']} {j['program']}",
                           "cat": "job", "ph": "X", "pid": pid, "tid": 1,
                           "ts": j["start_ns"] / 1e3,
                           "dur": j["dur_ns"] / 1e3})
        for s in p.spans:
            events.append({"name": s["name"],
                           "cat": s["name"].split(".", 1)[0], "ph": "X",
                           "pid": pid, "tid": 1, "ts": s["start_ns"] / 1e3,
                           "dur": s["dur_ns"] / 1e3,
                           "args": {"program": s["program"], **s["args"]}})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))


def measure(r, checker, seconds, log, hard_cap_s):
    """Alternates untraced and traced harness runs for \\p seconds (one
    pair at least) and returns the per-layer metrics, medians over the
    traced runs."""
    start = time.perf_counter()
    overheads, passes = [], []
    run_no = 0
    while True:
        # Alternate which side goes first, so drift does not bias the
        # overhead estimate.
        walls = {}
        for spans in ((False, True) if len(passes) % 2 == 0
                      else (True, False)):
            run_no += 1
            out, summary = r.harness_pass(spans, f"harness-{run_no}")
            r.check_harness_outputs(out, run_no, checker)
            walls[spans] = summary["wall_ns"]
            if spans:
                passes.append(Pass(summary))
        overheads.append(walls[True] / walls[False] - 1)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed >= hard_cap_s:
            break

    per_pass = [p.metrics() for p in passes]
    units = dict(PER_LAYER)
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "bench.trace_overhead_frac":
            value = statistics.median(overheads)
        else:
            value = statistics.median(m[name] for m in per_pass)
        metrics[name] = {"value": value, "unit": units[name]}
        log(f"{name:<34} {value:>14.6g} {unit:<10} "
            f"(median of n={len(passes)})")
    # The ledger of the traced run whose wall is the median one.
    mid = sorted(passes, key=lambda p: sum(j["dur_ns"] for j in p.jobs))[
        len(passes) // 2]
    print_ledger(r.args.workload, mid, log)
    timeline = r.timeline_dir / f"{r.args.workload}-seed{r.args.seed}.json"
    write_timeline(timeline, passes)
    log(f"timeline: {timeline} (open in Perfetto or chrome://tracing)")
    return metrics
