#!/usr/bin/env python3
"""Whole-run benchmark for the GreenMatch simulator.

Usage (from the repository root):

    python3 wholerun/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `wholerun_driver` (and a reference `greenmatch_sim`) from source
into $CARGO_TARGET_DIR/wholerun (default .bench_build/wholerun), then runs
whole simulated weeks of one workload, each in a fresh process and one
after another, for at least S seconds. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (medians over the runs);
--trace 1 alternates untraced and traced runs and reports the per-layer
metrics computed from the traced runs' spans. See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Workload name -> config (relative to the repository root), why, and
# the layers it stresses and bypasses.
with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as _f:
    WORKLOADS = json.load(_f)["workloads"]

AUDIT_CHECKS = 20
# Per-slot p95 needs at least ten samples beyond it.
MIN_STEP_SAMPLES = 200
# Time limits for one child process (the whole benchmark must end in 180 s).
RUN_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 840

# The layer spans (leaves of the span tree); everything else is glue.
LAYER_SPANS = ("workload.generate", "engine.construct", "policy.initialize",
               "engine.observe", "policy.decide", "engine.act",
               "engine.finalize")
# GM_OBS_SCOPE phases read back from the engine's profiler.
IN_PROGRAM_PHASES = ("engine.route_requests", "power.apply_target",
                     "planner.mincostflow.solve", "engine.assign_tasks",
                     "engine.intake_arrivals")


def log(msg):
    print(f"wholerun: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "wholerun")


def build():
    """Configures (once) and builds the driver; build output to stderr."""
    out = build_dir()
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        remaining = max(1.0, deadline - time.monotonic())
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=remaining)
    return (os.path.join(out, "wholerun_driver"),
            os.path.join(out, "greenmatch_sim_ref"))


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def run_driver(driver, config, seed, spans=None):
    """One whole run in a fresh process; returns its JSON record."""
    cmd = [driver, f"--config={config}", f"--seed={seed}"]
    if spans:
        cmd.append(f"--spans={spans}")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_ok(rec, fingerprint):
    """A run passes when all audit checks pass, the config round-trips
    and its simulated output is the same as every other run's."""
    return (rec["audit_checks"] == AUDIT_CHECKS
            and rec["audit_failures"] == 0
            and rec["roundtrip_ok"] == 1
            and rec["fingerprint"] == fingerprint)


def reference_check(sim, config, rec):
    """Once per workload in a build tree: the external observe/decide/act
    drive must print what greenmatch_sim's own run() prints for the same
    config and seed overrides."""
    marker = os.path.join(build_dir(), f"reference-{os.path.basename(config)}.ok")
    if os.path.exists(marker):
        return True
    fingerprint = rec["fingerprint"]
    cmd = [sim, config, *rec["overrides"].split(), "--slots"]
    proc = subprocess.run(cmd, capture_output=True, timeout=RUN_TIMEOUT_S)
    want = fnv1a64(proc.stdout) if proc.returncode == 0 else "exit"
    if want != fingerprint:
        log(f"reference mismatch: greenmatch_sim {want} vs driver {fingerprint}")
        return False
    with open(marker, "w", encoding="utf-8") as f:
        f.write(f"{config} {rec['overrides']} fingerprint={fingerprint}\n")
    log(f"reference check passed: {fingerprint} ({rec['overrides']})")
    return True


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def median_of(recs, key):
    return statistics.median(r[key] for r in recs)


def end_to_end(recs):
    """Medians over the weeks of a run. Every week replays the same seed,
    so slot s does the same work in each: the step percentiles are taken
    over the per-slot medians, which drops the time that bursts of other
    load on a shared core add to a few slots of a few weeks."""
    steps = [r["step_ms"] for r in recs]
    if any(len(s) != len(steps[0]) for s in steps) or len(steps[0]) < MIN_STEP_SAMPLES:
        raise RuntimeError(f"every week needs the same {MIN_STEP_SAMPLES}+ slots")
    slots = [statistics.median(col) for col in zip(*steps)]
    first = recs[0]
    accepted = 100.0
    if first["arrivals_generated"]:
        accepted = 100.0 * (1.0 - first["arrivals_rejected"]
                            / first["arrivals_generated"])
    return {
        "setup_s": (median_of(recs, "setup_ms") / 1e3, "s"),
        "slot_loop_s": (median_of(recs, "slot_loop_ms") / 1e3, "s"),
        "run_s": (median_of(recs, "run_ms") / 1e3, "s"),
        "step_p50_ms": (percentile(slots, 50), "ms"),
        "step_p95_ms": (percentile(slots, 95), "ms"),
        "peak_rss_mb": (median_of(recs, "peak_rss_mib"), "MiB"),
        "brown_kwh": (first["brown_kwh"], "kWh"),
        "green_util_pct": (first["green_util_pct"], "%"),
        "deadline_met_pct": (100.0 - first["deadline_miss_pct"], "%"),
        "tasks_accepted_pct": (accepted, "%"),
    }


def load_spans(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    spans = {}
    for ev in doc["traceEvents"]:
        if ev.get("ph") == "X":
            a = ev["args"]
            spans[a["id"]] = {"name": ev["name"], "dur_ms": ev["dur"] / 1e3,
                              "parent": a["parent"], "run": a["run"]}
    return spans


def span_layers(spans):
    """Self time per span name (duration minus its children's), per-call
    durations of the per-slot layers, and the share of the run span the
    layer spans cover."""
    child_ms = {i: 0.0 for i in spans}
    for s in spans.values():
        if s["parent"] >= 0:
            child_ms[s["parent"]] += s["dur_ms"]
    self_ms, calls = {}, {}
    for i, s in spans.items():
        self_ms[s["name"]] = self_ms.get(s["name"], 0.0) + s["dur_ms"] - child_ms[i]
        calls.setdefault(s["name"], []).append(s["dur_ms"])
    if len({s["run"] for s in spans.values()}) != 1:
        raise RuntimeError("spans of one run must share one run id")
    (run_ms,) = calls["run"]
    covered = sum(self_ms.get(n, 0.0) for n in LAYER_SPANS)
    return self_ms, calls, 100.0 * covered / run_ms, run_ms


def per_layer(traced, untraced, span_sets):
    first = traced[0]
    rows = []  # (name, value, unit)

    def med(values):
        return statistics.median(values)

    layer = [span_layers(s) for s in span_sets]
    self_ms = lambda name: med(l[0].get(name, 0.0) for l in layer)
    p = lambda name, q: med(percentile(l[1][name], q) for l in layer)

    rows += [
        ("storage.cluster_build_ms", self_ms("storage.cluster_build"), "ms"),
        ("storage.nodes", first["storage_nodes"], "count"),
        ("storage.groups", first["storage_groups"], "count"),
        ("workload.generate_ms", self_ms("workload.generate"), "ms"),
        ("workload.requests", first["workload_requests"], "count"),
        ("workload.tasks", first["workload_tasks"], "count"),
        ("workload.request_mb", first["request_bytes"] / 2**20, "MiB"),
        ("engine.construct_ms", self_ms("engine.construct"), "ms"),
        ("engine.observe_ms", self_ms("engine.observe"), "ms"),
        ("engine.observe_p95_ms", p("engine.observe", 95), "ms"),
        ("engine.pending_mean", first["pending_mean"], "count"),
        ("engine.pending_max", first["pending_max"], "count"),
        ("engine.act_ms", self_ms("engine.act"), "ms"),
        ("engine.act_p95_ms", p("engine.act", 95), "ms"),
        ("engine.finalize_ms", self_ms("engine.finalize"), "ms"),
        ("engine.slots", len(first["step_ms"]), "count"),
        ("engine.migrations", first["migrations"], "count"),
        ("policy.initialize_ms", self_ms("policy.initialize"), "ms"),
        ("policy.decide_ms", self_ms("policy.decide"), "ms"),
        ("policy.decide_p50_ms", p("policy.decide", 50), "ms"),
        ("policy.decide_p95_ms", p("policy.decide", 95), "ms"),
    ]
    runs = first["planner_dijkstra_runs"]
    rows += [
        ("planner.solves", first["planner_solves"], "count"),
        ("planner.dijkstra_runs", runs, "count"),
        ("planner.dijkstra_pops", first["planner_dijkstra_pops"], "count"),
        ("planner.augmenting_paths", first["planner_augmenting_paths"], "count"),
        ("planner.warm_accepts", first["planner_warm_accepts"], "count"),
        ("planner.classes_mean", first["planner_classes_mean"], "count"),
        ("planner.paths_per_dijkstra",
         first["planner_augmenting_paths"] / runs if runs else 0.0, "ratio"),
        ("power.power_ons", first["power_ons"], "count"),
        ("power.power_offs", first["power_offs"], "count"),
        ("power.mean_active_nodes", first["mean_active_nodes"], "count"),
        ("router.requests", first["router_requests"], "count"),
        ("router.forced_wakeups", first["router_forced_wakeups"], "count"),
        ("router.offloaded_writes", first["router_offloaded_writes"], "count"),
        ("router.unavailable_reads", first["router_unavailable_reads"], "count"),
        ("admission.decisions", first["admission_decisions"], "count"),
        ("admission.admitted", first["admission_admitted"], "count"),
        ("admission.rejected", first["admission_rejected"], "count"),
        ("admission.deferrals", first["admission_deferrals"], "count"),
        ("admission.rejected_pct",
         100.0 * first["arrivals_rejected"] / first["arrivals_generated"]
         if first["arrivals_generated"] else 0.0, "%"),
        ("qos.read_p99_ms", first["read_p99_ms"], "ms"),
        ("qos.deadline_miss_pct", first["deadline_miss_pct"], "%"),
        ("audit.checks", first["audit_checks"], "count"),
        ("audit.failures", first["audit_failures"], "count"),
        ("audit_ms", self_ms("audit"), "ms"),
        ("trace.spans", len(span_sets[0]), "count"),
        ("trace.coverage_pct", med(l[2] for l in layer), "%"),
        # Each traced week against the untraced week just before it, so
        # drift in host speed between the two stays small.
        ("trace.overhead_pct",
         100.0 * med(l[3] / u["run_ms"] - 1.0 for l, u in zip(layer, untraced)),
         "%"),
    ]
    for phase in IN_PROGRAM_PHASES:
        rows.append((f"inprog.{phase}_ms",
                     med(r.get(f"inprog:{phase}", 0.0) for r in traced), "ms"))
    return {name: (value, unit) for name, value, unit in rows}


def check_chrome_trace(path):
    """The spans must load in Perfetto: validate with the repo's checker."""
    checker = os.path.join(ROOT, "tools", "check_chrome_trace.py")
    proc = subprocess.run([sys.executable, checker, path],
                          capture_output=True, text=True, timeout=60)
    log(proc.stdout.strip() or proc.stderr.strip())
    return proc.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    config = WORKLOADS[args.workload]["config"]
    if not os.path.exists(config):
        raise SystemExit(f"wholerun: {config} not found; run from the "
                         "repository root")
    driver, sim = build()

    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    records = []      # every untraced run
    traced = []       # every traced run
    span_sets = []
    attempted = failed = 0
    fingerprint = None
    chrome_ok = True
    start = time.monotonic()
    took = {False: [], True: []}  # process wall time per kind of run
    # Untraced runs only with --trace 0; alternating U/T with --trace 1.
    while True:
        want_trace = args.trace == 1 and len(traced) < len(records)
        spans = None
        if want_trace:
            spans = os.path.join(trace_dir, f"{args.workload}-{args.seed}-"
                                 f"{len(traced)}.trace.json")
        attempted += 1
        t0 = time.monotonic()
        try:
            rec = run_driver(driver, config, args.seed, spans)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
            log(f"run {attempted} failed: {e}")
            failed += 1
            rec = None
        took[want_trace].append(time.monotonic() - t0)
        if rec is not None:
            fingerprint = fingerprint or rec["fingerprint"]
            if not run_ok(rec, fingerprint):
                log(f"run {attempted} failed its output check: "
                    f"{rec['audit_failures']} audit failures, round-trip "
                    f"{rec['roundtrip_ok']}, fingerprint {rec['fingerprint']}")
                failed += 1
            elif want_trace:
                if not span_sets:
                    chrome_ok = check_chrome_trace(spans)
                span_sets.append(load_spans(spans))
                traced.append(rec)
            else:
                records.append(rec)
        if attempted >= 3 and not records:
            break  # every run fails: stop early and report it
        if not records or (args.trace == 1 and not traced):
            continue
        # Start another run only if it ends nearer to --seconds than
        # stopping now would, so a run's length stays close to it.
        next_kind = args.trace == 1 and len(traced) < len(records)
        expected = statistics.median(took[next_kind] or took[False])
        if time.monotonic() - start + expected / 2 > args.seconds:
            break

    ref_ok = bool(records) and reference_check(sim, config, records[0])
    correct = failed == 0 and ref_ok and chrome_ok and bool(records)
    metrics = {}
    if records and (args.trace == 0 or traced):
        table = per_layer(traced, records, span_sets) if args.trace else end_to_end(records)
        for name, (value, unit) in table.items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:36s} {value:>16.6g} {unit}")
    print(f"runs: {len(records)} untraced, {len(traced)} traced; "
          f"slot samples per run: {len(records[0]['step_ms']) if records else 0}; "
          f"fingerprint {fingerprint}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
