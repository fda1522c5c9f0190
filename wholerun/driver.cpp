// wholerun_driver — one whole simulated run, timed from outside the
// engine through its public API only.
//
//   wholerun_driver --config=FILE --seed=N [--spans=FILE]
//
// The run is the sequence a user of the library pays for:
//   generate_workload → SimulationEngine(config with preset_workload)
//   → make_policy + initialize(engine.facts())
//   → per slot: observe → decide → act
//   → finalize
// followed, outside the timed run, by audit_run and config_roundtrip.
//
// The seed replaces `workload.seed`, and `arrivals.seed` too when the
// config streams open-system arrivals; the engine sees only the
// resulting config. The output echoes these overrides as `key=value`
// words, ready to hand to greenmatch_sim.
//
// Without --spans the run is untraced: two clock reads per slot and
// nothing else. With --spans=FILE the run is traced: every call above
// is wrapped in a span (name, start, end, parent, shared run id), the
// engine gets a profiling-only obs::Recorder so its GM_OBS_SCOPE phase
// totals can be read back, a standalone storage::Cluster build is timed
// after the run, and the spans are written to FILE as Chrome
// trace-event JSON when the process ends.
//
// stdout carries exactly one JSON object: timings, modelled outcomes,
// layer counters, the audit verdict and an FNV-1a-64 fingerprint of
// the simulated output. The fingerprint covers the same text
// `greenmatch_sim FILE workload.seed=N [arrivals.seed=N] --slots`
// prints (run summary, blank line, per-slot ledger CSV at %.17g), so
// the two can be compared digest for digest.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "core/config_io.hpp"
#include "core/engine.hpp"
#include "core/policies.hpp"
#include "obs/recorder.hpp"
#include "storage/cluster.hpp"
#include "util/csv.hpp"
#include "workload/generator.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One traced call. `parent` indexes the enclosing span (-1: root).
struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
  int parent;
};

/// In-memory span log; disabled instances record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Opens a span under the innermost open one.
  void open(const char* name) {
    if (!enabled_) return;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, Clock::now(), {}, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void close() {
    if (!enabled_) return;
    spans_[static_cast<std::size_t>(stack_.back())].end = Clock::now();
    stack_.pop_back();
  }

  /// Chrome trace-event JSON: one "X" span per call on pid 1, tid 1,
  /// timestamps in µs from `epoch`; args carry the span id, parent id
  /// and the run id every span shares.
  void write_chrome(const std::string& path, const std::string& run_id,
                    Clock::time_point epoch) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    out << "{\"traceEvents\":[\n"
        << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
           "\"args\":{\"name\":\"wholerun " << run_id << "\"}}";
    char buf[64];
    const auto us = [&](Clock::time_point t) {
      std::snprintf(buf, sizeof buf, "%.3f",
                    std::chrono::duration<double, std::micro>(t - epoch)
                        .count());
      return std::string(buf);
    };
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf, "%.3f",
                    std::chrono::duration<double, std::micro>(s.end -
                                                              s.start)
                        .count());
      const std::string dur = buf;
      out << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"" << s.name
          << "\",\"ts\":" << us(s.start) << ",\"dur\":" << dur
          << ",\"args\":{\"run\":\"" << run_id << "\",\"id\":" << i
          << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("short write to " + path);
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op on a disabled log.
class Scope {
 public:
  Scope(SpanLog& log, const char* name) : log_(log) { log_.open(name); }
  ~Scope() { log_.close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
};

/// greenmatch_sim's `--slots` stdout: summary, blank line, ledger CSV.
std::string simulated_output_text(const gm::core::RunArtifacts& a) {
  std::ostringstream out;
  a.result.print_summary(out);
  out << '\n';
  gm::CsvWriter csv(out);
  csv.field("slot").field("start_s").field("demand_kwh")
      .field("green_supply_kwh").field("green_direct_kwh")
      .field("battery_in_kwh").field("battery_out_kwh")
      .field("brown_kwh").field("curtailed_kwh")
      .field("battery_soc_kwh").field("active_nodes");
  csv.end_row();
  const auto& slots = a.ledger.slots();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const auto& s = slots[i];
    csv.field(s.slot)
        .field(s.start)
        .field(gm::j_to_kwh(s.demand_j))
        .field(gm::j_to_kwh(s.green_supply_j))
        .field(gm::j_to_kwh(s.green_direct_j))
        .field(gm::j_to_kwh(s.battery_charge_drawn_j))
        .field(gm::j_to_kwh(s.battery_discharged_j))
        .field(gm::j_to_kwh(s.brown_j))
        .field(gm::j_to_kwh(s.curtailed_j))
        .field(gm::j_to_kwh(s.battery_stored_end_j))
        .field(static_cast<std::int64_t>(a.active_nodes_per_slot[i]));
    csv.end_row();
  }
  return out.str();
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Flat JSON object writer; numbers at round-trip precision.
class JsonOut {
 public:
  JsonOut& num(const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonOut& count(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonOut& str(const char* key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonOut& list(const char* key, const std::vector<double>& v) {
    std::string s = "[";
    char buf[40];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", v[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  JsonOut& raw(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += value;
    return *this;
  }
  std::string body_;
};

struct Args {
  std::string config;
  std::uint64_t seed = 0;
  bool has_seed = false;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--config") {
      a.config = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      a.has_seed = true;
    } else if (key == "--spans") {
      a.spans = value;
    } else {
      throw std::invalid_argument("unexpected argument '" + arg + "'");
    }
  }
  if (a.config.empty() || !a.has_seed)
    throw std::invalid_argument(
        "usage: wholerun_driver --config=FILE --seed=N [--spans=FILE]");
  return a;
}

int run(const Args& args) {
  namespace core = gm::core;
  const Clock::time_point epoch = Clock::now();
  const bool traced = !args.spans.empty();
  SpanLog spans(traced);

  // Seed mapping: the engine only ever sees the resulting config.
  core::ExperimentConfig config = core::config_from_file(args.config);
  gm::KeyValueConfig seed_keys;
  std::string overrides;  // the same keys, as greenmatch_sim arguments
  const auto set_seed = [&](const std::string& key) {
    seed_keys.set(key, std::to_string(args.seed));
    overrides += (overrides.empty() ? "" : " ") + key + "=" +
                 std::to_string(args.seed);
  };
  set_seed("workload.seed");
  if (config.arrivals.enabled) set_seed("arrivals.seed");
  core::apply_config(config, seed_keys);

  std::shared_ptr<gm::obs::Recorder> recorder;
  if (traced) {
    gm::obs::RecorderConfig rc;
    rc.profile = true;  // phase totals only; no files
    recorder = std::make_shared<gm::obs::Recorder>(rc);
  }

  std::vector<double> step_ms;
  double pending_sum = 0.0;
  std::size_t pending_max = 0;
  double classes_sum = 0.0;
  std::uint64_t classes_samples = 0;
  std::uint64_t requests = 0, tasks = 0;
  double setup_ms = 0.0, loop_ms = 0.0, run_ms = 0.0;

  std::optional<core::SimulationEngine> engine;
  std::unique_ptr<core::SchedulerPolicy> policy;
  const core::GreenMatchPolicy* planner = nullptr;
  core::RunArtifacts artifacts;
  {
    const Clock::time_point t_run = Clock::now();
    Scope run_span(spans, "run");
    {
      Scope setup_span(spans, "setup");
      core::ExperimentConfig engine_config = config;
      {
        Scope s(spans, "workload.generate");
        engine_config.preset_workload =
            std::make_shared<const gm::workload::Workload>(
                gm::workload::generate_workload(
                    config.workload, config.cluster.placement.group_count));
      }
      requests = engine_config.preset_workload->requests.size();
      tasks = engine_config.preset_workload->tasks.size();
      {
        Scope s(spans, "engine.construct");
        engine.emplace(engine_config, recorder);
      }
      {
        Scope s(spans, "policy.initialize");
        policy = core::make_policy(config.policy);
        policy->initialize(engine->facts());
      }
    }
    planner = dynamic_cast<const core::GreenMatchPolicy*>(policy.get());
    const Clock::time_point t_loop = Clock::now();
    setup_ms = ms_between(t_run, t_loop);
    {
      Scope loop_span(spans, "slot_loop");
      // Planner GM_OBS_SCOPEs run inside our decide() call, outside the
      // engine's own recorder installation.
      gm::obs::ScopedRecorder install(recorder.get());
      const gm::SlotIndex n = engine->total_slots();
      step_ms.reserve(static_cast<std::size_t>(n));
      std::uint64_t solves_before = 0;
      for (gm::SlotIndex slot = 0; slot < n; ++slot) {
        const Clock::time_point t0 = Clock::now();
        if (!traced) {
          engine->act(slot, policy->decide(engine->observe(slot)));
        } else {
          Scope slot_span(spans, "slot");
          const core::SlotContext* ctx = nullptr;
          core::SlotDecision decision;
          {
            Scope s(spans, "engine.observe");
            ctx = &engine->observe(slot);
          }
          {
            Scope s(spans, "policy.decide");
            decision = policy->decide(*ctx);
          }
          Scope s(spans, "engine.act");
          engine->act(slot, decision);
        }
        step_ms.push_back(ms_between(t0, Clock::now()));
        if (traced) {
          // Between-slot bookkeeping, outside every timed span.
          pending_sum += static_cast<double>(engine->pending_count());
          pending_max = std::max(pending_max, engine->pending_count());
          if (planner && planner->solver_totals().solves > solves_before) {
            solves_before = planner->solver_totals().solves;
            classes_sum += planner->last_plan_stats().classes;
            ++classes_samples;
          }
        }
      }
    }
    const Clock::time_point t_fin = Clock::now();
    loop_ms = ms_between(t_loop, t_fin);
    {
      Scope s(spans, "engine.finalize");
      artifacts = engine->finalize();
    }
    run_ms = ms_between(t_run, Clock::now());
  }

  // Output checks, outside the timed run.
  gm::audit::AuditReport audit;
  gm::audit::RoundTripResult round_trip;
  {
    Scope s(spans, "audit");
    audit = gm::audit::audit_run(*engine, artifacts);
    round_trip = gm::audit::config_roundtrip(config);
  }
  for (const auto& c : audit.checks)
    if (!c.passed)
      std::cerr << "audit: " << c.name << " failed: " << c.detail << '\n';
  for (const auto& m : round_trip.mismatches)
    std::cerr << "audit: config round-trip: " << m << '\n';

  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(
                    fnv1a64(simulated_output_text(artifacts))));

  // Peak RSS of the run alone: taken before the traced-only extras.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;

  const gm::metrics::RunResult& r = artifacts.result;
  const std::uint32_t groups = config.cluster.placement.group_count;
  const std::size_t nodes = engine->cluster().node_count();
  std::vector<std::pair<std::string, double>> phases;
  if (recorder) {
    for (const auto& [name, stats] : recorder->profiler().phases())
      phases.emplace_back(name, stats.total_ms());
  }

  JsonOut out;
  out.str("fingerprint", digest)
      .str("overrides", overrides)
      .count("audit_checks", audit.checks.size())
      .count("audit_failures", audit.failures())
      .count("roundtrip_ok", round_trip.fixed_point ? 1 : 0)
      .num("setup_ms", setup_ms)
      .num("slot_loop_ms", loop_ms)
      .num("run_ms", run_ms)
      .num("peak_rss_mib", peak_rss_mib)
      .list("step_ms", step_ms)
      .num("brown_kwh", r.brown_kwh())
      .num("green_util_pct", r.energy.green_utilization() * 100.0)
      .num("deadline_miss_pct", r.qos.deadline_miss_rate() * 100.0)
      .num("read_p99_ms", r.qos.read_latency_p99_s * 1000.0)
      .count("arrivals_generated", r.qos.arrivals_generated)
      .count("arrivals_rejected", r.qos.arrivals_rejected)
      .count("storage_nodes", nodes)
      .count("storage_groups", groups)
      .count("workload_requests", requests)
      .count("workload_tasks", tasks)
      .count("request_bytes", requests * sizeof(gm::storage::IoRequest))
      .count("power_ons", r.scheduler.node_power_ons)
      .count("power_offs", r.scheduler.node_power_offs)
      .num("mean_active_nodes", r.scheduler.mean_active_nodes)
      .count("migrations", r.scheduler.task_migrations)
      .count("router_requests", r.qos.foreground_requests)
      .count("router_forced_wakeups", r.scheduler.forced_wakeups)
      .count("router_offloaded_writes", r.qos.offloaded_writes)
      .count("router_unavailable_reads", r.qos.unavailable_reads)
      .count("admission_decisions", r.qos.admission_decisions)
      .count("admission_admitted", r.qos.arrivals_admitted)
      .count("admission_rejected", r.qos.arrivals_rejected)
      .count("admission_deferrals", r.qos.admission_deferrals);
  const auto totals =
      planner ? planner->solver_totals() : core::GreenMatchPolicy::SolverTotals{};
  out.count("planner_solves", totals.solves)
      .count("planner_dijkstra_runs", totals.dijkstra_runs)
      .count("planner_dijkstra_pops", totals.dijkstra_pops)
      .count("planner_augmenting_paths", totals.augmenting_paths)
      .count("planner_warm_accepts", planner ? planner->warm_accepts() : 0);

  // Traced-only extras, after every number above has been taken.
  if (traced) {
    out.num("pending_mean", step_ms.empty() ? 0.0
                                            : pending_sum /
                                                  static_cast<double>(
                                                      step_ms.size()))
        .count("pending_max", pending_max)
        .num("planner_classes_mean",
             classes_samples ? classes_sum /
                                   static_cast<double>(classes_samples)
                             : 0.0);
    for (const auto& [name, ms] : phases)
      out.num(("inprog:" + name).c_str(), ms);
    // The engine is done with; free it before the standalone placement
    // build so the probe does not stack on the run's memory.
    engine.reset();
    policy.reset();
    {
      Scope s(spans, "storage.cluster_build");
      const gm::storage::Cluster probe(config.cluster);
      if (probe.node_count() != nodes)
        throw std::runtime_error("standalone cluster differs from engine's");
    }
    const std::string run_id = std::string(digest) + "-" +
                               std::to_string(args.seed) + "-" +
                               std::to_string(::getpid());
    spans.write_chrome(args.spans, run_id, epoch);
    out.str("run_id", run_id);
  }
  std::cout << out.done() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "wholerun_driver: error: " << e.what() << '\n';
    return 1;
  }
}
