// gm::obs — metrics registry semantics, JSONL trace round-trip,
// manifest contents, and the guarantee that attaching a recorder never
// perturbs the simulation itself.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/config_io.hpp"
#include "core/engine.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profile.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace gm::obs {
namespace {

// --- registry ----------------------------------------------------------

TEST(MetricsRegistry, CountersAccumulateAndSet) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.counter("missing"), 0u);
  m.counter_add("a");
  m.counter_add("a", 4);
  EXPECT_EQ(m.counter("a"), 5u);
  m.counter_set("a", 2);
  EXPECT_EQ(m.counter("a"), 2u);
  EXPECT_FALSE(m.empty());
}

TEST(MetricsRegistry, GaugesOverwrite) {
  MetricsRegistry m;
  m.gauge_set("g", 1.5);
  m.gauge_set("g", -3.0);
  EXPECT_DOUBLE_EQ(m.gauge("g"), -3.0);
  EXPECT_DOUBLE_EQ(m.gauge("missing"), 0.0);
}

TEST(MetricsRegistry, ObserveFeedsAccumulator) {
  MetricsRegistry m;
  m.observe("x", 1.0);
  m.observe("x", 3.0);
  const sim::Accumulator* acc = m.accumulator("x");
  ASSERT_NE(acc, nullptr);
  EXPECT_EQ(acc->count(), 2u);
  EXPECT_DOUBLE_EQ(acc->mean(), 2.0);
  EXPECT_DOUBLE_EQ(acc->min(), 1.0);
  EXPECT_DOUBLE_EQ(acc->max(), 3.0);
  EXPECT_EQ(m.accumulator("missing"), nullptr);
}

TEST(MetricsRegistry, HistogramKeepsFirstLayout) {
  MetricsRegistry m;
  sim::Histogram& h = m.histogram("lat", 0.0, 10.0, 10);
  h.add(3.5);
  // Later lookups ignore the layout arguments.
  sim::Histogram& again = m.histogram("lat", 0.0, 100.0, 3);
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.bin_count(), 10u);
  EXPECT_EQ(again.count(), 1u);
  ASSERT_NE(m.find_histogram("lat"), nullptr);
  EXPECT_EQ(m.find_histogram("nope"), nullptr);
}

TEST(MetricsRegistry, CsvExportShape) {
  MetricsRegistry m;
  m.counter_add("runs", 3);
  m.gauge_set("soc", 0.5);
  m.observe("lat", 2.0);
  std::ostringstream out;
  m.write_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("metric,kind,field,value"), std::string::npos);
  EXPECT_NE(csv.find("runs,counter"), std::string::npos);
  EXPECT_NE(csv.find("soc,gauge"), std::string::npos);
  EXPECT_NE(csv.find("lat,summary"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusNamesSanitized) {
  MetricsRegistry m;
  m.counter_add("events.task-admit", 7);
  m.observe("slot.brown_kwh", 1.0);
  m.histogram("lat", 0.0, 4.0, 2).add(1.0);
  std::ostringstream out;
  m.write_prometheus(out);
  const std::string prom = out.str();
  EXPECT_NE(prom.find("gm_events_task_admit 7"), std::string::npos);
  EXPECT_NE(prom.find("gm_slot_brown_kwh_count"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
  // Raw dotted/dashed names never leak into the exposition.
  EXPECT_EQ(prom.find("task-admit"), std::string::npos);
  EXPECT_EQ(prom.find("slot.brown"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusEmptyHistogram) {
  // A registered-but-never-fed histogram must still export a complete,
  // scrape-valid series: every bucket at 0, _count 0, _sum 0.
  MetricsRegistry m;
  m.histogram("idle", 0.0, 10.0, 5);
  std::ostringstream out;
  m.write_prometheus(out);
  const std::string prom = out.str();
  EXPECT_NE(prom.find("# TYPE gm_idle histogram"), std::string::npos);
  EXPECT_NE(prom.find("gm_idle_bucket{le=\"2\"} 0"), std::string::npos);
  EXPECT_NE(prom.find("gm_idle_bucket{le=\"+Inf\"} 0"),
            std::string::npos);
  EXPECT_NE(prom.find("gm_idle_count 0"), std::string::npos);
  EXPECT_NE(prom.find("gm_idle_sum 0"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusSingleBinHistogram) {
  // Degenerate layout: one bin spanning [lo, hi). The le boundary of
  // that bin must equal hi, and the cumulative +Inf series must agree
  // with it for in-range samples.
  MetricsRegistry m;
  sim::Histogram& h = m.histogram("one", 0.0, 10.0, 1);
  h.add(2.0);
  h.add(7.0);
  std::ostringstream out;
  m.write_prometheus(out);
  const std::string prom = out.str();
  EXPECT_NE(prom.find("gm_one_bucket{le=\"10\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("gm_one_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("gm_one_count 2"), std::string::npos);
  // _sum is the bin-midpoint approximation: both samples count as 5.
  EXPECT_NE(prom.find("gm_one_sum 10"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusSumApproximatesWithBinMidpoints) {
  // The histogram stores only counts, so _sum is reconstructed as
  // Σ bin_mid·count, with underflow valued at lo and overflow at hi.
  MetricsRegistry m;
  sim::Histogram& h = m.histogram("lat", 10.0, 30.0, 2);
  h.add(0.0);    // underflow -> valued at lo = 10
  h.add(15.0);   // bin [10,20) -> mid 15
  h.add(25.0);   // bin [20,30) -> mid 25
  h.add(100.0);  // overflow -> valued at hi = 30
  std::ostringstream out;
  m.write_prometheus(out);
  const std::string prom = out.str();
  // Cumulative buckets include the underflow; +Inf includes everything.
  EXPECT_NE(prom.find("gm_lat_bucket{le=\"20\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("gm_lat_bucket{le=\"30\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("gm_lat_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(prom.find("gm_lat_count 4"), std::string::npos);
  EXPECT_NE(prom.find("gm_lat_sum 80"), std::string::npos);
}

// --- log-bucketed latency histogram -------------------------------------

TEST(LogHistogram, EmptyReportsZero) {
  const LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
}

TEST(LogHistogram, SingleValueLandsInItsBucket) {
  LogHistogram h;
  h.add(1000.0);
  EXPECT_EQ(h.count(), 1u);
  // 1000 falls in the [896, 1024) log bucket (exp 9, mantissa 3); any
  // quantile must resolve inside it.
  for (double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_GE(h.quantile(q), 896.0) << q;
    EXPECT_LE(h.quantile(q), 1024.0) << q;
  }
}

TEST(LogHistogram, QuantilesTrackAUniformRampWithinBucketError) {
  LogHistogram h;
  for (int v = 1; v <= 1000; ++v) h.add(static_cast<double>(v));
  EXPECT_EQ(h.count(), 1000u);
  // Buckets are powers of two split in four: worst-case quantile error
  // is one quarter-octave (~12.5%), plus interpolation slack.
  EXPECT_NEAR(h.quantile(0.50), 500.0, 500.0 * 0.15);
  EXPECT_NEAR(h.quantile(0.95), 950.0, 950.0 * 0.15);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 990.0 * 0.15);
  EXPECT_LE(h.quantile(0.50), h.quantile(0.95));
  EXPECT_LE(h.quantile(0.95), h.quantile(0.99));
}

TEST(LogHistogram, NegativeValuesClampToZero) {
  LogHistogram h;
  h.add(-5.0);
  h.add(-1e18);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GE(h.quantile(1.0), 0.0);
  EXPECT_LE(h.quantile(1.0), 1.0);
}

// --- flat JSON ---------------------------------------------------------

TEST(FlatJson, RoundTripsEscapedStrings) {
  JsonObject o;
  o.set("kind", std::string("we\"ird\\\n")).set("n", 2.5).set("b", true);
  const FlatRecord r = parse_flat_json(o.str());
  EXPECT_EQ(record_str(r, "kind"), "we\"ird\\\n");
  EXPECT_DOUBLE_EQ(record_num(r, "n"), 2.5);
  EXPECT_EQ(record_str(r, "b"), "true");
  EXPECT_EQ(record_str(r, "missing", "dflt"), "dflt");
}

TEST(FlatJson, RejectsNestingAndGarbage) {
  EXPECT_THROW(parse_flat_json(R"({"a":{"b":1}})"), RuntimeError);
  EXPECT_THROW(parse_flat_json("not json"), RuntimeError);
  EXPECT_THROW(parse_flat_json(R"({"a":[1]})"), RuntimeError);
}

// --- end-to-end against the engine -------------------------------------

core::ExperimentConfig short_config() {
  core::ExperimentConfig config;
  config.cluster.racks = 2;
  config.cluster.nodes_per_rack = 6;
  config.cluster.placement.group_count = 64;
  config.workload = workload::WorkloadSpec::canonical(2, 99);
  config.solar.horizon_days = 4;
  config.panel_area_m2 = 60.0;
  config.battery = energy::BatteryConfig::lithium_ion(kwh_to_j(10));
  config.policy.kind = core::PolicyKind::kGreenMatch;
  return config;
}

std::vector<FlatRecord> read_trace(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<FlatRecord> records;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) records.push_back(parse_flat_json(line));
  return records;
}

TEST(ObsEndToEnd, TraceRoundTripAndEnergyBalance) {
  const std::string trace_path =
      testing::TempDir() + "gm_obs_roundtrip.jsonl";
  RecorderConfig rc;
  rc.trace_path = trace_path;
  auto recorder = std::make_shared<Recorder>(rc);
  const auto artifacts =
      core::run_experiment(short_config(), recorder);
  recorder->finish();

  const auto records = read_trace(trace_path);
  ASSERT_FALSE(records.empty());

  // One slot record per ledger slot, in order; balances must match the
  // ledger identities exactly (same doubles, just serialized).
  std::int64_t slots = 0;
  double brown_j = 0.0;
  for (const auto& r : records) {
    if (record_str(r, "kind") != "slot") continue;
    EXPECT_EQ(static_cast<std::int64_t>(record_num(r, "slot")), slots);
    ++slots;
    brown_j += record_num(r, "brown_j");
    const double supply_residual =
        record_num(r, "green_supply_j") -
        (record_num(r, "green_direct_j") +
         record_num(r, "battery_in_j") + record_num(r, "curtailed_j"));
    const double demand_residual =
        record_num(r, "demand_j") -
        (record_num(r, "green_direct_j") +
         record_num(r, "battery_out_j") + record_num(r, "brown_j"));
    EXPECT_NEAR(supply_residual, 0.0, 1e-6);
    EXPECT_NEAR(demand_residual, 0.0, 1e-6);
  }
  EXPECT_EQ(slots,
            static_cast<std::int64_t>(artifacts.ledger.slots().size()));
  EXPECT_NEAR(j_to_kwh(brown_j), artifacts.result.brown_kwh(), 1e-9);

  // Event bookkeeping: every admitted task leaves an admit record, and
  // the registry agrees with the trace.
  std::uint64_t admits = 0;
  for (const auto& r : records)
    if (record_str(r, "kind") == "task_admit") ++admits;
  EXPECT_EQ(admits, artifacts.result.qos.tasks_total);
  EXPECT_EQ(recorder->metrics().counter("events.task_admit"), admits);

  // finish() appended the run_end marker with the slot total.
  const auto& last = records.back();
  EXPECT_EQ(record_str(last, "kind"), "run_end");
  EXPECT_EQ(static_cast<std::int64_t>(record_num(last, "slots")), slots);

  std::remove(trace_path.c_str());
}

TEST(ObsEndToEnd, ManifestEchoesSeedsAndConfig) {
  const std::string trace_path =
      testing::TempDir() + "gm_obs_manifest.jsonl";
  const std::string manifest_path =
      testing::TempDir() + "gm_obs_manifest.manifest.json";
  auto config = short_config();
  config.workload.seed = 424242;
  RecorderConfig rc;
  rc.trace_path = trace_path;
  {
    auto recorder = std::make_shared<Recorder>(rc);
    // The manifest is written at engine construction, before any slot
    // runs — an aborted run still leaves its reproduction recipe.
    core::SimulationEngine engine(config, recorder);
  }

  std::ifstream in(manifest_path);
  ASSERT_TRUE(in.is_open()) << manifest_path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string manifest = buffer.str();
  EXPECT_NE(manifest.find("\"workload\": 424242"), std::string::npos);
  EXPECT_NE(manifest.find("\"policy\": \"greenmatch\""),
            std::string::npos);
  // Every config_echo pair appears (spot-check plus full sweep).
  for (const auto& [key, value] : core::config_echo(config))
    EXPECT_NE(manifest.find('"' + key + "\": \"" + value + '"'),
              std::string::npos)
        << key << '=' << value;

  std::remove(trace_path.c_str());
  std::remove(manifest_path.c_str());
}

TEST(ObsEndToEnd, ProvenanceExplainsEveryPendingTask) {
  const std::string trace_path =
      testing::TempDir() + "gm_obs_provenance.jsonl";
  RecorderConfig rc;
  rc.trace_path = trace_path;
  rc.provenance = true;
  auto recorder = std::make_shared<Recorder>(rc);
  const auto artifacts =
      core::run_experiment(short_config(), recorder);
  recorder->finish();

  std::uint64_t decisions = 0;
  std::uint64_t with_offset = 0;
  for (const auto& r : read_trace(trace_path)) {
    if (record_str(r, "kind") != "decision") continue;
    ++decisions;
    // Schema: every decision carries the identifying triple plus an
    // action/reason pair from the documented vocabulary.
    EXPECT_TRUE(r.count("slot") && r.count("task") && r.count("policy"))
        << "decision record missing identity fields";
    const std::string action = record_str(r, "action");
    EXPECT_TRUE(action == "run" || action == "defer" ||
                action == "beyond" || action == "drop")
        << action;
    EXPECT_FALSE(record_str(r, "reason").empty());
    if (r.count("chosen_offset")) {
      ++with_offset;
      EXPECT_GE(record_num(r, "chosen_offset"), 0.0);
      // Planned assignments expose the class aggregation they rode in
      // on and the marginal green-vs-brown path costs.
      EXPECT_GE(record_num(r, "class_size"), 1.0);
      EXPECT_GE(record_num(r, "demux_rank"), 0.0);
      EXPECT_GE(record_num(r, "brown_cost", -1.0),
                record_num(r, "green_cost", -1.0));
    }
  }
  EXPECT_GT(decisions, 0u);
  EXPECT_GT(with_offset, 0u);
  // Per-action counters land in the registry alongside the trace.
  std::uint64_t counted = 0;
  for (const char* a : {"run", "defer", "beyond", "drop"})
    counted += recorder->metrics().counter(std::string("decisions.") + a);
  EXPECT_EQ(counted, decisions);
  EXPECT_GT(artifacts.result.qos.tasks_completed, 0u);

  std::remove(trace_path.c_str());
}

TEST(ObsEndToEnd, ChromeTraceIsWellFormed) {
  const std::string trace_path =
      testing::TempDir() + "gm_obs_chrome.jsonl";
  const std::string chrome_path =
      testing::TempDir() + "gm_obs_chrome.trace.json";
  RecorderConfig rc;
  rc.trace_path = trace_path;
  rc.chrome_trace_path = chrome_path;
  auto recorder = std::make_shared<Recorder>(rc);
  core::run_experiment(short_config(), recorder);
  recorder->finish();

  std::ifstream in(chrome_path);
  ASSERT_TRUE(in.is_open()) << chrome_path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  // Trace-event envelope with the two pid lanes and both event types
  // (spans from GM_OBS_SCOPE, counters from slot records). Deep
  // validation lives in tools/check_chrome_trace.py; this guards the
  // envelope so the CI checker can always at least load the file.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("greenmatch wall-clock"), std::string::npos);
  EXPECT_NE(json.find("greenmatch sim-time"), std::string::npos);
  EXPECT_NE(json.find("green_supply_kwh"), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");
  EXPECT_EQ(recorder->chrome()->dropped(), 0u);

  std::remove(trace_path.c_str());
  std::remove(chrome_path.c_str());
}

TEST(ObsEndToEnd, RecorderDoesNotPerturbTheRun) {
  const auto config = short_config();
  const auto plain = core::run_experiment(config).result;

  // Every observability feature at once — trace, profile, metrics,
  // decision provenance, deep Chrome tracing — must still be read-only
  // with respect to the simulation.
  const std::string trace_path =
      testing::TempDir() + "gm_obs_perturb.jsonl";
  const std::string chrome_path =
      testing::TempDir() + "gm_obs_perturb.trace.json";
  const std::string metrics_path =
      testing::TempDir() + "gm_obs_perturb.metrics.csv";
  RecorderConfig rc;
  rc.trace_path = trace_path;
  rc.profile = true;
  rc.provenance = true;
  rc.chrome_trace_path = chrome_path;
  rc.metrics_path = metrics_path;
  auto recorder = std::make_shared<Recorder>(rc);
  const auto traced = core::run_experiment(config, recorder).result;
  recorder->finish();

  // Bit-identical outcomes: observability must be read-only.
  EXPECT_EQ(plain.energy.brown_j, traced.energy.brown_j);
  EXPECT_EQ(plain.energy.green_supply_j, traced.energy.green_supply_j);
  EXPECT_EQ(plain.energy.curtailed_j, traced.energy.curtailed_j);
  EXPECT_EQ(plain.energy.demand_j, traced.energy.demand_j);
  EXPECT_EQ(plain.qos.tasks_completed, traced.qos.tasks_completed);
  EXPECT_EQ(plain.qos.deadline_misses, traced.qos.deadline_misses);
  EXPECT_EQ(plain.qos.read_latency_p95_s, traced.qos.read_latency_p95_s);
  EXPECT_EQ(plain.scheduler.node_power_ons,
            traced.scheduler.node_power_ons);
  EXPECT_EQ(plain.scheduler.task_migrations,
            traced.scheduler.task_migrations);
  EXPECT_EQ(plain.battery.equivalent_cycles,
            traced.battery.equivalent_cycles);

  std::remove(trace_path.c_str());
  std::remove(chrome_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST(ObsEndToEnd, DisabledScopesAreInertOutsideARun) {
  // No recorder installed on this thread: the macro must be a no-op.
  EXPECT_EQ(current_recorder(), nullptr);
  GM_OBS_SCOPE("test.noop");
  EXPECT_EQ(current_recorder(), nullptr);
}

}  // namespace
}  // namespace gm::obs
