// perfbench: the repository benchmark.
//
//   perfbench --workload <explain_sweep|fleet_drift|fleet_sketched>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints a machine/build record line, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when any output check fails or any timed call returns a non-OK Status.
// Normally launched through run.py, which builds it first.
#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "util/simd.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py verifies every run's output against it).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"call_ms.p50", "ms"},      {"call_ms.p99", "ms"},
    {"obs_per_s", "obs/s"},     {"calls_per_s", "1/s"},
};

// A layer a workload does not exercise reports 0 there.
constexpr MetricSpec kPerLayer[] = {
    {"core.prepare_ms", "ms"},
    {"ks.test_ms", "ms"},
    {"core.size_search_ms", "ms"},
    {"core.construct_ms", "ms"},
    {"core.residual_share", "share"},
    {"core.theorem1_checks", "count"},
    {"core.full_scans", "count"},
    {"core.probe_refutation_share", "share"},
    {"core.theorem2_checks", "count"},
    {"core.theorem3_checks", "count"},
    {"ks.detect_us_per_obs", "us"},
    {"core.event_explain_ms.p50", "ms"},
    {"core.event_explain_ms.p99", "ms"},
    {"stream.batch_imbalance", "ratio"},
    {"stream.worker_busy_share", "share"},
    {"util.fork_join_us", "us"},
    {"stream.drift_ticks", "count"},
    {"stream.explanations", "count"},
    {"cache.hits", "count"},
    {"cache.entries", "count"},
    {"persist.serialize_ms", "ms"},
    {"persist.io_ms", "ms"},
    {"persist.deserialize_ms", "ms"},
    {"persist.checkpoint_ms.p50", "ms"},
    {"persist.restore_ms", "ms"},
    {"persist.snapshot_bytes", "bytes"},
    {"sketch.build_ms", "ms"},
    {"sketch.triage_us_per_window", "us"},
    {"sketch.certified_share", "share"},
    {"ks.fallback_ms", "ms"},
    {"cache.resident_bytes", "bytes"},
    {"trace.overhead_ms.p50", "ms"},
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <explain_sweep|fleet_drift|"
               "fleet_sketched> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  RunConfig config;
  config.out_dir = ".bench_out";
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return Usage(argv[0]);
    const std::string flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage(argv[0]);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(config.seconds > 0.0)) return Usage(argv[0]);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage(argv[0]);
      }
      config.trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  void (*run)(const RunConfig&, Tracer*, RunResult*) = nullptr;
  if (workload == "explain_sweep") run = RunExplainSweep;
  if (workload == "fleet_drift") run = RunFleetDrift;
  if (workload == "fleet_sketched") run = RunFleetSketched;
  if (run == nullptr) return Usage(argv[0]);
  if (mkdir(config.out_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "cannot create %s: %s\n", config.out_dir.c_str(),
                 std::strerror(errno));
    return 1;
  }

  Tracer tracer(config.trace);
  RunResult result;
  run(config, &tracer, &result);
  if (!config.trace) result.Add("peak_rss_mb", PeakRssMb(), "MB");

  // Exactly the metrics of the requested kind, in table order; a metric a
  // workload did not produce is 0 (per-layer) or a check failure
  // (end-to-end, which must never be 0).
  std::map<std::string, const Metric*> produced;
  for (const Metric& m : result.metrics) produced[m.name] = &m;
  std::vector<Metric> out;
  const MetricSpec* specs = config.trace ? kPerLayer : kEndToEnd;
  const size_t count = config.trace ? std::size(kPerLayer)
                                    : std::size(kEndToEnd);
  for (size_t k = 0; k < count; ++k) {
    auto it = produced.find(specs[k].name);
    Metric m{specs[k].name, 0.0, specs[k].unit, 0, 0.0};
    if (it != produced.end()) {
      m = *it->second;
      m.unit = specs[k].unit;
      produced.erase(it);
    } else if (!config.trace && result.check_failure_count == 0) {
      result.Fail(std::string("end-to-end metric missing: ") + m.name);
    }
    if (!std::isfinite(m.value)) {
      result.Fail(std::string("metric not finite: ") + m.name);
      m.value = 0.0;
    }
    if (!config.trace && m.value <= 0.0 && result.check_failure_count == 0) {
      result.Fail(std::string("end-to-end metric not positive: ") + m.name);
    }
    out.push_back(m);
  }
  for (const auto& entry : produced) {
    result.Fail("metric reported outside the declared set: " + entry.first);
  }

  if (tracer.enabled()) {
    const std::string path = config.out_dir + "/trace_" + workload + "_" +
                             std::to_string(config.seed) + ".tsv";
    if (!tracer.WriteTsv(path)) result.Fail("cannot write " + path);
  }

  for (const std::string& failure : result.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct =
      result.check_failure_count == 0 && result.failed == 0 &&
      result.attempted > 0;

  // The record: machine, build, seed, and the evidence behind each value.
  std::string record = "{\"record\": {";
  record += "\"workload\": " + JsonString(workload);
  record += ", \"seed\": " + std::to_string(config.seed);
  record += ", \"seconds\": " + JsonNumber(config.seconds);
  record += ", \"trace\": " + std::string(config.trace ? "1" : "0");
  record += ", \"nproc\": " + std::to_string(Nproc());
  record += ", \"cpu_model\": " + JsonString(CpuModel());
  record += ", \"isa\": " + JsonString(moche::simd::ActiveIsaName());
  record += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  record += ", \"compiler\": " + JsonString(__VERSION__);
  record += ", \"check_failures\": " +
            std::to_string(result.check_failure_count);
  for (const auto& [key, value] : result.notes) {
    record += ", " + JsonString(key) + ": " + JsonString(value);
  }
  record += ", \"evidence\": {";
  bool first = true;
  for (const Metric& m : out) {
    if (m.samples == 0) continue;
    record += std::string(first ? "" : ", ") + JsonString(m.name) +
              ": {\"samples\": " + std::to_string(m.samples);
    if (m.percentile > 0.0) {
      record += ", \"percentile\": " + JsonNumber(m.percentile);
    }
    record += "}";
    first = false;
  }
  record += "}}}";
  std::printf("%s\n", record.c_str());

  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false");
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (size_t k = 0; k < out.size(); ++k) {
    line += std::string(k ? ", " : "") + JsonString(out[k].name) +
            ": {\"value\": " + JsonNumber(out[k].value) +
            ", \"unit\": " + JsonString(out[k].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
