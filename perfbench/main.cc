// Closed-loop benchmark program for the four user paths of README.md:
//
//   perfbench --workload plain|debug|recovery|service --seed N
//                    --seconds S --trace 0|1 --work-dir DIR [--commit C]
//
// Prints one JSON object as the last line of stdout:
//   {"correct":..., "attempted":..., "failed":..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, measured without any
// tracing installed; with --trace 1 they are the per-layer ones. A record
// of the run (configuration, every metric, the first failures) and, for
// traced runs, every span go to DIR/runs/. A wrong answer is reported as
// "correct": false with the failed count, not as a crash; the exit code is
// non-zero only for bad arguments.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

using perfbench::Clock;
using perfbench::Metric;
using perfbench::RunConfig;
using perfbench::WorkloadResult;

/// A fixed single-thread reference loop (xorshift chain). Timed at the start
/// and end of every run as host.calib_ms: a slower loop means a contended
/// host, not a slower program. It gates nothing.
double CalibrationMs() {
  const Clock::time_point start = Clock::now();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  uint64_t acc = 0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x & 0xff;
  }
  volatile uint64_t sink = acc;
  (void)sink;
  return perfbench::SecondsSince(start) * 1e3;
}

std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return out + "}";
}

int Usage() {
  std::cerr << "usage: perfbench --workload plain|debug|recovery|"
               "service --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--commit C]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string commit = "unknown";
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (key == "--work-dir") {
      config.work_dir = value;
    } else if (key == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || config.seconds <= 0 ||
      (trace != 0 && trace != 1) || config.work_dir.empty()) {
    return Usage();
  }
  config.trace = trace == 1;
  // Engine jobs and service jobs must run in-process whatever the caller's
  // environment says.
  ::unsetenv("GRAFT_TRANSPORT");
  ::mkdir(config.work_dir.c_str(), 0755);
  ::mkdir((config.work_dir + "/runs").c_str(), 0755);
  ::mkdir((config.work_dir + "/stores").c_str(), 0755);

  std::unique_ptr<perfbench::Recorder> recorder;
  if (config.trace) {
    recorder = std::make_unique<perfbench::Recorder>();
    config.recorder = recorder.get();
  }

  const double calib_start = CalibrationMs();
  WorkloadResult result;
  if (config.workload == "plain") {
    perfbench::RunPlain(config, &result);
  } else if (config.workload == "debug") {
    perfbench::RunDebug(config, &result);
  } else if (config.workload == "recovery") {
    perfbench::RunRecovery(config, &result);
  } else if (config.workload == "service") {
    perfbench::RunService(config, &result);
  } else {
    std::cerr << "unknown workload '" << config.workload << "'\n";
    return 2;
  }
  const double calib_end = CalibrationMs();
  result.Layer("host.calib_ms", 0.5 * (calib_start + calib_end), "ms");
  result.Layer("bench.peak_rss_mb", perfbench::PeakRssMb(), "MB");
  if (result.attempted > 0) {
    result.Layer("bench.fail_ratio",
                 static_cast<double>(result.failed) /
                     static_cast<double>(result.attempted),
                 "1");
  }
  if (recorder != nullptr) {
    perfbench::ReportSpanMetrics(*recorder, &result);
  }

  const std::string stem = config.work_dir + "/runs/" + config.workload +
                           "-seed" + std::to_string(config.seed) + "-trace" +
                           std::to_string(trace) + "-pid" +
                           std::to_string(::getpid());
  if (recorder != nullptr) recorder->WriteJsonLines(stem + ".spans.jsonl");
  {
    std::ofstream record(stem + ".json");
    record << "{\"workload\": " << JsonString(config.workload)
           << ", \"seed\": " << config.seed
           << ", \"seconds\": " << JsonNumber(config.seconds)
           << ", \"trace\": " << trace << ", \"commit\": " << JsonString(commit)
           << ", \"build_type\": \"Release\", \"nproc\": "
           << ::sysconf(_SC_NPROCESSORS_ONLN)
           << ", \"workers\": " << perfbench::kWorkers
           << ", \"calib_start_ms\": " << JsonNumber(calib_start)
           << ", \"calib_end_ms\": " << JsonNumber(calib_end)
           << ", \"correct\": " << (result.correct ? "true" : "false")
           << ", \"attempted\": " << result.attempted
           << ", \"failed\": " << result.failed << ", \"errors\": [";
    for (size_t i = 0; i < result.errors.size(); ++i) {
      record << (i > 0 ? ", " : "") << JsonString(result.errors[i]);
    }
    record << "], \"end_to_end\": " << MetricsJson(result.end_to_end)
           << ", \"per_layer\": " << MetricsJson(result.per_layer) << "}\n";
  }
  for (const std::string& error : result.errors) {
    std::cerr << "perfbench: " << error << "\n";
  }
  // Every metric of the run, by name and unit, for a reader of the log.
  for (const auto* metrics : {&result.end_to_end, &result.per_layer}) {
    for (const auto& [name, metric] : *metrics) {
      std::cerr << "perfbench: " << name << " = " << JsonNumber(metric.value)
                << " " << metric.unit << "\n";
    }
  }

  const bool correct =
      result.correct && result.failed == 0 && result.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": "
            << MetricsJson(config.trace ? result.per_layer : result.end_to_end)
            << "}" << std::endl;
  return 0;
}
