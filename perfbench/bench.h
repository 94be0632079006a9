// Shared pieces of the benchmark program: run configuration, metric output,
// the span recorder used by traced runs, and the PageRank job every engine
// workload runs. See README.md for the workloads and the metric map.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algos/pagerank.h"
#include "graph/simple_graph.h"
#include "io/trace_store.h"
#include "pregel/job.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using PR = graft::algos::PageRankTraits;

/// Engine jobs run at one worker per visible core of the reference host.
inline constexpr int kWorkers = 4;
/// PageRank iterations of every engine job (supersteps 0..10).
inline constexpr int kIterations = 10;
/// soc-Epinions at 1/8 scale: 9.5K vertices, 66K edges.
inline constexpr uint64_t kScaleDenominator = 8;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class Recorder;

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Working directory for stores and run records, inside the checkout.
  std::string work_dir;
  /// Set-ups per run: at least this many, and more until one second of wall
  /// time has gone into them. setup_s is their median.
  int setups = 5;
  /// Traced runs only: records the spans of every other operation (the
  /// others stay untraced, for bench.trace_overhead_pct).
  Recorder* recorder = nullptr;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): the operation accounting, the
/// end-to-end metrics of an untraced run and the per-layer metrics of a
/// traced one.
struct WorkloadResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;

  /// Counts one failed operation and keeps the first few reasons.
  void Fail(const std::string& what);
  /// A set-up or self-test failure: the whole run is wrong.
  void Broken(const std::string& what);
  void E2E(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = Metric{value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = Metric{value, unit};
  }
};

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q);
/// True when `n` samples hold at least ten beyond percentile `q`.
inline bool TailResolved(size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0;
}
double PeakRssMb();
/// CPU time the whole process (every thread) has used so far.
double ProcessCpuSeconds();

/// In-memory span recorder for traced runs (README.md, "Tracing"). A span
/// is (name, start, end, parent, op); the layer is the name's prefix before
/// the first '.'. Derived spans carry a duration taken from a counter a
/// module already exposes (RunReport, CaptureProfile, TraceStore::io_stats)
/// and count as children of the span open when they are added. Untraced
/// runs construct no Recorder; every hook below is a null-pointer test.
class Recorder {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t op = 0;
    bool derived = false;
  };

  uint64_t Begin(std::string_view name);
  void End(uint64_t id);
  /// Adds a counter-derived span of `seconds` as a child of `parent` (0:
  /// the calling thread's open span) and returns its id.
  uint64_t AddDerived(std::string_view name, double seconds,
                      uint64_t parent = 0);
  /// Starts a new operation on the calling thread; spans opened on this
  /// thread until EndOp belong to it.
  uint64_t BeginOp(std::string_view name);
  void EndOp(uint64_t id);
  uint64_t ops() const;

  /// Self time (span minus the time its children cover) summed per layer,
  /// in ms per operation.
  std::map<std::string, double> SelfMsPerOp() const;
  /// Total duration of spans named `name`, in ms per operation.
  double MsPerOp(std::string_view name) const;
  /// Count of spans named `name`.
  uint64_t Count(std::string_view name) const;
  /// Writes every span as JSON lines.
  bool WriteJsonLines(const std::string& path) const;

 private:
  int64_t NowNs() const;

  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
  uint64_t ops_ = 0;
};

/// RAII span; a no-op without a recorder.
class ScopedSpan {
 public:
  ScopedSpan(Recorder* recorder, std::string_view name)
      : recorder_(recorder), id_(recorder ? recorder->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Recorder* recorder_;
  uint64_t id_;
};

/// RAII operation scope; a no-op without a recorder.
class ScopedOp {
 public:
  ScopedOp(Recorder* recorder, std::string_view name)
      : recorder_(recorder), id_(recorder ? recorder->BeginOp(name) : 0) {}
  ~ScopedOp() {
    if (recorder_ != nullptr) recorder_->EndOp(id_);
  }
  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;

 private:
  Recorder* recorder_;
  uint64_t id_;
};

/// A TraceStore that forwards every call to `inner` and records an
/// `io.read` span around ReadAll / ReadRecord / ListFiles. Installed only in
/// traced runs, so untraced runs read the store directly.
class TimedReadStore : public graft::TraceStore {
 public:
  explicit TimedReadStore(graft::TraceStore* inner) : inner_(inner) {}

  /// Spans are recorded only while a recorder is set (the timed phase).
  void set_recorder(Recorder* recorder) { recorder_.store(recorder); }

  graft::Status Append(const std::string& file,
                       std::string_view record) override {
    return inner_->Append(file, record);
  }
  graft::Result<std::vector<std::string>> ReadAll(
      const std::string& file) const override {
    ScopedSpan span(recorder_.load(), "io.read");
    return inner_->ReadAll(file);
  }
  graft::Result<std::string> ReadRecord(const std::string& file,
                                        uint64_t index) const override {
    ScopedSpan span(recorder_.load(), "io.read");
    return inner_->ReadRecord(file, index);
  }
  bool Exists(const std::string& file) const override {
    return inner_->Exists(file);
  }
  std::vector<std::string> ListFiles(
      const std::string& prefix) const override {
    ScopedSpan span(recorder_.load(), "io.read");
    return inner_->ListFiles(prefix);
  }
  uint64_t TotalBytes(const std::string& prefix) const override {
    return inner_->TotalBytes(prefix);
  }
  uint64_t RecordCount(const std::string& file) const override {
    return inner_->RecordCount(file);
  }
  graft::Status DeletePrefix(const std::string& prefix) override {
    return inner_->DeletePrefix(prefix);
  }
  graft::Status Flush() override { return inner_->Flush(); }

 private:
  graft::TraceStore* inner_;
  std::atomic<Recorder*> recorder_{nullptr};
};

/// Final PageRank values, sorted by vertex id.
using Values = std::vector<std::pair<graft::VertexId, double>>;

/// The engine workloads' oracle: same ids, bit-identical values.
bool SameBits(const Values& a, const Values& b);

/// soc-Epinions/8 generated from the workload seed; `seconds` receives the
/// generation time (graph.generate_ms).
graft::graph::SimpleGraph MakeEpinions(uint64_t seed, double* seconds);

/// The engine job every engine workload runs: 10-iteration PageRank with the
/// sum combiner at kWorkers workers. Loads `graph` under a pregel.load span
/// and, when `values` is non-null, reads the final values (sorted by id) in
/// post_run under a pregel.extract span.
graft::pregel::JobSpec<PR> MakePageRankSpec(
    const graft::graph::SimpleGraph& graph, const std::string& job_id,
    Values* values, Recorder* recorder);

/// Runs RunJob in a pregel.run span. Traced runs add derived spans from the
/// run's counters: pregel.engine (the engine's own wall time) holding
/// capture.overhead, io.write, analysis.probe and checkpoint.beyond_io.
/// `store` is the store whose io_stats() delta is the run's io.write time
/// (may be null); the delta is also returned through `io_delta` when
/// non-null.
graft::Result<graft::pregel::JobRunSummary> RunTracedJob(
    graft::pregel::JobSpec<PR> spec, const graft::TraceStore* store,
    Recorder* recorder, graft::TraceStore::IoStats* io_delta);

/// Per-job layer counters accumulated over traced jobs, then reported as
/// per-job means.
struct JobCounters {
  double jobs = 0;
  double engine_ms = 0, compute_ms = 0, delivery_ms = 0, barrier_ms = 0,
         master_ms = 0, messages = 0, supersteps = 0;
  double checkpoint_ms = 0, checkpoints = 0, restore_ms = 0, recoveries = 0,
         confined = 0, attempts = 0, ckpt_bytes = 0;
  double captures = 0, violations = 0, serialize_ms = 0, trace_bytes = 0;
  double sink_append_ms = 0, sink_batches = 0, sink_backpressure = 0,
         sink_flush_ms = 0;
  double probe_ms = 0, probes = 0, findings = 0;
  double io_appends = 0, io_bytes = 0, io_append_ms = 0, io_flushes = 0,
         io_flush_ms = 0;

  void Add(const graft::pregel::JobRunSummary& summary,
           const graft::TraceStore::IoStats& io_delta);
  /// Reports every per-job counter metric (zeros when no job ran).
  void Report(WorkloadResult* result) const;
};

/// Reports the span-derived metrics every workload shares: per-layer self
/// time, bench.unattributed_ms and the named span means.
void ReportSpanMetrics(const Recorder& recorder, WorkloadResult* result);

/// Timings of one closed-loop operation, in ms. `job_ms` is the part from
/// the call that starts the job until its output is final.
struct OpSample {
  double op_ms = 0.0;
  double job_ms = 0.0;
};

/// Runs `op` back to back until `config.seconds` have passed (one client, a
/// closed loop). Reports cpu_per_op_ms (the median CPU time of the whole
/// process over one operation) and peak_rss_mb, and the wall-clock
/// wall.job_p50_ms, wall.op_p50_ms and wall.ops_per_s. `op` checks its own
/// output and calls result->Fail on a wrong one. In traced runs every other
/// operation receives the recorder; the untraced ones give the wall-clock
/// metrics and the baseline for bench.trace_overhead_pct.
/// `cleanup`, when set, runs after each operation outside every measurement
/// (the benchmark's own store hygiene, not part of the user path).
void RunClosedLoop(const RunConfig& config, WorkloadResult* result,
                   const std::function<OpSample(Recorder*)>& op,
                   const std::function<void()>& cleanup = nullptr);

/// Builds the workload's set-up repeatedly, one after the other (see
/// RunConfig::setups), and returns the last one. setup_s is the median CPU
/// time of the whole process over one set-up, wall.setup_s the median wall
/// time. Cheap set-ups repeat more often, which steadies their median.
template <typename Setup>
std::unique_ptr<Setup> RepeatSetup(
    const RunConfig& config, WorkloadResult* result,
    const std::function<std::unique_ptr<Setup>()>& make) {
  constexpr double kMinTotalSeconds = 1.0;
  constexpr size_t kMaxSetups = 50;
  std::unique_ptr<Setup> setup;
  std::vector<double> wall, cpu;
  double total = 0.0;
  while (wall.size() < static_cast<size_t>(config.setups) ||
         (total < kMinTotalSeconds && wall.size() < kMaxSetups)) {
    setup.reset();
    const double cpu_start = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    setup = make();
    wall.push_back(SecondsSince(start));
    cpu.push_back(ProcessCpuSeconds() - cpu_start);
    total += wall.back();
  }
  result->E2E("setup_s", Median(cpu), "s");
  result->Layer("wall.setup_s", Median(wall), "s");
  result->Layer("bench.setups", static_cast<double>(wall.size()), "count");
  return setup;
}

/// Workload entry points. Each runs `config.setups` set-ups, a closed loop
/// for `config.seconds`, checks every operation, and fills `result`.
void RunPlain(const RunConfig& config, WorkloadResult* result);
void RunDebug(const RunConfig& config, WorkloadResult* result);
void RunRecovery(const RunConfig& config, WorkloadResult* result);
void RunService(const RunConfig& config, WorkloadResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
