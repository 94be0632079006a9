#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

#include "bench.h"

#include "common/json_writer.h"
#include "graph/datasets.h"
#include "pregel/loader.h"

namespace perfbench {

namespace {

/// The calling thread's innermost open span and operation.
thread_local uint64_t tls_span = 0;
thread_local uint64_t tls_op = 0;

std::string LayerOf(std::string_view name) {
  return std::string(name.substr(0, name.find('.')));
}

}  // namespace

void WorkloadResult::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

void WorkloadResult::Broken(const std::string& what) {
  correct = false;
  if (errors.size() < 8) errors.push_back(what);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// -- Recorder ---------------------------------------------------------------

int64_t Recorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

uint64_t Recorder::Begin(std::string_view name) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = std::string(name);
  span.start_ns = now;
  span.id = next_id_++;
  span.parent = tls_span;
  span.op = tls_op;
  spans_.push_back(std::move(span));
  tls_span = spans_.back().id;
  return spans_.back().id;
}

void Recorder::End(uint64_t id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  // Span ids are dense and 1-based, so the id is the vector index + 1.
  Span& span = spans_[id - 1];
  span.end_ns = now;
  tls_span = span.parent;
}

uint64_t Recorder::AddDerived(std::string_view name, double seconds,
                              uint64_t parent) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = std::string(name);
  span.end_ns = now;
  span.start_ns = now - static_cast<int64_t>(std::max(0.0, seconds) * 1e9);
  span.id = next_id_++;
  span.parent = parent != 0 ? parent : tls_span;
  span.op = tls_op;
  span.derived = true;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

uint64_t Recorder::BeginOp(std::string_view name) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++ops_;
  }
  const uint64_t id = Begin(name);
  tls_op = id;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].op = id;
  return id;
}

void Recorder::EndOp(uint64_t id) {
  End(id);
  tls_op = 0;
}

uint64_t Recorder::ops() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ops_;
}

std::map<std::string, double> Recorder::SelfMsPerOp() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> covered(spans_.size() + 1, 0.0);
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      covered[span.parent] += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, double> self;
  for (const Span& span : spans_) {
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    self[LayerOf(span.name)] += std::max(0.0, duration - covered[span.id]);
  }
  const double ops = std::max<double>(1.0, static_cast<double>(ops_));
  for (auto& [layer, ns] : self) ns = ns / 1e6 / ops;
  return self;
}

double Recorder::MsPerOp(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double ns = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) ns += static_cast<double>(span.end_ns - span.start_ns);
  }
  return ns / 1e6 / std::max<double>(1.0, static_cast<double>(ops_));
}

uint64_t Recorder::Count(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t count = 0;
  for (const Span& span : spans_) count += span.name == name ? 1 : 0;
  return count;
}

bool Recorder::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  for (const Span& span : spans_) {
    graft::JsonWriter w;
    w.BeginObject();
    w.KV("name", span.name);
    w.KV("start_ns", span.start_ns);
    w.KV("end_ns", span.end_ns);
    w.KV("id", span.id);
    w.KV("parent", span.parent);
    w.KV("op", span.op);
    w.KV("derived", span.derived);
    w.EndObject();
    out << w.TakeString() << '\n';
  }
  return static_cast<bool>(out);
}

// -- shared job pieces --------------------------------------------------------

graft::graph::SimpleGraph MakeEpinions(uint64_t seed, double* seconds) {
  const Clock::time_point start = Clock::now();
  graft::graph::DatasetOptions options;
  options.scale_denominator = kScaleDenominator;
  options.seed = seed;
  auto graph = graft::graph::MakeDataset("soc-Epinions", options);
  GRAFT_CHECK(graph.ok()) << graph.status();
  *seconds = SecondsSince(start);
  return std::move(graph).value();
}

bool SameBits(const Values& a, const Values& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first ||
        std::memcmp(&a[i].second, &b[i].second, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

graft::pregel::JobSpec<PR> MakePageRankSpec(
    const graft::graph::SimpleGraph& graph, const std::string& job_id,
    Values* values, Recorder* recorder) {
  using graft::pregel::DoubleValue;
  graft::pregel::JobSpec<PR> spec;
  spec.options.num_workers = kWorkers;
  spec.options.job_id = job_id;
  spec.options.combiner = [](const DoubleValue& a, const DoubleValue& b) {
    return DoubleValue{a.value + b.value};
  };
  spec.computation = [] {
    return std::make_unique<graft::algos::PageRankComputation>(kIterations);
  };
  spec.master = []() -> std::unique_ptr<graft::pregel::MasterCompute> {
    return std::make_unique<graft::algos::PageRankMaster>(kIterations);
  };
  if (values != nullptr) {
    spec.post_run = [values, recorder](graft::pregel::Engine<PR>& engine) {
      ScopedSpan span(recorder, "pregel.extract");
      values->clear();
      values->reserve(engine.NumAliveVertices());
      engine.ForEachVertex([values](const graft::pregel::Vertex<PR>& v) {
        values->emplace_back(v.id(), v.value().value);
      });
      std::sort(values->begin(), values->end());
    };
  }
  ScopedSpan span(recorder, "pregel.load");
  spec.vertices = graft::pregel::LoadUnweighted<PR>(
      graph, [](graft::VertexId) { return DoubleValue{0.0}; });
  return spec;
}

namespace {

graft::TraceStore::IoStats IoDelta(const graft::TraceStore::IoStats& before,
                                   const graft::TraceStore::IoStats& after) {
  graft::TraceStore::IoStats d;
  d.appends = after.appends - before.appends;
  d.bytes_written = after.bytes_written - before.bytes_written;
  d.flushes = after.flushes - before.flushes;
  d.append_seconds = after.append_seconds - before.append_seconds;
  d.flush_seconds = after.flush_seconds - before.flush_seconds;
  return d;
}

}  // namespace

graft::Result<graft::pregel::JobRunSummary> RunTracedJob(
    graft::pregel::JobSpec<PR> spec, const graft::TraceStore* store,
    Recorder* recorder, graft::TraceStore::IoStats* io_delta) {
  ScopedSpan span(recorder, "pregel.run");
  const graft::TraceStore::IoStats before =
      store != nullptr ? store->io_stats() : graft::TraceStore::IoStats{};
  auto summary = graft::pregel::RunJob(std::move(spec));
  const graft::TraceStore::IoStats io =
      store != nullptr ? IoDelta(before, store->io_stats())
                       : graft::TraceStore::IoStats{};
  if (io_delta != nullptr) *io_delta = io;
  if (recorder == nullptr || !summary.ok()) return summary;
  const graft::obs::RunReport& report = summary->stats.report;
  // pregel.run's self time is RunJob around the engine: spec checks, store
  // wiring, manifest writes. The engine's self time is what its counters
  // leave unexplained once capture, store writes, probes and checkpoints
  // are taken out.
  const uint64_t engine =
      recorder->AddDerived("pregel.engine", report.total_seconds);
  const double io_seconds = io.append_seconds + io.flush_seconds;
  if (report.capture.enabled) {
    recorder->AddDerived("capture.overhead", report.capture.OverheadSeconds(),
                         engine);
  }
  if (io.appends + io.flushes > 0) {
    recorder->AddDerived("io.write", io_seconds, engine);
  }
  if (report.analysis.enabled) {
    recorder->AddDerived("analysis.probe", report.analysis.probe_seconds,
                         engine);
  }
  if (report.recovery.checkpoints_enabled) {
    // Checkpoint and restore time beyond the store writes counted above.
    const graft::obs::RecoveryProfile& rec = report.recovery;
    recorder->AddDerived(
        "checkpoint.beyond_io",
        std::max(0.0, rec.checkpoint_seconds + rec.restore_seconds -
                          io_seconds),
        engine);
  }
  return summary;
}

void JobCounters::Add(const graft::pregel::JobRunSummary& summary,
                      const graft::TraceStore::IoStats& io) {
  const graft::obs::RunReport& report = summary.stats.report;
  jobs += 1;
  engine_ms += report.total_seconds * 1e3;
  compute_ms += report.TotalComputeWallSeconds() * 1e3;
  delivery_ms += report.TotalDeliveryWallSeconds() * 1e3;
  barrier_ms += report.TotalBarrierWaitSeconds() * 1e3;
  master_ms += report.TotalMasterSeconds() * 1e3;
  messages += static_cast<double>(summary.stats.total_messages);
  supersteps += static_cast<double>(summary.stats.supersteps);
  const graft::obs::RecoveryProfile& rec = report.recovery;
  checkpoint_ms += rec.checkpoint_seconds * 1e3;
  checkpoints += static_cast<double>(rec.checkpoints_written);
  restore_ms += rec.restore_seconds * 1e3;
  recoveries += static_cast<double>(rec.recoveries);
  confined += static_cast<double>(rec.confined_recoveries);
  attempts += summary.attempts;
  ckpt_bytes += static_cast<double>(rec.checkpoint_bytes + rec.topology_bytes +
                                    rec.log_bytes);
  const graft::obs::CaptureProfile& cap = report.capture;
  captures += static_cast<double>(summary.captures);
  violations += static_cast<double>(summary.violations);
  serialize_ms += cap.serialize_seconds * 1e3;
  trace_bytes += static_cast<double>(summary.trace_bytes);
  sink_append_ms += cap.append_seconds * 1e3;
  sink_batches += static_cast<double>(cap.spool_batches);
  sink_backpressure += static_cast<double>(cap.spool_backpressure_waits);
  sink_flush_ms += cap.flush_seconds * 1e3;
  probe_ms += report.analysis.probe_seconds * 1e3;
  probes += static_cast<double>(report.analysis.determinism_probes);
  findings += static_cast<double>(summary.analysis_findings);
  io_appends += static_cast<double>(io.appends);
  io_bytes += static_cast<double>(io.bytes_written);
  io_append_ms += io.append_seconds * 1e3;
  io_flushes += static_cast<double>(io.flushes);
  io_flush_ms += io.flush_seconds * 1e3;
}

void JobCounters::Report(WorkloadResult* r) const {
  const double n = std::max(1.0, jobs);
  r->Layer("pregel.engine_ms", engine_ms / n, "ms");
  r->Layer("pregel.compute_ms", compute_ms / n, "ms");
  r->Layer("pregel.delivery_ms", delivery_ms / n, "ms");
  r->Layer("pregel.barrier_wait_ms", barrier_ms / n, "ms");
  r->Layer("pregel.master_ms", master_ms / n, "ms");
  r->Layer("pregel.messages", messages / n, "count");
  r->Layer("pregel.supersteps", supersteps / n, "count");
  r->Layer("pregel.ns_per_msg", messages > 0 ? engine_ms * 1e6 / messages : 0,
           "ns");
  r->Layer("pregel.checkpoint_ms", checkpoint_ms / n, "ms");
  r->Layer("pregel.checkpoints", checkpoints / n, "count");
  r->Layer("pregel.restore_ms", restore_ms / n, "ms");
  r->Layer("pregel.recoveries", recoveries / n, "count");
  r->Layer("pregel.confined_recoveries", confined / n, "count");
  r->Layer("pregel.attempts", attempts / n, "count");
  r->Layer("pregel.ckpt_mb", ckpt_bytes / n / 1e6, "MB");
  r->Layer("debug.captures", captures / n, "count");
  r->Layer("debug.violations", violations / n, "count");
  r->Layer("debug.serialize_ms", serialize_ms / n, "ms");
  r->Layer("debug.trace_mb", trace_bytes / n / 1e6, "MB");
  r->Layer("io.sink_append_ms", sink_append_ms / n, "ms");
  r->Layer("io.sink_batches", sink_batches / n, "count");
  r->Layer("io.sink_backpressure_waits", sink_backpressure / n, "count");
  r->Layer("io.sink_flush_ms", sink_flush_ms / n, "ms");
  r->Layer("analysis.probe_ms", probe_ms / n, "ms");
  r->Layer("analysis.probes", probes / n, "count");
  r->Layer("analysis.findings", findings / n, "count");
  r->Layer("io.appends", io_appends / n, "count");
  r->Layer("io.bytes_written", io_bytes / n, "bytes");
  r->Layer("io.append_ms", io_append_ms / n, "ms");
  r->Layer("io.flushes", io_flushes / n, "count");
  r->Layer("io.flush_ms", io_flush_ms / n, "ms");
}

void RunClosedLoop(const RunConfig& config, WorkloadResult* result,
                   const std::function<OpSample(Recorder*)>& op,
                   const std::function<void()>& cleanup) {
  std::vector<double> op_ms, job_ms, cpu_ms, traced_job_ms;
  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  for (uint64_t i = 0; Clock::now() < deadline; ++i) {
    const bool traced = config.recorder != nullptr && i % 2 == 1;
    ++result->attempted;
    const double cpu_start = ProcessCpuSeconds();
    const OpSample sample = op(traced ? config.recorder : nullptr);
    if (traced) {
      traced_job_ms.push_back(sample.job_ms);
    } else {
      cpu_ms.push_back((ProcessCpuSeconds() - cpu_start) * 1e3);
      job_ms.push_back(sample.job_ms);
      op_ms.push_back(sample.op_ms);
    }
    if (cleanup) cleanup();
  }
  // The loop ends when the last operation completes, so the rate is not
  // quantized by the window. It includes the cleanups between operations.
  const double elapsed = SecondsSince(start);
  result->E2E("cpu_per_op_ms", Median(cpu_ms), "ms");
  result->E2E("peak_rss_mb", PeakRssMb(), "MB");
  result->Layer("wall.job_p50_ms", Median(job_ms), "ms");
  result->Layer("wall.op_p50_ms", Median(op_ms), "ms");
  result->Layer("wall.ops_per_s",
                static_cast<double>(result->attempted) / elapsed, "1/s");
  result->Layer("bench.samples", static_cast<double>(job_ms.size()), "count");
  if (!traced_job_ms.empty()) {
    result->Layer("bench.trace_overhead_pct",
                  100.0 * (Median(traced_job_ms) / Median(job_ms) - 1.0), "%");
  }
}

void ReportSpanMetrics(const Recorder& recorder, WorkloadResult* r) {
  std::map<std::string, double> self = recorder.SelfMsPerOp();
  for (const auto& [layer, ms] : self) r->Layer("self_ms." + layer, ms, "ms");
  // The operation span's own self time is the time no child span explains.
  r->Layer("bench.unattributed_ms", self["bench"], "ms");
  r->Layer("bench.traced_ops", static_cast<double>(recorder.ops()), "count");
  for (const char* name :
       {"pregel.load", "pregel.run", "pregel.extract",
        "debug.open", "debug.vertex_traces", "debug.find", "debug.history",
        "debug.select", "debug.replay", "debug.codegen", "analysis.compile",
        "io.read"}) {
    std::string metric(name);
    metric += "_ms";
    r->Layer(metric, recorder.MsPerOp(name), "ms");
  }
  r->Layer("io.reads", static_cast<double>(recorder.Count("io.read")) /
                           std::max<double>(1.0, recorder.ops()),
           "count");
  // ROADMAP 1(b)'s gap: RunJob time the engine's own report does not cover.
  auto engine = r->per_layer.find("pregel.engine_ms");
  if (engine != r->per_layer.end() && engine->second.value > 0) {
    r->Layer("pregel.runjob_other_ms",
             recorder.MsPerOp("pregel.run") - engine->second.value, "ms");
  }
}

}  // namespace perfbench
