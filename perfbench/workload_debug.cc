// debug: one Graft session per operation, the paper's capture -> visualize
// -> reproduce loop. The job runs with capture-all-active (the paper's §4.3
// method), a vertex-value constraint and the BSP sanitizer, writing through
// the async sink to a LocalDirTraceStore. A fixed script then reads the
// traces cold through a fresh, uncached DebugSession and reproduces one
// captured context.

#include <algorithm>
#include <unordered_map>

#include "analysis/predicate.h"
#include "bench.h"
#include "common/string_util.h"
#include "debug/codegen.h"
#include "debug/debug_config.h"
#include "debug/debug_session.h"
#include "debug/reproducer.h"

namespace perfbench {

namespace {

constexpr char kJobId[] = "perfbench-debug";
constexpr int kTopVertices = 10;
/// Hubs holding more than ten uniform shares violate the constraint.
constexpr double kMaxShares = 10.0;
/// The Select of the script: vertices whose rank rose, with many out-edges.
constexpr char kPredicate[] = "value > value_before && out_degree > 10";

/// Everything a session's output is checked against.
struct SessionRef {
  uint64_t captures = 0;
  uint64_t trace_bytes = 0;
  uint64_t violations = 0;
  uint64_t findings = 0;
  uint64_t step_traces = 0;
  uint64_t history_traces = 0;
  uint64_t selected = 0;

  bool operator==(const SessionRef&) const = default;
};

struct DebugSetup {
  graft::graph::SimpleGraph graph;
  std::vector<graft::VertexId> top;
  graft::debug::ConfigurableDebugConfig<PR> capture;
  std::unique_ptr<graft::LocalDirTraceStore> store;
  /// Traced runs only: the store traced sessions read through.
  std::unique_ptr<TimedReadStore> timed;
  SessionRef reference;
  double generate_s = 0.0;
};

/// The kTopVertices vertices of highest in+out degree, ties by id.
std::vector<graft::VertexId> TopDegree(const graft::graph::SimpleGraph& g) {
  std::unordered_map<graft::VertexId, uint64_t> degree;
  for (size_t i = 0; i < g.NumVertices(); ++i) {
    degree[g.IdAt(i)] += g.OutEdges(i).size();
    for (const auto& e : g.OutEdges(i)) ++degree[e.target];
  }
  std::vector<std::pair<uint64_t, graft::VertexId>> order;
  for (const auto& [id, d] : degree) order.emplace_back(d, id);
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<graft::VertexId> top;
  for (size_t i = 0; i < order.size() && top.size() < kTopVertices; ++i) {
    top.push_back(order[i].second);
  }
  return top;
}

/// One whole session on `store`. Fills `got` and returns the timings; a
/// step that errors or a replay that is not faithful is reported through
/// `error`. Traced sessions add the job's counters to `counters` and read
/// through setup.timed, which wraps `store`.
OpSample Session(DebugSetup& setup, graft::TraceStore* store,
                 Recorder* recorder, SessionRef* got, std::string* error,
                 JobCounters* counters) {
  ScopedOp op(recorder, "bench.op");
  const Clock::time_point start = Clock::now();
  auto spec = MakePageRankSpec(setup.graph, kJobId, nullptr, recorder);
  spec.debug_config = &setup.capture;
  spec.trace_store = store;
  spec.capture_io.async = true;
  spec.sanitizer.enabled = true;
  spec.sanitizer.determinism_sample_rate = 64;
  const Clock::time_point job_start = Clock::now();
  graft::TraceStore::IoStats io;
  auto summary = RunTracedJob(std::move(spec), store, recorder, &io);
  OpSample sample;
  sample.job_ms = SecondsSince(job_start) * 1e3;
  auto fail = [&](const std::string& what) {
    if (error->empty()) *error = what;
    sample.op_ms = SecondsSince(start) * 1e3;
    return sample;
  };
  if (!summary.ok() || !summary->job_status.ok()) {
    return fail("captured job failed");
  }
  if (recorder != nullptr) counters->Add(*summary, io);
  got->captures = summary->captures;
  got->trace_bytes = summary->trace_bytes;
  got->violations = summary->violations;
  got->findings = summary->analysis_findings;

  // Cold reads: a fresh session without the block cache. Traced operations
  // read through the timing store.
  const graft::TraceStore* reads = store;
  if (recorder != nullptr) {
    setup.timed->set_recorder(recorder);
    reads = setup.timed.get();
  }
  std::optional<graft::debug::DebugSession<PR>> session;
  int64_t step = 0;
  {
    ScopedSpan span(recorder, "debug.open");
    auto opened = graft::debug::DebugSession<PR>::Open(reads, kJobId);
    if (!opened.ok() || opened->supersteps().empty()) {
      return fail("DebugSession::Open failed");
    }
    session.emplace(std::move(opened).value());
    step = session->supersteps()[session->supersteps().size() / 2];
  }
  {
    ScopedSpan span(recorder, "debug.vertex_traces");
    auto traces = session->VertexTraces(step);
    if (!traces.ok()) return fail("VertexTraces failed");
    got->step_traces = traces->size();
  }
  std::optional<graft::debug::VertexTrace<PR>> context;
  {
    ScopedSpan span(recorder, "debug.find");
    for (graft::VertexId id : setup.top) {
      auto trace = session->FindVertexTrace(step, id);
      if (!trace.ok()) return fail("FindVertexTrace failed");
      if (!context.has_value()) context = std::move(trace).value();
    }
  }
  {
    ScopedSpan span(recorder, "debug.history");
    got->history_traces = 0;
    for (graft::VertexId id : setup.top) {
      auto history = session->VertexHistory(id);
      if (!history.ok()) return fail("VertexHistory failed");
      got->history_traces += history->size();
    }
  }
  graft::debug::TraceQuery query;
  {
    ScopedSpan span(recorder, "analysis.compile");
    auto predicate = graft::analysis::Predicate::Compile(kPredicate);
    if (!predicate.ok()) return fail("predicate did not compile");
    query.predicate = std::make_shared<const graft::analysis::Predicate>(
        std::move(predicate).value());
  }
  {
    ScopedSpan span(recorder, "debug.select");
    auto selected = session->Select(query);
    if (!selected.ok()) return fail("Select failed");
    got->selected = selected->size();
  }
  {
    ScopedSpan span(recorder, "debug.replay");
    graft::algos::PageRankComputation computation(kIterations);
    const graft::debug::ReplayFidelity fidelity =
        graft::debug::CheckReplayFidelity(*context, computation);
    if (!fidelity.Faithful()) {
      return fail("replay not faithful: " + fidelity.mismatch_detail);
    }
  }
  {
    ScopedSpan span(recorder, "debug.codegen");
    const graft::debug::CodegenBinding binding{
        "graft::algos::PageRankTraits",
        {"algos/pagerank.h"},
        graft::StrFormat("graft::algos::PageRankComputation computation(%d);",
                         kIterations),
        "PageRankGraftTest"};
    auto code = graft::debug::GenerateVertexTestCodeAt(*session, step,
                                                       setup.top.front(),
                                                       binding);
    if (!code.ok() || code->empty()) return fail("generated test is empty");
  }
  sample.op_ms = SecondsSince(start) * 1e3;
  return sample;
}

}  // namespace

void RunDebug(const RunConfig& config, WorkloadResult* result) {
  int setups = 0;
  auto setup = RepeatSetup<DebugSetup>(config, result, [&] {
    auto s = std::make_unique<DebugSetup>();
    s->graph = MakeEpinions(config.seed, &s->generate_s);
    s->top = TopDegree(s->graph);
    const double limit =
        kMaxShares / static_cast<double>(s->graph.NumVertices());
    s->capture.set_capture_all_active(true).set_vertex_value_constraint(
        [limit](const graft::pregel::DoubleValue& v, graft::VertexId,
                int64_t) { return v.value <= limit; });
    auto store = graft::LocalDirTraceStore::Open(
        config.work_dir + "/stores/debug-" + std::to_string(setups++));
    GRAFT_CHECK(store.ok()) << store.status();
    s->store = std::move(store).value();
    GRAFT_CHECK_OK(s->store->DeletePrefix(""));
    if (config.recorder != nullptr) {
      s->timed = std::make_unique<TimedReadStore>(s->store.get());
    }
    // The reference does not depend on where traces go; an in-memory store
    // keeps disk latency out of setup_s.
    graft::InMemoryTraceStore reference_store;
    std::string error;
    Session(*s, &reference_store, nullptr, &s->reference, &error, nullptr);
    if (!error.empty()) result->Broken("debug reference session: " + error);
    return s;
  });
  result->Layer("graph.generate_ms", setup->generate_s * 1e3, "ms");

  // Oracle self-test: a reference off by one capture must be rejected.
  SessionRef corrupted = setup->reference;
  ++corrupted.captures;
  if (corrupted == setup->reference) {
    result->Broken("debug oracle accepted a corrupted reference");
  }

  JobCounters counters;
  double selected = 0.0, scanned = 0.0;
  RunClosedLoop(
      config, result,
      [&](Recorder* recorder) {
        SessionRef got;
        std::string error;
        OpSample sample = Session(*setup, setup->store.get(), recorder, &got,
                                  &error, &counters);
        if (!error.empty()) {
          result->Fail(error);
        } else if (!(got == setup->reference)) {
          result->Fail(graft::StrFormat(
              "session differs from the reference: captures %llu/%llu, "
              "bytes %llu/%llu, selected %llu/%llu",
              static_cast<unsigned long long>(got.captures),
              static_cast<unsigned long long>(setup->reference.captures),
              static_cast<unsigned long long>(got.trace_bytes),
              static_cast<unsigned long long>(setup->reference.trace_bytes),
              static_cast<unsigned long long>(got.selected),
              static_cast<unsigned long long>(setup->reference.selected)));
        }
        if (recorder != nullptr) {
          selected += static_cast<double>(got.selected);
          scanned += static_cast<double>(got.captures);
        }
        return sample;
      },
      // The session's traces are not needed again; the next job starts
      // from an empty store.
      [&] { GRAFT_CHECK_OK(setup->store->DeletePrefix("")); });
  counters.Report(result);
  result->Layer("analysis.select_match_ratio",
                scanned > 0 ? selected / scanned : 0.0, "1");
}

}  // namespace perfbench
