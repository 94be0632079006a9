// plain: load soc-Epinions/8 into a JobSpec, RunJob 10-iteration PageRank
// with the sum combiner, read the final values in post_run. Only the engine
// layers work here, so a change to the Graft, checkpoint or service layers
// must predict "no change" on this workload.

#include <cmath>
#include <cstring>
#include <unordered_map>

#include "bench.h"
#include "common/string_util.h"

namespace perfbench {

namespace {

constexpr char kJobId[] = "perfbench-plain";

/// Sequential PageRank written independently of the engine, with the
/// engine's update rule: r0 = 1/n, then r(v) = (1-d)/n + d * sum over
/// in-edges (u,v) of r(u)/outdeg(u); vertices without out-edges send
/// nothing.
std::unordered_map<graft::VertexId, double> SequentialPageRank(
    const graft::graph::SimpleGraph& g) {
  constexpr double kDamping = 0.85;
  const size_t n = g.NumVertices();
  std::unordered_map<graft::VertexId, size_t> index;
  for (size_t i = 0; i < n; ++i) index[g.IdAt(i)] = i;
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  for (int step = 1; step <= kIterations; ++step) {
    std::vector<double> incoming(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const auto& edges = g.OutEdges(i);
      if (edges.empty()) continue;
      const double share = rank[i] / static_cast<double>(edges.size());
      for (const auto& e : edges) incoming[index.at(e.target)] += share;
    }
    for (size_t i = 0; i < n; ++i) {
      rank[i] = (1.0 - kDamping) / static_cast<double>(n) +
                kDamping * incoming[i];
    }
  }
  std::unordered_map<graft::VertexId, double> out;
  for (size_t i = 0; i < n; ++i) out[g.IdAt(i)] = rank[i];
  return out;
}

struct PlainSetup {
  graft::graph::SimpleGraph graph;
  Values reference;
  double generate_s = 0.0;
};

}  // namespace

void RunPlain(const RunConfig& config, WorkloadResult* result) {
  auto setup = RepeatSetup<PlainSetup>(config, result, [&] {
    auto s = std::make_unique<PlainSetup>();
    s->graph = MakeEpinions(config.seed, &s->generate_s);
    auto summary = graft::pregel::RunJob(
        MakePageRankSpec(s->graph, kJobId, &s->reference, nullptr));
    if (!summary.ok() || !summary->job_status.ok()) {
      result->Broken("plain reference run failed");
    }
    return s;
  });
  result->Layer("graph.generate_ms", setup->generate_s * 1e3, "ms");

  // The reference is checked once against the independent sequential
  // PageRank. The two sum in different orders, so the tolerance is relative.
  constexpr double kTolerance = 1e-9;
  const auto expected = SequentialPageRank(setup->graph);
  double worst = 0.0;
  if (setup->reference.size() != expected.size()) {
    result->Broken("reference has the wrong vertex count");
  }
  for (const auto& [id, value] : setup->reference) {
    auto it = expected.find(id);
    if (it == expected.end()) {
      result->Broken("reference has an unknown vertex");
      break;
    }
    worst = std::max(worst, std::fabs(value - it->second) /
                                std::max(std::fabs(it->second), 1e-300));
  }
  if (worst > kTolerance) {
    result->Broken(graft::StrFormat(
        "reference differs from sequential PageRank by %.3g (relative)",
        worst));
  }

  // Oracle self-test: a reference with one value off by one ulp must be
  // rejected.
  {
    Values corrupted = setup->reference;
    if (!corrupted.empty()) {
      corrupted[corrupted.size() / 2].second = std::nextafter(
          corrupted[corrupted.size() / 2].second, 1.0);
    }
    if (SameBits(setup->reference, corrupted)) {
      result->Broken("plain oracle accepted a corrupted reference");
    }
  }

  Values values;
  JobCounters counters;
  RunClosedLoop(config, result, [&](Recorder* recorder) {
    ScopedOp op(recorder, "bench.op");
    const Clock::time_point start = Clock::now();
    auto spec = MakePageRankSpec(setup->graph, kJobId, &values, recorder);
    const Clock::time_point job_start = Clock::now();
    auto summary = RunTracedJob(std::move(spec), nullptr, recorder, nullptr);
    OpSample sample{SecondsSince(start) * 1e3, SecondsSince(job_start) * 1e3};
    if (!summary.ok() || !summary->job_status.ok()) {
      result->Fail("plain job failed");
    } else if (!SameBits(values, setup->reference)) {
      result->Fail("plain values differ from the reference");
    }
    if (recorder != nullptr && summary.ok()) counters.Add(*summary, {});
    return sample;
  });
  counters.Report(result);
}

}  // namespace perfbench
