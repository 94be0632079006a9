// recovery: the plain job with delta checkpoints every 2 supersteps into a
// LocalDirTraceStore and one armed worker-compute fault (partition 1,
// superstep 7), recovered in place. The only workload that writes, fsyncs,
// restores and replays checkpoints and outbox logs.

#include "bench.h"
#include "common/fault_injector.h"
#include "common/string_util.h"

namespace perfbench {

namespace {

constexpr char kJobId[] = "perfbench-recovery";

struct RecoverySetup {
  graft::graph::SimpleGraph graph;
  std::unique_ptr<graft::LocalDirTraceStore> store;
  /// Final values of the same checkpointed job without a fault.
  Values reference;
  double generate_s = 0.0;
};

graft::pregel::JobSpec<PR> CheckpointedSpec(const RecoverySetup& setup,
                                            graft::TraceStore* store,
                                            Values* values,
                                            graft::FaultInjector* faults,
                                            Recorder* recorder) {
  auto spec = MakePageRankSpec(setup.graph, kJobId, values, recorder);
  spec.checkpoint.interval = 2;
  spec.checkpoint.mode = graft::pregel::CheckpointMode::kDelta;
  spec.checkpoint.store = store;
  spec.fault_injector = faults;
  return spec;
}

}  // namespace

void RunRecovery(const RunConfig& config, WorkloadResult* result) {
  int setups = 0;
  auto setup = RepeatSetup<RecoverySetup>(config, result, [&] {
    auto s = std::make_unique<RecoverySetup>();
    s->graph = MakeEpinions(config.seed, &s->generate_s);
    auto store = graft::LocalDirTraceStore::Open(
        config.work_dir + "/stores/recovery-" + std::to_string(setups++));
    GRAFT_CHECK(store.ok()) << store.status();
    s->store = std::move(store).value();
    GRAFT_CHECK_OK(s->store->DeletePrefix(""));
    // The reference does not depend on where checkpoints go; an in-memory
    // store keeps disk latency out of setup_s.
    graft::InMemoryTraceStore reference_store;
    auto summary = graft::pregel::RunJob(CheckpointedSpec(
        *s, &reference_store, &s->reference, nullptr, nullptr));
    if (!summary.ok() || !summary->job_status.ok() ||
        summary->stats.report.recovery.recoveries != 0) {
      result->Broken("fault-free checkpointed reference run failed");
    }
    return s;
  });
  result->Layer("graph.generate_ms", setup->generate_s * 1e3, "ms");

  // Oracle self-test: a reference with one value off by one ulp must be
  // rejected.
  {
    Values corrupted = setup->reference;
    if (!corrupted.empty()) {
      corrupted.back().second = std::nextafter(corrupted.back().second, 1.0);
    }
    if (SameBits(setup->reference, corrupted)) {
      result->Broken("recovery oracle accepted a corrupted reference");
    }
  }

  Values values;
  JobCounters counters;
  RunClosedLoop(
      config, result,
      [&](Recorder* recorder) {
        ScopedOp op(recorder, "bench.op");
        const Clock::time_point start = Clock::now();
        graft::FaultInjector faults;
        faults.Arm(graft::FaultPoint{graft::FaultSite::kWorkerCompute,
                                     /*superstep=*/7, /*partition=*/1,
                                     /*hits=*/1});
        auto spec = CheckpointedSpec(*setup, setup->store.get(), &values,
                                     &faults, recorder);
        const Clock::time_point job_start = Clock::now();
        graft::TraceStore::IoStats io;
        auto summary =
            RunTracedJob(std::move(spec), setup->store.get(), recorder, &io);
        const OpSample sample{SecondsSince(start) * 1e3,
                              SecondsSince(job_start) * 1e3};
        if (!summary.ok() || !summary->job_status.ok()) {
          result->Fail("recovered job failed");
        } else if (summary->stats.report.recovery.confined_recoveries != 1 ||
                   summary->attempts != 1 || faults.fired_count() != 1) {
          result->Fail(graft::StrFormat(
              "expected one confined recovery, got %llu in %d attempts",
              static_cast<unsigned long long>(
                  summary->stats.report.recovery.confined_recoveries),
              summary->attempts));
        } else if (!SameBits(values, setup->reference)) {
          result->Fail("recovered values differ from the fault-free run");
        }
        if (recorder != nullptr && summary.ok()) counters.Add(*summary, io);
        return sample;
      },
      // Checkpoints of the finished job are garbage; the next job starts
      // from an empty store.
      [&] { GRAFT_CHECK_OK(setup->store->DeletePrefix("")); });
  counters.Report(result);
}

}  // namespace perfbench
