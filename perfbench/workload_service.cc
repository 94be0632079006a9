// service: a real loopback TelemetryServer with the DebugService routes and
// the process-wide TraceBlockCache. Two reader connections page every debug
// route of finished jobs while one submitter connection re-POSTs a fixed
// set of job ids and polls each until its first debug view answers, so
// resubmissions invalidate cached blocks while readers read. The load
// generator never has more than three connections open.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <thread>

#include "bench.h"
#include "common/json_parser.h"
#include "common/string_util.h"
#include "debug/debug_session.h"
#include "io/trace_block_cache.h"
#include "obs/job_registry.h"
#include "obs/metrics.h"
#include "obs/telemetry_server.h"
#include "service/debug_service.h"
#include "service/job_request.h"

namespace perfbench {

namespace {

constexpr int kReaderJobs = 4;
constexpr int kSubmitterJobs = 3;
constexpr int kReaders = 2;
constexpr int kJobVertices = 2000;
/// Vertex ids looked up per reader job.
constexpr int kPointLookups = 4;
/// The read routes, whose latency the traced run breaks out.
enum Route { kSupersteps, kVertices, kVertex, kMaster, kViolations, kJobs };
const char* const kRoutes[] = {"supersteps", "vertices", "vertex",
                               "master",     "violations", "jobs"};

struct HttpReply {
  int status = 0;
  std::string body;
  double connect_ms = 0.0;
  double total_ms = 0.0;
};

/// One HTTP/1.1 exchange on a fresh loopback connection (the server closes
/// every connection after one response). Status 0 means a socket error.
HttpReply Http(uint16_t port, const std::string& method,
               const std::string& target, const std::string& body = "") {
  HttpReply reply;
  const Clock::time_point start = Clock::now();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  reply.connect_ms = SecondsSince(start) * 1e3;
  std::string request = method + " " + target +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n";
  if (!body.empty()) {
    request += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  reply.total_ms = SecondsSince(start) * 1e3;
  const size_t head_end = response.find("\r\n\r\n");
  if (response.compare(0, 9, "HTTP/1.1 ") != 0 ||
      head_end == std::string::npos) {
    return reply;
  }
  reply.status = std::atoi(response.c_str() + 9);
  reply.body = response.substr(head_end + 4);
  return reply;
}

std::string JobBody(const std::string& job_id, uint64_t graph_seed) {
  return graft::StrFormat(
      "{\"algo\":\"pagerank\",\"job_id\":\"%s\","
      "\"graph\":{\"generator\":\"power-law\",\"vertices\":%d,\"edges\":7,"
      "\"seed\":%llu,\"undirected\":false},"
      "\"params\":{\"iterations\":%d},\"engine\":{\"workers\":%d},"
      "\"capture\":{\"all_active\":true},\"journal\":false}",
      job_id.c_str(), kJobVertices, static_cast<unsigned long long>(graph_seed),
      kIterations, kWorkers);
}

std::string SuperstepsTarget(const std::string& job_id) {
  return "/jobs/" + job_id + "/debug/supersteps";
}

/// One read target and the body it answered at set-up.
struct Target {
  std::string path;
  Route route = kSupersteps;
  std::string body;
};

/// The /jobs listing carries ages and the submitter's live states, so it is
/// checked structurally: every reader job must be listed as done.
bool JobsListingOk(const std::string& body,
                   const std::vector<std::string>& reader_jobs) {
  for (const std::string& id : reader_jobs) {
    const size_t at = body.find("\"job_id\":\"" + id + "\"");
    const size_t state =
        at == std::string::npos ? at : body.find("\"state\":", at);
    if (state == std::string::npos ||
        body.compare(state + 8, 6, "\"done\"") != 0) {
      return false;
    }
  }
  return true;
}

struct ServiceSetup {
  std::unique_ptr<graft::LocalDirTraceStore> store;
  std::unique_ptr<TimedReadStore> timed;
  graft::obs::JobRegistry registry;
  graft::obs::MetricsRegistry metrics;
  std::unique_ptr<graft::service::DebugService> service;
  std::unique_ptr<graft::obs::TelemetryServer> server;
  std::vector<std::string> reader_jobs;
  std::vector<std::string> submit_jobs;
  std::vector<Target> targets;
  /// First-view body of each submitter job id.
  std::vector<std::string> submit_bodies;
  double generate_s = 0.0;

  ~ServiceSetup() {
    if (server != nullptr) server->Stop();
    if (service != nullptr) service->DrainJobs();
    if (store != nullptr) (void)store->DeletePrefix("");
  }
};

/// POSTs `job_id` and polls its first debug view until it answers 200.
struct SubmitOutcome {
  bool ok = false;
  std::string error;
  std::string body;
  double submit_ms = 0.0, wait_ms = 0.0, job_ms = 0.0;
  uint64_t polls = 0, polls_409 = 0;
  uint64_t status_2xx = 0, status_4xx = 0, status_5xx = 0;
};

SubmitOutcome SubmitAndWait(uint16_t port, const std::string& job_id,
                            uint64_t graph_seed, Recorder* recorder) {
  SubmitOutcome out;
  auto count = [&out](int status) {
    if (status >= 200 && status < 300) ++out.status_2xx;
    if (status >= 400 && status < 500) ++out.status_4xx;
    if (status >= 500) ++out.status_5xx;
  };
  ScopedOp op(recorder, "bench.job");
  const Clock::time_point start = Clock::now();
  HttpReply posted;
  {
    ScopedSpan span(recorder, "service.submit");
    posted = Http(port, "POST", "/jobs", JobBody(job_id, graph_seed));
  }
  out.submit_ms = SecondsSince(start) * 1e3;
  count(posted.status);
  if (posted.status != 202) {
    out.error = graft::StrFormat("POST %s answered %d", job_id.c_str(),
                                 posted.status);
    return out;
  }
  ScopedSpan span(recorder, "service.wait");
  const Clock::time_point wait_start = Clock::now();
  for (;;) {
    HttpReply view = Http(port, "GET", SuperstepsTarget(job_id));
    ++out.polls;
    count(view.status);
    if (view.status == 200) {
      out.body = std::move(view.body);
      break;
    }
    if (view.status != 409) {
      out.error = graft::StrFormat("first view of %s answered %d",
                                   job_id.c_str(), view.status);
      return out;
    }
    ++out.polls_409;
    if (SecondsSince(wait_start) > 30.0) {
      out.error = "job " + job_id + " did not finish in 30 s";
      return out;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  out.wait_ms = SecondsSince(wait_start) * 1e3;
  out.job_ms = SecondsSince(start) * 1e3;
  out.ok = true;
  return out;
}

std::unique_ptr<ServiceSetup> MakeServiceSetup(const RunConfig& config,
                                               int index, bool timed_reads,
                                               WorkloadResult* result) {
  auto s = std::make_unique<ServiceSetup>();
  auto opened = graft::LocalDirTraceStore::Open(
      config.work_dir + "/stores/service-" + std::to_string(index));
  GRAFT_CHECK(opened.ok()) << opened.status();
  s->store = std::move(opened).value();
  GRAFT_CHECK_OK(s->store->DeletePrefix(""));
  graft::TraceStore* store = s->store.get();
  if (timed_reads) {
    s->timed = std::make_unique<TimedReadStore>(s->store.get());
    store = s->timed.get();
  }
  graft::service::DebugServiceOptions options;
  options.store = store;
  options.registry = &s->registry;
  options.metrics = &s->metrics;
  s->service = std::make_unique<graft::service::DebugService>(options);
  graft::obs::TelemetryServerOptions server_options;
  server_options.registry = &s->registry;
  server_options.metrics = &s->metrics;
  s->server = graft::obs::TelemetryServer::Create(server_options);
  s->service->RegisterRoutes(s->server.get());
  GRAFT_CHECK_OK(s->server->Serve());
  const uint16_t port = s->server->port();

  // graph.generate_ms: the catalog builds each job's graph with
  // BuildRequestedGraph; time one such build of the reader jobs' shape.
  {
    auto json = graft::ParseJson(JobBody("probe", config.seed));
    GRAFT_CHECK(json.ok()) << json.status();
    auto request = graft::service::ParseJobRequest(**json, 0);
    GRAFT_CHECK(request.ok()) << request.status();
    const Clock::time_point start = Clock::now();
    auto graph = graft::service::BuildRequestedGraph(*request);
    s->generate_s = SecondsSince(start);
    GRAFT_CHECK(graph.ok()) << graph.status();
  }

  // Reader jobs: submitted over HTTP, finished before any read.
  for (int i = 0; i < kReaderJobs; ++i) {
    s->reader_jobs.push_back("perfbench-read-" + std::to_string(i));
    SubmitOutcome done =
        SubmitAndWait(port, s->reader_jobs.back(), config.seed * 16 + i,
                      nullptr);
    if (!done.ok) result->Broken("reader job: " + done.error);
  }
  // Read targets, built from what each job actually captured.
  s->targets.push_back(Target{"/jobs", kJobs, ""});
  for (const std::string& job : s->reader_jobs) {
    auto session = graft::debug::DebugSession<PR>::Open(s->store.get(), job);
    if (!session.ok() || session->supersteps().size() < 3 ||
        session->master_supersteps().empty()) {
      result->Broken("reader job " + job + " captured too little");
      continue;
    }
    const int64_t step = session->supersteps()[1];
    const int64_t step2 = session->supersteps()[2];
    const int64_t master = *session->master_supersteps().begin();
    auto traces = session->VertexTraces(step);
    if (!traces.ok() || traces->size() < 100) {
      result->Broken("reader job " + job + " has too few traces");
      continue;
    }
    const std::string base = "/jobs/" + job + "/debug";
    auto add = [&](std::string path, Route route) {
      s->targets.push_back(Target{std::move(path), route, ""});
    };
    add(base + "/supersteps", kSupersteps);
    add(graft::StrFormat("%s/vertices?superstep=%lld&limit=50", base.c_str(),
                         static_cast<long long>(step)),
        kVertices);
    add(graft::StrFormat("%s/vertices?superstep=%lld&offset=50&limit=50",
                         base.c_str(), static_cast<long long>(step)),
        kVertices);
    add(graft::StrFormat("%s/vertices?superstep=%lld&search=%lld",
                         base.c_str(), static_cast<long long>(step2),
                         static_cast<long long>((*traces)[7].id)),
        kVertices);
    for (int k = 0; k < kPointLookups; ++k) {
      const auto& trace = (*traces)[(k * traces->size()) / kPointLookups];
      add(graft::StrFormat("%s/vertex/%lld?superstep=%lld", base.c_str(),
                           static_cast<long long>(trace.id),
                           static_cast<long long>(step)),
          kVertex);
    }
    add(graft::StrFormat("%s/master?superstep=%lld", base.c_str(),
                         static_cast<long long>(master)),
        kMaster);
    add(graft::StrFormat("%s/violations?superstep=%lld", base.c_str(),
                         static_cast<long long>(step)),
        kViolations);
  }
  // Warm-up: every target once; the answer is the reference body.
  for (Target& target : s->targets) {
    HttpReply reply = Http(port, "GET", target.path);
    if (reply.status != 200) {
      result->Broken(graft::StrFormat("set-up read %s answered %d",
                                      target.path.c_str(), reply.status));
    }
    target.body = std::move(reply.body);
  }
  // Submitter jobs: one run each gives the first-view reference.
  for (int i = 0; i < kSubmitterJobs; ++i) {
    s->submit_jobs.push_back("perfbench-submit-" + std::to_string(i));
    SubmitOutcome done = SubmitAndWait(port, s->submit_jobs.back(),
                                       config.seed * 16 + 8 + i, nullptr);
    if (!done.ok) result->Broken("submitter job: " + done.error);
    s->submit_bodies.push_back(std::move(done.body));
  }
  return s;
}

/// Everything one timed phase measured.
struct PhaseStats {
  std::vector<double> read_ms, job_ms;
  std::vector<std::vector<double>> route_ms{std::size(kRoutes)};
  std::vector<double> connect_ms;
  double submit_ms = 0.0, wait_ms = 0.0;
  uint64_t reads = 0, jobs = 0, polls = 0, polls_409 = 0;
  uint64_t status_2xx = 0, status_4xx = 0, status_5xx = 0;
  double elapsed_s = 0.0;
};

void RunPhase(ServiceSetup& setup, const RunConfig& config, double seconds,
              Recorder* recorder, WorkloadResult* result, PhaseStats* stats) {
  const uint16_t port = setup.server->port();
  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::mutex mutex;  // guards `stats` and `result`
  std::vector<std::thread> clients;
  for (int r = 0; r < kReaders; ++r) {
    clients.emplace_back([&, r] {
      PhaseStats local;
      std::vector<std::string> failures;
      for (uint64_t i = 0; Clock::now() < deadline; ++i) {
        const Target& target =
            setup.targets[(r + i * 7) % setup.targets.size()];
        HttpReply reply;
        {
          ScopedOp op(recorder, "bench.op");
          ScopedSpan span(recorder,
                          std::string("obs.http.") + kRoutes[target.route]);
          reply = Http(port, "GET", target.path);
        }
        ++local.reads;
        local.read_ms.push_back(reply.total_ms);
        local.route_ms[target.route].push_back(reply.total_ms);
        local.connect_ms.push_back(reply.connect_ms);
        if (reply.status >= 200 && reply.status < 300) ++local.status_2xx;
        if (reply.status >= 400 && reply.status < 500) ++local.status_4xx;
        if (reply.status >= 500) ++local.status_5xx;
        const bool ok =
            reply.status == 200 &&
            (target.route == kJobs ? JobsListingOk(reply.body, setup.reader_jobs)
                               : reply.body == target.body);
        if (!ok) {
          failures.push_back(graft::StrFormat(
              "GET %s answered %d%s", target.path.c_str(), reply.status,
              reply.status == 200 ? " with a different body" : ""));
        }
      }
      const double elapsed = SecondsSince(start);
      std::lock_guard<std::mutex> lock(mutex);
      stats->elapsed_s = std::max(stats->elapsed_s, elapsed);
      stats->reads += local.reads;
      stats->read_ms.insert(stats->read_ms.end(), local.read_ms.begin(),
                            local.read_ms.end());
      stats->connect_ms.insert(stats->connect_ms.end(),
                               local.connect_ms.begin(),
                               local.connect_ms.end());
      for (size_t k = 0; k < std::size(kRoutes); ++k) {
        stats->route_ms[k].insert(stats->route_ms[k].end(),
                                  local.route_ms[k].begin(),
                                  local.route_ms[k].end());
      }
      stats->status_2xx += local.status_2xx;
      stats->status_4xx += local.status_4xx;
      stats->status_5xx += local.status_5xx;
      result->attempted += local.reads;
      for (const std::string& failure : failures) result->Fail(failure);
    });
  }
  clients.emplace_back([&] {
    for (uint64_t k = 0; Clock::now() < deadline; ++k) {
      const size_t slot = k % setup.submit_jobs.size();
      SubmitOutcome done =
          SubmitAndWait(port, setup.submit_jobs[slot],
                        config.seed * 16 + 8 + slot, recorder);
      std::lock_guard<std::mutex> lock(mutex);
      ++result->attempted;
      ++stats->jobs;
      stats->polls += done.polls;
      stats->polls_409 += done.polls_409;
      stats->status_2xx += done.status_2xx;
      stats->status_4xx += done.status_4xx;
      stats->status_5xx += done.status_5xx;
      if (!done.ok) {
        result->Fail(done.error);
        continue;
      }
      stats->job_ms.push_back(done.job_ms);
      stats->submit_ms += done.submit_ms;
      stats->wait_ms += done.wait_ms;
      if (done.body != setup.submit_bodies[slot]) {
        result->Fail("first view of " + setup.submit_jobs[slot] +
                     " differs from the reference");
      }
    }
  });
  for (std::thread& client : clients) client.join();
}

}  // namespace

void RunService(const RunConfig& config, WorkloadResult* result) {
  int setups = 0;
  std::unique_ptr<ServiceSetup> setup =
      RepeatSetup<ServiceSetup>(config, result, [&] {
        return MakeServiceSetup(config, setups++, /*timed_reads=*/false,
                                result);
      });
  result->Layer("graph.generate_ms", setup->generate_s * 1e3, "ms");

  // Oracle self-test: a reference body with one byte changed must be
  // rejected by the comparison every read makes.
  {
    const Target& target = setup->targets.back();
    std::string corrupted = target.body;
    if (!corrupted.empty()) corrupted[corrupted.size() / 2] ^= 0x01;
    HttpReply reply = Http(setup->server->port(), "GET", target.path);
    if (reply.status != 200 || reply.body == corrupted ||
        reply.body != target.body) {
      result->Broken("service oracle self-test failed on " + target.path);
    }
    if (JobsListingOk("{\"jobs\":[]}", setup->reader_jobs)) {
      result->Broken("service /jobs oracle accepted an empty listing");
    }
  }

  // Untraced runs measure the whole window. Traced runs measure an untraced
  // half, for the wall-clock metrics and the overhead baseline, then a
  // traced half on a fresh set-up whose store reads go through the timing
  // store.
  graft::TraceBlockCache& cache = graft::TraceBlockCache::Global();
  PhaseStats untraced;
  const double cpu_start = ProcessCpuSeconds();
  RunPhase(*setup, config,
           config.recorder == nullptr ? config.seconds : config.seconds / 2,
           nullptr, result, &untraced);
  result->E2E("cpu_per_op_ms",
              (ProcessCpuSeconds() - cpu_start) * 1e3 /
                  static_cast<double>(std::max<uint64_t>(1, untraced.reads)),
              "ms");
  result->E2E("peak_rss_mb", PeakRssMb(), "MB");
  result->Layer("wall.job_p50_ms", Median(untraced.job_ms), "ms");
  result->Layer("wall.op_p50_ms", Median(untraced.read_ms), "ms");
  result->Layer("wall.ops_per_s",
                static_cast<double>(untraced.reads) / untraced.elapsed_s,
                "1/s");
  result->Layer("bench.samples", static_cast<double>(untraced.reads), "count");
  if (config.recorder == nullptr) return;

  setup.reset();
  setup = MakeServiceSetup(config, setups++, /*timed_reads=*/true, result);
  Recorder* recorder = config.recorder;
  setup->timed->set_recorder(recorder);
  const graft::TraceBlockCache::Stats before = cache.stats();
  PhaseStats traced;
  RunPhase(*setup, config, config.seconds / 2, recorder, result, &traced);
  const graft::TraceBlockCache::Stats after = cache.stats();
  setup->timed->set_recorder(nullptr);


  result->Layer("bench.trace_overhead_pct",
                100.0 * (Median(traced.read_ms) / Median(untraced.read_ms) -
                         1.0),
                "%");
  for (size_t k = 0; k < std::size(kRoutes); ++k) {
    result->Layer(std::string("obs.http_ms.") + kRoutes[k],
                  Median(traced.route_ms[k]), "ms");
  }
  result->Layer("obs.connect_ms", Median(traced.connect_ms), "ms");
  if (TailResolved(traced.read_ms.size(), 0.9)) {
    result->Layer("service.read_p90_ms", Percentile(traced.read_ms, 0.9),
                  "ms");
  }
  const double jobs = std::max<double>(1.0, traced.job_ms.size());
  result->Layer("service.submit_ms", traced.submit_ms / jobs, "ms");
  result->Layer("service.wait_ms", traced.wait_ms / jobs, "ms");
  result->Layer("service.polls_per_job",
                static_cast<double>(traced.polls) / jobs, "count");
  result->Layer("service.poll_409_ratio",
                traced.polls > 0 ? static_cast<double>(traced.polls_409) /
                                       static_cast<double>(traced.polls)
                                 : 0.0,
                "1");
  result->Layer("service.status_2xx", static_cast<double>(traced.status_2xx),
                "count");
  result->Layer("service.status_4xx", static_cast<double>(traced.status_4xx),
                "count");
  result->Layer("service.status_5xx", static_cast<double>(traced.status_5xx),
                "count");
  const uint64_t lookups =
      (after.hits - before.hits) + (after.misses - before.misses);
  result->Layer("io.cache_hits", static_cast<double>(after.hits - before.hits),
                "count");
  result->Layer("io.cache_misses",
                static_cast<double>(after.misses - before.misses), "count");
  result->Layer("io.cache_hit_ratio",
                lookups > 0 ? static_cast<double>(after.hits - before.hits) /
                                  static_cast<double>(lookups)
                            : 0.0,
                "1");
  result->Layer("io.cache_evictions",
                static_cast<double>(after.evictions - before.evictions),
                "count");
  result->Layer("io.cache_invalidations",
                static_cast<double>(after.invalidations -
                                    before.invalidations),
                "count");
  result->Layer("io.cache_bytes", static_cast<double>(after.bytes), "bytes");
  // Resubmitting a finished job id appends its new traces after the old
  // ones instead of replacing them, so the store grows by one job's traces
  // per resubmission (see README.md, "Known defects").
  result->Layer("service.store_mb",
                static_cast<double>(setup->store->TotalBytes("")) / 1e6, "MB");

  // Server-side handling of the same targets, without sockets: what
  // http_ms adds on top is connect, accept and hand-off.
  std::vector<std::vector<double>> handle_ms(std::size(kRoutes));
  for (const Target& target : setup->targets) {
    const Clock::time_point start = Clock::now();
    auto response = setup->server->Handle("GET", target.path);
    handle_ms[target.route].push_back(SecondsSince(start) * 1e3);
    if (response.status != 200) {
      result->Broken("Handle(" + target.path + ") answered " +
                     std::to_string(response.status));
    }
  }
  for (size_t k = 0; k < std::size(kRoutes); ++k) {
    result->Layer(std::string("obs.handle_ms.") + kRoutes[k],
                  Median(handle_ms[k]), "ms");
  }
}

}  // namespace perfbench
