// perfbench: one workload of the serving benchmark, in a fresh process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Every workload runs in its own process because the sub-net memo, derived
// and parametric stores are process-wide: workloads run back to back in
// one process would leak learned state into each other.
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics (requests carry explain, spans are recorded around the
// benchmark's calls into each layer). Both check every answer. The last
// line of standard output is one JSON object:
//   {"correct": B, "attempted": N, "failed": N, "metrics": {NAME: {"value": X, "unit": U}}}
// preceded by a {"facts": ...} line describing the host and the run.
//
// With --setup-child 1 the binary only times one set-up in a fresh process
// and prints it (see TimeSetupsInChildren); the benchmark starts it itself.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/accel/conv/conv_shadow.h"
#include "src/accel/jpeg/jpeg_shadow.h"
#include "src/accel/protoacc/protoacc_shadow.h"
#include "src/audit.h"
#include "src/core/registry.h"
#include "src/host.h"
#include "src/loadgen.h"
#include "src/net/server.h"
#include "src/petri/pnet_memo.h"
#include "src/probes.h"
#include "src/serve/service.h"
#include "src/stats.h"
#include "src/trace.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

using perfiface::InterfaceRegistry;
using perfiface::PnetMemoTable;
using perfiface::net::NetServer;
using perfiface::serve::PredictionService;
using perfiface::serve::PredictRequest;
using perfiface::serve::ServiceOptions;

// Two workers plus the client thread (plus, over TCP, the server's
// connection thread) keep at most four threads busy: one per core of the
// 4-vCPU host the bounds were set on. One more busy thread than cores made
// hot p50 swing by 20x between runs.
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kBatch = 16;   // closed-loop requests per batch
constexpr std::size_t kWindow = 32;  // closed-loop batches in flight
constexpr std::size_t kMinRounds = 2;  // per closed loop, or segment of one
constexpr std::size_t kClosedSegments = 8;
constexpr int kCalibrationsPerCpu = 3;  // per pause between closed-loop segments
constexpr int kSetupChildrenPerBurst = 15;  // three bursts; setup_s is the median
constexpr std::size_t kIdentitySamples = 256;
// setup_s and cpu_us_per_req are scaled to a host on which one timed pass
// of the calibration kernel (CalibrationNs) takes this much CPU time: each
// is multiplied by this over the median kernel time measured beside it (in
// the closed loop's pauses, or in each set-up child). On the shared
// virtual machine the bounds were set on, the host's own speed moved the
// unscaled figures by up to 1.7x within minutes, and the kernel moved with
// them (perfbench/README.md, "Calibration").
constexpr double kReferenceCalibrationNs = 0.6e6;
constexpr std::uint64_t kAccuracyPerFamily = 12;
constexpr std::uint64_t kDrainNs = 5'000'000'000ULL;
// Open-loop p50 and p90 are taken per window of this much send time and
// reported as the kAcrossWindows quantile of the per-window values: the
// latency of the least-disturbed tenth of the phase. On a shared virtual
// machine the host deprives the guest's vCPUs of a core for milliseconds at
// a time, which stalls the generator and the workers alike and can hit most
// windows of a run; a change to the program's own request path moves every
// window. Even so, these figures moved by 20-30% (p50) and up to 10x (p90)
// between identical runs, so they are per-layer figures of the traced run
// and facts of the untraced one, not bounded end-to-end metrics.
constexpr std::uint64_t kLatencyWindowNs = 100'000'000ULL;
constexpr double kAcrossWindows = 0.1;

double LatencyUs(const OpenLoopResult& open, double q) {
  return Quantile(WindowLatencyQuantiles(open, kLatencyWindowNs, q), kAcrossWindows);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool setup_child = false;  // only time one set-up (see TimeSetupsInChildren)
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      if (!args->trace && std::strcmp(value, "0") != 0) {
        return false;
      }
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--setup-child") {
      args->setup_child = std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return have_workload && args->seconds > 0;
}

ServiceOptions BenchOptions() {
  ServiceOptions options;
  options.num_workers = kWorkers;
  return options;
}

// The open-loop client pipelines one frame per request on one connection,
// so the default window of 32 unanswered frames would shed requests during
// any 8 ms stall of a shared host; the window is raised to keep such stalls
// visible as latency rather than as refusals.
perfiface::net::NetServerOptions ServerOptions() {
  perfiface::net::NetServerOptions options;
  options.max_inflight_batches = 1024;
  return options;
}

// The service a run measures, with its TCP front end when one is needed.
struct Stack {
  explicit Stack(bool with_server)
      : service(InterfaceRegistry::Default(), BenchOptions()) {
    if (with_server) {
      server = std::make_unique<NetServer>(&service, ServerOptions());
      std::string error;
      if (!server->Start(&error)) {
        std::fprintf(stderr, "perfbench: server start failed: %s\n", error.c_str());
        std::exit(1);
      }
    }
  }
  ~Stack() {
    if (server != nullptr) {
      server->Stop();
    }
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::unique_ptr<Channel> Connect(bool tcp) {
    if (!tcp) {
      return std::make_unique<InProcChannel>(&service);
    }
    std::string error;
    std::unique_ptr<TcpChannel> channel = TcpChannel::Connect(server->port(), &error);
    if (channel == nullptr) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      std::exit(1);
    }
    return channel;
  }

  PredictionService service;
  std::unique_ptr<NetServer> server;
};

// One set-up, timed until the first answer arrives: service construction
// and, over TCP, server start and connect. Teardown is not timed.
double SetupSeconds(bool tcp, const PredictRequest& probe, bool* ok) {
  const std::uint64_t t0 = NowNs();
  auto stack = std::make_unique<Stack>(tcp);
  std::unique_ptr<Channel> channel = stack->Connect(tcp);
  channel->Send({probe}, 1);
  std::vector<Completion> got;
  const std::uint64_t deadline = NowNs() + kDrainNs;
  while (got.empty() && NowNs() < deadline) {
    channel->Poll(deadline, &got);
  }
  const std::uint64_t t1 = NowNs();
  *ok = *ok && got.size() == 1 && got[0].status == perfiface::serve::PredictStatus::kOk;
  channel.reset();
  stack.reset();
  return static_cast<double>(t1 - t0) / 1e9;
}

// The body of a set-up child process: times the calibration kernel three
// times, then one set-up, and prints the kernel's median time in ns and the
// set-up's seconds on one line. The kernel runs first because right after a
// set-up it would be charged for the teardown's deferred kernel work.
int RunSetupChild(const WorkloadSpec& spec, std::uint64_t seed) {
  InterfaceRegistry::Default();  // one-time, process-wide: not set-up cost
  const PredictRequest probe = MakeQuery(seed, 2);  // a conv program query
  std::vector<double> kernel;
  for (int i = 0; i < 3; ++i) {
    kernel.push_back(static_cast<double>(CalibrationNs()));
  }
  bool ok = true;
  const double seconds = SetupSeconds(spec.tcp, probe, &ok);
  std::printf("%.0f %.9g\n", Median(kernel), seconds);
  return ok ? 0 : 1;
}

struct SetupTimes {
  std::vector<double> seconds;         // one per child, unscaled
  std::vector<double> scaled_seconds;  // scaled by the child's own kernel time
  std::vector<double> kernel_ns;
  bool ok = true;
};

// A set-up is timed the way a user meets it: once, in a fresh process of
// this binary. Set-up time varies more between processes than within one
// (the median of 21 set-ups in one process moved by up to 1.6x from one
// process to the next), and the first set-up in a process costs 1.3-1.4x
// the later ones, so `children` processes run one after another, each timing
// its first set-up, scaled by that process's own calibration kernel time.
void TimeSetupsInChildren(const Args& args, int children, SetupTimes* out) {
  const std::string seed = std::to_string(args.seed);
  for (int c = 0; c < children; ++c) {
    const char* argv[] = {"perfbench",     "--workload", args.workload.c_str(),
                          "--seed",        seed.c_str(), "--seconds",
                          "1",             "--trace",    "0",
                          "--setup-child", "1",         nullptr};
    int fds[2];
    if (pipe(fds) != 0) {
      out->ok = false;
      return;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    pid_t pid = 0;
    const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                    const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string text;
    char buf[4096];
    for (ssize_t n; spawned == 0 && (n = read(fds[0], buf, sizeof(buf))) != 0;) {
      if (n > 0) {
        text.append(buf, static_cast<std::size_t>(n));
      } else if (errno != EINTR) {
        break;
      }
    }
    close(fds[0]);
    int status = 0;
    const bool exited = spawned == 0 && waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                        WEXITSTATUS(status) == 0;
    std::vector<double> values;
    const char* p = text.c_str();
    for (char* end = nullptr;; p = end) {
      const double v = std::strtod(p, &end);
      if (end == p) {
        break;
      }
      values.push_back(v);
    }
    if (!exited || values.size() != 2 || !(values[0] > 0)) {
      out->ok = false;
      continue;
    }
    out->kernel_ns.push_back(values[0]);
    out->seconds.push_back(values[1]);
    out->scaled_seconds.push_back(values[1] * kReferenceCalibrationNs / values[0]);
  }
}

struct MemoSnapshot {
  std::uint64_t hits;
  std::uint64_t misses;
  std::uint64_t evictions;
};

MemoSnapshot Memo() {
  const PnetMemoTable& memo = PnetMemoTable::Global();
  return MemoSnapshot{memo.hits(), memo.misses(), memo.evictions()};
}

// Requests a closed loop may send. cold_sweep never repeats a request, so
// its closed loops share what is left of its unique query space after the
// open loops still to run (`open_requests` in all), instead of using it up
// on a fast program or a long run; 0 (no limit) for the other workloads.
std::uint64_t ClosedLoopCap(const RequestStream& stream, std::uint64_t open_requests,
                            std::uint64_t closed_loops) {
  if (stream.remaining() == RequestStream::kUnlimited) {
    return 0;
  }
  const std::uint64_t reserve = open_requests + closed_loops * kBatch;
  const std::uint64_t left = stream.remaining() > reserve ? stream.remaining() - reserve : 0;
  return std::max<std::uint64_t>(left / closed_loops, 1);
}

std::uint64_t OpenLoopRequests(double rate, std::uint64_t duration_ns) {
  return static_cast<std::uint64_t>(rate * static_cast<double>(duration_ns) / 1e9) + 1;
}

double Pct(double part, double whole) { return whole > 0 ? 100.0 * part / whole : 0; }

class Report {
 public:
  // A value that is not finite (a bug) is printed as 0 so the line stays
  // valid JSON.
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.emplace_back(name, std::make_pair(std::isfinite(value) ? value : 0.0,
                                               std::string(unit)));
  }
  std::string Json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].first.c_str(), metrics_[i].second.first,
                    metrics_[i].second.second.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

// Per-layer figures taken from the completions of traced phases.
struct AnswerStats {
  std::vector<double> program_eval_us;
  double program_steps = 0;
  double program_vm = 0;
  std::vector<double> pnet_eval_us;
  double pnet_firings = 0;
  double derived_hits = 0;
  double param_hits = 0;

  void Add(const std::vector<Completion>& log) {
    for (const Completion& c : log) {
      derived_hits += static_cast<double>(c.derived_hits);
      param_hits += static_cast<double>(c.param_hits);
      if (c.answer == Answer::kProgram) {
        program_eval_us.push_back(static_cast<double>(c.eval_ns) / 1e3);
        program_steps += static_cast<double>(c.steps);
        program_vm += c.psc_vm ? 1 : 0;
      } else if (c.answer == Answer::kPnetSim) {
        pnet_eval_us.push_back(static_cast<double>(c.eval_ns) / 1e3);
        pnet_firings += static_cast<double>(c.steps);
      }
    }
  }
};

// Spans are kept for one request in this many, which bounds the trace file
// to a few MB per run.
constexpr std::size_t kSpanEvery = 16;

// Spans of one open-loop phase, built from the timestamps the driver took
// around each call: the generator's lateness, the send (SubmitBatch, or
// encode + write), the service's queue wait and evaluation (placed from the
// explain block, in-process only) and the client-side decode.
void RecordSpans(const OpenLoopResult& open, bool tcp, SpanRecorder* spans) {
  for (std::size_t i = 0; i < open.records.size(); i += kSpanEvery) {
    const OpenLoopRecord& r = open.records[i];
    const Completion& c = r.completion;
    if (c.done_ns == 0) {
      continue;
    }
    const std::uint64_t request = (tcp ? 1ULL << 40 : 0) + i;
    const std::uint32_t root = spans->Add(tcp ? "net.request" : "serve.request", request,
                                          SpanRecorder::kNoParent, r.scheduled_ns,
                                          c.decoded_ns);
    spans->Add("gen.late", request, root, r.scheduled_ns, r.send_begin_ns);
    if (tcp) {
      spans->Add("net.send", request, root, r.send_begin_ns, r.send_end_ns);
      spans->Add("net.decode", request, root, c.done_ns, c.decoded_ns);
      continue;
    }
    spans->Add("serve.submit", request, root, r.send_begin_ns, r.send_end_ns);
    const std::uint64_t pickup = r.send_begin_ns + c.queue_wait_ns;
    spans->Add("serve.queue", request, root, r.send_begin_ns, pickup);
    const char* eval = c.answer == Answer::kProgram    ? "perfscript.eval"
                       : c.answer == Answer::kPnetSim  ? "petri.eval"
                       : c.answer == Answer::kPnetMemo ? "petri.memo"
                       : c.answer == Answer::kPnetTier ? "petri.tier"
                                                       : "serve.cache";
    spans->Add(eval, request, root, pickup, pickup + c.eval_ns);
  }
}

// Median over answered in-process open-loop requests of the time not
// spent in SubmitBatch's enqueue, the queue or evaluation: the handoff of
// the answer back to the client.
double HandoffUs(const OpenLoopResult& open) {
  std::vector<double> handoff;
  for (const OpenLoopRecord& r : open.records) {
    const Completion& c = r.completion;
    if (c.done_ns == 0) {
      continue;
    }
    const double total = static_cast<double>(c.done_ns - r.send_begin_ns);
    handoff.push_back(
        std::max(0.0, total - static_cast<double>(c.queue_wait_ns + c.eval_ns)) / 1e3);
  }
  return Median(handoff);
}

std::vector<double> SendUs(const OpenLoopResult& open) {
  std::vector<double> out;
  for (const OpenLoopRecord& r : open.records) {
    out.push_back(static_cast<double>(r.send_end_ns - r.send_begin_ns) / 1e3);
  }
  return out;
}

std::vector<double> QueueWaitUs(const OpenLoopResult& open) {
  std::vector<double> out;
  for (const OpenLoopRecord& r : open.records) {
    if (r.completion.done_ns != 0) {
      out.push_back(static_cast<double>(r.completion.queue_wait_ns) / 1e3);
    }
  }
  return out;
}

int Run(const Args& args, const WorkloadSpec& spec) {
  TightenTimerSlack();
  perfiface::conv::RegisterConvShadowBackend();
  perfiface::jpeg::RegisterJpegShadowBackend();
  perfiface::protoacc::RegisterProtoaccShadowBackend();
  const double load_at_start = LoadAverage1m();
  const std::uint64_t seconds_ns = static_cast<std::uint64_t>(args.seconds * 1e9);
  InterfaceRegistry::Default();  // one-time, process-wide: not set-up cost

  RequestStream stream(spec, args.seed);
  ResponseCheck check(args.seed, kIdentitySamples);
  SetupTimes setups;
  std::vector<double> calibration_ns;
  // Set-ups are timed in bursts at the start, between the phases and at
  // the end, so their median spans the run like the other metrics do.
  auto setup_burst = [&] {
    TimeSetupsInChildren(args, args.trace ? 1 : kSetupChildrenPerBurst, &setups);
  };
  setup_burst();

  // The counterpart transport (TCP for in-process workloads and vice
  // versa) is driven only by the traced run, for the wire tax.
  Stack stack(spec.tcp || args.trace);
  std::unique_ptr<Channel> channel = stack.Connect(spec.tcp);
  Session session;
  session.channel = channel.get();
  session.next_request = [&stream] { return stream.Next(); };
  session.check = &check;
  // Warm-up: every query of a population once, so the run does not measure
  // the first touches of its tail (CPU per request fell by 5-8% within a
  // run without this), then the stream itself until the response cache and
  // the sub-net memo are full and evicting.
  if (spec.distinct != 0) {
    std::uint64_t id = 0;
    session.next_request = [&stream, &id] { return MakeQuery(stream.salt(), id++); };
    RunWarmup(&session, kBatch, kWindow, spec.distinct);
    session.next_request = [&stream] { return stream.Next(); };
  }
  RunWarmup(&session, kBatch, kWindow, spec.warmup_requests);
  // The audit samples the answers of the measured phases only.
  check.StartSampling();

  Report report;
  SpanRecorder spans;
  int threads = ThreadCount();
  ClosedLoopResult closed;
  OpenLoopResult open;
  double peak_rss_mb = 0;
  if (!args.trace) {
    // The closed loop runs in segments, and between them the client thread
    // times the calibration kernel on every CPU while the service is idle,
    // so the kernel samples the host's speed over the same seconds and the
    // same CPUs as the CPU time it scales, without competing with the
    // service's threads. (Timed on the client thread's CPU alone, the
    // kernel widened zipf_churn's spread over runs instead of narrowing it.)
    // Three quarters of the run go to the closed loop, whose CPU time per
    // request is an end-to-end metric; the open loop's latency is not.
    const std::uint64_t closed_ns = seconds_ns / 4 * 3;
    const std::uint64_t open_ns = seconds_ns - closed_ns;
    const std::uint64_t open_requests = OpenLoopRequests(spec.open_loop_rate, open_ns);
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    for (std::size_t segment = 0; segment < kClosedSegments; ++segment) {
      const ClosedLoopResult part = RunClosedLoop(
          &session, kBatch, kWindow, spec.round_requests, closed_ns / kClosedSegments,
          kMinRounds, ClosedLoopCap(stream, open_requests, kClosedSegments - segment));
      closed.completed += part.completed;
      append(&closed.round_qps, part.round_qps);
      append(&closed.round_cpu_us_per_req, part.round_cpu_us_per_req);
      append(&closed.round_ctxsw_per_req, part.round_ctxsw_per_req);
      calibration_ns.push_back(CalibrationAcrossCpusNs(kCalibrationsPerCpu));
    }
    threads = std::max(threads, ThreadCount());
    // Read before the open loop allocates its per-request records.
    peak_rss_mb = PeakRssMb();
    setup_burst();
    open = RunOpenLoop(&session, spec.open_loop_rate, open_ns, kDrainNs);
    setup_burst();
  }

  std::vector<Completion> log;
  struct Measure {
    double value;
    const char* unit;
  };
  std::map<std::string, Measure> layer;
  if (args.trace) {
    const std::uint64_t phase_ns = seconds_ns / 5;
    const std::uint64_t open_requests = OpenLoopRequests(spec.open_loop_rate, phase_ns);
    const ClosedLoopResult plain =
        RunClosedLoop(&session, kBatch, kWindow, spec.round_requests, phase_ns, kMinRounds,
                      ClosedLoopCap(stream, 2 * open_requests, 3));
    session.explain = true;
    session.log = &log;
    const std::uint64_t hits0 = stack.service.metrics().cache_hits();
    const std::uint64_t misses0 = stack.service.metrics().cache_misses();
    const MemoSnapshot memo0 = Memo();
    closed = RunClosedLoop(&session, kBatch, kWindow, spec.round_requests, phase_ns, kMinRounds,
                           ClosedLoopCap(stream, 2 * open_requests, 2));
    threads = std::max(threads, ThreadCount());
    open = RunOpenLoop(&session, spec.open_loop_rate, phase_ns, kDrainNs);
    const double hits = static_cast<double>(stack.service.metrics().cache_hits() - hits0);
    const double misses = static_cast<double>(stack.service.metrics().cache_misses() - misses0);
    const MemoSnapshot memo1 = Memo();
    AnswerStats answers;
    answers.Add(log);

    // The same stream over the other transport.
    std::unique_ptr<Channel> other = stack.Connect(!spec.tcp);
    session.channel = other.get();
    std::vector<Completion> other_log;
    session.log = &other_log;
    const ClosedLoopResult other_closed =
        RunClosedLoop(&session, kBatch, kWindow, spec.round_requests, phase_ns, kMinRounds,
                      ClosedLoopCap(stream, open_requests, 1));
    const OpenLoopResult other_open =
        RunOpenLoop(&session, spec.open_loop_rate, phase_ns, kDrainNs);
    session.channel = channel.get();
    const OpenLoopResult& tcp_open = spec.tcp ? open : other_open;
    const OpenLoopResult& inproc_open = spec.tcp ? other_open : open;
    const ClosedLoopResult& tcp_closed = spec.tcp ? closed : other_closed;
    const ClosedLoopResult& inproc_closed = spec.tcp ? other_closed : closed;
    RecordSpans(tcp_open, /*tcp=*/true, &spans);
    RecordSpans(inproc_open, /*tcp=*/false, &spans);

    const ProbeResult probes = RunProbes(spec, args.seed, &stack.service);
    layer["net.req_decode_us"] = {probes.req_decode_us, "us"};
    layer["net.resp_encode_us"] = {probes.resp_encode_us, "us"};
    layer["net.resp_bytes"] = {probes.resp_bytes, "bytes"};
    layer["net.tax_p50_us"] = {LatencyUs(tcp_open, 0.5) - LatencyUs(inproc_open, 0.5), "us"};
    layer["net.tax_cpu_us"] = {
        Median(tcp_closed.round_cpu_us_per_req) - Median(inproc_closed.round_cpu_us_per_req), "us"};
    layer["serve.key_us"] = {probes.key_us, "us"};
    layer["serve.cache_get_us"] = {probes.cache_get_us, "us"};
    layer["serve.cache_put_us"] = {probes.cache_put_us, "us"};
    layer["serve.cache_hit_pct"] = {Pct(hits, hits + misses), "%"};
    layer["serve.submit_us"] = {Median(SendUs(inproc_open)), "us"};
    layer["serve.queue_wait_us"] = {Median(QueueWaitUs(inproc_open)), "us"};
    layer["serve.handoff_us"] = {HandoffUs(inproc_open), "us"};
    layer["serve.ctxsw_per_req"] = {Median(plain.round_ctxsw_per_req), "count"};
    const double programs = static_cast<double>(answers.program_eval_us.size());
    layer["perfscript.eval_us"] = {Median(answers.program_eval_us), "us"};
    layer["perfscript.steps"] = {programs > 0 ? answers.program_steps / programs : 0, "count"};
    layer["perfscript.vm_pct"] = {Pct(answers.program_vm, programs), "%"};
    const double sims = static_cast<double>(answers.pnet_eval_us.size());
    layer["petri.eval_us"] = {Median(answers.pnet_eval_us), "us"};
    layer["petri.firings"] = {sims > 0 ? answers.pnet_firings / sims : 0, "count"};
    layer["petri.memo_hit_pct"] = {
        Pct(static_cast<double>(memo1.hits - memo0.hits),
            static_cast<double>(memo1.hits - memo0.hits + memo1.misses - memo0.misses)), "%"};
    layer["petri.memo_evictions"] = {static_cast<double>(memo1.evictions - memo0.evictions), "count"};
    layer["petri.derived_hits"] = {answers.derived_hits, "count"};
    layer["petri.param_hits"] = {answers.param_hits, "count"};
    layer["closed.qps"] = {Median(plain.round_qps), "req/s"};
    layer["obs.trace_overhead_pct"] = {
        100.0 * (Median(plain.round_qps) / Median(closed.round_qps) - 1.0), "%"};
    const double traced_requests = static_cast<double>(std::max<std::uint64_t>(spans.requests(), 1));
    const std::map<std::string, double> self = spans.SelfNsByModule();
    for (const char* module : {"gen", "net", "serve", "perfscript", "petri"}) {
      const auto it = self.find(module);
      layer[std::string("trace.self_") + module + "_us"] = {
          it == self.end() ? 0 : it->second / 1e3 / traced_requests, "us"};
    }
  }

  // Audit: bit-identity of sampled answers against a from-scratch service,
  // and accuracy against the simulators on a fixed sample.
  channel.reset();
  PredictionService reference(InterfaceRegistry::Default(), ReferenceOptions());
  const IdentityAudit identity = AuditIdentity(&reference, check.samples());
  const AccuracyAudit accuracy = AuditAccuracy(spec, &reference, kAccuracyPerFamily);

  const std::vector<double> p50_windows = WindowLatencyQuantiles(open, kLatencyWindowNs, 0.5);
  const std::vector<double> p90_windows = WindowLatencyQuantiles(open, kLatencyWindowNs, 0.9);
  const double p50_us = LatencyUs(open, 0.5);
  const double p90_us = LatencyUs(open, 0.9);
  const std::uint64_t unanswered = check.sent() - check.completed();
  const std::uint64_t attempted = check.sent() + identity.checked + accuracy.queries +
                                  accuracy.failures + setups.seconds.size();
  const std::uint64_t failed = check.failed() + unanswered + identity.mismatches +
                               accuracy.failures + (setups.ok ? 0 : 1);
  bool families_covered = true;
  for (std::uint64_t n : accuracy.per_family) {
    families_covered = families_covered && n > 0;
  }
  const bool correct = failed == 0 && identity.checked > 0 && families_covered;

  const double calibration = Median(calibration_ns);  // 0 in the traced run
  const double host_scale = calibration > 0 ? kReferenceCalibrationNs / calibration : 0;
  if (!args.trace) {
    report.Add("setup_s", Median(setups.scaled_seconds), "s");
    report.Add("cpu_us_per_req", Median(closed.round_cpu_us_per_req) * host_scale, "us");
    report.Add("ok_pct", Pct(static_cast<double>(attempted - failed), static_cast<double>(attempted)),
               "%");
    report.Add("pred_err_pct", accuracy.mean_abs_err_pct, "%");
    report.Add("rss_mb", peak_rss_mb, "MB");
  } else {
    for (const auto& [name, measure] : layer) {
      report.Add(name, measure.value, measure.unit);
    }
    report.Add("accel.sim_us", accuracy.sim_us, "us");
    report.Add("accel.speedup", accuracy.iface_us > 0 ? accuracy.sim_us / accuracy.iface_us : 0,
               "x");
    report.Add("open.p50_us", p50_us, "us");
    report.Add("open.p90_us", p90_us, "us");
    report.Add("gen.late_p99_us", Quantile(open.lateness_us, 0.99), "us");
    report.Add("tail.p99_us", Quantile(open.latency_us, 0.99), "us");
    if (!args.trace_out.empty() && !spans.WriteChromeJson(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
    }
  }

  std::printf(
      "{\"facts\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %d, \"loadavg_1m_at_start\": %.2f, \"threads\": %d, "
      "\"service\": {\"num_workers\": %zu, \"cache_capacity\": %zu, \"enable_pnet_memo\": %s, "
      "\"enable_derived\": %s, \"enable_param_memo\": %s, \"enable_psc_compile\": %s, "
      "\"shadow_sample_every\": %llu, \"server_max_inflight_batches\": %zu}, \"transport\": \"%s\", \"open_loop_rate\": %g, "
      "\"closed_loop\": {\"batch\": %zu, \"window\": %zu, \"rounds\": %zu, \"completed\": %llu}, "
      "\"open_loop\": {\"sent\": %zu, \"unanswered\": %llu, \"late_p50_us\": %.3f, "
      "\"late_p99_us\": %.3f, \"p50_us\": %.3f, \"p90_us\": %.3f, \"p99_us\": %.3f, "
      "\"windows\": %zu, "
      "\"p50_window_min_med_max_us\": [%.1f, %.1f, %.1f], "
      "\"p90_window_min_med_max_us\": [%.1f, %.1f, %.1f]}, "
      "\"qps_round_min_med_max\": [%.0f, %.0f, %.0f], \"setups\": %zu, "
      "\"audit\": {\"identity_checked\": %llu, \"identity_mismatches\": %llu, "
      "\"accuracy_queries\": %llu, \"sim_us\": %.3f, \"iface_us\": %.3f}, "
      "\"spans\": %zu, \"unanswered\": %llu, \"bad_responses\": %llu, "
      "\"accuracy_failures\": %llu, \"setup_ok\": %s, "
      "\"calibration_ms\": %.4f, \"host_scale\": %.4f, \"setup_calibration_ms\": %.4f, "
      "\"setup_s_unscaled\": %.6g, "
      "\"cpu_us_per_req_unscaled\": %.6g}}\n",
      spec.name, static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
      OnlineCpus(), load_at_start, threads, stack.service.num_workers(),
      BenchOptions().cache_capacity, BenchOptions().enable_pnet_memo ? "true" : "false",
      BenchOptions().enable_derived ? "true" : "false",
      BenchOptions().enable_param_memo ? "true" : "false",
      BenchOptions().enable_psc_compile ? "true" : "false",
      static_cast<unsigned long long>(BenchOptions().shadow_sample_every),
      ServerOptions().max_inflight_batches,
      spec.tcp ? "tcp" : "in-process", spec.open_loop_rate, kBatch, kWindow,
      closed.round_qps.size(), static_cast<unsigned long long>(closed.completed),
      open.records.size(), static_cast<unsigned long long>(open.unanswered),
      Quantile(open.lateness_us, 0.5), Quantile(open.lateness_us, 0.99),
      p50_us, p90_us, Quantile(open.latency_us, 0.99), p50_windows.size(), Quantile(p50_windows, 0),
      Median(p50_windows), Quantile(p50_windows, 1), Quantile(p90_windows, 0),
      Median(p90_windows), Quantile(p90_windows, 1), Quantile(closed.round_qps, 0),
      Median(closed.round_qps), Quantile(closed.round_qps, 1), setups.seconds.size(),
      static_cast<unsigned long long>(identity.checked),
      static_cast<unsigned long long>(identity.mismatches),
      static_cast<unsigned long long>(accuracy.queries), accuracy.sim_us, accuracy.iface_us,
      spans.spans().size(), static_cast<unsigned long long>(unanswered),
      static_cast<unsigned long long>(check.failed()),
      static_cast<unsigned long long>(accuracy.failures), setups.ok ? "true" : "false",
      Median(calibration_ns) / 1e6, host_scale, Median(setups.kernel_ns) / 1e6,
      Median(setups.seconds),
      Median(closed.round_cpu_us_per_req));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), report.Json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.setup_child) {
    return perfbench::RunSetupChild(*spec, args.seed);
  }
  return perfbench::Run(args, *spec);
}
