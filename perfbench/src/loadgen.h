// Load generation: one client thread drives the prediction service either
// in-process (SubmitBatch) or over loopback TCP (the NDJSON wire codec on a
// non-blocking socket), in a closed loop (a fixed window of batches in
// flight, for throughput and CPU cost) or an open loop (requests sent on a
// fixed schedule, for latency).
//
// Open-loop latency is timed from each request's scheduled send time, so a
// generator that runs late adds its lateness to every request it delays;
// the lateness itself is recorded too.
#ifndef PERFBENCH_SRC_LOADGEN_H_
#define PERFBENCH_SRC_LOADGEN_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/net/wire.h"
#include "src/serve/service.h"

namespace perfbench {

// Which machinery answered, from a response's explain block: kPnetMemo when
// every component came from the sub-net memo, kPnetTier when none simulated
// and a derived or parametric tier answered.
enum class Answer : std::uint8_t { kUnknown, kCache, kProgram, kPnetSim, kPnetMemo, kPnetTier };

// One response as the client sees it.
struct Completion {
  std::uint64_t tag = 0;    // the batch tag passed to Send
  std::uint32_t index = 0;  // request index within the batch
  perfiface::serve::PredictStatus status = perfiface::serve::PredictStatus::kError;
  double value = 0;
  double throughput = 0;
  std::uint64_t done_ns = 0;     // response available to the client
  std::uint64_t decoded_ns = 0;  // response decoded (== done_ns in-process)
  // Filled when the request asked to explain.
  Answer answer = Answer::kUnknown;
  bool psc_vm = false;
  std::uint64_t queue_wait_ns = 0;
  std::uint64_t eval_ns = 0;
  std::uint64_t steps = 0;
  std::uint64_t derived_hits = 0;
  std::uint64_t param_hits = 0;
};

Completion ToCompletion(const perfiface::serve::PredictResponse& response);

// A client connection to the service. Not thread-safe: one client thread
// owns it.
class Channel {
 public:
  virtual ~Channel() = default;
  // Sends one batch; each response comes back through Poll with `tag`.
  virtual void Send(std::vector<perfiface::serve::PredictRequest>&& batch,
                    std::uint64_t tag) = 0;
  // Appends completions to *out. Returns once at least one is available or
  // the monotonic clock passes deadline_ns.
  virtual void Poll(std::uint64_t deadline_ns, std::vector<Completion>* out) = 0;
};

// SubmitBatch with a streaming callback. The destructor waits for every
// outstanding response.
class InProcChannel final : public Channel {
 public:
  explicit InProcChannel(perfiface::serve::PredictionService* service) : service_(service) {}
  ~InProcChannel() override;
  InProcChannel(const InProcChannel&) = delete;
  InProcChannel& operator=(const InProcChannel&) = delete;

  void Send(std::vector<perfiface::serve::PredictRequest>&& batch, std::uint64_t tag) override;
  void Poll(std::uint64_t deadline_ns, std::vector<Completion>* out) override;

 private:
  perfiface::serve::PredictionService* service_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Completion> ready_;   // guarded by mu_
  std::atomic<std::size_t> ready_count_{0};  // ready_.size(), readable without mu_
  std::uint64_t outstanding_ = 0;   // guarded by mu_
  bool waiting_ = false;            // guarded by mu_
};

// Request frames written to and response lines read from one non-blocking
// loopback socket, multiplexed with ppoll.
class TcpChannel final : public Channel {
 public:
  ~TcpChannel() override;
  TcpChannel(const TcpChannel&) = delete;
  TcpChannel& operator=(const TcpChannel&) = delete;

  // Null (with *error set) if the connection fails.
  static std::unique_ptr<TcpChannel> Connect(std::uint16_t port, std::string* error);

  void Send(std::vector<perfiface::serve::PredictRequest>&& batch, std::uint64_t tag) override;
  void Poll(std::uint64_t deadline_ns, std::vector<Completion>* out) override;

 private:
  explicit TcpChannel(int fd);
  void Flush();

  int fd_;
  std::string out_;
  std::size_t out_sent_ = 0;
  perfiface::net::FrameReader reader_{1 << 20};
  std::string line_;
};

// Validates every response and keeps the answers of a seeded sample of
// requests for the bit-identity audit. The sample is drawn only from the
// sends after StartSampling (the measured phases, not the warm-up): a
// reservoir of up to `max_samples` requests, uniform over those sends.
class ResponseCheck {
 public:
  ResponseCheck(std::uint64_t seed, std::size_t max_samples)
      : seed_(seed), max_samples_(max_samples) {}

  // Sends from now on are candidates for the sample.
  void StartSampling();
  // Called once per request, in send order, before it is sent.
  void OnSend(std::uint64_t tag, std::uint32_t index,
              const perfiface::serve::PredictRequest& request);
  // Called once per response. False if the response is not OK or its
  // value or throughput is not finite and non-negative.
  bool OnComplete(const Completion& completion);

  struct Sample {
    perfiface::serve::PredictRequest request;
    std::uint64_t seq = 0;  // position in send order (0 = first send)
    double value = 0;
    double throughput = 0;
    bool answered = false;
    Answer answer = Answer::kUnknown;  // known when the request asked to explain
  };
  const std::vector<Sample>& samples() const { return samples_; }
  std::uint64_t sent() const { return sent_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t seed_;
  std::size_t max_samples_;
  std::uint64_t sent_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  bool sampling_ = false;
  std::uint64_t candidates_ = 0;  // sends since StartSampling
  std::vector<Sample> samples_;
  std::vector<std::uint64_t> sample_keys_;  // (tag, index) of each sample
  std::unordered_map<std::uint64_t, std::size_t> pending_;  // (tag, index) -> sample
};

// What the drivers send and to whom.
struct Session {
  Channel* channel = nullptr;
  std::function<perfiface::serve::PredictRequest()> next_request;
  ResponseCheck* check = nullptr;
  bool explain = false;
  std::uint64_t next_tag = 1;
  // Every completion seen by a driver, when set (the traced run).
  std::vector<Completion>* log = nullptr;
};

struct ClosedLoopResult {
  std::uint64_t completed = 0;
  // Per round of `round_requests` completions.
  std::vector<double> round_qps;
  std::vector<double> round_cpu_us_per_req;  // process CPU minus the client thread's
  std::vector<double> round_ctxsw_per_req;
};

// Keeps `window` batches of `batch_size` in flight and counts completions
// in rounds of `round_requests` until `duration_ns` has passed (and at
// least `min_rounds` rounds are done), or until `max_requests` are sent
// (0 = no limit), then drains.
ClosedLoopResult RunClosedLoop(Session* session, std::size_t batch_size, std::size_t window,
                               std::uint64_t round_requests, std::uint64_t duration_ns,
                               std::size_t min_rounds, std::uint64_t max_requests);

// Sends `count` requests through the closed loop and waits for their
// answers, without timing them.
void RunWarmup(Session* session, std::size_t batch_size, std::size_t window, std::uint64_t count);

// Per-request timestamps of an open-loop phase, indexed by send order.
struct OpenLoopRecord {
  std::uint64_t scheduled_ns = 0;
  std::uint64_t send_begin_ns = 0;
  std::uint64_t send_end_ns = 0;
  Completion completion;  // completion.done_ns == 0 if it never arrived
};

struct OpenLoopResult {
  std::vector<OpenLoopRecord> records;
  std::vector<double> latency_us;   // done - scheduled, answered requests
  std::vector<double> lateness_us;  // send_begin - scheduled
  std::uint64_t unanswered = 0;
};

// Each consecutive window's q-quantile of latency, over windows of
// `window_ns` of scheduled send time (windows with fewer than 100 answers
// are skipped).
std::vector<double> WindowLatencyQuantiles(const OpenLoopResult& result, std::uint64_t window_ns,
                                           double q);

// Sends one single-request batch every 1/rate seconds for duration_ns,
// sleeping between sends (polling without blocking for the last 200 us
// before each), then waits up to drain_ns for stragglers.
OpenLoopResult RunOpenLoop(Session* session, double rate, std::uint64_t duration_ns,
                           std::uint64_t drain_ns);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LOADGEN_H_
