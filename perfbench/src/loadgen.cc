#include "src/loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include "src/host.h"
#include "src/stats.h"
#include "src/workloads.h"

namespace perfbench {

using perfiface::serve::PredictRequest;
using perfiface::serve::PredictResponse;
using perfiface::serve::PredictStatus;

namespace {

// A driver gives up on responses that have not arrived after this long.
constexpr std::uint64_t kStallNs = 10'000'000'000ULL;
constexpr std::uint64_t kPollSliceNs = 100'000'000ULL;
// Matches the default KVM halt-polling window (halt_poll_ns = 200 us).
constexpr std::uint64_t kWakeMarginNs = 200'000;

std::uint64_t SampleKey(std::uint64_t tag, std::uint32_t index) {
  return (tag << 16) | index;
}

}  // namespace

Completion ToCompletion(const PredictResponse& response) {
  Completion c;
  c.status = response.status;
  c.value = response.value;
  c.throughput = response.throughput;
  const perfiface::serve::ExplainInfo& ex = response.explain;
  if (ex.filled) {
    const std::string& rep = ex.representation;
    if (rep == "cache") {
      c.answer = Answer::kCache;
    } else if (rep.rfind("psc", 0) == 0) {
      c.answer = Answer::kProgram;
      c.psc_vm = rep == "psc-vm";
    } else if (rep == "pnet") {
      c.answer = Answer::kPnetSim;
    } else if (rep == "pnet-memo") {
      c.answer = Answer::kPnetMemo;
    } else if (rep.rfind("pnet", 0) == 0) {
      c.answer = Answer::kPnetTier;
    }
    c.queue_wait_ns = ex.queue_wait_ns;
    c.eval_ns = ex.eval_ns;
    c.steps = ex.steps;
    c.derived_hits = ex.derived_hits;
    c.param_hits = ex.param_hits;
  }
  return c;
}

// --- InProcChannel ----------------------------------------------------------

InProcChannel::~InProcChannel() {
  std::unique_lock<std::mutex> lock(mu_);
  waiting_ = true;
  cv_.wait(lock, [this] { return outstanding_ == 0; });
}

void InProcChannel::Send(std::vector<PredictRequest>&& batch, std::uint64_t tag) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    outstanding_ += batch.size();
  }
  service_->SubmitBatch(std::move(batch), [this, tag](std::size_t index,
                                                       const PredictResponse& response) {
    Completion c = ToCompletion(response);
    c.tag = tag;
    c.index = static_cast<std::uint32_t>(index);
    c.done_ns = NowNs();
    c.decoded_ns = c.done_ns;
    std::lock_guard<std::mutex> lock(mu_);
    ready_.push_back(c);
    ready_count_.store(ready_.size(), std::memory_order_release);
    --outstanding_;
    // Notified under the lock: the destructor may return as soon as it
    // sees outstanding_ == 0, and cv_ must still exist for this call.
    if (waiting_) {
      cv_.notify_one();
    }
  });
}

void InProcChannel::Poll(std::uint64_t deadline_ns, std::vector<Completion>* out) {
  if (ready_count_.load(std::memory_order_acquire) == 0 && deadline_ns <= NowNs()) {
    return;  // a non-blocking poll with nothing ready takes no lock
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (ready_.empty()) {
    waiting_ = true;
    cv_.wait_until(lock,
                   std::chrono::steady_clock::time_point(std::chrono::nanoseconds(deadline_ns)),
                   [this] { return !ready_.empty(); });
    waiting_ = false;
  }
  out->insert(out->end(), ready_.begin(), ready_.end());
  ready_.clear();
  ready_count_.store(0, std::memory_order_release);
}

// --- TcpChannel --------------------------------------------------------------

TcpChannel::TcpChannel(int fd) : fd_(fd) {}

TcpChannel::~TcpChannel() { close(fd_); }

std::unique_ptr<TcpChannel> TcpChannel::Connect(std::uint16_t port, std::string* error) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return nullptr;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    close(fd);
    return nullptr;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return std::unique_ptr<TcpChannel>(new TcpChannel(fd));
}

void TcpChannel::Send(std::vector<PredictRequest>&& batch, std::uint64_t tag) {
  perfiface::net::EncodeRequestFrame(tag, batch, &out_);
  Flush();
}

void TcpChannel::Flush() {
  while (out_sent_ < out_.size()) {
    const ssize_t n =
        send(fd_, out_.data() + out_sent_, out_.size() - out_sent_, MSG_NOSIGNAL);
    if (n > 0) {
      out_sent_ += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      break;  // EAGAIN: ppoll waits for POLLOUT; a dead peer shows as a stall
    }
  }
  if (out_sent_ == out_.size()) {
    out_.clear();
    out_sent_ = 0;
  }
}

void TcpChannel::Poll(std::uint64_t deadline_ns, std::vector<Completion>* out) {
  const std::size_t before = out->size();
  char buf[64 * 1024];
  // Checks the socket at least once, even when the deadline has passed.
  for (bool first = true;; first = false) {
    const std::uint64_t now = NowNs();
    if (!first && now >= deadline_ns) {
      return;
    }
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = static_cast<short>(POLLIN | (out_.empty() ? 0 : POLLOUT));
    const std::uint64_t wait_ns = deadline_ns > now ? deadline_ns - now : 0;
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait_ns / 1'000'000'000ULL);
    ts.tv_nsec = static_cast<long>(wait_ns % 1'000'000'000ULL);
    if (ppoll(&pfd, 1, &ts, nullptr) <= 0) {
      continue;  // timeout or EINTR: the deadline check above decides
    }
    if ((pfd.revents & POLLOUT) != 0) {
      Flush();
    }
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      continue;
    }
    bool closed = false;
    for (;;) {
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        reader_.Append(buf, static_cast<std::size_t>(n));
        continue;
      }
      closed = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR);
      break;
    }
    const std::uint64_t read_ns = NowNs();
    perfiface::net::WireResponse wire;
    std::string error;
    for (;;) {
      const perfiface::net::FrameReader::Next next = reader_.Pop(&line_);
      if (next == perfiface::net::FrameReader::Next::kNeedMore) {
        break;
      }
      if (next != perfiface::net::FrameReader::Next::kFrame ||
          !perfiface::net::DecodeResponseLine(line_, &wire, &error) || wire.malformed) {
        continue;  // its requests stay unanswered and count as failed
      }
      Completion c = ToCompletion(wire.response);
      c.tag = wire.id;
      c.index = static_cast<std::uint32_t>(wire.index);
      c.done_ns = read_ns;
      c.decoded_ns = NowNs();
      out->push_back(c);
    }
    if (out->size() > before || closed) {
      return;  // a closed peer leaves requests unanswered: drivers see a stall
    }
  }
}

// --- ResponseCheck -----------------------------------------------------------

void ResponseCheck::StartSampling() { sampling_ = true; }

void ResponseCheck::OnSend(std::uint64_t tag, std::uint32_t index, const PredictRequest& request) {
  const std::uint64_t seq = sent_++;
  if (!sampling_ || max_samples_ == 0) {
    return;
  }
  // Reservoir sampling (Algorithm R) with a seeded hash for the draws.
  const std::uint64_t k = candidates_++;
  std::size_t slot = samples_.size();
  if (slot >= max_samples_) {
    const std::uint64_t j = Mix64(seed_ ^ Mix64(k)) % (k + 1);
    if (j >= max_samples_) {
      return;
    }
    slot = static_cast<std::size_t>(j);
    pending_.erase(sample_keys_[slot]);
  } else {
    samples_.emplace_back();
    sample_keys_.push_back(0);
  }
  const std::uint64_t key = SampleKey(tag, index);
  samples_[slot] = Sample{request, seq, 0, 0, false, Answer::kUnknown};
  sample_keys_[slot] = key;
  pending_[key] = slot;
}

bool ResponseCheck::OnComplete(const Completion& c) {
  ++completed_;
  const bool ok = c.status == PredictStatus::kOk && std::isfinite(c.value) && c.value >= 0 &&
                  std::isfinite(c.throughput) && c.throughput >= 0;
  if (!ok) {
    ++failed_;
  }
  const auto it = pending_.find(SampleKey(c.tag, c.index));
  if (it != pending_.end()) {
    Sample& sample = samples_[it->second];
    sample.value = c.value;
    sample.throughput = c.throughput;
    sample.answered = ok;
    sample.answer = c.answer;
    pending_.erase(it);
  }
  return ok;
}

// --- Drivers -----------------------------------------------------------------

namespace {

struct RoundMark {
  std::uint64_t wall_ns = 0;
  std::uint64_t process_cpu_ns = 0;
  std::uint64_t client_cpu_ns = 0;
  std::uint64_t ctxsw = 0;
};

RoundMark Mark() {
  return RoundMark{NowNs(), ProcessCpuNs(), ThreadCpuNs(), ContextSwitches()};
}

// The closed loop behind RunClosedLoop and RunWarmup. Stops sending once
// `max_requests` are sent (0 = no limit) or, with rounds, once duration_ns
// has passed and min_rounds are complete.
ClosedLoopResult Drive(Session* s, std::size_t batch_size, std::size_t window,
                       std::uint64_t max_requests, std::uint64_t round_requests,
                       std::uint64_t duration_ns, std::size_t min_rounds) {
  ClosedLoopResult result;
  const std::uint64_t tag_base = s->next_tag;
  std::vector<std::uint32_t> remaining;  // by tag - tag_base
  std::size_t inflight = 0;
  std::uint64_t sent = 0;
  bool stop = false;

  auto send_one = [&] {
    const std::uint64_t tag = s->next_tag++;
    std::vector<PredictRequest> batch;
    batch.reserve(batch_size);
    for (std::size_t i = 0; i < batch_size; ++i) {
      PredictRequest req = s->next_request();
      req.explain = s->explain;
      s->check->OnSend(tag, static_cast<std::uint32_t>(i), req);
      batch.push_back(std::move(req));
    }
    remaining.push_back(static_cast<std::uint32_t>(batch_size));
    ++inflight;
    sent += batch_size;
    s->channel->Send(std::move(batch), tag);
    if (max_requests != 0 && sent >= max_requests) {
      stop = true;
    }
  };

  const std::uint64_t deadline = NowNs() + duration_ns;
  RoundMark round_start = Mark();
  for (std::size_t w = 0; w < window && !stop; ++w) {
    send_one();
  }
  std::vector<Completion> buf;
  std::uint64_t last_progress = NowNs();
  while (inflight > 0) {
    buf.clear();
    s->channel->Poll(NowNs() + kPollSliceNs, &buf);
    if (buf.empty()) {
      if (NowNs() - last_progress > kStallNs) {
        break;  // never answered: the check counts sent - completed as failed
      }
      continue;
    }
    last_progress = NowNs();
    for (const Completion& c : buf) {
      s->check->OnComplete(c);
      if (s->log != nullptr) {
        s->log->push_back(c);
      }
      ++result.completed;
      if (round_requests != 0 && result.completed % round_requests == 0) {
        const RoundMark now = Mark();
        const double n = static_cast<double>(round_requests);
        result.round_qps.push_back(n * 1e9 / static_cast<double>(now.wall_ns - round_start.wall_ns));
        const double server_cpu_ns =
            static_cast<double>(now.process_cpu_ns - round_start.process_cpu_ns) -
            static_cast<double>(now.client_cpu_ns - round_start.client_cpu_ns);
        result.round_cpu_us_per_req.push_back(server_cpu_ns / 1e3 / n);
        result.round_ctxsw_per_req.push_back(
            static_cast<double>(now.ctxsw - round_start.ctxsw) / n);
        round_start = now;
        if (now.wall_ns >= deadline && result.round_qps.size() >= min_rounds) {
          stop = true;
        }
      }
      const std::uint64_t idx = c.tag - tag_base;
      if (idx < remaining.size() && remaining[idx] > 0 && --remaining[idx] == 0) {
        --inflight;
        if (!stop) {
          send_one();
        }
      }
    }
  }
  return result;
}

}  // namespace

ClosedLoopResult RunClosedLoop(Session* session, std::size_t batch_size, std::size_t window,
                               std::uint64_t round_requests, std::uint64_t duration_ns,
                               std::size_t min_rounds, std::uint64_t max_requests) {
  return Drive(session, batch_size, window, max_requests, round_requests, duration_ns,
               min_rounds);
}

void RunWarmup(Session* session, std::size_t batch_size, std::size_t window,
               std::uint64_t count) {
  Drive(session, batch_size, window, std::max<std::uint64_t>(count, 1), 0, 0, 0);
}

OpenLoopResult RunOpenLoop(Session* s, double rate, std::uint64_t duration_ns,
                           std::uint64_t drain_ns) {
  OpenLoopResult result;
  const std::size_t n = std::max<std::size_t>(
      1, static_cast<std::size_t>(rate * static_cast<double>(duration_ns) / 1e9));
  const double interval_ns = 1e9 / rate;
  result.records.resize(n);
  const std::uint64_t tag_base = s->next_tag;
  s->next_tag += n;

  std::size_t answered = 0;
  std::vector<Completion> buf;
  auto take = [&] {
    for (const Completion& c : buf) {
      const std::uint64_t idx = c.tag - tag_base;
      if (idx >= n) {
        continue;
      }
      result.records[idx].completion = c;
      s->check->OnComplete(c);
      if (s->log != nullptr) {
        s->log->push_back(c);
      }
      ++answered;
    }
    buf.clear();
  };

  const std::uint64_t start = NowNs() + 1'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    OpenLoopRecord& rec = result.records[i];
    rec.scheduled_ns = start + static_cast<std::uint64_t>(std::llround(interval_ns * i));
    const std::uint64_t tag = tag_base + i;
    PredictRequest req = s->next_request();
    req.explain = s->explain;
    s->check->OnSend(tag, 0, req);
    std::vector<PredictRequest> batch;
    batch.push_back(std::move(req));
    for (std::uint64_t now = NowNs(); now < rec.scheduled_ns; now = NowNs()) {
      // Sleep until kWakeMarginNs before the send time, then poll without
      // blocking: on a virtual machine a vCPU that halts for longer than the
      // host's halt-polling window can take milliseconds to wake again,
      // which would land on the request as generator lateness.
      const bool sleep = rec.scheduled_ns - now > kWakeMarginNs;
      s->channel->Poll(sleep ? rec.scheduled_ns - kWakeMarginNs : now, &buf);
      take();
    }
    rec.send_begin_ns = NowNs();
    s->channel->Send(std::move(batch), tag);
    rec.send_end_ns = NowNs();
  }
  const std::uint64_t drain_deadline = NowNs() + drain_ns;
  while (answered < n && NowNs() < drain_deadline) {
    s->channel->Poll(drain_deadline, &buf);
    take();
  }

  result.latency_us.reserve(n);
  result.lateness_us.reserve(n);
  for (const OpenLoopRecord& rec : result.records) {
    result.lateness_us.push_back(static_cast<double>(rec.send_begin_ns - rec.scheduled_ns) / 1e3);
    if (rec.completion.done_ns == 0) {
      ++result.unanswered;
      continue;
    }
    result.latency_us.push_back(
        static_cast<double>(rec.completion.done_ns - rec.scheduled_ns) / 1e3);
  }
  return result;
}

std::vector<double> WindowLatencyQuantiles(const OpenLoopResult& result, std::uint64_t window_ns,
                                           double q) {
  std::vector<double> per_window;
  if (result.records.empty() || window_ns == 0) {
    return per_window;
  }
  const std::uint64_t start = result.records.front().scheduled_ns;
  std::vector<double> window;
  std::uint64_t window_end = start + window_ns;
  auto close_window = [&] {
    if (window.size() >= 100) {
      per_window.push_back(Quantile(window, q));
    }
    window.clear();
  };
  for (const OpenLoopRecord& rec : result.records) {
    while (rec.scheduled_ns >= window_end) {
      close_window();
      window_end += window_ns;
    }
    if (rec.completion.done_ns != 0) {
      window.push_back(static_cast<double>(rec.completion.done_ns - rec.scheduled_ns) / 1e3);
    }
  }
  close_window();
  return per_window;
}

}  // namespace perfbench
