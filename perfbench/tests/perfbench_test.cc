// Tests of the benchmark itself: deterministic inputs, open-loop latency
// accounting, order statistics, and the workloads' premises.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/registry.h"
#include "src/host.h"
#include "src/loadgen.h"
#include "src/net/wire.h"
#include "src/serve/service.h"
#include "src/stats.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

using perfiface::serve::PredictRequest;

std::string EncodeStream(const WorkloadSpec& spec, std::uint64_t seed, std::size_t n) {
  RequestStream stream(spec, seed);
  std::string bytes;
  for (std::size_t i = 0; i < n; ++i) {
    perfiface::net::EncodeRequestFrame(i, {stream.Next()}, &bytes);
  }
  return bytes;
}

TEST(RequestStreamTest, SameSeedGivesByteIdenticalStream) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    SCOPED_TRACE(spec.name);
    const std::string a = EncodeStream(spec, 42, 3000);
    EXPECT_EQ(a, EncodeStream(spec, 42, 3000));
    EXPECT_NE(a, EncodeStream(spec, 43, 3000));
  }
}

TEST(RequestStreamTest, ColdSweepNeverRepeatsARequestOrAMemoKey) {
  const WorkloadSpec& spec = *FindWorkload("cold_sweep");
  RequestStream stream(spec, 7);
  std::set<std::string> keys;
  std::set<double> jpeg_bits;
  constexpr std::size_t kRequests = 150000;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const PredictRequest req = stream.Next();
    ASSERT_TRUE(keys.insert(perfiface::serve::CanonicalCacheKey(req, req.representation)).second)
        << "request " << i << " repeats";
    if (req.interface == "jpeg_decoder") {
      // Every jpeg token carries `bits`, so a unique value keeps every
      // component's memo key unique too.
      ASSERT_TRUE(jpeg_bits.insert(req.attrs[0].second).second) << "request " << i;
    }
  }
}

TEST(RequestStreamTest, PopulationWorkloadsStayInsideTheirPopulation) {
  for (const char* name : {"hot_tcp", "zipf_churn"}) {
    const WorkloadSpec& spec = *FindWorkload(name);
    RequestStream stream(spec, 3);
    std::set<std::string> keys;
    for (int i = 0; i < 200000; ++i) {
      const PredictRequest req = stream.Next();
      keys.insert(perfiface::serve::CanonicalCacheKey(req, req.representation));
    }
    EXPECT_LE(keys.size(), spec.distinct) << name;
    EXPECT_GT(keys.size(), spec.distinct / 4) << name;
  }
}

TEST(RequestStreamTest, EveryWorkloadQueryIsAnsweredOk) {
  perfiface::serve::ServiceOptions options;
  options.num_workers = 2;
  perfiface::serve::PredictionService service(perfiface::InterfaceRegistry::Default(), options);
  for (const WorkloadSpec& spec : AllWorkloads()) {
    RequestStream stream(spec, 11);
    std::vector<PredictRequest> batch;
    for (int i = 0; i < 600; ++i) {
      batch.push_back(stream.Next());
    }
    const auto responses = service.PredictBatch(batch);
    for (std::size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].ok()) << spec.name << " " << i << ": " << responses[i].error;
      EXPECT_TRUE(std::isfinite(responses[i].value) && responses[i].value > 0);
    }
  }
}

// Answers each request when Send returns; the first Send stalls.
class StallingChannel final : public Channel {
 public:
  explicit StallingChannel(std::chrono::milliseconds stall) : stall_(stall) {}
  void Send(std::vector<PredictRequest>&& batch, std::uint64_t tag) override {
    if (first_) {
      first_ = false;
      std::this_thread::sleep_for(stall_);
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Completion c;
      c.tag = tag;
      c.index = static_cast<std::uint32_t>(i);
      c.status = perfiface::serve::PredictStatus::kOk;
      c.value = 1;
      c.done_ns = c.decoded_ns = NowNs();
      ready_.push_back(c);
    }
  }
  void Poll(std::uint64_t deadline_ns, std::vector<Completion>* out) override {
    if (ready_.empty()) {
      const std::uint64_t now = NowNs();
      if (deadline_ns > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
      }
    }
    out->insert(out->end(), ready_.begin(), ready_.end());
    ready_.clear();
  }

 private:
  std::chrono::milliseconds stall_;
  bool first_ = true;
  std::vector<Completion> ready_;
};

TEST(OpenLoopTest, LatencyRunsFromTheScheduledSendTime) {
  StallingChannel channel(std::chrono::milliseconds(40));
  ResponseCheck check(1, 0);
  Session session;
  session.channel = &channel;
  session.next_request = [] { return PredictRequest{}; };
  session.check = &check;
  // 1000 req/s for 100 ms: the 40 ms stall in the first send delays the
  // ~40 requests scheduled behind it.
  const OpenLoopResult r = RunOpenLoop(&session, 1000, 100'000'000, 1'000'000'000);
  ASSERT_EQ(r.records.size(), 100u);
  ASSERT_EQ(r.unanswered, 0u);
  ASSERT_EQ(r.latency_us.size(), 100u);
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    // A request cannot finish before it was sent, so latency >= lateness.
    EXPECT_GE(r.latency_us[i], r.lateness_us[i]) << i;
  }
  // The first request carries the stall itself; the tenth was due 9 ms in
  // and went out when the stall ended, ~31 ms late.
  EXPECT_GE(r.latency_us[0], 39000);
  EXPECT_GE(r.lateness_us[10], 25000);
  EXPECT_GE(r.latency_us[10], 25000);
  // Requests scheduled well after the stall are on time again.
  EXPECT_LT(r.latency_us[99], 20000);
  EXPECT_EQ(check.completed(), 100u);
}

// `windows` 1-second windows of 100 requests each; the requests of the last
// `burst_windows` windows take burst_ns, the others latency_ns.
OpenLoopResult Windows(int windows, int burst_windows, std::uint64_t latency_ns,
                       std::uint64_t burst_ns) {
  OpenLoopResult r;
  for (int w = 0; w < windows; ++w) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      OpenLoopRecord rec;
      rec.scheduled_ns = (1 + static_cast<std::uint64_t>(w)) * 1'000'000'000ULL + i * 10'000'000ULL;
      rec.completion.done_ns =
          rec.scheduled_ns + (w >= windows - burst_windows ? burst_ns : latency_ns);
      r.records.push_back(rec);
    }
  }
  return r;
}

constexpr std::uint64_t kSecond = 1'000'000'000ULL;

TEST(OpenLoopTest, LowWindowQuantileIgnoresBurstsInMostWindows) {
  // 17 of 20 windows disturbed: the tenth percentile over windows still
  // reads the undisturbed latency.
  const OpenLoopResult r = Windows(20, 17, 100'000, 10'000'000);
  EXPECT_DOUBLE_EQ(Quantile(WindowLatencyQuantiles(r, kSecond, 0.9), 0.1), 100);
  // Over one window covering the whole phase, the bursts set the tail.
  EXPECT_DOUBLE_EQ(Quantile(WindowLatencyQuantiles(r, 20 * kSecond, 0.9), 0.1), 10000);
}

TEST(OpenLoopTest, LowWindowQuantileMovesWhenEveryWindowSlowsDown) {
  EXPECT_DOUBLE_EQ(Quantile(WindowLatencyQuantiles(Windows(20, 0, 150'000, 0), kSecond, 0.5), 0.1),
                   150);
  EXPECT_DOUBLE_EQ(
      Quantile(WindowLatencyQuantiles(Windows(20, 20, 0, 10'000'000), kSecond, 0.5), 0.1), 10000);
}

TEST(OpenLoopTest, WindowsWithTooFewAnswersAreSkipped) {
  OpenLoopResult r = Windows(2, 0, 100'000, 0);
  r.records.resize(150);  // the second window keeps 50 answers
  EXPECT_EQ(WindowLatencyQuantiles(r, kSecond, 0.5).size(), 1u);
}

TEST(StatsTest, QuantileInterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 0.0), 1);
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 1.0), 4);
  EXPECT_DOUBLE_EQ(Quantile({10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 0.9), 100);
  EXPECT_DOUBLE_EQ(Quantile({5}, 0.99), 5);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({7, 1}), 4);
}

TEST(RequestStreamTest, RemainingCountsDownOnlyForColdSweep) {
  RequestStream cold(*FindWorkload("cold_sweep"), 5);
  const std::uint64_t before = cold.remaining();
  EXPECT_EQ(before, kNumFamilies * kFamilyIdSpace);
  for (int i = 0; i < 10; ++i) {
    cold.Next();
  }
  EXPECT_EQ(cold.remaining(), before - 10);
  RequestStream hot(*FindWorkload("hot_tcp"), 5);
  hot.Next();
  EXPECT_EQ(hot.remaining(), RequestStream::kUnlimited);
}

TEST(ClosedLoopTest, StopsAtTheRequestCapBeforeTheDeadline) {
  StallingChannel channel(std::chrono::milliseconds(0));
  ResponseCheck check(1, 0);
  Session session;
  session.channel = &channel;
  session.next_request = [] { return PredictRequest{}; };
  session.check = &check;
  const ClosedLoopResult r = RunClosedLoop(&session, 16, 4, 100, /*duration_ns=*/60 * kSecond,
                                           /*min_rounds=*/1, /*max_requests=*/1000);
  EXPECT_GE(check.sent(), 1000u);
  EXPECT_LT(check.sent(), 1000u + 16);
  EXPECT_EQ(r.completed, check.sent());
  EXPECT_EQ(r.round_qps.size(), check.sent() / 100);
}

TEST(ResponseCheckTest, SamplesOnlySendsAfterStartSampling) {
  StallingChannel channel(std::chrono::milliseconds(0));
  ResponseCheck check(9, 64);
  Session session;
  session.channel = &channel;
  session.next_request = [] { return PredictRequest{}; };
  session.check = &check;
  RunWarmup(&session, 16, 4, 8000);
  const std::uint64_t warm = check.sent();
  EXPECT_TRUE(check.samples().empty());
  check.StartSampling();
  RunWarmup(&session, 16, 4, 8000);
  ASSERT_EQ(check.samples().size(), 64u);
  std::uint64_t last_half = 0;
  for (const ResponseCheck::Sample& sample : check.samples()) {
    EXPECT_GE(sample.seq, warm);
    EXPECT_TRUE(sample.answered);
    last_half += sample.seq >= warm + 4000 ? 1 : 0;
  }
  // A reservoir, not the first 64 candidates: the second half of the
  // sampled sends holds about half of the sample.
  EXPECT_GT(last_half, 16u);
  EXPECT_LT(last_half, 48u);
}

// The audit sample of zipf_churn holds answers that came from the response
// cache and answers assembled from the sub-net memo, not only first
// touches.
TEST(ResponseCheckTest, ZipfChurnSampleCoversCacheAndMemoAnswers) {
  const WorkloadSpec& spec = *FindWorkload("zipf_churn");
  perfiface::serve::ServiceOptions options;
  options.num_workers = 2;
  perfiface::serve::PredictionService service(perfiface::InterfaceRegistry::Default(), options);
  RequestStream stream(spec, 4);
  ResponseCheck check(4, 256);
  InProcChannel channel(&service);
  Session session;
  session.channel = &channel;
  session.check = &check;
  std::uint64_t id = 0;
  session.next_request = [&] { return MakeQuery(stream.salt(), id++); };
  RunWarmup(&session, 16, 32, spec.distinct);
  const std::uint64_t warm = check.sent();
  check.StartSampling();
  session.explain = true;
  session.next_request = [&] { return stream.Next(); };
  RunWarmup(&session, 16, 32, 20000);
  ASSERT_EQ(check.failed(), 0u);
  ASSERT_EQ(check.samples().size(), 256u);
  int cache = 0;
  int memo = 0;
  for (const ResponseCheck::Sample& sample : check.samples()) {
    EXPECT_GE(sample.seq, warm);
    cache += sample.answer == Answer::kCache ? 1 : 0;
    memo += sample.answer == Answer::kPnetMemo ? 1 : 0;
  }
  EXPECT_GT(cache, 0);
  EXPECT_GT(memo, 0);
}

TEST(ResponseCheckTest, FlagsErrorsAndNonFiniteOrNegativeAnswers) {
  ResponseCheck check(1, 0);
  Completion ok;
  ok.status = perfiface::serve::PredictStatus::kOk;
  ok.value = 3;
  EXPECT_TRUE(check.OnComplete(ok));
  Completion bad = ok;
  bad.value = -1;
  EXPECT_FALSE(check.OnComplete(bad));
  bad.value = std::nan("");
  EXPECT_FALSE(check.OnComplete(bad));
  bad = ok;
  bad.throughput = INFINITY;
  EXPECT_FALSE(check.OnComplete(bad));
  bad = ok;
  bad.status = perfiface::serve::PredictStatus::kError;
  EXPECT_FALSE(check.OnComplete(bad));
  EXPECT_EQ(check.failed(), 4u);
  EXPECT_EQ(check.completed(), 5u);
}

}  // namespace
}  // namespace perfbench
