// Tests for the prediction service: correctness against direct evaluation,
// batch semantics, caching, deadlines, resource limits, and concurrency
// (this binary is the ThreadSanitizer target in CI).
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/accel/conv/conv_shadow.h"
#include "src/accel/jpeg/jpeg_shadow.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/core/program_interface.h"
#include "src/core/registry.h"
#include "src/obs/metrics_registry.h"
#include "src/perfscript/compile.h"
#include "src/perfscript/kv_object.h"
#include "src/perfscript/parser.h"
#include "src/perfscript/vm.h"
#include "src/petri/distill.h"
#include "src/petri/pnet_memo.h"
#include "src/serve/admission.h"
#include "src/serve/deadline_queue.h"
#include "src/serve/lru_cache.h"
#include "src/serve/metrics.h"
#include "src/serve/request.h"
#include "src/serve/service.h"

namespace perfiface::serve {
namespace {

PredictRequest JpegRequest(double orig_size, double compress_rate) {
  PredictRequest req;
  req.interface = "jpeg_decoder";
  req.function = "latency_jpeg_decode";
  req.attrs = {{"orig_size", orig_size}, {"compress_rate", compress_rate}};
  return req;
}

PredictRequest ProtoaccRequest(double num_fields, double num_writes, int children) {
  PredictRequest req;
  req.interface = "protoacc";
  req.function = "tput_protoacc_ser";
  req.attrs = {{"num_fields", num_fields}, {"num_writes", num_writes}};
  req.children = children;
  return req;
}

// A pnet-representation request. The attrs cover every shipped net's
// schema superset; names a schema does not declare are ignored, so one
// workload description works against all registry entries.
PredictRequest PnetRequest(const std::string& iface, const std::string& entry_place,
                           int tokens = 1) {
  PredictRequest req;
  req.interface = iface;
  req.representation = Representation::kPnet;
  req.entry_place = entry_place;
  req.tokens = tokens;
  req.attrs = {{"bits", 800.0}, {"blocks", 8.0}, {"words", 64.0}, {"num_fields", 6.0}};
  return req;
}

double DirectJpegLatency(double orig_size, double compress_rate) {
  ProgramInterface iface = InterfaceRegistry::Default().LoadProgram("jpeg_decoder");
  KvObject img;
  img.Set("orig_size", orig_size);
  img.Set("compress_rate", compress_rate);
  return iface.Eval("latency_jpeg_decode", img);
}

TEST(CanonicalCacheKey, AttrOrderInsensitive) {
  PredictRequest a = JpegRequest(65536, 0.2);
  PredictRequest b = a;
  std::swap(b.attrs[0], b.attrs[1]);
  EXPECT_EQ(CanonicalCacheKey(a, Representation::kProgram),
            CanonicalCacheKey(b, Representation::kProgram));
}

TEST(CanonicalCacheKey, DistinguishesWorkloads) {
  EXPECT_NE(CanonicalCacheKey(JpegRequest(65536, 0.2), Representation::kProgram),
            CanonicalCacheKey(JpegRequest(65537, 0.2), Representation::kProgram));
  EXPECT_NE(CanonicalCacheKey(JpegRequest(65536, 0.2), Representation::kProgram),
            CanonicalCacheKey(JpegRequest(65536, 0.2), Representation::kPnet));
  PredictRequest with_children = ProtoaccRequest(12, 9, 2);
  PredictRequest without = ProtoaccRequest(12, 9, 0);
  EXPECT_NE(CanonicalCacheKey(with_children, Representation::kProgram),
            CanonicalCacheKey(without, Representation::kProgram));
}

// Satellite: the entry-place spec is canonicalized — whitespace stripped,
// items sorted, default counts made explicit, duplicate places merged — so
// permuted but identical pnet queries share one cache entry.
TEST(CanonicalCacheKey, EntryPlaceOrderAndWhitespaceInsensitive) {
  const auto key = [](const std::string& entry_place) {
    return CanonicalCacheKey(PnetRequest("jpeg_decoder", entry_place), Representation::kPnet);
  };
  EXPECT_EQ(key("hdr_in:1,vld_in:8"), key("vld_in:8,hdr_in:1"));
  EXPECT_EQ(key("hdr_in:1,vld_in:8"), key(" hdr_in : 1 ,\tvld_in:8 "));
  // The same place listed twice injects the sum.
  EXPECT_EQ(key("hdr_in:1,vld_in:8"), key("hdr_in:1,vld_in:4,vld_in:4"));
}

TEST(CanonicalCacheKey, DefaultCountsAreMadeExplicit) {
  // "vld_in" with tokens=8 injects the same plan as an explicit "vld_in:8".
  PredictRequest implicit = PnetRequest("jpeg_decoder", "vld_in,hdr_in:1", /*tokens=*/8);
  PredictRequest explicit_count = PnetRequest("jpeg_decoder", "vld_in:8,hdr_in:1", /*tokens=*/1);
  EXPECT_EQ(CanonicalCacheKey(implicit, Representation::kPnet),
            CanonicalCacheKey(explicit_count, Representation::kPnet));
  // With an empty spec, `tokens` is the first-place count and must key.
  PredictRequest two = PnetRequest("jpeg_decoder", "", /*tokens=*/2);
  PredictRequest three = PnetRequest("jpeg_decoder", "", /*tokens=*/3);
  EXPECT_NE(CanonicalCacheKey(two, Representation::kPnet),
            CanonicalCacheKey(three, Representation::kPnet));
}

// An empty entry spec means "first declared place, `tokens` copies"; the
// spec ":N" names a place with an empty name and is invalid. Their keys
// must differ, or a cached first-place answer would be served for the
// invalid spec.
TEST(CanonicalCacheKey, EmptyEntrySpecDoesNotAliasAnEmptyPlaceName) {
  const PredictRequest first = PnetRequest("jpeg_decoder", "", 3);
  const PredictRequest empty_name = PnetRequest("jpeg_decoder", ":3");
  EXPECT_NE(CanonicalCacheKey(first, Representation::kPnet),
            CanonicalCacheKey(empty_name, Representation::kPnet));

  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 64;
  PredictionService service(InterfaceRegistry::Default(), options);
  ASSERT_TRUE(service.Predict(first).ok());
  for (int round = 0; round < 2; ++round) {
    const PredictResponse r = service.Predict(empty_name);
    EXPECT_EQ(r.status, PredictStatus::kNotFound) << round << ": " << r.error;
    EXPECT_FALSE(r.cache_hit) << round;
  }
  EXPECT_TRUE(service.Predict(first).cache_hit);
}

TEST(CanonicalCacheKey, DistinguishesInjectionPlans) {
  const auto key = [](const std::string& entry_place) {
    return CanonicalCacheKey(PnetRequest("jpeg_decoder", entry_place), Representation::kPnet);
  };
  EXPECT_NE(key("hdr_in:1,vld_in:8"), key("hdr_in:1,vld_in:9"));
  EXPECT_NE(key("hdr_in:1,vld_in:8"), key("hdr_in:2,vld_in:8"));
  EXPECT_NE(key("hdr_in:1,vld_in:8"), key("hdr_in:1"));
}

// Regression: counts past INT64_MAX used to go through strtol unchecked, so
// ERANGE clamped every overflowing spec to the same LLONG_MAX and two
// requests injecting different (absurd) counts aliased to one cache entry —
// one bogus prediction answered both. Overflowing specs must stay distinct
// (they are kept verbatim and rejected later, at evaluation).
TEST(CanonicalCacheKey, OverflowingCountsDoNotAlias) {
  const auto key = [](const std::string& entry_place) {
    return CanonicalCacheKey(PnetRequest("jpeg_decoder", entry_place), Representation::kPnet);
  };
  EXPECT_NE(key("vld_in:99999999999999999999"), key("vld_in:88888888888888888888"));
  // An overflowing count never collides with the value it used to clamp to.
  EXPECT_NE(key("vld_in:99999999999999999999"), key("vld_in:9223372036854775807"));
}

// Regression: merging duplicate places summed counts with a plain +=, so two
// near-LLONG_MAX items wrapped to a negative total in the canonical key. The
// merge must saturate at INT64_MAX instead.
TEST(CanonicalCacheKey, DuplicateMergeSaturatesInsteadOfWrapping) {
  const auto key = [](const std::string& entry_place) {
    return CanonicalCacheKey(PnetRequest("jpeg_decoder", entry_place), Representation::kPnet);
  };
  const std::string k =
      key("vld_in:9223372036854775807,vld_in:9223372036854775806");
  EXPECT_NE(k.find("9223372036854775807"), std::string::npos) << k;
  EXPECT_EQ(k.find('-'), std::string::npos) << k;
  // Saturation is idempotent: adding more maxed items changes nothing.
  EXPECT_EQ(k, key("vld_in:9223372036854775807,vld_in:9223372036854775807"));
}

TEST(ShardedLruCache, BasicHitMissEvict) {
  ShardedLruCache cache(/*capacity=*/4, /*num_shards=*/1);
  CachedPrediction out;
  EXPECT_FALSE(cache.Get("a", &out));
  cache.Put("a", {1.0, 0.0});
  ASSERT_TRUE(cache.Get("a", &out));
  EXPECT_EQ(out.value, 1.0);
  cache.Put("b", {2.0, 0.0});
  cache.Put("c", {3.0, 0.0});
  cache.Put("d", {4.0, 0.0});
  // Refresh "a": the least recently used entry is now "b", so inserting a
  // fifth entry evicts it.
  ASSERT_TRUE(cache.Get("a", &out));
  cache.Put("e", {5.0, 0.0});
  EXPECT_TRUE(cache.Get("a", &out));
  EXPECT_FALSE(cache.Get("b", &out));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(ShardedLruCache, DisabledCacheNeverHits) {
  ShardedLruCache cache(/*capacity=*/0);
  cache.Put("a", {1.0, 0.0});
  CachedPrediction out;
  EXPECT_FALSE(cache.Get("a", &out));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LatencyHistogram, PercentilesAreMonotone) {
  LatencyHistogram h;
  for (std::uint64_t ns = 1; ns < 100000; ns *= 3) {
    h.Record(ns);
  }
  EXPECT_GT(h.count(), 0u);
  EXPECT_LE(h.PercentileNs(50), h.PercentileNs(95));
  EXPECT_LE(h.PercentileNs(95), h.PercentileNs(99));
}

TEST(PredictionService, MatchesDirectEvaluation) {
  ServiceOptions options;
  options.num_workers = 2;
  PredictionService service(InterfaceRegistry::Default(), options);
  const PredictResponse resp = service.Predict(JpegRequest(65536, 0.2));
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_DOUBLE_EQ(resp.value, DirectJpegLatency(65536, 0.2));
}

TEST(PredictionService, BatchPreservesOrderAcrossInterfaces) {
  ServiceOptions options;
  options.num_workers = 4;
  options.batch_chunk = 2;  // force many chunks
  PredictionService service(InterfaceRegistry::Default(), options);

  std::vector<PredictRequest> requests;
  for (int i = 0; i < 40; ++i) {
    if (i % 2 == 0) {
      requests.push_back(JpegRequest(4096.0 * (i + 1), 0.15));
    } else {
      requests.push_back(ProtoaccRequest(8 + i, 6 + i, i % 4));
    }
  }
  const std::vector<PredictResponse> responses = service.PredictBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << i << ": " << responses[i].error;
    EXPECT_GT(responses[i].value, 0.0);
  }
  // Spot-check a jpeg slot against direct evaluation.
  EXPECT_DOUBLE_EQ(responses[0].value, DirectJpegLatency(4096, 0.15));
}

TEST(PredictionService, UnknownInterfaceAndFunction) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);

  PredictRequest bad_iface = JpegRequest(100, 0.5);
  bad_iface.interface = "warp_drive";
  EXPECT_EQ(service.Predict(bad_iface).status, PredictStatus::kNotFound);

  PredictRequest bad_fn = JpegRequest(100, 0.5);
  bad_fn.function = "latency_of_nothing";
  EXPECT_EQ(service.Predict(bad_fn).status, PredictStatus::kNotFound);

  // bitcoin_miner ships text only: no program, no pnet.
  PredictRequest text_only;
  text_only.interface = "bitcoin_miner";
  text_only.function = "latency";
  EXPECT_EQ(service.Predict(text_only).status, PredictStatus::kNotFound);
}

TEST(PredictionService, CacheHitSecondTime) {
  ServiceOptions options;
  options.num_workers = 2;
  PredictionService service(InterfaceRegistry::Default(), options);

  const PredictResponse first = service.Predict(JpegRequest(65536, 0.2));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.cache_hit);

  const PredictResponse second = service.Predict(JpegRequest(65536, 0.2));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_DOUBLE_EQ(second.value, first.value);
  EXPECT_GE(service.metrics().cache_hits(), 1u);

  // Same workload, permuted attribute order: still a hit.
  PredictRequest permuted = JpegRequest(65536, 0.2);
  std::swap(permuted.attrs[0], permuted.attrs[1]);
  EXPECT_TRUE(service.Predict(permuted).cache_hit);
}

TEST(PredictionService, CacheDisabled) {
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;
  PredictionService service(InterfaceRegistry::Default(), options);
  EXPECT_FALSE(service.Predict(JpegRequest(1024, 0.3)).cache_hit);
  EXPECT_FALSE(service.Predict(JpegRequest(1024, 0.3)).cache_hit);
  EXPECT_EQ(service.metrics().cache_hits(), 0u);
}

TEST(PredictionService, ExplicitStepBudgetExhaustsCleanly) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);

  PredictRequest req = ProtoaccRequest(32, 20, 8);
  req.max_steps = 10;  // far below what read_cost recursion needs
  const PredictResponse resp = service.Predict(req);
  EXPECT_EQ(resp.status, PredictStatus::kResourceExhausted);
  EXPECT_FALSE(resp.error.empty());

  // The same request with a sane budget succeeds — the worker survived.
  req.max_steps = 0;
  EXPECT_TRUE(service.Predict(req).ok());
}

TEST(PredictionService, DeadlineDerivedBudgetReportsDeadlineExceeded) {
  ServiceOptions options;
  options.num_workers = 1;
  options.steps_per_us = 1;  // 1 step per microsecond: any real work blows it
  PredictionService service(InterfaceRegistry::Default(), options);

  PredictRequest req = ProtoaccRequest(32, 20, 8);
  req.deadline_us = 5;
  const PredictResponse resp = service.Predict(req);
  EXPECT_EQ(resp.status, PredictStatus::kDeadlineExceeded);
  EXPECT_GE(service.metrics().deadline_exceeded(), 1u);
}

// Regression: the deadline→step-budget conversion multiplied remaining_us by
// steps_per_us in uint64 without an overflow check, so a huge deadline
// wrapped to a tiny budget and the most patient caller was the first one
// killed with RESOURCE_EXHAUSTED.
TEST(PredictionService, DeadlineBudgetStepsSaturatesInsteadOfWrapping) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  // Pre-fix, INT64_MAX * 200 wrapped to a small number; now it saturates.
  EXPECT_EQ(PredictionService::DeadlineBudgetSteps(INT64_MAX, 200), kMax);
  EXPECT_EQ(PredictionService::DeadlineBudgetSteps(INT64_MAX, 3), kMax);
  // Non-overflowing products stay exact — including the largest one that
  // fits: INT64_MAX * 2 is 2^64 - 2, one short of the saturation value.
  EXPECT_EQ(PredictionService::DeadlineBudgetSteps(INT64_MAX, 2), kMax - 1);
  EXPECT_EQ(PredictionService::DeadlineBudgetSteps(5, 200), 200u * 5u);
  EXPECT_EQ(PredictionService::DeadlineBudgetSteps(1, 1), 1u);
  // Expired or degenerate inputs yield a zero budget, never a wrap.
  EXPECT_EQ(PredictionService::DeadlineBudgetSteps(0, 200), 0u);
  EXPECT_EQ(PredictionService::DeadlineBudgetSteps(-7, 200), 0u);
  EXPECT_EQ(PredictionService::DeadlineBudgetSteps(INT64_MAX, 0), 0u);
}

TEST(PredictionService, FarFutureDeadlineIsNotSpuriouslyExhausted) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);
  PredictRequest req = ProtoaccRequest(32, 20, 8);
  req.deadline_us = INT64_MAX;  // effectively "no deadline"
  const PredictResponse resp = service.Predict(req);
  EXPECT_TRUE(resp.ok()) << resp.error;
}

// Regression companion to OverflowingCountsDoNotAlias: the evaluator, not
// the canonicalizer, is where an overflowing or absurd token count must be
// rejected — as an error, not a clamp.
TEST(PredictionService, PnetRejectsOverflowingTokenCounts) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);
  PredictRequest req = PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:99999999999999999999");
  const PredictResponse resp = service.Predict(req);
  EXPECT_EQ(resp.status, PredictStatus::kError);
  EXPECT_NE(resp.error.find("token count"), std::string::npos) << resp.error;
  // Merely large-but-parseable counts past INT_MAX are rejected too.
  req.entry_place = "hdr_in:1,vld_in:4294967296";
  const PredictResponse big = service.Predict(req);
  EXPECT_EQ(big.status, PredictStatus::kError);
  EXPECT_NE(big.error.find("token count"), std::string::npos) << big.error;
}

TEST(PredictionService, PnetQueryQuiescesAndPredicts) {
  ServiceOptions options;
  options.num_workers = 2;
  PredictionService service(InterfaceRegistry::Default(), options);

  PredictRequest req;
  req.interface = "jpeg_decoder";
  req.representation = Representation::kPnet;
  // The JPEG net gates the vld stage on the header token, so a realistic
  // decode injects both: one header plus eight stripes.
  req.entry_place = "hdr_in:1,vld_in:8";
  req.attrs = {{"bits", 800.0}, {"blocks", 8.0}};
  const PredictResponse resp = service.Predict(req);
  ASSERT_TRUE(resp.ok()) << resp.error;
  // 8 stripes through the vld/idct/writer stages: latency dominated by the
  // writer at blocks*4*273 cycles per stripe.
  EXPECT_GT(resp.value, 8.0 * 8 * 4 * 273 * 0.9);
  EXPECT_GT(resp.throughput, 0.0);

  PredictRequest bad_place = req;
  bad_place.entry_place = "no_such_place";
  EXPECT_EQ(service.Predict(bad_place).status, PredictStatus::kNotFound);
}

TEST(PredictionService, RejectedAfterShutdown) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);
  service.Shutdown();
  const PredictResponse resp = service.Predict(JpegRequest(1024, 0.2));
  EXPECT_EQ(resp.status, PredictStatus::kRejected);
  EXPECT_GE(service.metrics().rejected(), 1u);
}

// Regression: requests resolved before the cache lookup (rejected at
// submission, unknown interface) used to be recorded as cache misses,
// inflating the miss counter and skewing the hit rate. They must report
// CacheOutcome::kNotConsulted and leave both cache counters alone.
TEST(PredictionService, RejectionsAndLookupFailuresDoNotSkewCacheCounters) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);

  PredictRequest unknown;
  unknown.interface = "no_such_accelerator";
  unknown.function = "latency";
  EXPECT_EQ(service.Predict(unknown).status, PredictStatus::kNotFound);
  EXPECT_EQ(service.metrics().cache_misses(), 0u);
  EXPECT_EQ(service.metrics().cache_hits(), 0u);

  // A genuine evaluation still counts as a miss.
  EXPECT_FALSE(service.Predict(JpegRequest(1024, 0.2)).cache_hit);
  EXPECT_EQ(service.metrics().cache_misses(), 1u);

  service.Shutdown();
  EXPECT_EQ(service.Predict(JpegRequest(2048, 0.2)).status, PredictStatus::kRejected);
  EXPECT_EQ(service.metrics().cache_misses(), 1u);
  EXPECT_EQ(service.metrics().cache_hits(), 0u);
  EXPECT_GE(service.metrics().rejected(), 1u);
}

TEST(PredictionService, StatsPrometheusUnifiesServiceAndLayerFamilies) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);
  ASSERT_TRUE(service.Predict(JpegRequest(2048, 0.25)).ok());
  const std::string prom = service.StatsPrometheus();
  // Families owned by the service (via its registered collector)...
  EXPECT_NE(prom.find("perfiface_serve_requests_total"), std::string::npos);
  EXPECT_NE(prom.find("interface=\"jpeg_decoder\""), std::string::npos);
  // ...and process-wide counters bumped by the layer below it (program
  // queries run on the bytecode VM).
  EXPECT_NE(prom.find("perfiface_psc_vm_calls_total"), std::string::npos);
  EXPECT_NE(prom.find("perfiface_psc_vm_steps_total"), std::string::npos);
}

TEST(PredictionService, StatsDumpsMentionInterfaces) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);
  (void)service.Predict(JpegRequest(2048, 0.25));
  const std::string text = service.StatsText();
  EXPECT_NE(text.find("jpeg_decoder"), std::string::npos);
  const std::string json = service.StatsJson();
  EXPECT_NE(json.find("\"requests\":"), std::string::npos);
  EXPECT_NE(json.find("jpeg_decoder"), std::string::npos);
}

// The evaluator must accept exactly the entry-place specs the cache key
// canonicalizes: otherwise "hdr_in : 1" answers from a warm cache but
// errors on a cold one.
TEST(PredictionService, EntryPlaceWhitespaceAndDuplicatesEvaluateIdentically) {
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;  // force every variant down the cold path
  PredictionService service(InterfaceRegistry::Default(), options);

  const PredictResponse tight =
      service.Predict(PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:8"));
  ASSERT_TRUE(tight.ok()) << tight.error;
  const PredictResponse spaced =
      service.Predict(PnetRequest("jpeg_decoder", " hdr_in : 1 ,\tvld_in:8 "));
  ASSERT_TRUE(spaced.ok()) << spaced.error;
  EXPECT_DOUBLE_EQ(spaced.value, tight.value);
  const PredictResponse split =
      service.Predict(PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:4,vld_in:4"));
  ASSERT_TRUE(split.ok()) << split.error;
  EXPECT_DOUBLE_EQ(split.value, tight.value);
}

TEST(PredictionService, RepeatedLookupsHitHotTier) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);
  ASSERT_TRUE(service.Predict(JpegRequest(1024, 0.2)).ok());
  ASSERT_TRUE(service.Predict(JpegRequest(2048, 0.2)).ok());
  // First lookup populates the direct-mapped slot (cold), the repeat is
  // answered from it (hot).
  EXPECT_GE(service.metrics().lookup_hot(), 1u);
  EXPECT_GE(service.metrics().lookup_cold(), 1u);
}

// --- sub-net memoization ---

// Acceptance: memoized and unmemoized evaluation must produce identical
// predictions for every registry entry that ships a pnet. The response
// cache is disabled on both services so every repeat actually exercises
// the memo (or simulation) path.
TEST(PredictionServiceMemo, MemoizedMatchesUnmemoizedAcrossRegistry) {
  PnetMemoTable::Global().Clear();
  ServiceOptions on;
  on.num_workers = 2;
  on.cache_capacity = 0;
  ServiceOptions off = on;
  off.enable_pnet_memo = false;
  PredictionService memo_on(InterfaceRegistry::Default(), on);
  PredictionService memo_off(InterfaceRegistry::Default(), off);

  int ok_predictions = 0;
  for (const std::string& name : memo_on.InterfaceNames()) {
    for (int tokens : {1, 4}) {
      const PredictRequest req = PnetRequest(name, "", tokens);
      const PredictResponse base = memo_off.Predict(req);
      // Cold (memo miss, inserts) then warm (memo hit): both must agree
      // with the from-scratch answer, down to the status.
      const PredictResponse cold = memo_on.Predict(req);
      const PredictResponse warm = memo_on.Predict(req);
      EXPECT_EQ(cold.status, base.status) << name;
      EXPECT_EQ(warm.status, base.status) << name;
      if (base.ok()) {
        ++ok_predictions;
        EXPECT_DOUBLE_EQ(cold.value, base.value) << name;
        EXPECT_DOUBLE_EQ(warm.value, base.value) << name;
        EXPECT_DOUBLE_EQ(cold.throughput, base.throughput) << name;
        EXPECT_DOUBLE_EQ(warm.throughput, base.throughput) << name;
      }
    }
  }
  EXPECT_GT(ok_predictions, 0);  // the sweep must not be vacuous

  // The realistic multi-place JPEG injection, and proof the warm repeat
  // actually came from the memo table.
  const PredictRequest jpeg = PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:8");
  const std::uint64_t hits_before = PnetMemoTable::Global().hits();
  const PredictResponse base = memo_off.Predict(jpeg);
  const PredictResponse cold = memo_on.Predict(jpeg);
  const PredictResponse warm = memo_on.Predict(jpeg);
  ASSERT_TRUE(base.ok()) << base.error;
  EXPECT_DOUBLE_EQ(cold.value, base.value);
  EXPECT_DOUBLE_EQ(warm.value, base.value);
  EXPECT_GT(PnetMemoTable::Global().hits(), hits_before);
}

// A memo hit must never hide a budget exhaustion the simulation would
// have reported: entries remember their firing cost, and Lookup rejects
// when that cost does not fit the request's remaining budget.
TEST(PredictionServiceMemo, MemoHitNeverMasksFiringBudgetExhaustion) {
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;
  PredictionService service(InterfaceRegistry::Default(), options);

  PredictRequest req = PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:8");
  ASSERT_TRUE(service.Predict(req).ok());  // warms the memo with a quiesced run

  req.max_steps = 2;  // far below what the decode fires
  EXPECT_EQ(service.Predict(req).status, PredictStatus::kResourceExhausted);

  // And with the budget restored the memo answers again.
  req.max_steps = 0;
  EXPECT_TRUE(service.Predict(req).ok());
}

// Acceptance: the memo and async-API families are visible through one
// Prometheus scrape of the service (the --metrics endpoint's payload).
TEST(PredictionServiceMemo, MemoCountersVisibleInPrometheusScrape) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);
  ASSERT_TRUE(service.Predict(PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:8")).ok());
  const std::string prom = service.StatsPrometheus();
  EXPECT_NE(prom.find("perfiface_pnet_memo_hits_total"), std::string::npos);
  EXPECT_NE(prom.find("perfiface_pnet_memo_misses_total"), std::string::npos);
  EXPECT_NE(prom.find("perfiface_serve_inflight_batches"), std::string::npos);
  EXPECT_NE(prom.find("perfiface_serve_registry_lookup_hot_total"), std::string::npos);
}

// --- async batch API ---

TEST(PredictionServiceAsync, SubmitBatchMatchesPredictBatch) {
  ServiceOptions options;
  options.num_workers = 2;
  options.batch_chunk = 4;
  PredictionService service(InterfaceRegistry::Default(), options);

  std::vector<PredictRequest> requests;
  for (int i = 0; i < 20; ++i) {
    requests.push_back(i % 2 == 0 ? JpegRequest(1024.0 * (i + 1), 0.2)
                                  : ProtoaccRequest(8 + i, 5 + i, i % 3));
  }
  const std::vector<PredictResponse> sync = service.PredictBatch(requests);
  PredictionService::BatchHandle handle = service.SubmitBatch(requests);
  ASSERT_TRUE(handle.valid());
  EXPECT_EQ(handle.size(), requests.size());
  const std::vector<PredictResponse>& async = handle.Responses();
  ASSERT_EQ(async.size(), sync.size());
  for (std::size_t i = 0; i < sync.size(); ++i) {
    EXPECT_EQ(async[i].status, sync[i].status) << i;
    EXPECT_DOUBLE_EQ(async[i].value, sync[i].value) << i;
  }
  EXPECT_TRUE(handle.done());
}

TEST(PredictionServiceAsync, StreamsPerRequestCallbacks) {
  ServiceOptions options;
  options.num_workers = 2;
  options.batch_chunk = 3;  // several chunks per batch
  PredictionService service(InterfaceRegistry::Default(), options);

  constexpr std::size_t kN = 17;
  std::vector<PredictRequest> requests;
  for (std::size_t i = 0; i < kN; ++i) {
    requests.push_back(JpegRequest(512.0 * (i + 1), 0.25));
  }
  std::mutex mu;
  std::vector<int> seen(kN, 0);
  std::vector<double> streamed(kN, 0.0);
  PredictionService::BatchHandle handle = service.SubmitBatch(
      requests, [&](std::size_t index, const PredictResponse& response) {
        std::lock_guard<std::mutex> lock(mu);
        ASSERT_LT(index, kN);
        ++seen[index];
        streamed[index] = response.value;
      });
  // Wait() returning guarantees every callback has also returned.
  handle.Wait();
  const std::vector<PredictResponse>& responses = handle.Responses();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(seen[i], 1) << i;
    ASSERT_TRUE(responses[i].ok()) << responses[i].error;
    EXPECT_DOUBLE_EQ(streamed[i], responses[i].value) << i;
  }
}

// Acceptance: one client thread sustains >= 4 batches in flight. The first
// batch's completion callback blocks the only worker, so everything
// submitted meanwhile is provably in flight together; the gauge proves it.
TEST(PredictionServiceAsync, SingleClientSustainsManyInflightBatches) {
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;
  PredictionService service(InterfaceRegistry::Default(), options);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<PredictionService::BatchHandle> handles;
  handles.push_back(service.SubmitBatch(
      {JpegRequest(1024, 0.2)}, [&](std::size_t, const PredictResponse&) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return release; });
      }));
  for (int b = 0; b < 4; ++b) {
    handles.push_back(service.SubmitBatch(
        {JpegRequest(2048.0 * (b + 1), 0.2), ProtoaccRequest(8, 5, 1)}));
  }
  EXPECT_GE(service.metrics().inflight_batches(), 5);
  EXPECT_FALSE(handles.back().done());
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (PredictionService::BatchHandle& handle : handles) {
    handle.Wait();
    EXPECT_TRUE(handle.done());
    for (const PredictResponse& r : handle.Responses()) {
      EXPECT_TRUE(r.ok()) << r.error;
    }
  }
  EXPECT_EQ(service.metrics().inflight_batches(), 0);
}

// Dropping every handle copy does not cancel the batch: the workers keep
// the state alive and the callbacks still stream.
TEST(PredictionServiceAsync, FireAndForgetRunsToCompletion) {
  ServiceOptions options;
  options.num_workers = 2;
  PredictionService service(InterfaceRegistry::Default(), options);

  constexpr int kN = 12;
  std::atomic<int> completed{0};
  std::atomic<int> failures{0};
  {
    std::vector<PredictRequest> requests;
    for (int i = 0; i < kN; ++i) {
      requests.push_back(JpegRequest(4096.0 * (i + 1), 0.2));
    }
    service.SubmitBatch(std::move(requests),
                        [&](std::size_t, const PredictResponse& response) {
                          if (!response.ok()) {
                            failures.fetch_add(1);
                          }
                          completed.fetch_add(1);
                        });
    // The handle temporary is gone here; the batch is not.
  }
  for (int spins = 0; spins < 20000 && completed.load() < kN; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(completed.load(), kN);
  EXPECT_EQ(failures.load(), 0);
}

TEST(PredictionServiceAsync, SubmitAfterShutdownResolvesImmediately) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);
  service.Shutdown();

  std::atomic<int> streamed{0};
  PredictionService::BatchHandle handle = service.SubmitBatch(
      {JpegRequest(1024, 0.2), JpegRequest(2048, 0.2), JpegRequest(4096, 0.2)},
      [&](std::size_t, const PredictResponse& response) {
        EXPECT_EQ(response.status, PredictStatus::kRejected);
        streamed.fetch_add(1);
      });
  // Rejection resolves (and streams) from the submitting thread.
  EXPECT_TRUE(handle.done());
  EXPECT_EQ(streamed.load(), 3);
  for (const PredictResponse& r : handle.Responses()) {
    EXPECT_EQ(r.status, PredictStatus::kRejected);
  }
  EXPECT_EQ(service.metrics().inflight_batches(), 0);
}

TEST(PredictionServiceAsync, EmptyBatchAndInvalidHandle) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);

  PredictionService::BatchHandle empty = service.SubmitBatch({});
  EXPECT_TRUE(empty.valid());
  EXPECT_TRUE(empty.done());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.Responses().empty());

  PredictionService::BatchHandle invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_TRUE(invalid.done());
  invalid.Wait();  // must not block
  EXPECT_TRUE(invalid.WaitFor(std::chrono::microseconds(1)));
  EXPECT_TRUE(invalid.Responses().empty());
}

// --- concurrency (the TSan-interesting part) ---

TEST(PredictionServiceConcurrency, ParallelBatchesFromManyClients) {
  ServiceOptions options;
  options.num_workers = 4;
  options.batch_chunk = 8;
  PredictionService service(InterfaceRegistry::Default(), options);

  constexpr int kClients = 6;
  constexpr int kBatch = 64;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, &failures, c] {
      std::vector<PredictRequest> requests;
      requests.reserve(kBatch);
      for (int i = 0; i < kBatch; ++i) {
        // Overlapping key sets across clients: exercises concurrent cache
        // insert/refresh of the same entries.
        if ((c + i) % 3 == 0) {
          requests.push_back(ProtoaccRequest(8 + i % 7, 5 + i % 5, i % 3));
        } else {
          requests.push_back(JpegRequest(1024.0 * (1 + i % 16), 0.1 + 0.01 * (i % 8)));
        }
      }
      const std::vector<PredictResponse> responses = service.PredictBatch(requests);
      for (const PredictResponse& r : responses) {
        if (!r.ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.metrics().total_requests(),
            static_cast<std::uint64_t>(kClients * kBatch));
}

TEST(PredictionServiceConcurrency, CacheConsistencyUnderContention) {
  ServiceOptions options;
  options.num_workers = 4;
  options.cache_capacity = 64;
  PredictionService service(InterfaceRegistry::Default(), options);

  const double expected = DirectJpegLatency(65536, 0.2);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&service, &mismatches, expected] {
      for (int i = 0; i < 50; ++i) {
        const PredictResponse r = service.Predict(JpegRequest(65536, 0.2));
        if (!r.ok() || r.value != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(PredictionServiceConcurrency, DeadlineExpiryUnderLoad) {
  ServiceOptions options;
  options.num_workers = 2;
  options.steps_per_us = 1;
  PredictionService service(InterfaceRegistry::Default(), options);

  std::vector<PredictRequest> requests;
  for (int i = 0; i < 32; ++i) {
    PredictRequest req = ProtoaccRequest(32, 20, 8);
    req.deadline_us = (i % 2 == 0) ? 1 : 0;  // half tightly-deadlined
    requests.push_back(std::move(req));
  }
  const std::vector<PredictResponse> responses = service.PredictBatch(requests);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(responses[i].status, PredictStatus::kDeadlineExceeded) << i;
    } else {
      EXPECT_TRUE(responses[i].ok()) << i << ": " << responses[i].error;
    }
  }
}

// Async submissions from many clients, all funneling pnet work through
// the process-wide memo table (response cache off so every request takes
// the memo path): concurrent Key/Lookup/Insert on overlapping keys plus
// the async completion machinery, under TSan in CI.
TEST(PredictionServiceConcurrency, AsyncBatchesShareTheMemoTable) {
  PnetMemoTable::Global().Clear();
  ServiceOptions options;
  options.num_workers = 4;
  options.cache_capacity = 0;
  options.batch_chunk = 4;
  PredictionService service(InterfaceRegistry::Default(), options);

  const PredictResponse expected = service.Predict(PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:8"));
  ASSERT_TRUE(expected.ok()) << expected.error;

  constexpr int kClients = 4;
  constexpr int kBatches = 3;
  constexpr int kBatch = 8;
  std::atomic<int> callbacks{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, &callbacks, &mismatches, expected] {
      std::vector<PredictionService::BatchHandle> handles;
      for (int b = 0; b < kBatches; ++b) {
        std::vector<PredictRequest> requests;
        for (int i = 0; i < kBatch; ++i) {
          // Even slots repeat one workload across every client (contended
          // memo hits of the same key); odd slots cycle a few variants
          // (interleaved inserts).
          PredictRequest req = PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:8");
          if (i % 2 == 1) {
            req.attrs[1].second = 1.0 + i % 4;  // blocks
          }
          requests.push_back(std::move(req));
        }
        handles.push_back(service.SubmitBatch(
            std::move(requests),
            [&callbacks, &mismatches, expected](std::size_t index,
                                                const PredictResponse& response) {
              callbacks.fetch_add(1);
              if (!response.ok() ||
                  (index % 2 == 0 && response.value != expected.value)) {
                mismatches.fetch_add(1);
              }
            }));
      }
      for (PredictionService::BatchHandle& handle : handles) {
        handle.Wait();
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(callbacks.load(), kClients * kBatches * kBatch);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(PnetMemoTable::Global().hits(), 0u);
  EXPECT_EQ(service.metrics().inflight_batches(), 0);
}

// Satellite: multi-threaded interpreter resource exhaustion. Each thread
// owns its interpreter; the parsed program and the workload object are
// A conv latency query in the shadow backend's vocabulary: the 11 workload
// attrs fully determine the layer + tile the simulator replays.
PredictRequest ConvRequest(double height, double width, double channels, double filters) {
  PredictRequest req;
  req.interface = "conv";
  req.function = "latency_conv";
  req.attrs = {{"height", height},   {"width", width}, {"channels", channels},
               {"filters", filters}, {"kernel_h", 3},  {"kernel_w", 3},
               {"stride", 1},        {"pad", 1},       {"tile_h", 4},
               {"tile_w", width},    {"tile_k", 4}};
  return req;
}

// The sampled set must depend only on (key set, seed, rate) — never on
// worker interleaving — or two fleets with the same config would validate
// different traffic and their drift histograms would not be comparable.
TEST(ShadowValidation, SamplerIsDeterministicAcrossServiceInstances) {
  std::mutex mu;
  std::vector<std::set<std::string>> sampled(3);
  const auto run_instance = [&](std::size_t instance, std::uint64_t seed) {
    ShadowBackendRegistry::Global().Register(
        "jpeg_decoder",
        [&mu, &sampled, instance](const PredictRequest& req, double* truth, std::string*) {
          std::lock_guard<std::mutex> lock(mu);
          sampled[instance].insert(CanonicalCacheKey(req, Representation::kProgram));
          *truth = 1.0;
          return true;
        });
    ServiceOptions options;
    options.num_workers = 4;
    options.cache_capacity = 0;
    options.shadow_sample_every = 4;
    options.shadow_seed = seed;
    PredictionService service(InterfaceRegistry::Default(), options);
    std::vector<PredictRequest> batch;
    for (int i = 0; i < 256; ++i) {
      batch.push_back(JpegRequest(1024 + 64 * i, 0.2));
    }
    for (const PredictResponse& r : service.PredictBatch(batch)) {
      ASSERT_TRUE(r.ok()) << r.error;
    }
  };
  run_instance(0, 99);
  run_instance(1, 99);
  run_instance(2, 7);
  // The recorder captures locals; leave a self-contained stub behind so no
  // later shadow-enabled service can call into a dangling closure.
  ShadowBackendRegistry::Global().Register(
      "jpeg_decoder", [](const PredictRequest&, double*, std::string* error) {
        *error = "test stub";
        return false;
      });
  EXPECT_FALSE(sampled[0].empty());
  EXPECT_LT(sampled[0].size(), 256u);  // 1-in-4 sampling, not 1-in-1
  EXPECT_EQ(sampled[0], sampled[1]);   // same seed -> same sampled set
  EXPECT_NE(sampled[0], sampled[2]);   // different seed -> different set
}

// The acceptance check for drift detection: a deliberately miscalibrated
// registry must light up perfiface_shadow_violations_total, while the
// shipped calibration — max ~7.7% program error vs the sim — stays under
// the 15% threshold. The perturbation has to actually move the
// prediction: step_time is max(iload, mac, store) and these shapes are
// MAC-bound (~2310 cycles/step vs ~244 for iload at burst_lat=52), so a
// mild burst_lat bump hides under the max. burst_lat=1500 makes the DMA
// leg the bottleneck (~6000 cycles/step), a >2x shift vs the sim.
TEST(ShadowValidation, ForcedDriftRaisesViolationsCalibratedRegistryDoesNot) {
  conv::RegisterConvShadowBackend();
  ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity = 0;
  options.shadow_sample_every = 1;  // validate every evaluated prediction
  options.shadow_drift_threshold = 0.15;

  std::vector<PredictRequest> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(ConvRequest(8 + i, 8 + i, 8, 8));
  }

  std::uint64_t calibrated_runs = 0;
  {
    PredictionService service(InterfaceRegistry::Default(), options);
    for (const PredictResponse& r : service.PredictBatch(batch)) {
      ASSERT_TRUE(r.ok()) << r.error;
    }
    for (std::size_t i = 0; i < service.InterfaceInfos().size(); ++i) {
      calibrated_runs += service.shadow().runs(i);
    }
    EXPECT_EQ(service.shadow().total_violations(), 0u);
  }
  EXPECT_EQ(calibrated_runs, batch.size());

  {
    const InterfaceRegistry drifted =
        InterfaceRegistry::Default().WithConstant("conv", "burst_lat", 1500.0);
    PredictionService service(drifted, options);
    for (const PredictResponse& r : service.PredictBatch(batch)) {
      ASSERT_TRUE(r.ok()) << r.error;
    }
    EXPECT_GT(service.shadow().total_violations(), 0u);
    const std::string scrape = service.StatsPrometheus();
    EXPECT_NE(scrape.find("perfiface_shadow_violations_total"), std::string::npos);
    EXPECT_NE(scrape.find("perfiface_shadow_error_abs_bucket"), std::string::npos);
  }
}

TEST(PredictionServiceExplain, BreakdownCoversRepresentationCacheAndTiming) {
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 64;
  PredictionService service(InterfaceRegistry::Default(), options);

  PredictRequest req = JpegRequest(65536, 0.2);
  req.explain = true;
  const PredictResponse miss = service.Predict(req);
  ASSERT_TRUE(miss.ok()) << miss.error;
  EXPECT_FALSE(miss.trace_id.empty());
  ASSERT_TRUE(miss.explain.filled);
  EXPECT_EQ(miss.explain.representation, "psc-vm");
  EXPECT_EQ(miss.explain.cache, "miss");
  EXPECT_GT(miss.explain.eval_ns, 0u);
  EXPECT_GT(miss.explain.steps, 0u);
  EXPECT_FALSE(miss.explain.shadowed);

  // Same workload again: explain/trace_id are excluded from the cache key,
  // so this hits, and the breakdown says so.
  const PredictResponse hit = service.Predict(req);
  ASSERT_TRUE(hit.explain.filled);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.explain.cache, "hit");
  EXPECT_EQ(hit.explain.representation, "cache");

  // Explain is strictly opt-in.
  req.explain = false;
  EXPECT_FALSE(service.Predict(req).explain.filled);

  // A client-supplied trace id echoes back verbatim; generated ids are
  // unique per response.
  req.trace_id = "client-supplied-id";
  EXPECT_EQ(service.Predict(req).trace_id, "client-supplied-id");
  EXPECT_NE(GenerateTraceId(), GenerateTraceId());
}

TEST(PredictionServiceExplain, PnetMemoRepresentationProgression) {
  PnetMemoTable::Global().Clear();
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;  // no response cache: the second query re-evaluates
  PredictionService service(InterfaceRegistry::Default(), options);

  PredictRequest req = PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:8");
  req.explain = true;
  const PredictResponse first = service.Predict(req);
  ASSERT_TRUE(first.ok()) << first.error;
  ASSERT_TRUE(first.explain.filled);
  EXPECT_EQ(first.explain.representation, "pnet");
  EXPECT_GT(first.explain.memo_components, 0u);

  const PredictResponse second = service.Predict(req);
  ASSERT_TRUE(second.explain.filled);
  EXPECT_EQ(second.explain.representation, "pnet-memo");
  EXPECT_EQ(second.explain.memo_hits, second.explain.memo_components);
  EXPECT_EQ(second.value, first.value);
}

TEST(PredictionService, StatuszJsonCoversBuildOptionsAndInterfaces) {
  ServiceOptions options;
  options.num_workers = 2;
  PredictionService service(InterfaceRegistry::Default(), options);
  ASSERT_TRUE(service.Predict(JpegRequest(65536, 0.2)).ok());
  const std::string status = service.StatuszJson();
  for (const char* needle :
       {"\"uptime_s\"", "\"build\"", "\"version\"", "\"options\"", "\"interfaces\"",
        "\"jpeg_decoder\"", "\"conv\"", "\"shadow\"", "\"qps\"", "\"p99_us\"",
        "\"pnet_memo\"", "\"evictions\"", "\"derived_store\""}) {
    EXPECT_NE(status.find(needle), std::string::npos) << needle;
  }
}

// --- derived closed-form tier (docs/serving.md "Unified expression IR") ---

// A jpeg stripe query: one header token plus `plan`'s stripes, each
// carrying `bits` coded bits over 8 blocks.
PredictRequest JpegStripeRequest(double bits, const std::string& plan = "hdr_in:1,vld_in:8") {
  PredictRequest req;
  req.interface = "jpeg_decoder";
  req.representation = Representation::kPnet;
  req.entry_place = plan;
  req.attrs = {{"bits", bits}, {"blocks", 8.0}};
  return req;
}

// The pnet ladder is exact memo -> derived -> simulation, and every rung
// is exact: over seeded random jpeg traffic a derived-on service answers
// bit-identically to one that simulates every query from scratch. Each
// injection plan is seeded at bits=1000, blocks=8; distillation probes
// scale up from there, so one plan's traffic stays inside the probed hull
// (served derived) and the other's stays below it (refused, simulated).
TEST(PredictionServiceDerived, ServesBitIdenticalToSimulationInAndOutOfHull) {
  PnetMemoTable::Global().Clear();
  DerivedStore::Global().Clear();
  ServiceOptions strict;
  strict.num_workers = 1;
  strict.cache_capacity = 0;
  strict.enable_pnet_memo = false;  // simulates every query from scratch
  ServiceOptions derived = strict;
  derived.enable_pnet_memo = true;
  derived.enable_derived = true;
  PredictionService sim_svc(InterfaceRegistry::Default(), strict);
  PredictionService derived_svc(InterfaceRegistry::Default(), derived);

  const std::string in_hull = "hdr_in:1,vld_in:8";
  const std::string out_of_hull = "hdr_in:1,vld_in:9";
  for (const std::string& plan : {in_hull, out_of_hull}) {
    PredictRequest seed = JpegStripeRequest(1000.0, plan);
    const PredictResponse base = sim_svc.Predict(seed);
    const PredictResponse got = derived_svc.Predict(seed);
    ASSERT_TRUE(base.ok() && got.ok()) << base.error << got.error;
    EXPECT_EQ(got.value, base.value) << plan;
  }

  SplitMix64 rng(0xd371);
  for (int i = 0; i < 300; ++i) {
    const bool inside = i % 2 == 0;
    PredictRequest req =
        inside ? JpegStripeRequest(1000.0 + 1000.0 * rng.NextDouble(), in_hull)
               : JpegStripeRequest(100.0 + 800.0 * rng.NextDouble(), out_of_hull);
    req.attrs[1].second = static_cast<double>(8 + rng.NextBelow(9));  // blocks in [8, 16]
    req.explain = true;
    const PredictResponse base = sim_svc.Predict(req);
    const PredictResponse got = derived_svc.Predict(req);
    ASSERT_TRUE(base.ok() && got.ok()) << i << ": " << base.error << got.error;
    EXPECT_EQ(got.value, base.value) << i;
    EXPECT_EQ(got.throughput, base.throughput) << i;
    ASSERT_TRUE(got.explain.filled);
    if (inside) {
      EXPECT_EQ(got.explain.representation, "pnet-derived") << i;
      EXPECT_GT(got.explain.derived_hits, 0u) << i;
    } else {
      EXPECT_EQ(got.explain.representation, "pnet") << i;
      EXPECT_EQ(got.explain.derived_hits, 0u) << i;
    }
  }
}

// --- injected-token cap (kMaxInjectedTokens) ---

// One token over the cap answers ERROR before anything is injected,
// whether the count arrives through `tokens` (empty spec) or through the
// entry spec, duplicates merged.
TEST(PredictionService, OverCapInjectionPlansAnswerError) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);
  const int over = static_cast<int>(kMaxInjectedTokens) + 1;

  const PredictResponse by_tokens = service.Predict(PnetRequest("jpeg_decoder", "", over));
  EXPECT_EQ(by_tokens.status, PredictStatus::kError);
  EXPECT_NE(by_tokens.error.find("cap"), std::string::npos) << by_tokens.error;

  const PredictResponse by_spec = service.Predict(
      PnetRequest("jpeg_decoder", StrFormat("hdr_in:1,vld_in:%d", over - 1)));
  EXPECT_EQ(by_spec.status, PredictStatus::kError);
  EXPECT_NE(by_spec.error.find("cap"), std::string::npos) << by_spec.error;

  const PredictResponse merged = service.Predict(
      PnetRequest("jpeg_decoder", StrFormat("vld_in:%d,vld_in:1,hdr_in:1", over - 2)));
  EXPECT_EQ(merged.status, PredictStatus::kError);
  EXPECT_NE(merged.error.find("cap"), std::string::npos) << merged.error;

  // Exactly at the cap is admitted: a tiny step budget stops the run
  // right after injection, so the status is the budget's, not the cap's.
  PredictRequest at_cap =
      PnetRequest("jpeg_decoder", StrFormat("hdr_in:1,vld_in:%d", over - 2));
  at_cap.max_steps = 4;
  EXPECT_EQ(service.Predict(at_cap).status, PredictStatus::kResourceExhausted);
}

// Two INT_MAX items total about 4.3e9 tokens: the sum neither overflows
// nor reaches the simulator. Kept apart from the test above so that one
// can be run against a build without the cap; this one would try to
// inject every token there.
TEST(PredictionService, IntMaxEntryCountsAnswerErrorWithoutOverflow) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);
  const PredictResponse resp =
      service.Predict(PnetRequest("jpeg_decoder", "hdr_in:2147483647,vld_in:2147483647"));
  EXPECT_EQ(resp.status, PredictStatus::kError);
  EXPECT_NE(resp.error.find("cap"), std::string::npos) << resp.error;
}

TEST(EntryPlan, SortsMergesAndTotalsItems) {
  PredictRequest req = PnetRequest("jpeg_decoder", " vld_in : 4 ,hdr_in,vld_in:4", 3);
  EntryPlan plan = ParseEntryPlan(req);
  EXPECT_FALSE(plan.first_place);
  ASSERT_EQ(plan.items.size(), 2u);
  EXPECT_EQ(plan.items[0], (std::pair<std::string, long long>("hdr_in", 3)));
  EXPECT_EQ(plan.items[1], (std::pair<std::string, long long>("vld_in", 8)));
  EXPECT_TRUE(plan.malformed.empty());
  EXPECT_EQ(plan.total_tokens, 11);

  req.entry_place = "";
  plan = ParseEntryPlan(req);
  EXPECT_TRUE(plan.first_place);
  EXPECT_TRUE(plan.items.empty());
  EXPECT_EQ(plan.total_tokens, 3);

  req.entry_place = "vld_in:x,hdr_in:0,vld_in:1";
  plan = ParseEntryPlan(req);
  EXPECT_EQ(plan.malformed, (std::vector<std::string>{"hdr_in:0", "vld_in:x"}));
  EXPECT_EQ(plan.total_tokens, 1);

  req.entry_place = "a:9223372036854775807,b:9223372036854775807";
  EXPECT_EQ(ParseEntryPlan(req).total_tokens, std::numeric_limits<long long>::max());
}

// --- jpeg shadow backend (src/accel/jpeg/jpeg_shadow.h) ---

// End-to-end: the registered jpeg backend replays both the program query
// and the standard stripe query against the cycle-level simulator, and the
// shipped calibration stays under the drift threshold.
TEST(ShadowValidation, JpegBackendReplaysProgramAndStripeQueries) {
  jpeg::RegisterJpegShadowBackend();
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;
  options.shadow_sample_every = 1;
  options.shadow_drift_threshold = 0.15;
  PredictionService service(InterfaceRegistry::Default(), options);

  PredictRequest prog = JpegRequest(65536, 0.2);
  prog.explain = true;
  const PredictResponse p = service.Predict(prog);
  ASSERT_TRUE(p.ok()) << p.error;
  ASSERT_TRUE(p.explain.filled);
  ASSERT_TRUE(p.explain.shadowed);
  EXPECT_GT(p.explain.shadow_truth, 0.0);
  EXPECT_LT(std::abs(p.explain.shadow_rel_err), 0.15);

  PredictRequest pnet = JpegStripeRequest(800.0);
  pnet.explain = true;
  const PredictResponse q = service.Predict(pnet);
  ASSERT_TRUE(q.ok()) << q.error;
  ASSERT_TRUE(q.explain.shadowed);
  // The pnet replay differs from the sim only by the un-modeled
  // realignment stall — well inside 5%.
  EXPECT_LT(std::abs(q.explain.shadow_rel_err), 0.05);
  EXPECT_EQ(service.shadow().total_violations(), 0u);
}

// Requests outside the replayable vocabulary are refused (shadow errors),
// never guessed at (false violations).
TEST(ShadowValidation, JpegBackendRefusesOutsideVocabulary) {
  double truth = 0;
  std::string error;

  PredictRequest tput = JpegRequest(65536, 0.2);
  tput.function = "tput_jpeg_decode";
  EXPECT_FALSE(jpeg::JpegShadowTruth(tput, &truth, &error));

  // orig_size not a whole number of 8x8 blocks.
  EXPECT_FALSE(jpeg::JpegShadowTruth(JpegRequest(65536 + 100, 0.2), &truth, &error));
  // compress_rate so low the payload would be empty.
  EXPECT_FALSE(jpeg::JpegShadowTruth(JpegRequest(65536, 0.0001), &truth, &error));

  // Injection plans the stripe vocabulary does not cover.
  EXPECT_FALSE(
      jpeg::JpegShadowTruth(JpegStripeRequest(800.0, "vld_in:8"), &truth, &error));
  EXPECT_FALSE(
      jpeg::JpegShadowTruth(JpegStripeRequest(800.0, "hdr_in:2,vld_in:8"), &truth, &error));
  EXPECT_FALSE(
      jpeg::JpegShadowTruth(JpegStripeRequest(800.0, "hdr_in:1,fifo1:1"), &truth, &error));
  PredictRequest partial = JpegStripeRequest(800.0, "hdr_in:1,vld_in:2");
  partial.attrs = {{"bits", 800.0}, {"blocks", 5.0}};  // two partial stripes
  EXPECT_FALSE(jpeg::JpegShadowTruth(partial, &truth, &error));
  // Default-entry pnet query (tokens into hdr_in only): no image to decode.
  PredictRequest default_entry = JpegStripeRequest(800.0, "");
  EXPECT_FALSE(jpeg::JpegShadowTruth(default_entry, &truth, &error));

  // The well-formed variants of the same queries replay fine.
  EXPECT_TRUE(jpeg::JpegShadowTruth(JpegRequest(65536, 0.2), &truth, &error)) << error;
  EXPECT_GT(truth, 0.0);
  PredictRequest single = JpegStripeRequest(500.0, "hdr_in:1,vld_in:1");
  single.attrs = {{"bits", 500.0}, {"blocks", 5.0}};  // one partial stripe: fine
  EXPECT_TRUE(jpeg::JpegShadowTruth(single, &truth, &error)) << error;
}

// Eight threads, one Vm each, over one shared CompiledProgram — the
// thread-safety contract of vm.h: the bytecode is shared read-only, and a
// Vm is never shared. Every thread must run out of budget cleanly.
TEST(VmConcurrency, StepBudgetExhaustsCleanlyAcrossThreads) {
  ParseResult parsed = ParseProgram(
      "def burn(msg):\n"
      "  total = 0\n"
      "  for a in msg:\n"
      "    for b in msg:\n"
      "      total += 1\n"
      "    end\n"
      "  end\n"
      "  return total\n"
      "end\n");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  CompileProgramResult compiled = CompileProgram(parsed.program, {});
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  const std::shared_ptr<const CompiledProgram> program = compiled.program;

  KvObject workload;
  workload.Set("n", 1.0);
  workload.AddUniformChildren(200);  // 200*200 inner iterations

  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&program, &workload, &bad] {
      Vm vm(program);
      vm.set_max_steps(500);
      const EvalResult result = vm.Call("burn", {Value::Object(&workload)});
      if (result.ok || !vm.step_budget_exhausted() ||
          result.error.find("step budget exhausted") == std::string::npos) {
        bad.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0);
}

TEST(DeadlineQueueTest, ClassifiesRemainingDeadlineIntoSlackBands) {
  EXPECT_EQ(ClassifyDeadline(0), DeadlineBucket::kNone);
  EXPECT_EQ(ClassifyDeadline(-5), DeadlineBucket::kNone);
  EXPECT_EQ(ClassifyDeadline(1), DeadlineBucket::kLt1ms);
  EXPECT_EQ(ClassifyDeadline(999), DeadlineBucket::kLt1ms);
  EXPECT_EQ(ClassifyDeadline(1'000), DeadlineBucket::kLt10ms);
  EXPECT_EQ(ClassifyDeadline(9'999), DeadlineBucket::kLt10ms);
  EXPECT_EQ(ClassifyDeadline(10'000), DeadlineBucket::kLt100ms);
  EXPECT_EQ(ClassifyDeadline(99'999), DeadlineBucket::kLt100ms);
  EXPECT_EQ(ClassifyDeadline(100'000), DeadlineBucket::kGte100ms);
  EXPECT_STREQ(DeadlineBucketName(DeadlineBucket::kLt1ms), "lt1ms");
  EXPECT_STREQ(DeadlineBucketName(DeadlineBucket::kNone), "none");
}

TEST(DeadlineQueueTest, PopServesMostUrgentBandFirstFifoWithinBand) {
  DeadlineQueue<int> queue(16);
  ASSERT_TRUE(queue.Push(40, DeadlineBucket::kNone));
  ASSERT_TRUE(queue.Push(30, DeadlineBucket::kGte100ms));
  ASSERT_TRUE(queue.Push(10, DeadlineBucket::kLt1ms));
  ASSERT_TRUE(queue.Push(20, DeadlineBucket::kLt10ms));
  ASSERT_TRUE(queue.Push(21, DeadlineBucket::kLt10ms));
  ASSERT_TRUE(queue.Push(25, DeadlineBucket::kLt100ms));
  const int expected[] = {10, 20, 21, 25, 30, 40};
  for (const int want : expected) {
    int got = -1;
    ASSERT_TRUE(queue.Pop(&got));
    EXPECT_EQ(got, want);
  }
  EXPECT_EQ(queue.size(), 0u);
}

TEST(DeadlineQueueTest, CloseDrainsAcceptedItemsAndRejectsNewPushes) {
  DeadlineQueue<int> queue(4);
  ASSERT_TRUE(queue.Push(1, DeadlineBucket::kNone));
  ASSERT_TRUE(queue.Push(2, DeadlineBucket::kLt1ms));
  queue.Close();
  EXPECT_FALSE(queue.Push(3, DeadlineBucket::kNone));
  EXPECT_FALSE(queue.TryPush(3, DeadlineBucket::kNone));
  int got = -1;
  ASSERT_TRUE(queue.Pop(&got));
  EXPECT_EQ(got, 2);  // urgent band drains first even after close
  ASSERT_TRUE(queue.Pop(&got));
  EXPECT_EQ(got, 1);
  EXPECT_FALSE(queue.Pop(&got));
}

TEST(DeadlineQueueTest, TryPushFailsWhenFullAndBlockedPushResumesAfterPop) {
  DeadlineQueue<int> queue(1);
  ASSERT_TRUE(queue.TryPush(1, DeadlineBucket::kNone));
  EXPECT_FALSE(queue.TryPush(2, DeadlineBucket::kLt1ms));
  std::thread pusher([&queue] { queue.Push(2, DeadlineBucket::kLt1ms); });
  int got = -1;
  ASSERT_TRUE(queue.Pop(&got));
  EXPECT_EQ(got, 1);
  ASSERT_TRUE(queue.Pop(&got));  // blocks until the pusher's item lands
  EXPECT_EQ(got, 2);
  pusher.join();
  EXPECT_EQ(queue.size(), 0u);
}

TEST(DeadlineQueueConcurrency, ContendedPushPopDeliversEverythingExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  DeadlineQueue<int> queue(8);  // small capacity: producers block often
  std::atomic<int> popped{0};
  std::atomic<long long> sum{0};
  std::atomic<int> push_failures{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&queue, &popped, &sum] {
      int v = 0;
      while (queue.Pop(&v)) {
        popped.fetch_add(1);
        sum.fetch_add(v);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &push_failures, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto bucket =
            static_cast<DeadlineBucket>((p + i) % static_cast<int>(kDeadlineBucketCount));
        if (!queue.Push(p * kPerProducer + i, bucket)) {
          push_failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : producers) {
    t.join();
  }
  queue.Close();
  for (std::thread& t : consumers) {
    t.join();
  }
  const long long n = kProducers * kPerProducer;
  EXPECT_EQ(push_failures.load(), 0);
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(AdmissionControl, TokenBucketShedsAtBurstAndRefillsOverTime) {
  AdmissionOptions opts;
  TenantQuota quota;
  quota.qps = 2.0;
  quota.burst = 2.0;
  opts.tenant_quotas.emplace_back("acme", quota);
  AdmissionController ctrl(opts);
  EXPECT_TRUE(ctrl.enabled());

  const std::uint64_t t0 = 1'000'000'000ull;
  EXPECT_EQ(ctrl.Decide("acme", 0, t0, 0, 0, 1), AdmissionDecision::kAdmit);
  EXPECT_EQ(ctrl.Decide("acme", 0, t0, 0, 0, 1), AdmissionDecision::kAdmit);
  EXPECT_EQ(ctrl.Decide("acme", 0, t0, 0, 0, 1), AdmissionDecision::kShedQuota);
  // 500 ms at 2 qps refills exactly one token.
  EXPECT_EQ(ctrl.Decide("acme", 0, t0 + 500'000'000, 0, 0, 1), AdmissionDecision::kAdmit);
  EXPECT_EQ(ctrl.Decide("acme", 0, t0 + 500'000'000, 0, 0, 1), AdmissionDecision::kShedQuota);
  // Tenants without a quota are never shed.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(ctrl.Decide("unmetered", 0, t0, 0, 0, 1), AdmissionDecision::kAdmit);
  }
}

TEST(AdmissionControl, DefaultQuotaGivesEachTenantItsOwnBucket) {
  AdmissionOptions opts;
  opts.default_quota.qps = 0.001;  // refill is negligible within the test
  opts.default_quota.burst = 1.0;
  AdmissionController ctrl(opts);
  const std::uint64_t t0 = 5'000'000'000ull;
  EXPECT_EQ(ctrl.Decide("x", 0, t0, 0, 0, 1), AdmissionDecision::kAdmit);
  EXPECT_EQ(ctrl.Decide("x", 0, t0, 0, 0, 1), AdmissionDecision::kShedQuota);
  // A second tenant gets a fresh bucket, as does the empty (default) tenant.
  EXPECT_EQ(ctrl.Decide("y", 0, t0, 0, 0, 1), AdmissionDecision::kAdmit);
  EXPECT_EQ(ctrl.Decide("y", 0, t0, 0, 0, 1), AdmissionDecision::kShedQuota);
  EXPECT_EQ(ctrl.Decide("", 0, t0, 0, 0, 1), AdmissionDecision::kAdmit);
  EXPECT_EQ(ctrl.Decide("", 0, t0, 0, 0, 1), AdmissionDecision::kShedQuota);
}

TEST(AdmissionControl, DeadlineFeasibilityShedsOnlyWithWarmEstimate) {
  AdmissionOptions opts;
  opts.shed_deadline = true;
  AdmissionController ctrl(opts);
  EXPECT_TRUE(ctrl.enabled());
  const std::uint64_t t0 = 1'000'000'000ull;
  // Cold estimate (ema == 0): never sheds, whatever the backlog says.
  EXPECT_EQ(ctrl.Decide("", 100, t0, 1000, 0, 1), AdmissionDecision::kAdmit);
  // Warm: 1000 pending x 1 ms each on one worker is a 1 s wait; a 100 us
  // deadline is infeasible.
  EXPECT_EQ(ctrl.Decide("", 100, t0, 1000, 1'000'000, 1), AdmissionDecision::kShedDeadline);
  // No deadline is never shed on feasibility.
  EXPECT_EQ(ctrl.Decide("", 0, t0, 1000, 1'000'000, 1), AdmissionDecision::kAdmit);
  // A 2 s deadline clears the same backlog.
  EXPECT_EQ(ctrl.Decide("", 2'000'000, t0, 1000, 1'000'000, 1), AdmissionDecision::kAdmit);
  // More workers shrink the predicted wait.
  EXPECT_EQ(ctrl.Decide("", 10'000, t0, 8, 1'000'000, 8), AdmissionDecision::kAdmit);
}

TEST(AdmissionControl, PredictedWaitSaturatesInsteadOfOverflowing) {
  EXPECT_EQ(AdmissionController::PredictedWaitNs(0, 1'000'000, 4), 0u);
  EXPECT_EQ(AdmissionController::PredictedWaitNs(8, 1'000'000, 4), 2'000'000u);
  EXPECT_EQ(AdmissionController::PredictedWaitNs(UINT64_MAX, UINT64_MAX, 1), UINT64_MAX);
  // workers == 0 is treated as 1 rather than dividing by zero.
  EXPECT_EQ(AdmissionController::PredictedWaitNs(4, 1'000, 0), 4'000u);
}

TEST(AdmissionControl, IdenticalArrivalSchedulesProduceIdenticalDecisions) {
  AdmissionOptions opts;
  opts.shed_deadline = true;
  TenantQuota metered;
  metered.qps = 100.0;
  metered.burst = 4.0;
  opts.tenant_quotas.emplace_back("a", metered);
  opts.default_quota.qps = 50.0;
  opts.default_quota.burst = 2.0;

  // A synthetic arrival schedule from a fixed LCG: every Decide input is
  // explicit, so replaying the schedule must replay the decisions.
  struct Arrival {
    std::string tenant;
    std::int64_t remaining_us;
    std::uint64_t now_ns;
    std::uint64_t pending;
    std::uint64_t ema_ns;
  };
  std::uint64_t state = 42;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  std::vector<Arrival> schedule;
  std::uint64_t now_ns = 1'000'000'000ull;
  static const char* const kTenants[] = {"a", "b", "c"};
  static const std::int64_t kDeadlinesUs[] = {0, 500, 5'000, 50'000};
  for (int i = 0; i < 200; ++i) {
    now_ns += next() % 5'000'000;  // up to 5 ms apart
    Arrival a;
    a.tenant = kTenants[next() % 3];
    a.remaining_us = kDeadlinesUs[next() % 4];
    a.now_ns = now_ns;
    a.pending = next() % 64;
    a.ema_ns = i < 20 ? 0 : 200'000;  // warm up the estimate partway in
    schedule.push_back(a);
  }

  const auto run = [&opts, &schedule] {
    AdmissionController ctrl(opts);
    std::vector<AdmissionDecision> decisions;
    for (const Arrival& a : schedule) {
      decisions.push_back(ctrl.Decide(a.tenant, a.remaining_us, a.now_ns, a.pending,
                                      a.ema_ns, /*workers=*/1));
    }
    return decisions;
  };
  const std::vector<AdmissionDecision> first = run();
  const std::vector<AdmissionDecision> second = run();
  EXPECT_EQ(first, second);
  // The schedule must actually exercise every decision kind, or the
  // equality above proves nothing.
  std::set<AdmissionDecision> kinds(first.begin(), first.end());
  EXPECT_EQ(kinds.size(), 3u);
}

// Holds the service's only worker inside a completion callback until the
// test opens it, so requests submitted meanwhile are known to wait in the
// queue (not merely likely to).
class WorkerGate {
 public:
  // Called by the worker: announces its arrival, then blocks until Open.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    arrived_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }
  // Called by the test: blocks until the worker is held.
  void AwaitWorker() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return arrived_; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool arrived_ = false;
  bool open_ = false;
};

// Submits four identical blockers whose first completion holds the single
// worker at `gate`, and returns once it is held; the other three wait in
// the queue behind it.
PredictionService::BatchHandle BlockTheWorker(PredictionService* service, WorkerGate* gate) {
  std::vector<PredictRequest> blockers;
  for (int i = 0; i < 4; ++i) {
    blockers.push_back(PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:64"));
  }
  PredictionService::BatchHandle handle =
      service->SubmitBatch(blockers, [gate](std::size_t index, const PredictResponse&) {
        if (index == 0) {
          gate->Wait();
        }
      });
  gate->AwaitWorker();
  return handle;
}

// Regression: a deadline that expires while the request sits in the queue
// is answered at dequeue, before any cache or registry work — it must not
// be charged to the eval-path request counters. The pre-fix behavior
// detected expiry only at eval start ("deadline expired before evaluation
// started") and charged RecordRequest for the expired request.
TEST(PredictionServiceAdmission, QueueExpiredDetectedAtDequeueWithoutEvalCharges) {
  ServiceOptions options;
  options.num_workers = 1;
  options.batch_chunk = 1;
  options.cache_capacity = 64;
  options.enable_pnet_memo = false;
  PredictionService service(InterfaceRegistry::Default(), options);

  // Hold the single worker so the deadlined request queues. The blockers
  // carry no deadline (background band), so the doomed request overtakes
  // them once the worker is released — 40 ms after it was submitted,
  // twice its deadline. The deadline is long enough to outlive the cache
  // probe at submission (which answers an already-expired deadline
  // itself), even under a sanitizer.
  WorkerGate gate;
  PredictionService::BatchHandle blocked = BlockTheWorker(&service, &gate);

  PredictRequest doomed = JpegRequest(65536, 0.2);
  doomed.deadline_us = 20'000;
  doomed.explain = true;
  doomed.tenant = "acme";
  PredictionService::BatchHandle doomed_handle = service.SubmitBatch({doomed});
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  gate.Open();
  const std::vector<PredictResponse> responses = doomed_handle.Responses();
  (void)blocked.Responses();

  ASSERT_EQ(responses.size(), 1u);
  const PredictResponse& r = responses[0];
  EXPECT_EQ(r.status, PredictStatus::kDeadlineExceeded);
  EXPECT_EQ(r.error, "deadline expired while queued");
  EXPECT_EQ(r.tenant, "acme");
  EXPECT_FALSE(r.trace_id.empty());
  ASSERT_TRUE(r.explain.filled);
  EXPECT_EQ(r.explain.representation, "expired");
  EXPECT_EQ(r.explain.cache, "not_consulted");

  // Only the four blockers reached the eval path (one miss, then three
  // hits among the identical blockers); the expired request is visible in
  // the deadline counter but moved neither cache counter.
  EXPECT_EQ(service.metrics().total_requests(), 4u);
  EXPECT_EQ(service.metrics().deadline_exceeded(), 1u);
  EXPECT_EQ(service.metrics().cache_misses(), 1u);
  EXPECT_EQ(service.metrics().cache_hits(), 3u);
}

// Cache hits resolve on the submitting thread, before SubmitBatch returns,
// even while the only worker is busy: they never enter the queue. Misses
// in the same batch still go to the worker, and admission still runs
// before the probe, so a tenant over its quota cannot get around it
// through the cache.
TEST(PredictionServiceAdmission, CacheHitsResolveOnTheSubmittingThread) {
  ServiceOptions options;
  options.num_workers = 1;
  options.batch_chunk = 1;
  options.cache_capacity = 256;
  options.enable_pnet_memo = false;
  TenantQuota quota;
  quota.qps = 0.001;  // refill is negligible within the test
  quota.burst = 2.0;
  options.admission.tenant_quotas.emplace_back("metered", quota);
  PredictionService service(InterfaceRegistry::Default(), options);

  std::vector<PredictRequest> cached;
  for (int i = 0; i < 16; ++i) {
    PredictRequest req = JpegRequest(1024.0 * (i + 1), 0.2);
    req.explain = true;
    cached.push_back(req);
  }
  const std::vector<PredictResponse> warm = service.PredictBatch(cached);
  for (const PredictResponse& r : warm) {
    ASSERT_TRUE(r.ok()) << r.error;
  }

  // Hold the single worker, as in the queue-expiry test above.
  WorkerGate gate;
  PredictionService::BatchHandle blocked = BlockTheWorker(&service, &gate);

  const std::thread::id submitter = std::this_thread::get_id();
  const std::uint64_t hits0 = service.metrics().cache_hits();
  const std::uint64_t misses0 = service.metrics().cache_misses();
  std::mutex mu;
  std::vector<std::thread::id> callback_threads(16);
  PredictionService::BatchHandle hits =
      service.SubmitBatch(cached, [&](std::size_t index, const PredictResponse&) {
        std::lock_guard<std::mutex> lock(mu);
        callback_threads[index] = std::this_thread::get_id();
      });
  EXPECT_TRUE(hits.done()) << "every hit must resolve before SubmitBatch returns";
  EXPECT_EQ(service.metrics().cache_hits() - hits0, 16u);
  EXPECT_EQ(service.metrics().cache_misses() - misses0, 0u);
  const std::vector<PredictResponse>& hit_responses = hits.Responses();
  for (std::size_t i = 0; i < hit_responses.size(); ++i) {
    const PredictResponse& r = hit_responses[i];
    EXPECT_EQ(callback_threads[i], submitter) << i;
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.cache_hit);
    EXPECT_EQ(r.value, warm[i].value);
    ASSERT_TRUE(r.explain.filled);
    EXPECT_EQ(r.explain.representation, "cache");
    EXPECT_EQ(r.explain.cache, "hit");
  }

  // Mixed batch: even indices cached, odd ones new. The hits are answered
  // before SubmitBatch returns; the misses wait for the worker.
  std::vector<PredictRequest> mixed;
  for (int i = 0; i < 8; ++i) {
    mixed.push_back(cached[i]);
    mixed.push_back(JpegRequest(777.0 + i, 0.3));
    mixed.back().explain = true;
  }
  std::vector<std::thread::id> mixed_threads(mixed.size());
  std::atomic<int> streamed{0};
  PredictionService::BatchHandle mixed_handle =
      service.SubmitBatch(mixed, [&](std::size_t index, const PredictResponse&) {
        {
          std::lock_guard<std::mutex> lock(mu);
          mixed_threads[index] = std::this_thread::get_id();
        }
        streamed.fetch_add(1);
      });
  EXPECT_EQ(streamed.load(), 8);
  EXPECT_FALSE(mixed_handle.done());
  gate.Open();
  const std::vector<PredictResponse>& mixed_responses = mixed_handle.Responses();
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    ASSERT_TRUE(mixed_responses[i].ok()) << mixed_responses[i].error;
    const bool hit = i % 2 == 0;
    EXPECT_EQ(mixed_responses[i].cache_hit, hit) << i;
    if (hit) {
      EXPECT_EQ(mixed_threads[i], submitter) << i;
    } else {
      EXPECT_NE(mixed_threads[i], submitter) << i;
      EXPECT_EQ(mixed_responses[i].explain.cache, "miss") << i;
    }
  }

  // Over quota: the burst admits two hits, the rest are shed before the
  // probe and never touch the cache counters.
  std::vector<PredictRequest> metered(cached.begin(), cached.begin() + 5);
  for (PredictRequest& req : metered) {
    req.tenant = "metered";
  }
  const std::uint64_t hits1 = service.metrics().cache_hits();
  const std::uint64_t misses1 = service.metrics().cache_misses();
  PredictionService::BatchHandle shed = service.SubmitBatch(metered);
  EXPECT_TRUE(shed.done());
  const std::vector<PredictResponse>& shed_responses = shed.Responses();
  for (std::size_t i = 0; i < shed_responses.size(); ++i) {
    if (i < 2) {
      EXPECT_TRUE(shed_responses[i].cache_hit) << i;
      continue;
    }
    EXPECT_EQ(shed_responses[i].status, PredictStatus::kRejected) << i;
    EXPECT_NE(shed_responses[i].error.find("quota"), std::string::npos);
    EXPECT_EQ(shed_responses[i].explain.cache, "not_consulted");
  }
  EXPECT_EQ(service.metrics().cache_hits() - hits1, 2u);
  EXPECT_EQ(service.metrics().cache_misses() - misses1, 0u);
  (void)blocked.Responses();
}

// An interface whose arithmetic overflows answers ERROR instead of OK with
// an infinite value (which went out as a bare `inf`: invalid JSON), and
// the error is never cached.
TEST(PredictionService, NonFiniteResultIsAnErrorAndNeverCached) {
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 64;
  PredictionService service(InterfaceRegistry::Default(), options);
  PredictRequest req;
  req.interface = "compressor";
  req.function = "latency_compress";
  req.attrs = {{"input_bytes", 1e308}, {"matches", 1e308}, {"tokens", 0.0}};
  for (int round = 0; round < 2; ++round) {
    const PredictResponse r = service.Predict(req);
    EXPECT_EQ(r.status, PredictStatus::kError) << round;
    EXPECT_EQ(r.error, "non-finite result");
    EXPECT_FALSE(r.cache_hit);
    EXPECT_TRUE(std::isfinite(r.value));
    EXPECT_TRUE(std::isfinite(r.throughput));
  }
  EXPECT_EQ(service.metrics().cache_hits(), 0u);
  EXPECT_EQ(service.cache().size(), 0u);
}

// An interface driven outside its domain can compute a negative latency
// (jpeg_fig2 at orig_size=-1). That is no prediction: it answers ERROR and
// is never cached.
TEST(PredictionService, NegativeResultIsAnErrorAndNeverCached) {
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 64;
  PredictionService service(InterfaceRegistry::Default(), options);
  const PredictRequest req = JpegRequest(-1, 0.18);
  for (int round = 0; round < 2; ++round) {
    const PredictResponse r = service.Predict(req);
    EXPECT_EQ(r.status, PredictStatus::kError) << round;
    EXPECT_EQ(r.error, "negative result");
    EXPECT_FALSE(r.cache_hit);
    EXPECT_EQ(r.value, 0.0);
  }
  EXPECT_EQ(service.metrics().cache_hits(), 0u);
  EXPECT_EQ(service.cache().size(), 0u);
  EXPECT_TRUE(service.Predict(JpegRequest(65536, 0.18)).ok());
}

// A delay expression driven out of range by the workload (negative or NaN
// bits) used to abort the process from inside the simulator. It answers
// ERROR, and nothing is memoized or cached, with the memo on or off.
TEST(PredictionService, OutOfRangeDelayIsAnErrorNotAnAbort) {
  for (const bool memo : {true, false}) {
    PnetMemoTable::Global().Clear();
    ServiceOptions options;
    options.num_workers = 1;
    options.enable_pnet_memo = memo;
    PredictionService service(InterfaceRegistry::Default(), options);
    for (const double bits : {-5.0, std::numeric_limits<double>::quiet_NaN()}) {
      PredictRequest req = PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:8");
      req.attrs = {{"bits", bits}, {"blocks", 8.0}};
      for (int round = 0; round < 2; ++round) {
        const PredictResponse r = service.Predict(req);
        EXPECT_EQ(r.status, PredictStatus::kError) << bits << " memo " << memo;
        EXPECT_EQ(r.error, "delay out of range");
        EXPECT_FALSE(r.cache_hit);
      }
    }
    // The second round erred too, so no bogus result was memoized.
    EXPECT_EQ(service.cache().size(), 0u);
    // The service is still whole: a valid query right after answers.
    EXPECT_TRUE(service.Predict(PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:8")).ok());
  }
}

TEST(PredictionServiceAdmission, TenantExcludedFromCacheKeyButEchoed) {
  PredictRequest first = JpegRequest(65536, 0.2);
  first.tenant = "alpha";
  PredictRequest second = JpegRequest(65536, 0.2);
  second.tenant = "bravo";
  EXPECT_EQ(CanonicalCacheKey(first, Representation::kProgram),
            CanonicalCacheKey(second, Representation::kProgram));

  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 64;
  PredictionService service(InterfaceRegistry::Default(), options);
  const std::vector<PredictRequest> a{first};
  const std::vector<PredictRequest> b{second};
  const std::vector<PredictResponse> ra = service.PredictBatch(a);
  const std::vector<PredictResponse> rb = service.PredictBatch(b);
  ASSERT_TRUE(ra[0].ok());
  ASSERT_TRUE(rb[0].ok());
  EXPECT_EQ(ra[0].tenant, "alpha");
  EXPECT_EQ(rb[0].tenant, "bravo");
  EXPECT_EQ(ra[0].value, rb[0].value);
  // Same cache entry serves both tenants: one miss, then one hit.
  EXPECT_EQ(service.metrics().cache_misses(), 1u);
  EXPECT_EQ(service.metrics().cache_hits(), 1u);
}

TEST(PredictionServiceAdmission, OverQuotaTenantShedsAtEnqueueWithRejected) {
  ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity = 0;
  TenantQuota quota;
  quota.qps = 0.001;  // refill is negligible within the test
  quota.burst = 2.0;
  options.admission.tenant_quotas.emplace_back("acme", quota);
  PredictionService service(InterfaceRegistry::Default(), options);

  std::vector<PredictRequest> batch;
  for (int i = 0; i < 5; ++i) {
    PredictRequest req = JpegRequest(4096.0 + i, 0.2);
    req.tenant = "acme";
    req.explain = true;
    batch.push_back(req);
  }
  const std::vector<PredictResponse> responses = service.PredictBatch(batch);
  ASSERT_EQ(responses.size(), 5u);
  // Tokens are consumed in submission order: the burst admits the first
  // two, everything after is shed at enqueue.
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(responses[i].ok()) << responses[i].error;
  }
  for (int i = 2; i < 5; ++i) {
    EXPECT_EQ(responses[i].status, PredictStatus::kRejected);
    EXPECT_NE(responses[i].error.find("quota"), std::string::npos) << responses[i].error;
    EXPECT_EQ(responses[i].tenant, "acme");
    ASSERT_TRUE(responses[i].explain.filled);
    EXPECT_EQ(responses[i].explain.representation, "rejected");
    EXPECT_EQ(responses[i].explain.cache, "not_consulted");
  }

  EXPECT_EQ(service.metrics().admission_admitted(), 2u);
  EXPECT_EQ(service.metrics().admission_shed_quota(), 3u);
  EXPECT_EQ(service.metrics().rejected(), 3u);
  EXPECT_EQ(service.metrics().total_requests(), 2u);  // shed requests never evaluated

  const std::string scrape = service.StatsPrometheus();
  EXPECT_NE(scrape.find("perfiface_admission_admitted_total{tenant=\"acme\"} 2"),
            std::string::npos);
  EXPECT_NE(scrape.find("perfiface_admission_shed_quota_total{tenant=\"acme\"} 3"),
            std::string::npos);
  EXPECT_NE(scrape.find("perfiface_admission_queue_wait_seconds"), std::string::npos);
}

// TSan target: contended multi-tenant submits hammer the deadline queue,
// the token buckets, and the per-tenant admission counters at once.
TEST(PredictionServiceConcurrency, AdmissionDecisionsConsistentUnderMultiTenantContention) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity = 0;
  options.enable_pnet_memo = false;
  options.admission.shed_deadline = true;
  for (int t = 0; t < kThreads; ++t) {
    TenantQuota quota;
    quota.qps = 200.0;
    quota.burst = 8.0;
    options.admission.tenant_quotas.emplace_back("tenant-" + std::to_string(t), quota);
  }
  PredictionService service(InterfaceRegistry::Default(), options);

  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &bad, t] {
      const std::string tenant = "tenant-" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        PredictRequest req = JpegRequest(4096.0 + i, 0.2);
        req.tenant = tenant;
        if (i % 3 == 0) {
          req.deadline_us = 5'000;
        }
        const std::vector<PredictRequest> one{req};
        const std::vector<PredictResponse> out = service.PredictBatch(one);
        if (out.size() != 1 || out[0].tenant != tenant) {
          bad.fetch_add(1);
          continue;
        }
        switch (out[0].status) {
          case PredictStatus::kOk:
          case PredictStatus::kRejected:
          case PredictStatus::kDeadlineExceeded:
            break;
          default:
            bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0);

  // Every request passed through admission exactly once, and every
  // decision landed in exactly one tenant row.
  const ServiceMetrics& metrics = service.metrics();
  const std::uint64_t total = static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(metrics.admission_admitted() + metrics.admission_shed_quota() +
                metrics.admission_shed_deadline(),
            total);
  std::uint64_t row_sum = 0;
  for (const TenantAdmissionSnapshot& row : metrics.AdmissionSnapshot()) {
    row_sum += row.admitted + row.shed_deadline + row.shed_quota;
  }
  EXPECT_EQ(row_sum, total);
}

}  // namespace
}  // namespace perfiface::serve
