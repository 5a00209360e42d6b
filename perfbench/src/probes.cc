#include "src/probes.h"

#include <memory>
#include <string>
#include <vector>

#include "src/host.h"
#include "src/net/wire.h"
#include "src/serve/lru_cache.h"
#include "src/stats.h"

namespace perfbench {

using perfiface::serve::PredictRequest;
using perfiface::serve::PredictResponse;

namespace {

constexpr std::size_t kCodecRequests = 2048;
constexpr std::size_t kCacheKeys = 1 << 16;
constexpr int kPasses = 7;

// Median over kPasses of the mean time per call of `pass`, which makes
// `calls` calls.
template <typename Fn>
double MedianPassUs(std::size_t calls, Fn&& pass) {
  std::vector<double> per_call;
  for (int p = 0; p < kPasses; ++p) {
    const std::uint64_t t0 = NowNs();
    pass();
    const std::uint64_t t1 = NowNs();
    per_call.push_back(static_cast<double>(t1 - t0) / 1e3 / static_cast<double>(calls));
  }
  return Median(per_call);
}

}  // namespace

ProbeResult RunProbes(const WorkloadSpec& spec, std::uint64_t seed,
                      perfiface::serve::PredictionService* service) {
  ProbeResult r;
  RequestStream stream(spec, seed);
  std::vector<PredictRequest> requests;
  for (std::size_t i = 0; i < kCodecRequests; ++i) {
    requests.push_back(stream.Next());
  }

  std::vector<std::string> frames(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    perfiface::net::EncodeRequestFrame(i, {requests[i]}, &frames[i]);
    frames[i].pop_back();  // the reader hands frames over without '\n'
  }
  std::uint64_t id = 0;
  std::vector<PredictRequest> decoded;
  std::string error;
  r.req_decode_us = MedianPassUs(frames.size(), [&] {
    for (const std::string& frame : frames) {
      decoded.clear();
      perfiface::net::DecodeRequestFrame(frame, &id, &decoded, &error);
    }
  });

  const std::vector<PredictResponse> responses = service->PredictBatch(requests);
  std::string line;
  double bytes = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    line.clear();
    perfiface::net::EncodeResponseLine(i, 0, responses[i], &line);
    bytes += static_cast<double>(line.size());
  }
  r.resp_bytes = bytes / static_cast<double>(responses.size());
  r.resp_encode_us = MedianPassUs(responses.size(), [&] {
    for (std::size_t i = 0; i < responses.size(); ++i) {
      line.clear();
      perfiface::net::EncodeResponseLine(i, 0, responses[i], &line);
    }
  });

  std::string key;
  r.key_us = MedianPassUs(requests.size(), [&] {
    for (const PredictRequest& req : requests) {
      key = perfiface::serve::CanonicalCacheKey(req, req.representation);
    }
  });

  // The response cache's LRU with the service's default geometry, fed the
  // workload's key stream: Get on a cache warmed by the same stream, Put
  // into an empty one.
  std::vector<std::string> keys;
  keys.reserve(kCacheKeys);
  for (std::size_t i = 0; i < kCacheKeys; ++i) {
    const PredictRequest req = stream.Next();
    keys.push_back(perfiface::serve::CanonicalCacheKey(req, req.representation));
  }
  const perfiface::serve::ServiceOptions defaults;
  perfiface::serve::ShardedLruCache warm(defaults.cache_capacity, defaults.cache_shards);
  perfiface::serve::CachedPrediction value;
  for (const std::string& k : keys) {
    if (!warm.Get(k, &value)) {
      warm.Put(k, value);
    }
  }
  r.cache_get_us = MedianPassUs(keys.size(), [&] {
    for (const std::string& k : keys) {
      warm.Get(k, &value);
    }
  });
  // Empty caches built (and later freed) outside the timed passes.
  std::vector<std::unique_ptr<perfiface::serve::ShardedLruCache>> fresh;
  for (int p = 0; p < kPasses; ++p) {
    fresh.push_back(std::make_unique<perfiface::serve::ShardedLruCache>(
        defaults.cache_capacity, defaults.cache_shards));
  }
  std::size_t pass = 0;
  r.cache_put_us = MedianPassUs(keys.size(), [&] {
    perfiface::serve::ShardedLruCache& cache = *fresh[pass++];
    for (const std::string& k : keys) {
      cache.Put(k, value);
    }
  });
  return r;
}

}  // namespace perfbench
