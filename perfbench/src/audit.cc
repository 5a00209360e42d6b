#include "src/audit.h"

#include <cmath>
#include <cstring>
#include <string>
#include <unordered_set>

#include "src/host.h"
#include "src/serve/shadow.h"

namespace perfbench {

using perfiface::serve::PredictRequest;
using perfiface::serve::PredictResponse;

namespace {

// Independent of --seed, so pred_err_pct scores the same queries every run.
constexpr std::uint64_t kAccuracySeed = 0x5eed'acc0;
constexpr std::uint64_t kMaxAccuracyDraws = 20000;

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

}  // namespace

perfiface::serve::ServiceOptions ReferenceOptions() {
  perfiface::serve::ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;
  options.enable_pnet_memo = false;
  return options;
}

IdentityAudit AuditIdentity(perfiface::serve::PredictionService* reference,
                            const std::vector<ResponseCheck::Sample>& samples) {
  IdentityAudit audit;
  for (const ResponseCheck::Sample& sample : samples) {
    if (!sample.answered) {
      continue;  // already counted as a failed response
    }
    PredictRequest req = sample.request;
    req.explain = false;
    const PredictResponse ref = reference->Predict(req);
    ++audit.checked;
    if (!ref.ok() || !SameBits(ref.value, sample.value) ||
        !SameBits(ref.throughput, sample.throughput)) {
      ++audit.mismatches;
    }
  }
  return audit;
}

AccuracyAudit AuditAccuracy(const WorkloadSpec& spec,
                            perfiface::serve::PredictionService* reference,
                            std::uint64_t per_family) {
  AccuracyAudit audit;
  RequestStream stream(spec, kAccuracySeed);
  std::unordered_set<std::string> seen;
  double err_sum = 0;
  double sim_ns = 0;
  double iface_ns = 0;
  for (std::uint64_t draw = 0; draw < kMaxAccuracyDraws; ++draw) {
    PredictRequest req = stream.Next();
    const std::size_t family = req.interface == "jpeg_decoder" ? 0
                               : req.interface == "protoacc"   ? 1
                                                               : 2;
    if (audit.per_family[family] >= per_family ||
        !seen.insert(perfiface::serve::CanonicalCacheKey(req, req.representation)).second) {
      continue;
    }
    const perfiface::serve::ShadowBackendFn backend =
        perfiface::serve::ShadowBackendRegistry::Global().Find(req.interface);
    if (!backend) {
      continue;
    }
    double truth = 0;
    std::string error;
    const std::uint64_t t0 = NowNs();
    const bool replayed = backend(req, &truth, &error);
    const std::uint64_t t1 = NowNs();
    if (!replayed || !(truth > 0)) {
      continue;  // outside the simulator's replayable vocabulary
    }
    req.explain = true;
    const PredictResponse ref = reference->Predict(req);
    if (!ref.ok()) {
      ++audit.failures;
      continue;
    }
    ++audit.per_family[family];
    ++audit.queries;
    err_sum += std::fabs(ref.value - truth) / truth;
    sim_ns += static_cast<double>(t1 - t0);
    iface_ns += static_cast<double>(ref.explain.eval_ns);
    bool done = true;
    for (std::uint64_t n : audit.per_family) {
      done = done && n >= per_family;
    }
    if (done) {
      break;
    }
  }
  if (audit.queries > 0) {
    const double n = static_cast<double>(audit.queries);
    audit.mean_abs_err_pct = 100.0 * err_sum / n;
    audit.sim_us = sim_ns / 1e3 / n;
    audit.iface_us = iface_ns / 1e3 / n;
  }
  return audit;
}

}  // namespace perfbench
