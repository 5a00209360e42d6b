// Service observability: per-interface latency histograms, cache and
// status counters, queue-depth gauge, text/JSON dumps.
//
// Histograms use power-of-two nanosecond buckets: recording is one relaxed
// atomic increment (safe and cheap on the hot path), and percentile
// estimates come from the bucket geometric midpoints — plenty for the
// p50/p95/p99 tail reporting the benches need. Exact percentiles, when a
// bench wants them, come from client-side samples through
// src/common/stats.h's Percentile.
#ifndef SRC_SERVE_METRICS_H_
#define SRC_SERVE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/serve/admission.h"
#include "src/serve/deadline_queue.h"

namespace perfiface::serve {

// Log2-bucketed histogram of nanosecond durations. All methods are
// thread-safe; Record is wait-free.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 48;  // covers up to ~78 hours

  void Record(std::uint64_t ns);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum_ns() const { return sum_ns_.load(std::memory_order_relaxed); }
  double mean_ns() const;
  // Estimated percentile (p in [0,100]) from bucket midpoints; 0 if empty.
  double PercentileNs(double p) const;

  // Raw bucket access for the Prometheus exposition: bucket b spans
  // [2^(b-1), 2^b) ns and BucketUpperNs is its inclusive upper bound.
  std::uint64_t BucketCount(std::size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  static std::uint64_t BucketUpperNs(std::size_t b) { return 1ULL << b; }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

// One row per interface, created when the service loads the registry so
// the hot path never takes a lock to find its histogram.
struct InterfaceMetrics {
  std::string interface;
  LatencyHistogram latency;                  // end-to-end service-side time
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> errors{0};
  // Pnet components served from distilled closed forms (src/petri/distill.h);
  // feeds the /statusz per-interface summary.
  std::atomic<std::uint64_t> derived_hits{0};
};

// What the cache saw for one request. Requests that are resolved before the
// cache lookup (rejected at submission, expired in queue, unknown
// interface/function) must report kNotConsulted so they don't inflate the
// miss counter and skew the hit rate.
enum class CacheOutcome { kHit, kMiss, kNotConsulted };

// Point-in-time copy of one tenant's admission counters, for /statusz.
struct TenantAdmissionSnapshot {
  std::string tenant;
  std::uint64_t admitted = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t shed_quota = 0;
};

class ServiceMetrics {
 public:
  explicit ServiceMetrics(const std::vector<std::string>& interfaces);

  // Index of the interface row, or npos for names outside the registry.
  static constexpr std::size_t kNoInterface = static_cast<std::size_t>(-1);
  std::size_t IndexOf(const std::string& interface) const;

  void RecordRequest(std::size_t iface_idx, std::uint64_t latency_ns, bool ok);
  void RecordStatus(CacheOutcome cache, bool deadline_exceeded, bool rejected);
  void RecordDerivedHits(std::size_t iface_idx, std::uint64_t hits) {
    if (hits != 0 && iface_idx < per_interface_.size()) {
      per_interface_[iface_idx]->derived_hits.fetch_add(hits, std::memory_order_relaxed);
    }
  }

  // One admission decision for `tenant` (empty = "default"). Rows are
  // created on first sight and capped: past kMaxTenantRows distinct
  // tenants, decisions aggregate under the "_other" row so a tenant-name
  // flood cannot grow the scrape without bound.
  void RecordAdmission(const std::string& tenant, AdmissionDecision decision);
  // Queue wait (enqueue -> worker pickup) of one request, labeled by the
  // slack band it was scheduled in.
  void RecordQueueWait(DeadlineBucket bucket, std::uint64_t wait_ns);

  std::uint64_t admission_admitted() const {
    return admission_admitted_.load(std::memory_order_relaxed);
  }
  std::uint64_t admission_shed_deadline() const {
    return admission_shed_deadline_.load(std::memory_order_relaxed);
  }
  std::uint64_t admission_shed_quota() const {
    return admission_shed_quota_.load(std::memory_order_relaxed);
  }
  // Sorted by tenant name; includes the "default" row once any decision
  // has been recorded.
  std::vector<TenantAdmissionSnapshot> AdmissionSnapshot() const;
  const LatencyHistogram& queue_wait(DeadlineBucket bucket) const {
    return queue_wait_[static_cast<std::size_t>(bucket)];
  }

  // One registry lookup, answered by the lock-free hot tier (`hot`) or by
  // the cold hash index (which then refreshes the hot slot).
  void RecordLookup(bool hot) {
    (hot ? lookup_hot_ : lookup_cold_).fetch_add(1, std::memory_order_relaxed);
  }

  // Batches (sync or async) currently submitted and not yet fully resolved.
  void IncrementInflight() { inflight_batches_.fetch_add(1, std::memory_order_relaxed); }
  void DecrementInflight() { inflight_batches_.fetch_sub(1, std::memory_order_relaxed); }

  std::uint64_t total_requests() const { return total_requests_.load(std::memory_order_relaxed); }
  std::uint64_t total_errors() const { return total_errors_.load(std::memory_order_relaxed); }
  std::uint64_t cache_hits() const { return cache_hits_.load(std::memory_order_relaxed); }
  std::uint64_t cache_misses() const { return cache_misses_.load(std::memory_order_relaxed); }
  std::uint64_t deadline_exceeded() const {
    return deadline_exceeded_.load(std::memory_order_relaxed);
  }
  std::uint64_t rejected() const { return rejected_.load(std::memory_order_relaxed); }
  std::uint64_t lookup_hot() const { return lookup_hot_.load(std::memory_order_relaxed); }
  std::uint64_t lookup_cold() const { return lookup_cold_.load(std::memory_order_relaxed); }
  std::int64_t inflight_batches() const {
    return inflight_batches_.load(std::memory_order_relaxed);
  }

  const std::vector<std::unique_ptr<InterfaceMetrics>>& interfaces() const {
    return per_interface_;
  }

  // Human-readable table / machine-readable JSON. queue_depth is sampled by
  // the caller (the service owns the queue).
  std::string DumpText(std::size_t queue_depth) const;
  std::string DumpJson(std::size_t queue_depth) const;
  // Prometheus text exposition (docs/observability.md): totals, queue-depth
  // gauge, per-interface counters, and native histograms with log2 buckets.
  std::string DumpPrometheus(std::size_t queue_depth) const;

 private:
  static constexpr std::size_t kMaxTenantRows = 64;

  struct TenantAdmission {
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> shed_deadline{0};
    std::atomic<std::uint64_t> shed_quota{0};
  };

  TenantAdmission* TenantRow(const std::string& tenant);

  std::vector<std::unique_ptr<InterfaceMetrics>> per_interface_;
  // Tenant rows are pointer-stable (unique_ptr) so the hot path increments
  // atomics outside the lock; the lock only guards map shape.
  mutable std::mutex tenant_mu_;
  std::vector<std::pair<std::string, std::unique_ptr<TenantAdmission>>> tenants_;
  LatencyHistogram queue_wait_[kDeadlineBucketCount];
  std::atomic<std::uint64_t> admission_admitted_{0};
  std::atomic<std::uint64_t> admission_shed_deadline_{0};
  std::atomic<std::uint64_t> admission_shed_quota_{0};
  std::atomic<std::uint64_t> total_requests_{0};
  std::atomic<std::uint64_t> total_errors_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> lookup_hot_{0};
  std::atomic<std::uint64_t> lookup_cold_{0};
  std::atomic<std::int64_t> inflight_batches_{0};
};

}  // namespace perfiface::serve

#endif  // SRC_SERVE_METRICS_H_
