// Process-wide metrics registry with Prometheus text exposition.
//
// Two kinds of data feed the exposition:
//  - Counters owned by the registry itself: monotonic uint64 totals that
//    instrumented layers (vm, pnet, sim) bump with relaxed atomics.
//    Handles are looked up once (function-local static) so the hot path is
//    a single fetch_add.
//  - Collectors: callbacks registered by subsystems that own their metrics
//    elsewhere (ServiceMetrics with its per-interface histograms). Each
//    collector appends its own exposition text, so one
//    MetricsRegistry::RenderPrometheus() call yields the unified scrape.
//
// The text format follows the Prometheus exposition format v0.0.4
// (`# HELP` / `# TYPE` comments, `name{labels} value` samples).
#ifndef SRC_OBS_METRICS_REGISTRY_H_
#define SRC_OBS_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfiface::obs {

// Exposition-format escaping (v0.0.4). HELP text escapes backslash and
// newline; label values additionally escape the double quote. Every emitter
// of free-form text into a scrape (HELP strings, interface-name labels)
// must route through these — an unescaped quote or newline corrupts the
// whole scrape for the parser.
std::string EscapeHelpText(std::string_view text);
std::string EscapeLabelValue(std::string_view value);

class MetricsRegistry {
 public:
  // A monotonic counter; Add is wait-free.
  class Counter {
   public:
    void Add(std::uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
    void Increment() { Add(1); }
    std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

   private:
    friend class MetricsRegistry;
    Counter(std::string name, std::string help)
        : name_(std::move(name)), help_(std::move(help)) {}
    std::string name_;
    std::string help_;
    std::atomic<std::uint64_t> value_{0};
  };

  static MetricsRegistry& Global();

  // Returns the counter registered under `name`, creating it on first use
  // (subsequent calls ignore `help`). The reference stays valid for the
  // registry's lifetime. Thread-safe; cache the reference on hot paths.
  Counter& GetCounter(const std::string& name, const std::string& help);

  // Registers a callback that appends exposition text; returns a handle for
  // Unregister. Collectors run under the registry lock: keep them fast and
  // never call back into the registry.
  std::uint64_t RegisterCollector(std::function<void(std::string*)> collector);
  void Unregister(std::uint64_t handle);

  // Full scrape: every registered counter, then every collector's output.
  std::string RenderPrometheus() const;

 private:
  MetricsRegistry() = default;

  struct CollectorEntry {
    std::uint64_t handle = 0;
    std::function<void(std::string*)> fn;
  };

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<CollectorEntry> collectors_;
  std::uint64_t next_handle_ = 1;
};

}  // namespace perfiface::obs

#endif  // SRC_OBS_METRICS_REGISTRY_H_
