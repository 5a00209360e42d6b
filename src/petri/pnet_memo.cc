#include "src/petri/pnet_memo.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/common/check.h"
#include "src/common/small_vec.h"
#include "src/common/strings.h"
#include "src/obs/metrics_registry.h"

namespace perfiface {

PnetMemoTable& PnetMemoTable::Global() {
  static PnetMemoTable* table = new PnetMemoTable();
  return *table;
}

PnetMemoTable::PnetMemoTable(std::size_t capacity, std::size_t num_shards)
    : table_(capacity, num_shards) {
  // Occupancy exposition rides a collector (size is a gauge, not a
  // counter). Each table emits its own samples; in practice only the
  // process-wide Global() table exists when a scrape runs.
  metrics_collector_ =
      obs::MetricsRegistry::Global().RegisterCollector([this](std::string* out) {
        *out += "# HELP perfiface_pnet_memo_entries Sub-net memo table entries currently "
                "resident.\n";
        *out += "# TYPE perfiface_pnet_memo_entries gauge\n";
        *out += StrFormat("perfiface_pnet_memo_entries %zu\n", this->size());
        *out += "# HELP perfiface_pnet_memo_capacity Sub-net memo table entry capacity.\n";
        *out += "# TYPE perfiface_pnet_memo_capacity gauge\n";
        *out += StrFormat("perfiface_pnet_memo_capacity %zu\n", this->capacity());
        *out += "# HELP perfiface_pnet_memo_evictions_total Sub-net memo entries evicted by "
                "LRU capacity pressure.\n";
        *out += "# TYPE perfiface_pnet_memo_evictions_total counter\n";
        *out += StrFormat("perfiface_pnet_memo_evictions_total %llu\n",
                          static_cast<unsigned long long>(evictions()));
      });
}

PnetMemoTable::~PnetMemoTable() {
  obs::MetricsRegistry::Global().Unregister(metrics_collector_);
}

namespace {

template <typename T>
void AppendRaw(std::string* key, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  key->append(bytes, sizeof(T));
}

}  // namespace

std::string PnetMemoTable::Key(const CompiledNet& net, std::size_t component, const Token& token,
                               const std::vector<std::pair<PlaceId, int>>& injections) {
  if (!net.hashable()) {
    return std::string();
  }
  const std::vector<std::uint32_t>& slots = net.key_slots(component);
  std::string key;
  key.reserve(12 + 8 * (slots.size() + injections.size()));
  AppendRaw(&key, net.component_hash(component));
  AppendCanonicalPlan(net, component, injections, &key);
  for (const std::uint32_t slot : slots) {
    AppendRaw(&key, std::bit_cast<std::uint64_t>(token.Attr(slot)));
  }
  return key;
}

void PnetMemoTable::AppendCanonicalPlan(const CompiledNet& net, std::size_t component,
                                        const std::vector<std::pair<PlaceId, int>>& injections,
                                        std::string* key) {
  // Injection plan restricted to this component, as sorted (local place
  // index, count) pairs: the same sub-net keyed identically no matter
  // where it sits inside the enclosing net. All injected tokens carry the
  // same attributes, so per-place counts fully describe the plan.
  SmallVec<std::pair<std::uint32_t, std::uint64_t>, 8> plan;
  for (const auto& [place, count] : injections) {
    const CompiledNet::PlaceInfo& info = net.places()[place];
    if (info.component != component || count <= 0) {
      continue;  // a count below 1 injects nothing
    }
    plan.push_back({info.local_index, static_cast<std::uint64_t>(count)});
  }
  std::sort(plan.begin(), plan.end());
  // Merge duplicate places (the same place listed twice injects the sum).
  std::size_t merged = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (merged > 0 && plan[merged - 1].first == plan[i].first) {
      plan[merged - 1].second += plan[i].second;
    } else {
      plan[merged++] = plan[i];
    }
  }
  AppendRaw(key, static_cast<std::uint32_t>(merged));
  for (std::size_t i = 0; i < merged; ++i) {
    PI_CHECK(plan[i].second <= UINT32_MAX);
    AppendRaw(key, plan[i].first);
    AppendRaw(key, static_cast<std::uint32_t>(plan[i].second));
  }
}

bool PnetMemoTable::Lookup(const std::string& key, std::uint64_t budget, PnetMemoResult* out) {
  static obs::MetricsRegistry::Counter& hits = obs::MetricsRegistry::Global().GetCounter(
      "perfiface_pnet_memo_hits_total", "Sub-net memo table hits");
  static obs::MetricsRegistry::Counter& misses = obs::MetricsRegistry::Global().GetCounter(
      "perfiface_pnet_memo_misses_total", "Sub-net memo table misses");
  PnetMemoResult found;
  // Strict: PetriSim reports exhaustion when firings reach the budget
  // exactly, so a stored count equal to `budget` must miss — the
  // simulation the hit replaces would not have quiesced.
  if (table_.Get(key, &found) && found.firings < budget) {
    *out = found;
    hits_.fetch_add(1, std::memory_order_relaxed);
    hits.Increment();
    return true;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  misses.Increment();
  return false;
}

void PnetMemoTable::Insert(const std::string& key, const PnetMemoResult& result) {
  table_.Put(key, result);
}

}  // namespace perfiface
