// Process-wide cross-request memo table for Petri-net sub-net results.
//
// The paper's point is that querying a performance interface must be far
// cheaper than simulating the hardware; yet the per-stripe / per-stage
// component nets repeat across workloads, so the same structural sub-net
// gets re-simulated for every request. This table caches steady-state
// sub-net results across requests — and across *nets*: the key is the
// component's structural hash (src/petri/compiled_net.h), not the net or
// interface name, so a component reused by two interfaces shares entries.
//
// Key = (component structural hash, canonicalized token attributes,
// injection plan). Values only ever come from runs that quiesced, and a
// stored result also remembers how many firings the run took: a lookup
// only hits when the stored firing count fits the caller's remaining
// budget, so memoized and unmemoized evaluation report identical statuses
// (a run that would have exhausted the budget still exhausts it).
//
// Invalidation: entries are keyed purely by structure + expression text +
// workload, so a reloaded net with identical text maps to the same entries
// (still valid by construction) and an edited net hashes elsewhere (stale
// entries age out of the LRU). Clear() exists for tests and benchmarks.
//
// Thread-safety: all methods safe from any thread (sharded LRU inside).
#ifndef SRC_PETRI_PNET_MEMO_H_
#define SRC_PETRI_PNET_MEMO_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/sharded_lru.h"
#include "src/common/types.h"
#include "src/petri/compiled_net.h"
#include "src/petri/token.h"

namespace perfiface {

// One memoized component run. `quiesce_time` is the component's time of
// last completion; `firings` what the run cost.
struct PnetMemoResult {
  Cycles quiesce_time = 0;
  std::uint64_t firings = 0;
};

class PnetMemoTable {
 public:
  // The process-wide table every service / tool shares.
  static PnetMemoTable& Global();

  explicit PnetMemoTable(std::size_t capacity = 1 << 16, std::size_t num_shards = 16);
  ~PnetMemoTable();

  // Canonical key for one component evaluation: component hash, the
  // token's attribute values labeled by schema name (sorted by name, so
  // schema declaration order is irrelevant), and the injection plan as
  // sorted (component-local place index, count) pairs. Returns empty if
  // the net is unhashable — unhashable nets must not be memoized.
  static std::string Key(const CompiledNet& net, std::size_t component, const Token& token,
                         const std::vector<std::pair<PlaceId, int>>& injections);

  // The key's injection-plan section alone: the plan restricted to
  // `component`, as sorted, duplicate-merged "\x1f@local:count" items.
  // Shared with the derived store (src/petri/distill.h), whose model
  // identity is exactly this key minus the attributes.
  static void AppendCanonicalPlan(const CompiledNet& net, std::size_t component,
                                  const std::vector<std::pair<PlaceId, int>>& injections,
                                  std::string* key);

  // Hit iff present AND the stored firing count is strictly below `budget`
  // (PetriSim reports exhaustion at exactly `budget` firings, so a memo
  // hit never hides a budget exhaustion the simulation would have hit).
  // Bumps the perfiface_pnet_memo_{hits,misses}_total counters.
  bool Lookup(const std::string& key, std::uint64_t budget, PnetMemoResult* out);

  // Only quiesced runs may be inserted (callers enforce; see service.cc).
  void Insert(const std::string& key, const PnetMemoResult& result);

  void Clear() { table_.Clear(); }

  // Budget-aware outcomes: an entry found but rejected because its firing
  // count exceeds the caller's budget counts as a miss (the caller must
  // simulate), unlike the raw LRU counters underneath.
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  // Occupancy view for /statusz and the perfiface_pnet_memo_{entries,
  // capacity,evictions_total} exposition: without these, hit-rate drops
  // caused by capacity churn are indistinguishable from cold traffic.
  std::size_t size() const { return table_.size(); }
  std::size_t capacity() const { return table_.capacity(); }
  std::uint64_t evictions() const { return table_.evictions(); }

 private:
  ShardedLru<PnetMemoResult> table_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::uint64_t metrics_collector_ = 0;  // obs::MetricsRegistry handle
};

}  // namespace perfiface

#endif  // SRC_PETRI_PNET_MEMO_H_
