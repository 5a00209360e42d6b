// Interface distillation: closed-form performance interfaces derived from
// the compiled expression IR of a Petri-net component.
//
// The paper argues that an accelerator's latency is usually a *simple
// function* of the workload — simple enough to print on one page (§2, the
// "performance interface" itself). The simulator already carries the
// ingredients: every .pnet transition's delay is a compiled expression
// over token attributes (src/perfscript/compile.h), and a component whose
// guards fold to compile-time constants routes tokens the same way for
// every workload. For such *deterministic-path* components the quiesced
// delay is a fixed linear combination of the per-transition delay
// expressions: quiesce(attrs) = c0 + sum_i c_i * delay_i(attrs), where
// the c_i are (integer) firing/critical-path multiplicities that do not
// depend on the attributes.
//
// The distiller recovers that combination empirically rather than by full
// symbolic path analysis: it probes the component with a handful of
// restricted simulations over scaled attribute vectors (the component
// partition makes each probe exact for the component, see
// src/petri/sim.h), solves the small least-squares system for the c_i,
// and accepts the model only when
//   - every guard in the component is a compile-time constant (an
//     attr-dependent guard means data-dependent routing: refuse),
//   - no transition carries an opaque C++ closure (unhashable nets are
//     never distilled, mirroring the memo layers),
//   - every probe quiesced with the *same* firing count (a drifting count
//     is data-dependent routing the guards did not reveal), and
//   - the fit reproduces every probe to within 0.49 cycles — since true
//     quiesce times are integers, that makes the rounded model *exact* at
//     every probe point.
//
// Serving is hull-gated: a query outside the probed per-attribute range is
// refused, and refusal always falls back to bit-identical simulation. The
// model is not a statistical fit over observed traffic: it is a closed
// form over the same compiled expressions the simulator would have
// evaluated, derived once per (component hash, injection plan) and also
// rendered as a PerfScript program (ProgramText) — the distilled
// human-readable interface.
//
// Thread-safety: all methods safe from any thread (sharded mutexes).
#ifndef SRC_PETRI_DISTILL_H_
#define SRC_PETRI_DISTILL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/petri/compiled_net.h"
#include "src/petri/token.h"

namespace perfiface {

// One closed-form component result. `firings` is the (constant) firing
// count every probe observed, charged against the caller's budget exactly
// like a memo hit.
struct DerivedPrediction {
  Cycles quiesce_time = 0;
  std::uint64_t firings = 0;
};

class DerivedStore {
 public:
  enum class Outcome {
    kHit,          // *out is the closed-form result
    kNoModel,      // nothing distilled for this key yet
    kRefused,      // distillation was attempted and refused (cached)
    kOutsideHull,  // query attribute outside the probed range
    kEvalFailed,   // a feature expression failed on these attributes
    kBudget,       // firing charge would exhaust the caller's budget
  };

  // The process-wide store the serving layer shares, like the memo table.
  static DerivedStore& Global();

  explicit DerivedStore(std::size_t max_models = 1024, std::size_t num_shards = 16);
  ~DerivedStore();

  DerivedStore(const DerivedStore&) = delete;
  DerivedStore& operator=(const DerivedStore&) = delete;

  // Model key: component structural hash + canonical injection plan (the
  // attributes are the model's inputs, not its identity). Empty if the net
  // is unhashable.
  static std::string Key(const CompiledNet& net, std::size_t component,
                         const std::vector<std::pair<PlaceId, int>>& injections);

  // Attempts to distill `component` into a closed form, probing with
  // restricted simulations seeded from `token`'s attribute vector. The
  // outcome — model or refusal — is cached under `key`, so at most one
  // distillation runs per key (concurrent callers for the same key may
  // both probe; last insert wins, both results are equivalent). Returns
  // true when a servable model exists afterwards. Bumps
  // perfiface_derived_{distilled,refusals}_total.
  bool Distill(const std::string& key, const CompiledNet& net, std::size_t component,
               const Token& token, const std::vector<std::pair<PlaceId, int>>& injections);

  // Serves the closed form. kHit fills *out and bumps
  // perfiface_derived_hits_total; every other outcome means the caller
  // must fall back to simulation, which is always bit-identical to this
  // tier being off.
  Outcome Predict(const std::string& key, const Token& token, std::uint64_t budget,
                  DerivedPrediction* out);

  // The derived interface rendered as a PerfScript program (the paper's
  // one-page closed form), or "" when the key has no model
  // (docs/serving.md "Unified expression IR & derived interfaces").
  std::string ProgramText(const std::string& key) const;

  // Why the key's distillation was refused ("" when it succeeded or never
  // ran). Debugging/tests; refusal text is not a stable API.
  std::string RefusalReason(const std::string& key) const;

  void Clear();

  std::size_t size() const;  // cached entries (models + refusals)
  std::uint64_t distilled() const { return distilled_.load(std::memory_order_relaxed); }
  std::uint64_t refusals() const { return refusals_.load(std::memory_order_relaxed); }
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }

  // {"models":N,"distilled":N,"refusals":N,"hits":N} for /statusz.
  std::string SummaryJson() const;

 private:
  // One delay expression serving as a fit feature. The expression is
  // co-owned (TransitionSpec::delay_compiled is a shared_ptr) so a cached
  // model survives the net it was distilled from.
  struct Feature {
    std::shared_ptr<const CompiledExpr> expr;
    std::string text;  // infix rendering, for ProgramText
  };

  struct Model {
    bool ok = false;            // false: cached refusal
    std::string refusal;        // why, when !ok
    std::vector<Feature> features;
    std::vector<double> coef;   // 1 + features.size() entries (intercept first)
    // Probed per-attribute hull: (slot, lo, hi); queries outside refuse.
    std::vector<std::uint32_t> hull_slots;
    std::vector<double> hull_lo, hull_hi;
    std::uint64_t firings = 0;  // constant across probes
    std::string program;        // PerfScript rendering
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::shared_ptr<const Model>> models;
  };

  // Builds the model (or a refusal) by probing; pure of store state.
  std::shared_ptr<const Model> BuildModel(const CompiledNet& net, std::size_t component,
                                          const Token& token,
                                          const std::vector<std::pair<PlaceId, int>>& injections);

  Shard& ShardFor(const std::string& key);
  std::shared_ptr<const Model> Find(const std::string& key) const;

  std::size_t max_models_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> total_models_{0};

  std::atomic<std::uint64_t> distilled_{0};
  std::atomic<std::uint64_t> refusals_{0};
  std::atomic<std::uint64_t> hits_{0};
};

}  // namespace perfiface

#endif  // SRC_PETRI_DISTILL_H_
