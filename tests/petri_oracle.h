// Reference Petri-net simulator for differential tests: the firing loop
// PetriSim (src/petri/sim.h) ran before its token-id kernel. Places hold
// whole Token copies in deques, every guard and delay is evaluated on every
// attempt, and any change to a place re-marks all of its watchers. It is
// slow and obviously faithful to the firing rules, which is what an oracle
// is for: petri_oracle_test holds PetriSim to it on every observable
// (now, firing count, stop flags, expression errors, arrival logs).
#ifndef TESTS_PETRI_ORACLE_H_
#define TESTS_PETRI_ORACLE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/common/small_vec.h"
#include "src/common/types.h"
#include "src/petri/compiled_net.h"
#include "src/petri/net.h"
#include "src/petri/sim.h"

namespace perfiface {

class PetriOracle {
 public:
  static constexpr std::size_t kAllComponents = PetriSim::kAllComponents;

  // The PetriSim constructors, Inject, Observe, Run, Reset and accessors,
  // with the same contracts.
  explicit PetriOracle(const PetriNet* net);
  explicit PetriOracle(const CompiledNet* compiled, std::size_t component = kAllComponents);

  void Inject(PlaceId place, Token token);
  void Observe(PlaceId place);
  bool Run(Cycles max_time);
  void Reset();

  Cycles now() const { return now_; }
  std::uint64_t total_firings() const { return total_firings_; }
  const std::vector<Arrival>& arrivals(PlaceId place) const;
  std::size_t tokens_at(PlaceId place) const;

  void set_max_firings(std::uint64_t m) { max_firings_ = m; }
  bool firing_budget_exhausted() const { return budget_exhausted_; }
  bool delay_out_of_range() const { return delay_out_of_range_; }
  const std::string& expr_error() const { return expr_error_; }

 private:
  struct Firing {
    TransitionId transition = 0;
    SmallVec<Token, 4> consumed;
  };

  // Heap entries reference slab slots so that sifting moves 24 bytes, not
  // whole token sets.
  struct EventRef {
    Cycles complete_at = 0;
    std::uint64_t seq = 0;  // tie-break for determinism
    std::uint32_t slot = 0;
  };

  // Min-heap order (std::push_heap builds a max-heap, so invert).
  struct FiringOrder {
    bool operator()(const EventRef& a, const EventRef& b) const {
      if (a.complete_at != b.complete_at) {
        return a.complete_at > b.complete_at;
      }
      return a.seq > b.seq;
    }
  };

  struct PlaceState {
    std::deque<Token> tokens;
    std::size_t reserved = 0;  // output reservations of in-flight firings
    bool observed = false;
    std::vector<Arrival> log;
  };

  // Attempts to start one firing of transition `t`; returns true on success.
  bool TryStart(TransitionId t);
  // Starts every enabled firing until fixpoint (worklist-driven: only
  // transitions whose neighbourhood changed are re-examined).
  void StartAll();
  void Complete(const Firing& f);
  void Deposit(PlaceId place, Token token);
  void MarkPlaceChanged(PlaceId place);
  void MarkTransition(TransitionId t);

  std::unique_ptr<CompiledNet> owned_;  // only the PetriNet* constructor
  const CompiledNet* cnet_;
  std::size_t component_ = kAllComponents;
  Cycles now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t total_firings_ = 0;
  std::uint64_t max_firings_ = 500'000'000;
  bool budget_exhausted_ = false;
  bool delay_out_of_range_ = false;
  std::string expr_error_;
  // Allocates a slab slot for an in-flight firing and schedules it.
  Firing& ScheduleFiring(Cycles complete_at);

  std::vector<PlaceState> places_;
  std::vector<std::size_t> busy_servers_;
  // Manual binary heap of slab references (earliest completion first).
  std::vector<EventRef> events_;
  std::vector<Firing> slab_;
  std::vector<std::uint32_t> free_slots_;

  // Enablement worklist; the watcher table lives in the compiled net.
  std::vector<bool> pending_;
};

}  // namespace perfiface

#endif  // TESTS_PETRI_ORACLE_H_
