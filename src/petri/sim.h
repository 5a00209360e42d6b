// Event-driven simulator for timed Petri nets.
//
// Cost is proportional to the number of firings (tokens processed), not to
// simulated cycles. This is why a Petri-net performance interface can be
// orders of magnitude faster than a cycle-accurate simulation of the same
// accelerator while predicting the same latency/throughput (paper §3).
//
// The firing loop runs over a CompiledNet (src/petri/compiled_net.h): flat
// arc arrays, CSR watchers, precomputed capacity-consumption weights. The
// PetriNet* constructor compiles on the spot for one-off use; services
// answering many queries over the same net should compile once and share
// the CompiledNet across sims (it is immutable), and keep one sim per
// thread: Reset keeps every buffer's capacity.
//
// The kernel moves 4-byte token ids, not Tokens:
//
//  - Token pool. One entry per distinct injected or initial token (an
//    injection bit-equal to the previous one, stamp included, reuses its
//    entry), plus refcounted entries for FireFn outputs. Places are ring
//    buffers of ids; an in-flight firing holds the ids it consumed.
//  - Delay/guard memo. Compiled delay and guard expressions are pure
//    functions of the primary (first) input token, so their results are
//    memoized per run by (transition, primary token id). Hand-built
//    closures are called on every firing.
//  - Worklist. A bitset of transitions to re-examine; the lowest pending id
//    is served first, which reproduces the firing order of a full in-order
//    rescan.
//  - Watchers. A deposit re-marks the place's consumers. A removal
//    re-marks them too (guards read the front token), and re-marks the
//    place's producers only when the place is bounded: nothing else can
//    turn a transition from blocked to startable. A completion deposits
//    exactly the room its reservation held, so it never unblocks a producer.
#ifndef SRC_PETRI_SIM_H_
#define SRC_PETRI_SIM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/petri/compiled_net.h"
#include "src/petri/net.h"

namespace perfiface {

// A token deposit observed at an instrumented place.
struct Arrival {
  Cycles time = 0;
  Token token;
};

class PetriSim {
 public:
  // Runs every component of the net (the default).
  static constexpr std::size_t kAllComponents = static_cast<std::size_t>(-1);

  // Compiles the net privately; convenient for one-off simulations.
  explicit PetriSim(const PetriNet* net);

  // Shares a pre-compiled net (must outlive the sim). When `component` is
  // given, only that weakly-connected component's transitions may fire:
  // disconnected components evolve independently, so a restricted run
  // predicts exactly what the full run predicts for that component (the
  // basis for per-component memoization, src/petri/pnet_memo.h).
  explicit PetriSim(const CompiledNet* compiled, std::size_t component = kAllComponents);

  // Deposits `count` copies of a token into a place at the current time
  // (the copies share one pool entry). Typically used to enqueue the
  // workload (requests/stripes/instructions) before Run.
  void Inject(PlaceId place, Token token, std::size_t count = 1);

  // Marks a place as observed: every deposit into it is logged.
  void Observe(PlaceId place);

  // Runs until no transition can fire and no firing is in flight, or until
  // `max_time`. Returns true if the net quiesced; false if it ran out of
  // time or of the firing budget (see set_max_firings), a delay left its
  // range (see delay_out_of_range), or an expression failed (expr_error).
  bool Run(Cycles max_time);

  // Resets all state (markings back to initial, logs cleared, time to 0).
  // Observed places, the firing budget and buffer capacity are kept.
  void Reset();
  // Same, and restricts later runs to `component` (or kAllComponents).
  void Reset(std::size_t component);

  Cycles now() const { return now_; }
  std::uint64_t total_firings() const { return total_firings_; }

  const std::vector<Arrival>& arrivals(PlaceId place) const;
  std::size_t tokens_at(PlaceId place) const;

  // Safety valve against pathological zero-delay loops in authored nets:
  // once the budget is hit the run stops cleanly (Run returns false) so
  // services evaluating untrusted nets can reject them without aborting.
  void set_max_firings(std::uint64_t m) { max_firings_ = m; }
  bool firing_budget_exhausted() const { return budget_exhausted_; }

  // True once a firing's delay came out negative, non-finite or at least
  // 1e15 cycles (kBadDelay): the run stopped cleanly before scheduling it,
  // so services can answer an error for the offending workload instead of
  // aborting.
  bool delay_out_of_range() const { return delay_out_of_range_; }

  // Non-empty once a compiled guard or delay expression failed to evaluate
  // (say, a division by zero): names the failure and the transition, e.g.
  // "division by zero in delay of transition 'vld'". The run stopped
  // cleanly before consuming anything for that firing.
  const std::string& expr_error() const { return expr_error_; }

 private:
  using TokenId = std::uint32_t;

  struct PoolEntry {
    Token token;
    std::uint32_t refs = 0;  // ids held by places and in-flight firings
    bool pinned = false;     // injected or initial: lives for the whole run
  };

  // Heap entries reference slab slots so that sifting moves 24 bytes, not
  // token sets.
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

  // A FIFO of token ids in a power-of-two ring.
  struct PlaceState {
    std::vector<TokenId> ring;
    std::uint32_t head = 0;
    std::uint32_t count = 0;
    std::uint32_t reserved = 0;  // output reservations of in-flight firings
    bool observed = false;
    std::vector<Arrival> log;

    TokenId at(std::uint32_t k) const {
      return ring[(head + k) & static_cast<std::uint32_t>(ring.size() - 1)];
    }
  };

  // Attempts to start one firing of transition `t`; returns true on success.
  bool TryStart(TransitionId t);
  // Starts every enabled firing until fixpoint (worklist-driven: only
  // transitions whose neighbourhood changed are re-examined).
  void StartAll();
  // Completes the in-flight firing in slab `slot`.
  void Complete(std::uint32_t slot);
  // Appends to the place's ring and logs the arrival if observed.
  void Deposit(PlaceId place, TokenId id);
  void Push(PlaceState* ps, TokenId id);
  TokenId PopFront(PlaceId place);
  // Adds a pool entry with no references and fresh memo slots.
  TokenId NewToken(Token token, bool pinned);
  void Release(TokenId id);
  // The input tokens of a firing of `trans`, for hand-built closures.
  TokenRefs InputRefs(const CompiledNet::Transition& trans) const;
  // Stops the run on a failed compiled expression (see expr_error).
  void FailExpr(TransitionId t, const char* what, const std::string& error);
  void MarkRange(std::uint32_t begin, std::uint32_t end) {
    const std::uint32_t* w = cnet_->watchers().data();
    for (std::uint32_t i = begin; i < end; ++i) {
      pending_[w[i] >> 6] |= std::uint64_t{1} << (w[i] & 63);
    }
  }
  // Allocates a slab slot for an in-flight firing of `t` and schedules it.
  std::uint32_t ScheduleFiring(TransitionId t, Cycles complete_at);

  std::unique_ptr<CompiledNet> owned_;  // only the PetriNet* constructor
  const CompiledNet* cnet_;
  std::size_t component_ = kAllComponents;
  std::size_t num_transitions_ = 0;
  Cycles now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t total_firings_ = 0;
  std::uint64_t max_firings_ = 500'000'000;
  bool budget_exhausted_ = false;
  bool delay_out_of_range_ = false;
  bool stopped_ = false;  // any of the three stop conditions
  std::string expr_error_;

  std::vector<PlaceState> places_;
  std::vector<std::uint32_t> busy_servers_;
  std::vector<PoolEntry> pool_;
  std::vector<TokenId> free_ids_;  // released FireFn-output entries
  static constexpr TokenId kNoToken = static_cast<TokenId>(-1);
  TokenId last_injected_ = kNoToken;
  // Per (token id, transition): memoized compiled-delay results
  // (kUnknownDelay until evaluated) and guard results (-1 until evaluated).
  std::vector<Cycles> delay_memo_;
  std::vector<std::int8_t> guard_memo_;
  // Manual binary heap of slab references (earliest completion first).
  std::vector<EventRef> events_;
  // In-flight firings: slot s fired slab_transition_[s] and consumed the
  // ids at slab_tokens_[s * stride_, s * stride_ + total_input_weight).
  std::vector<TransitionId> slab_transition_;
  std::vector<TokenId> slab_tokens_;
  std::size_t stride_ = 0;  // the largest total input weight in the net
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::vector<Token>> fire_outputs_;  // FireFn scratch

  // Enablement worklist, one bit per transition.
  std::vector<std::uint64_t> pending_;
};

}  // namespace perfiface

#endif  // SRC_PETRI_SIM_H_
