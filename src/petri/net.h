// Structure of a timed colored Petri net — the paper's "performance IR".
//
// Places are FIFO token queues (optionally bounded: a bounded place models a
// hardware FIFO and produces backpressure). Transitions model processing
// elements: they consume tokens from their input places, take a
// data-dependent delay, and deposit transformed tokens into their output
// places. Multiple transitions fire concurrently, which is how the IR
// captures the parallel, pipelined execution model of accelerators
// (paper §3, "Formal Petri net interfaces").
#ifndef SRC_PETRI_NET_H_
#define SRC_PETRI_NET_H_

#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/small_vec.h"
#include "src/common/types.h"
#include "src/petri/token.h"

namespace perfiface {

class CompiledExpr;  // src/perfscript/compile.h

using PlaceId = std::size_t;
using TransitionId = std::size_t;

struct Place {
  std::string name;
  // 0 means unbounded. A bounded place refuses new firings that would
  // overflow it (blocking-before-service), modeling a full hardware FIFO.
  std::size_t capacity = 0;
  // Initial marking: number of plain tokens present at t=0. Used for
  // credit/slot places (e.g. "N outstanding DMA credits").
  std::size_t initial_tokens = 0;
};

struct Arc {
  PlaceId place = 0;
  std::size_t weight = 1;
};

// Inputs to the delay/fire callbacks: one token per unit of input-arc weight,
// ordered by input-arc declaration order. Inline storage: building this on
// every firing attempt must not allocate.
using TokenRefs = SmallVec<const Token*, 8>;

// Computes the firing delay in cycles for a token set.
using DelayFn = std::function<Cycles(const TokenRefs&)>;

// What a DelayFn returns for a token set its delay is undefined on
// (negative, non-finite, at least 1e15 cycles, or failing to evaluate): the
// simulator then stops the run cleanly instead of scheduling the firing
// (PetriSim::delay_out_of_range).
inline constexpr Cycles kBadDelay = std::numeric_limits<Cycles>::max();

// Produces the output tokens: out[i] receives the tokens for output arc i
// (exactly arc.weight tokens must be appended to each). If no FireFn is
// given, the first input token is copied to every output arc.
using FireFn = std::function<void(const TokenRefs&, std::vector<std::vector<Token>>&)>;

// Enablement predicate over the front tokens; defaults to always-true.
using GuardFn = std::function<bool(const TokenRefs&)>;

// Every member has a default initializer, so the brace form used across
// the tests ({name, inputs, outputs, servers, delay, fire, guard}) may stop
// after any field without -Wmissing-field-initializers noise.
struct TransitionSpec {
  std::string name;
  std::vector<Arc> inputs = {};
  std::vector<Arc> outputs = {};
  // Number of concurrent firings this transition supports (hardware
  // replication). 1 = a single-server pipeline stage.
  std::size_t servers = 1;
  DelayFn delay = {};  // required
  FireFn fire = {};    // optional
  GuardFn guard = {};  // optional
  // Source text of the delay/guard expressions when the closures were
  // compiled from a textual form (.pnet files). Optional, but load-bearing
  // for memoization: CompiledNet only assigns a structural hash — the key
  // cross-request sub-net memoization is allowed to use — when every
  // closure's behavior is pinned down by source text (an opaque C++ lambda
  // cannot be compared across nets, so nets carrying one are unhashable).
  std::string delay_expr = {};
  std::string guard_expr = {};
  // The compiled expressions behind the closures, when they came from a
  // textual form. Setting one is a contract about the matching closure:
  // delay_compiled asserts that `delay` is exactly "evaluate the expression
  // on the front token, check [0, 1e15), llround"; guard_compiled asserts
  // that `guard` is exactly "expression != 0 on the front token". The
  // simulator uses them to classify transitions at net-compile time
  // (constant guards, constant delays) and to serve firings without
  // entering the std::function at all — the fast paths must stay
  // bit-identical to the closures they bypass. It also memoizes them per
  // primary token (they are pure), and stops the run with an error naming
  // the transition when one fails to evaluate (PetriSim::expr_error).
  std::shared_ptr<const CompiledExpr> delay_compiled = {};
  std::shared_ptr<const CompiledExpr> guard_compiled = {};
};

class PetriNet {
 public:
  PlaceId AddPlace(std::string name, std::size_t capacity = 0, std::size_t initial_tokens = 0);
  TransitionId AddTransition(TransitionSpec spec);

  // Registers a named token-attribute slot; returns its index. Re-registering
  // an existing name returns the same index. The schema is shared by all
  // tokens in the net.
  std::size_t RegisterAttr(std::string_view name);
  // Returns the slot for `name`, or npos if unknown.
  std::size_t FindAttr(std::string_view name) const;
  static constexpr std::size_t kNoAttr = static_cast<std::size_t>(-1);

  const std::vector<Place>& places() const { return places_; }
  const std::vector<TransitionSpec>& transitions() const { return transitions_; }
  const std::vector<std::string>& attr_names() const { return attr_names_; }

  // Returns the place id with the given name; aborts if absent.
  PlaceId PlaceByName(std::string_view name) const;
  bool HasPlace(std::string_view name) const;

 private:
  std::vector<Place> places_;
  std::vector<TransitionSpec> transitions_;
  std::vector<std::string> attr_names_;
};

}  // namespace perfiface

#endif  // SRC_PETRI_NET_H_
