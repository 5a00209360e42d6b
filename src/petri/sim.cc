#include "src/petri/sim.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string_view>

#include "src/common/check.h"
#include "src/common/strings.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/perfscript/compile.h"

namespace perfiface {

namespace {

// Marks a delay memo slot not yet evaluated; valid delays stay below 1e15.
constexpr Cycles kUnknownDelay = kBadDelay - 1;

// Same attribute bit patterns (so NaN payloads and signed zeros count) and
// the same injection stamp.
bool BitEqual(const Token& a, const Token& b) {
  return a.injected_at == b.injected_at && a.attrs.size() == b.attrs.size() &&
         std::memcmp(a.attrs.begin(), b.attrs.begin(), a.attrs.size() * sizeof(double)) == 0;
}

}  // namespace

PetriSim::PetriSim(const PetriNet* net)
    : owned_(std::make_unique<CompiledNet>(net)), cnet_(owned_.get()) {
  Reset();
}

PetriSim::PetriSim(const CompiledNet* compiled, std::size_t component)
    : cnet_(compiled), component_(component) {
  PI_CHECK(cnet_ != nullptr);
  Reset(component);
}

void PetriSim::Reset(std::size_t component) {
  PI_CHECK(component == kAllComponents || component < cnet_->num_components());
  component_ = component;
  Reset();
}

void PetriSim::Reset() {
  now_ = 0;
  seq_ = 0;
  total_firings_ = 0;
  budget_exhausted_ = false;
  delay_out_of_range_ = false;
  stopped_ = false;
  expr_error_.clear();
  num_transitions_ = cnet_->num_transitions();

  pool_.clear();
  free_ids_.clear();
  last_injected_ = kNoToken;
  delay_memo_.clear();
  guard_memo_.clear();
  // Only markings, logs and in-flight firings are cleared; observed places
  // stay instrumented.
  places_.resize(cnet_->num_places());
  TokenId initial = kNoToken;
  for (std::size_t p = 0; p < places_.size(); ++p) {
    PlaceState& ps = places_[p];
    ps.head = 0;
    ps.count = 0;
    ps.reserved = 0;
    ps.log.clear();
    const std::uint32_t init = cnet_->places()[p].initial_tokens;
    if (init > 0 && initial == kNoToken) {
      initial = NewToken(Token{}, /*pinned=*/true);
    }
    for (std::uint32_t k = 0; k < init; ++k) {
      Push(&ps, initial);  // the initial marking is not an arrival
    }
  }
  busy_servers_.assign(num_transitions_, 0);
  events_.clear();
  stride_ = 0;
  for (const CompiledNet::Transition& trans : cnet_->transitions()) {
    stride_ = std::max<std::size_t>(stride_, trans.total_input_weight);
  }
  slab_tokens_.resize(slab_transition_.size() * stride_);
  free_slots_.resize(slab_transition_.size());
  for (std::uint32_t i = 0; i < free_slots_.size(); ++i) {
    free_slots_[i] = static_cast<std::uint32_t>(free_slots_.size()) - 1 - i;
  }
  // A component-restricted sim seeds the worklist with that component's
  // transitions only; TryStart additionally refuses out-of-component
  // firings (tokens injected into a foreign component's place would
  // otherwise re-mark its watchers).
  pending_.assign((num_transitions_ + 63) / 64, 0);
  for (std::size_t t = 0; t < num_transitions_; ++t) {
    if (component_ == kAllComponents || cnet_->transitions()[t].component == component_) {
      pending_[t >> 6] |= std::uint64_t{1} << (t & 63);
    }
  }
}

PetriSim::TokenId PetriSim::NewToken(Token token, bool pinned) {
  TokenId id;
  if (!pinned && !free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
    pool_[id].token = std::move(token);
    std::fill_n(delay_memo_.begin() + static_cast<std::ptrdiff_t>(id * num_transitions_),
                num_transitions_, kUnknownDelay);
    std::fill_n(guard_memo_.begin() + static_cast<std::ptrdiff_t>(id * num_transitions_),
                num_transitions_, std::int8_t{-1});
  } else {
    id = static_cast<TokenId>(pool_.size());
    pool_.push_back(PoolEntry{std::move(token), 0, pinned});
    delay_memo_.resize(pool_.size() * num_transitions_, kUnknownDelay);
    guard_memo_.resize(pool_.size() * num_transitions_, -1);
  }
  pool_[id].refs = 0;
  pool_[id].pinned = pinned;
  return id;
}

void PetriSim::Release(TokenId id) {
  PoolEntry& e = pool_[id];
  PI_CHECK(e.refs > 0);
  if (--e.refs == 0 && !e.pinned) {
    free_ids_.push_back(id);
  }
}

void PetriSim::Inject(PlaceId place, Token token, std::size_t count) {
  PI_CHECK(place < places_.size());
  token.injected_at = now_;
  if (last_injected_ == kNoToken || !BitEqual(pool_[last_injected_].token, token)) {
    last_injected_ = NewToken(std::move(token), /*pinned=*/true);
  }
  for (std::size_t i = 0; i < count; ++i) {
    Deposit(place, last_injected_);
  }
}

void PetriSim::Observe(PlaceId place) {
  PI_CHECK(place < places_.size());
  places_[place].observed = true;
}

const std::vector<Arrival>& PetriSim::arrivals(PlaceId place) const {
  PI_CHECK(place < places_.size());
  return places_[place].log;
}

std::size_t PetriSim::tokens_at(PlaceId place) const {
  PI_CHECK(place < places_.size());
  return places_[place].count;
}

void PetriSim::Deposit(PlaceId place, TokenId id) {
  PlaceState& ps = places_[place];
  if (ps.observed) {
    ps.log.push_back(Arrival{now_, pool_[id].token});
  }
  Push(&ps, id);
  const CompiledNet::PlaceInfo& info = cnet_->places()[place];
  MarkRange(info.consumers_begin, info.consumers_end);
}

void PetriSim::Push(PlaceState* ps, TokenId id) {
  if (ps->count == ps->ring.size()) {
    // Grow the ring, unrolling it so the front lands at index 0.
    std::vector<TokenId> grown(std::max<std::size_t>(8, 2 * ps->ring.size()));
    for (std::uint32_t k = 0; k < ps->count; ++k) {
      grown[k] = ps->at(k);
    }
    ps->ring.swap(grown);
    ps->head = 0;
  }
  ps->ring[(ps->head + ps->count) & static_cast<std::uint32_t>(ps->ring.size() - 1)] = id;
  ++ps->count;
  ++pool_[id].refs;
}

PetriSim::TokenId PetriSim::PopFront(PlaceId place) {
  PlaceState& ps = places_[place];
  const TokenId id = ps.ring[ps.head];
  ps.head = (ps.head + 1) & static_cast<std::uint32_t>(ps.ring.size() - 1);
  --ps.count;
  return id;
}

TokenRefs PetriSim::InputRefs(const CompiledNet::Transition& trans) const {
  const std::vector<CompiledNet::CompiledArc>& in_arcs = cnet_->inputs();
  TokenRefs refs;
  for (std::uint32_t i = trans.in_begin; i < trans.in_end; ++i) {
    const PlaceState& ps = places_[in_arcs[i].place];
    for (std::uint32_t k = 0; k < in_arcs[i].weight; ++k) {
      refs.push_back(&pool_[ps.at(k)].token);
    }
  }
  return refs;
}

void PetriSim::FailExpr(TransitionId t, const char* what, const std::string& error) {
  // EvalChecked prefixes the expression's source line, which says nothing
  // inside a one-line net annotation: name the transition instead.
  std::string_view cause = error;
  if (StartsWith(cause, "line ")) {
    const std::size_t colon = cause.find(": ");
    if (colon != std::string_view::npos) {
      cause.remove_prefix(colon + 2);
    }
  }
  expr_error_ = StrFormat("%.*s in %s of transition '%s'", static_cast<int>(cause.size()),
                          cause.data(), what, cnet_->source().transitions()[t].name.c_str());
  stopped_ = true;
}

bool PetriSim::TryStart(TransitionId t) {
  const CompiledNet::Transition& trans = cnet_->transitions()[t];
  // Component restriction is enforced here, not only at Reset: injecting
  // into another component's place marks its watchers pending, and those
  // must still never fire.
  if (component_ != kAllComponents && trans.component != component_) {
    return false;
  }
  if (stopped_ || busy_servers_[t] >= trans.servers) {
    return false;
  }
  const std::vector<CompiledNet::CompiledArc>& in_arcs = cnet_->inputs();
  const std::vector<CompiledNet::CompiledArc>& out_arcs = cnet_->outputs();

  for (std::uint32_t i = trans.in_begin; i < trans.in_end; ++i) {
    if (places_[in_arcs[i].place].count < in_arcs[i].weight) {
      return false;
    }
  }
  // Guards and delays read the primary token: the front of the first
  // input arc's place.
  const TokenId primary = places_[in_arcs[trans.in_begin].place].at(0);
  const std::size_t memo_slot = primary * num_transitions_ + t;
  const auto attr = [this, primary](std::uint32_t slot) {
    return pool_[primary].token.Attr(slot);
  };

  // Guard, via the cheapest route the compile-time classification allows:
  // the folded value of a constant guard, the memoized value of the
  // loader's compiled expression (same front token, same attrs as its
  // closure), or the closure of a net built in C++.
  if (trans.guard_const) {
    if (!trans.guard_value) {
      return false;
    }
  } else if (trans.guard_code != nullptr) {
    std::int8_t& g = guard_memo_[memo_slot];
    if (g < 0) {
      const EvalResult r = trans.guard_code->EvalChecked(attr);
      if (!r.ok) {
        FailExpr(t, "guard", r.error);
        return false;
      }
      g = r.value.num != 0.0 ? 1 : 0;
    }
    if (g == 0) {
      return false;
    }
  } else if (trans.guard != nullptr && !(*trans.guard)(InputRefs(trans))) {
    return false;
  }

  // Check output room (blocking-before-service). Consumption by this firing
  // from places on both sides was precomputed at compile time.
  if (trans.has_bounded_output) {
    for (std::uint32_t i = trans.out_begin; i < trans.out_end; ++i) {
      const CompiledNet::CompiledArc& out = out_arcs[i];
      const std::uint32_t capacity = cnet_->places()[out.place].capacity;
      if (capacity == 0) {
        continue;
      }
      const PlaceState& ps = places_[out.place];
      const std::size_t occupied =
          std::size_t{ps.count} + ps.reserved - out.consumed_from_place;
      if (occupied + out.weight > capacity) {
        return false;
      }
    }
  }

  // Constant delays were pre-validated and rounded at net-compile time;
  // compiled delays repeat the loader closure's exact range check and
  // rounding, once per (transition, primary token).
  Cycles delay;
  if (trans.delay_const) {
    delay = trans.const_delay;
  } else if (trans.delay_code != nullptr) {
    Cycles& d = delay_memo_[memo_slot];
    if (d == kUnknownDelay) {
      const EvalResult r = trans.delay_code->EvalChecked(attr);
      if (!r.ok) {
        FailExpr(t, "delay", r.error);
        return false;
      }
      const double v = r.value.num;
      d = v >= 0 && v < 1e15 ? static_cast<Cycles>(std::llround(v)) : kBadDelay;
    }
    delay = d;
  } else {
    delay = (*trans.delay)(InputRefs(trans));
  }
  if (delay == kBadDelay) {
    // Clean stop, like the firing budget: the workload (say, a negative or
    // NaN attribute) drove a delay expression out of range. Nothing is
    // consumed, and Run() reports the stop through its return value.
    delay_out_of_range_ = true;
    stopped_ = true;
    return false;
  }

  // Consume inputs into a scheduled slab slot.
  TokenId* consumed = &slab_tokens_[ScheduleFiring(t, now_ + delay) * stride_];
  for (std::uint32_t i = trans.in_begin; i < trans.in_end; ++i) {
    const PlaceId place = in_arcs[i].place;
    for (std::uint32_t k = 0; k < in_arcs[i].weight; ++k) {
      *consumed++ = PopFront(place);
    }
    // A new front token may pass a consumer's guard, and a bounded place
    // has room for its producers again.
    const CompiledNet::PlaceInfo& info = cnet_->places()[place];
    MarkRange(info.consumers_begin, info.consumers_end);
    if (info.capacity != 0) {
      MarkRange(info.producers_begin, info.producers_end);
    }
  }

  // Reserve output room.
  for (std::uint32_t i = trans.out_begin; i < trans.out_end; ++i) {
    places_[out_arcs[i].place].reserved += out_arcs[i].weight;
  }

  ++busy_servers_[t];
  ++total_firings_;
  if (total_firings_ >= max_firings_) {
    // Clean stop, not an abort: callers serving untrusted nets (the
    // prediction service) must be able to reject a pathological net
    // (zero-delay loop, unbounded token growth) without taking down the
    // process. Run() reports the truncation through its return value.
    budget_exhausted_ = true;
    stopped_ = true;
  }
  return true;
}

void PetriSim::StartAll() {
  // Deterministic worklist: always service the lowest-id pending transition,
  // which reproduces the firing order of a full in-order rescan.
  for (;;) {
    std::size_t w = 0;
    while (w < pending_.size() && pending_[w] == 0) {
      ++w;
    }
    if (w == pending_.size()) {
      return;
    }
    const std::size_t bit = static_cast<std::size_t>(std::countr_zero(pending_[w]));
    const TransitionId next = w * 64 + bit;
    while (TryStart(next)) {
    }
    // The failed attempt saw every change next's own firings made, so
    // the marks those firings set on next are spent.
    pending_[w] &= ~(std::uint64_t{1} << bit);
  }
}

void PetriSim::Complete(std::uint32_t slot) {
  const TransitionId t = slab_transition_[slot];
  const CompiledNet::Transition& trans = cnet_->transitions()[t];
  const std::vector<CompiledNet::CompiledArc>& out_arcs = cnet_->outputs();
  const TokenId* consumed = &slab_tokens_[slot * stride_];
  const std::uint32_t num_consumed = trans.total_input_weight;

  if (trans.fire != nullptr) {
    const char* trans_name = cnet_->source().transitions()[t].name.c_str();
    TokenRefs refs;
    for (std::uint32_t i = 0; i < num_consumed; ++i) {
      refs.push_back(&pool_[consumed[i]].token);
    }
    const std::size_t num_outputs = trans.out_end - trans.out_begin;
    fire_outputs_.resize(num_outputs);
    for (std::vector<Token>& out : fire_outputs_) {
      out.clear();
    }
    (*trans.fire)(refs, fire_outputs_);
    const Cycles primary_stamp = pool_[consumed[0]].token.injected_at;
    for (std::size_t i = 0; i < num_outputs; ++i) {
      const CompiledNet::CompiledArc& out = out_arcs[trans.out_begin + i];
      PI_CHECK_MSG(fire_outputs_[i].size() == out.weight, trans_name);
      PI_CHECK(places_[out.place].reserved >= out.weight);
      places_[out.place].reserved -= out.weight;
      for (Token& tok : fire_outputs_[i]) {
        // Preserve the primary input's injection stamp unless the FireFn
        // produced fresh tokens (injected_at == 0 default): latency
        // measurement follows the primary path.
        if (tok.injected_at == 0) {
          tok.injected_at = primary_stamp;
        }
        Deposit(out.place, NewToken(std::move(tok), /*pinned=*/false));
      }
    }
  } else {
    // Default: replicate the primary (first) input token.
    for (std::uint32_t i = trans.out_begin; i < trans.out_end; ++i) {
      const CompiledNet::CompiledArc& out = out_arcs[i];
      PI_CHECK(places_[out.place].reserved >= out.weight);
      places_[out.place].reserved -= out.weight;
      for (std::uint32_t k = 0; k < out.weight; ++k) {
        Deposit(out.place, consumed[0]);
      }
    }
  }
  for (std::uint32_t i = 0; i < num_consumed; ++i) {
    Release(consumed[i]);
  }

  PI_CHECK(busy_servers_[t] > 0);
  --busy_servers_[t];
  // A freed server may allow the next firing of this transition.
  pending_[t >> 6] |= std::uint64_t{1} << (t & 63);
}

std::uint32_t PetriSim::ScheduleFiring(TransitionId t, Cycles complete_at) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slab_transition_.size());
    slab_transition_.push_back(t);
    slab_tokens_.resize(slab_transition_.size() * stride_);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_transition_[slot] = t;
  }
  events_.push_back(EventRef{complete_at, seq_++, slot});
  std::push_heap(events_.begin(), events_.end(), FiringOrder());
  return slot;
}

bool PetriSim::Run(Cycles max_time) {
  static obs::MetricsRegistry::Counter& runs_total = obs::MetricsRegistry::Global().GetCounter(
      "perfiface_pnet_runs_total", "Petri-net simulation runs");
  static obs::MetricsRegistry::Counter& firings_total = obs::MetricsRegistry::Global().GetCounter(
      "perfiface_pnet_firings_total", "Petri-net transition firings");
  // Tracing cost is decided once per run: the per-firing instants below are
  // subject to the tracer's sampling knob, the loop itself only pays a
  // relaxed load when tracing is off.
  obs::Tracer& tracer = obs::Tracer::Global();
  const bool traced = tracer.enabled();
  obs::SpanGuard span("pnet", "run");
  const std::uint64_t firings_before = total_firings_;

  const bool quiesced = [&] {
    for (;;) {
      StartAll();
      if (traced) {
        // In-flight firings == tokens currently being processed.
        tracer.Counter("pnet", "tokens_in_flight", static_cast<double>(events_.size()));
      }
      if (delay_out_of_range_ || !expr_error_.empty()) {
        return false;
      }
      if (budget_exhausted_) {
        if (traced) {
          // The clean stop is an event worth pinning on the timeline: it is
          // the difference between "the net quiesced" and "the service gave
          // up on a pathological net".
          tracer.Instant("pnet", "budget_exhausted", "firings",
                         static_cast<double>(total_firings_));
        }
        return false;
      }
      if (events_.empty()) {
        return true;
      }
      const Cycles t = events_.front().complete_at;
      if (t > max_time) {
        now_ = max_time;
        return false;
      }
      now_ = t;
      while (!events_.empty() && events_.front().complete_at == now_) {
        std::pop_heap(events_.begin(), events_.end(), FiringOrder());
        const std::uint32_t slot = events_.back().slot;
        events_.pop_back();
        const TransitionId fired = slab_transition_[slot];
        Complete(slot);
        free_slots_.push_back(slot);
        if (traced) {
          tracer.Instant("pnet", "fire", "sim_time", static_cast<double>(now_), "transition",
                         std::string(cnet_->source().transitions()[fired].name));
        }
      }
    }
  }();

  runs_total.Increment();
  firings_total.Add(total_firings_ - firings_before);
  if (span.active()) {
    span.SetArg("firings", static_cast<double>(total_firings_ - firings_before));
  }
  return quiesced;
}

}  // namespace perfiface
