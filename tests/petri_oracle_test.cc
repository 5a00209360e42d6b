// Differential equivalence for the Petri-net kernel: PetriSim (token ids,
// per-run delay/guard memo, split watchers, bitset worklist) against
// PetriOracle (tests/petri_oracle.h, the Token-moving loop it replaced).
// Every observable must agree exactly: Run's result, now(),
// total_firings(), the three stop conditions (firing budget, delay out of
// range, expression error text), the marking, and the arrival log of every
// observed place (time, injection stamp, attribute bit patterns).
//
// Two corpora, both seeded:
//  - every shipped .pnet, with random attributes (zeros, negatives and
//    fractions included, so guards route, divisions fail and delays leave
//    their range) and random injection plans, per component and whole;
//  - random nets covering capacities, servers > 1, arc weights > 1,
//    attribute guards on places with several consumers, multi-producer
//    places, initial markings, FireFns, hand-built closures, observed
//    places, firing-budget and time-horizon stops, and delays that fail or
//    go out of range.
// Half the kernel runs reuse one sim through Reset, as the service does.
#include <bit>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/core/pnet.h"
#include "src/perfscript/compile.h"
#include "src/petri/compiled_net.h"
#include "src/petri/net.h"
#include "src/petri/sim.h"
#include "tests/petri_oracle.h"

namespace perfiface {
namespace {

bool SameToken(const Token& a, const Token& b) {
  return a.injected_at == b.injected_at && a.attrs.size() == b.attrs.size() &&
         std::memcmp(a.attrs.begin(), b.attrs.begin(), a.attrs.size() * sizeof(double)) == 0;
}

// Asserts every observable of the two simulators agrees.
void ExpectSame(const PetriSim& sim, const PetriOracle& oracle, std::size_t num_places,
                const std::string& what) {
  EXPECT_EQ(sim.now(), oracle.now()) << what;
  EXPECT_EQ(sim.total_firings(), oracle.total_firings()) << what;
  EXPECT_EQ(sim.firing_budget_exhausted(), oracle.firing_budget_exhausted()) << what;
  EXPECT_EQ(sim.delay_out_of_range(), oracle.delay_out_of_range()) << what;
  EXPECT_EQ(sim.expr_error(), oracle.expr_error()) << what;
  for (PlaceId p = 0; p < num_places; ++p) {
    EXPECT_EQ(sim.tokens_at(p), oracle.tokens_at(p)) << what << " place " << p;
    const std::vector<Arrival>& a = sim.arrivals(p);
    const std::vector<Arrival>& b = oracle.arrivals(p);
    ASSERT_EQ(a.size(), b.size()) << what << " place " << p;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].time, b[i].time) << what << " place " << p << " arrival " << i;
      EXPECT_TRUE(SameToken(a[i].token, b[i].token)) << what << " place " << p << " arrival "
                                                     << i;
    }
  }
}

// One injection of `count` copies of `token` into `place`.
struct Injection {
  PlaceId place = 0;
  Token token;
  std::size_t count = 1;
};

// A seeded scenario over one compiled net: what to inject, what to watch,
// and the limits that may stop the run.
struct Scenario {
  std::size_t component = PetriSim::kAllComponents;
  std::vector<Injection> first;   // before the first Run
  std::vector<Injection> second;  // before a resumed Run, if the first hit the horizon
  std::vector<PlaceId> observed;
  std::uint64_t max_firings = 0;
  Cycles horizon = 0;
};

// How the kernel's runs ended, so each corpus can assert it reached every
// stop condition rather than only the quiet path.
struct Coverage {
  int quiesced = 0;
  int budget = 0;
  int bad_delay = 0;
  int expr_error = 0;
  int horizon = 0;

  void Count(const PetriSim& sim, bool quiesced_run) {
    quiesced += quiesced_run ? 1 : 0;
    budget += sim.firing_budget_exhausted() ? 1 : 0;
    bad_delay += sim.delay_out_of_range() ? 1 : 0;
    expr_error += sim.expr_error().empty() ? 0 : 1;
  }
  void ExpectAllReached() const {
    EXPECT_GT(quiesced, 0);
    EXPECT_GT(budget, 0);
    EXPECT_GT(bad_delay, 0);
    EXPECT_GT(expr_error, 0);
    EXPECT_GT(horizon, 0);
  }
};

// Runs one scenario on both simulators. `reused` is a kernel sim kept
// across scenarios (observing every place); null means a fresh one that
// observes only scenario.observed.
void RunBoth(const CompiledNet& cnet, const Scenario& s, PetriSim* reused,
             const std::string& what, Coverage* coverage) {
  std::unique_ptr<PetriSim> fresh;
  PetriSim* sim = reused;
  if (sim == nullptr) {
    fresh = std::make_unique<PetriSim>(&cnet, s.component);
    sim = fresh.get();
  } else {
    sim->Reset(s.component);
  }
  PetriOracle oracle(&cnet, s.component);
  if (reused != nullptr) {
    for (PlaceId p = 0; p < cnet.num_places(); ++p) {
      oracle.Observe(p);
    }
  } else {
    for (const PlaceId p : s.observed) {
      sim->Observe(p);
      oracle.Observe(p);
    }
  }
  sim->set_max_firings(s.max_firings);
  oracle.set_max_firings(s.max_firings);
  auto inject = [&](const std::vector<Injection>& injections) {
    for (const Injection& inj : injections) {
      sim->Inject(inj.place, inj.token, inj.count);
      for (std::size_t i = 0; i < inj.count; ++i) {
        oracle.Inject(inj.place, inj.token);
      }
    }
  };
  inject(s.first);
  const bool q1 = sim->Run(s.horizon);
  EXPECT_EQ(q1, oracle.Run(s.horizon)) << what;
  ExpectSame(*sim, oracle, cnet.num_places(), what + " (first run)");
  if (!q1 && sim->now() == s.horizon) {
    ++coverage->horizon;
    inject(s.second);
    const bool q2 = sim->Run(s.horizon * 4);
    EXPECT_EQ(q2, oracle.Run(s.horizon * 4)) << what;
    ExpectSame(*sim, oracle, cnet.num_places(), what + " (resumed run)");
    coverage->Count(*sim, q2);
  } else {
    coverage->Count(*sim, q1);
  }
}

// Attribute values that route guards, zero divisors, and push delays
// negative or fractional.
double PickAttr(SplitMix64* rng) {
  static const double kValues[] = {0, 1, 2, 3, 4, 5, 7, 8, 64, 800, -1, 0.5, 2.5, 1234};
  return kValues[rng->NextBelow(sizeof(kValues) / sizeof(kValues[0]))];
}

Token RandomToken(SplitMix64* rng, std::size_t num_attrs) {
  Token t;
  for (std::size_t i = 0; i < num_attrs; ++i) {
    t.attrs.push_back(PickAttr(rng));
  }
  return t;
}

// Injections into `places`: service-shaped (one token, several places) or
// a mix of repeated and distinct tokens.
std::vector<Injection> RandomInjections(SplitMix64* rng, const std::vector<PlaceId>& places,
                                        std::size_t num_attrs, std::uint64_t max_count) {
  std::vector<Injection> out;
  const Token shared = RandomToken(rng, num_attrs);
  const bool service_shape = rng->NextBelow(2) == 0;
  const std::size_t n = 1 + rng->NextBelow(3);
  for (std::size_t i = 0; i < n; ++i) {
    Injection inj;
    inj.place = places[rng->NextBelow(places.size())];
    inj.token = service_shape || rng->NextBelow(3) == 0 ? shared : RandomToken(rng, num_attrs);
    inj.count = 1 + rng->NextBelow(max_count);
    out.push_back(std::move(inj));
  }
  return out;
}

Scenario RandomScenario(SplitMix64* rng, const CompiledNet& cnet, std::size_t num_attrs) {
  Scenario s;
  if (rng->NextBelow(3) != 0) {
    s.component = rng->NextBelow(cnet.num_components());
  }
  std::vector<PlaceId> places;
  for (PlaceId p = 0; p < cnet.num_places(); ++p) {
    places.push_back(p);
  }
  s.first = RandomInjections(rng, places, num_attrs, 12);
  s.second = RandomInjections(rng, places, num_attrs, 4);
  for (const PlaceId p : places) {
    if (rng->NextBelow(2) == 0) {
      s.observed.push_back(p);
    }
  }
  s.max_firings = rng->NextBelow(4) == 0 ? 1 + rng->NextBelow(40) : 5000;
  s.horizon = rng->NextBelow(4) == 0 ? 1 + rng->NextBelow(2000) : Cycles{1} << 40;
  return s;
}

TEST(PetriOracleDiff, ShippedNetsAgree) {
  SplitMix64 rng(0x5eed0f5eedULL);
  Coverage coverage;
  for (const char* name : {"jpeg", "conv", "vta", "protoacc", "components/dram_channel"}) {
    const LoadedNet loaded = LoadPnetFile(std::string(PERFIFACE_SOURCE_DIR) +
                                          "/src/core/interfaces/" + name + ".pnet");
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.error;
    const CompiledNet cnet(loaded.net.get());
    const std::size_t num_attrs = loaded.net->attr_names().size();
    PetriSim reused(&cnet);
    for (PlaceId p = 0; p < cnet.num_places(); ++p) {
      reused.Observe(p);
    }
    for (int trial = 0; trial < 300; ++trial) {
      const Scenario s = RandomScenario(&rng, cnet, num_attrs);
      RunBoth(cnet, s, trial % 2 == 0 ? &reused : nullptr,
              StrFormat("%s trial %d", name, trial), &coverage);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
  coverage.ExpectAllReached();
}

// The service's shape on the shipped jpeg net, including the frame that
// used to abort the server: bits=0 divides by zero in vld's delay.
TEST(PetriOracleDiff, JpegDivisionByZeroStopsCleanly) {
  const LoadedNet loaded =
      LoadPnetFile(std::string(PERFIFACE_SOURCE_DIR) + "/src/core/interfaces/jpeg.pnet");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const CompiledNet cnet(loaded.net.get());
  const PetriNet& net = *loaded.net;
  Token token;
  token.attrs.assign(net.attr_names().size(), 0.0);
  token.attrs[net.FindAttr("blocks")] = 8;
  Scenario s;
  s.component = 0;
  s.first = {{net.PlaceByName("hdr_in"), token, 1}, {net.PlaceByName("vld_in"), token, 8}};
  s.max_firings = 5000;
  s.horizon = Cycles{1} << 40;
  Coverage coverage;
  RunBoth(cnet, s, nullptr, "jpeg bits=0", &coverage);

  PetriSim sim(&cnet, 0);
  sim.Inject(net.PlaceByName("hdr_in"), token);
  sim.Inject(net.PlaceByName("vld_in"), token, 8);
  EXPECT_FALSE(sim.Run(Cycles{1} << 40));
  EXPECT_EQ(sim.expr_error(), "division by zero in delay of transition 'vld'");
  EXPECT_FALSE(sim.delay_out_of_range());
  EXPECT_EQ(sim.total_firings(), 1u);  // only the header fired
}

// --- Random nets -----------------------------------------------------------

constexpr std::size_t kRandomAttrs = 3;

// Delay expressions over a0..a2: constants, attribute arithmetic, and
// expressions that fail (zero divisor) or leave [0, 1e15) on some tokens.
const char* const kDelays[] = {
    "3",          "0",        "a0 * 2 + 1",       "ceil(a1 / 2) + 1", "10 / a1",
    "a0 - 4",     "a2 % a0",  "max(a0, a2) + 2",  "abs(a1) * 3",      "floor(a2 * 1.5)",
    "1e16 * a0",  "a0 + a1",
};
// Guards: attribute routing, a constant, and one that can fail.
const char* const kGuards[] = {
    "a0 < 3", "a1 != 0", "a2 >= 2", "1", "0", "10 / a1 > 2", "a0 == 1 or a2 == 2",
};

std::shared_ptr<const CompiledExpr> CompileRandomExpr(const std::string& source) {
  std::string error;
  std::shared_ptr<const CompiledExpr> expr = CompiledExpr::CompileSource(
      source,
      [](std::string_view name) -> std::optional<ExprBinding> {
        if (name.size() == 2 && name[0] == 'a' && name[1] >= '0' && static_cast<std::size_t>(name[1] - '0') < kRandomAttrs) {
          return ExprBinding::Slot(static_cast<std::uint32_t>(name[1] - '0'));
        }
        return std::nullopt;
      },
      &error);
  EXPECT_NE(expr, nullptr) << source << ": " << error;
  return expr;
}

// Attaches a compiled delay the way the .pnet loader does: closure,
// canonical text and compiled form all describe one expression.
void SetCompiledDelay(TransitionSpec* spec, const std::string& source) {
  std::shared_ptr<const CompiledExpr> expr = CompileRandomExpr(source);
  spec->delay_expr = expr->Canonical();
  spec->delay_compiled = expr;
  spec->delay = [expr](const TokenRefs& tokens) -> Cycles {
    const EvalResult r =
        expr->EvalChecked([&tokens](std::uint32_t s) { return tokens.front()->Attr(s); });
    if (!r.ok || !(r.value.num >= 0 && r.value.num < 1e15)) {
      return kBadDelay;
    }
    return static_cast<Cycles>(std::llround(r.value.num));
  };
}

void SetCompiledGuard(TransitionSpec* spec, const std::string& source) {
  std::shared_ptr<const CompiledExpr> expr = CompileRandomExpr(source);
  spec->guard_expr = expr->Canonical();
  spec->guard_compiled = expr;
  spec->guard = [expr](const TokenRefs& tokens) {
    const EvalResult r =
        expr->EvalChecked([&tokens](std::uint32_t s) { return tokens.front()->Attr(s); });
    return r.ok && r.value.num != 0.0;
  };
}

std::unique_ptr<PetriNet> RandomNet(SplitMix64* rng) {
  auto net = std::make_unique<PetriNet>();
  for (std::size_t a = 0; a < kRandomAttrs; ++a) {
    net->RegisterAttr(StrFormat("a%zu", a));
  }
  const std::size_t num_places = 3 + rng->NextBelow(6);
  for (std::size_t p = 0; p < num_places; ++p) {
    const std::size_t capacity = rng->NextBelow(3) == 0 ? 1 + rng->NextBelow(3) : 0;
    const std::size_t max_init = capacity == 0 ? 2 : capacity;
    const std::size_t init = rng->NextBelow(4) == 0 ? 1 + rng->NextBelow(max_init) : 0;
    net->AddPlace(StrFormat("p%zu", p), capacity, init);
  }
  // Up to two arcs on distinct places (both simulators check input
  // availability per arc, so one place on two input arcs is not a net
  // either of them supports).
  auto arcs = [&](std::size_t max_arcs) {
    std::vector<Arc> out;
    const std::size_t n = 1 + rng->NextBelow(max_arcs);
    for (std::size_t i = 0; i < n; ++i) {
      const PlaceId place = rng->NextBelow(num_places);
      if (out.empty() || out.front().place != place) {
        out.push_back(Arc{place, rng->NextBelow(4) == 0 ? 2u : 1u});
      }
    }
    return out;
  };
  const std::size_t num_transitions = 2 + rng->NextBelow(6);
  for (std::size_t t = 0; t < num_transitions; ++t) {
    TransitionSpec spec;
    spec.name = StrFormat("t%zu", t);
    spec.inputs = arcs(2);
    if (rng->NextBelow(5) != 0) {
      spec.outputs = arcs(2);
    }
    spec.servers = rng->NextBelow(3) == 0 ? 2 + rng->NextBelow(2) : 1;
    const std::size_t delay_kind = rng->NextBelow(6);
    if (delay_kind == 0) {
      // Hand-built closure over every input token, not only the primary.
      spec.delay = [](const TokenRefs& tokens) {
        return static_cast<Cycles>(tokens.size()) +
               static_cast<Cycles>(std::fabs(tokens[tokens.size() - 1]->Attr(2)));
      };
    } else {
      SetCompiledDelay(&spec, kDelays[rng->NextBelow(sizeof(kDelays) / sizeof(kDelays[0]))]);
    }
    const std::size_t guard_kind = rng->NextBelow(4);
    if (guard_kind == 0) {
      SetCompiledGuard(&spec, kGuards[rng->NextBelow(sizeof(kGuards) / sizeof(kGuards[0]))]);
    } else if (guard_kind == 1 && rng->NextBelow(2) == 0) {
      spec.guard = [](const TokenRefs& tokens) { return tokens[tokens.size() - 1]->Attr(1) < 4; };
    }
    if (!spec.outputs.empty() && rng->NextBelow(6) == 0) {
      // Fresh tokens: bump a0, and stamp some of them explicitly.
      const std::vector<Arc> outputs = spec.outputs;
      spec.fire = [outputs](const TokenRefs& in, std::vector<std::vector<Token>>& out) {
        const Token& primary = *in.front();
        for (std::size_t i = 0; i < outputs.size(); ++i) {
          for (std::size_t k = 0; k < outputs[i].weight; ++k) {
            Token tok = primary;
            tok.attrs.resize(kRandomAttrs);
            tok.attrs[0] = std::fmod(primary.Attr(0) + 1 + static_cast<double>(k), 6.0);
            tok.injected_at = (i + k) % 2 == 0 ? 0 : 7;
            out[i].push_back(std::move(tok));
          }
        }
      };
    }
    net->AddTransition(std::move(spec));
  }
  return net;
}

TEST(PetriOracleDiff, RandomNetsAgree) {
  SplitMix64 rng(0xd1ffe7e57ULL);
  Coverage coverage;
  for (int n = 0; n < 400; ++n) {
    const std::unique_ptr<PetriNet> net = RandomNet(&rng);
    const CompiledNet cnet(net.get());
    PetriSim reused(&cnet);
    for (PlaceId p = 0; p < cnet.num_places(); ++p) {
      reused.Observe(p);
    }
    for (int trial = 0; trial < 6; ++trial) {
      const Scenario s = RandomScenario(&rng, cnet, kRandomAttrs);
      RunBoth(cnet, s, trial % 2 == 0 ? &reused : nullptr,
              StrFormat("net %d trial %d", n, trial), &coverage);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
  coverage.ExpectAllReached();
}

}  // namespace
}  // namespace perfiface
