// Differential equivalence for the unified expression IR: the register
// bytecode a CompiledExpr runs (EvalChecked, with constant folding
// and the shared superinstruction peephole) must be observably identical
// to the postfix ops it was lowered from — bit-exact doubles, including
// the NaN produced, and byte-identical error strings. The oracle here is a
// stack machine over Canonical(), the serialized postfix form that memo
// keys and CompiledNet's structural hash are computed from, so the check
// also pins the register code to what those keys claim it computes.
//
// Two corpora: every delay/guard expression of every shipped .pnet
// interface, and a seeded random-expression fuzz over the full operator
// set — both swept across attribute vectors that include 0, negatives,
// non-integers, huge magnitudes, NaN, and +/-Inf.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/pnet.h"
#include "src/perfscript/compile.h"
#include "src/petri/net.h"

namespace perfiface {
namespace {

// Deterministic seed stream (SplitMix64): the fuzzed expressions and
// argument sets must be identical on every run and platform.
std::uint64_t NextRand(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Bit-exact double comparison. NaN == NaN only when the payloads match:
// both evaluators run the same arithmetic in the same order, so even NaN
// bits must agree.
bool BitEqual(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

// Attribute values the fuzz draws from; deliberately adversarial (zero
// divisors, NaN/Inf propagation, values past the 2^53 integer range).
const double kAttrPool[] = {
    0.0,    1.0, -1.0, 0.5,      -3.25, 8.0,   17.0,
    4096.0, 1e6, 1e15, 9.007e15, -1e9,  1e-12,
    std::numeric_limits<double>::quiet_NaN(),
    std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(),
};

double DrawAttr(std::uint64_t* rng) {
  if (NextRand(rng) % 4 == 0) {
    return kAttrPool[NextRand(rng) % (sizeof(kAttrPool) / sizeof(kAttrPool[0]))];
  }
  // A "plausible workload" value: non-negative, mixed magnitude.
  return static_cast<double>(NextRand(rng) % 100000) / 4.0;
}

// The oracle: evaluates Canonical()'s "op:value:slot;" postfix ops on a
// stack, in order, with no folding. Opcode numbers are CompiledExpr's
// ExprOp enum (kConst=0 ... kMax=22), which Canonical() promises to keep
// stable. Net expressions are single-line sources, so a division or
// modulo by zero reports line 1.
EvalResult EvalCanonical(const std::string& canonical, const std::vector<double>& attrs) {
  EvalResult out;
  std::vector<double> stack;
  const char* p = canonical.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const unsigned op = static_cast<unsigned>(std::strtoul(p, &end, 10));
    const double value = std::strtod(end + 1, &end);
    const auto slot = static_cast<std::uint32_t>(std::strtoul(end + 1, &end, 10));
    p = end + 1;  // past ';'
    if (op == 0) {
      stack.push_back(value);
      continue;
    }
    if (op == 1) {
      stack.push_back(slot < attrs.size() ? attrs[slot] : 0.0);
      continue;
    }
    if (op >= 15 && op <= 20) {  // unary: neg not ceil floor abs sqrt
      double& x = stack.back();
      switch (op) {
        case 15: x = -x; break;
        case 16: x = x == 0 ? 1 : 0; break;
        case 17: x = std::ceil(x); break;
        case 18: x = std::floor(x); break;
        case 19: x = std::fabs(x); break;
        default: x = std::sqrt(x); break;
      }
      continue;
    }
    const double b = stack.back();
    stack.pop_back();
    double& a = stack.back();
    switch (op) {
      case 2: a = a + b; break;
      case 3: a = a - b; break;
      case 4: a = a * b; break;
      case 5:
      case 6:
        if (b == 0) {
          out.error = op == 5 ? "line 1: division by zero" : "line 1: modulo by zero";
          return out;
        }
        a = op == 5 ? a / b : std::fmod(a, b);
        break;
      case 7: a = a < b ? 1 : 0; break;
      case 8: a = a <= b ? 1 : 0; break;
      case 9: a = a > b ? 1 : 0; break;
      case 10: a = a >= b ? 1 : 0; break;
      case 11: a = a == b ? 1 : 0; break;
      case 12: a = a != b ? 1 : 0; break;
      case 13: a = (a != 0 && b != 0) ? 1 : 0; break;
      case 14: a = (a != 0 || b != 0) ? 1 : 0; break;
      case 21: a = MinNum(a, b); break;
      case 22: a = MaxNum(a, b); break;
      default: ADD_FAILURE() << "unknown opcode " << op << " in " << canonical; return out;
    }
  }
  EXPECT_EQ(stack.size(), 1u) << canonical;
  out.ok = true;
  out.value = Value::Number(stack.back());
  return out;
}

// Asserts the oracle and the register code agree on one attribute vector:
// same ok flag, byte-identical error, bit-exact value.
void ExpectSame(const CompiledExpr& expr, const std::vector<double>& attrs,
                const std::string& what) {
  const auto slot = [&attrs](std::uint32_t s) {
    return s < attrs.size() ? attrs[s] : 0.0;
  };
  const EvalResult oracle = EvalCanonical(expr.Canonical(), attrs);
  const EvalResult regs = expr.EvalChecked(slot);
  ASSERT_EQ(oracle.ok, regs.ok) << what << ": " << oracle.error << " / " << regs.error;
  if (!oracle.ok) {
    EXPECT_EQ(oracle.error, regs.error) << what;
    return;
  }
  EXPECT_TRUE(BitEqual(oracle.Num(), regs.Num()))
      << what << ": oracle=" << oracle.Num() << " regs=" << regs.Num();
}

TEST(ExprDiff, ShippedNetExpressionsAgree) {
  std::uint64_t rng = 0x9d1f29a4c0ffee01ULL;
  std::size_t expressions = 0;
  for (const char* name : {"jpeg", "protoacc", "vta", "conv"}) {
    const LoadedNet loaded = LoadPnetFile(std::string(PERFIFACE_SOURCE_DIR) +
                                          "/src/core/interfaces/" + name + ".pnet");
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.error;
    const std::size_t num_attrs = loaded.net->attr_names().size();
    for (const TransitionSpec& spec : loaded.net->transitions()) {
      for (const auto& compiled : {spec.delay_compiled, spec.guard_compiled}) {
        if (compiled == nullptr) continue;
        ++expressions;
        for (int trial = 0; trial < 64; ++trial) {
          std::vector<double> attrs(num_attrs);
          for (double& a : attrs) a = DrawAttr(&rng);
          ExpectSame(*compiled, attrs,
                     std::string(name) + "/" + spec.name + " trial " +
                         std::to_string(trial));
        }
      }
    }
  }
  // Every delay and guard of the shipped nets compiled (a loader that
  // attached none would pass the comparisons vacuously).
  EXPECT_GT(expressions, 10u);
}

// --------------------------------------------------------------------------
// Random-expression corpus
// --------------------------------------------------------------------------

const char* const kLeafConsts[] = {"0", "1", "2", "0.5", "3", "8", "4096", "1.5", "7"};

std::string GenExpr(std::uint64_t* rng, int depth) {
  if (depth <= 0 || NextRand(rng) % 100 < 25) {
    switch (NextRand(rng) % 6) {
      case 0: return "a";
      case 1: return "b";
      case 2: return "c";
      default:
        return kLeafConsts[NextRand(rng) % (sizeof(kLeafConsts) / sizeof(kLeafConsts[0]))];
    }
  }
  const char* const kBinOps[] = {"+", "-",  "*",  "/",  "%",   "<",  "<=",
                                 ">", ">=", "==", "!=", "and", "or"};
  switch (NextRand(rng) % 20) {
    case 0: return "(-" + GenExpr(rng, depth - 1) + ")";
    case 1: return "(not " + GenExpr(rng, depth - 1) + ")";
    case 2: return "ceil(" + GenExpr(rng, depth - 1) + ")";
    case 3: return "floor(" + GenExpr(rng, depth - 1) + ")";
    case 4: return "abs(" + GenExpr(rng, depth - 1) + ")";
    case 5: return "sqrt(" + GenExpr(rng, depth - 1) + ")";
    case 6: return "min(" + GenExpr(rng, depth - 1) + ", " + GenExpr(rng, depth - 1) + ")";
    case 7: return "max(" + GenExpr(rng, depth - 1) + ", " + GenExpr(rng, depth - 1) + ")";
    default: {
      const char* op = kBinOps[NextRand(rng) % (sizeof(kBinOps) / sizeof(kBinOps[0]))];
      return "(" + GenExpr(rng, depth - 1) + " " + op + " " + GenExpr(rng, depth - 1) + ")";
    }
  }
}

TEST(ExprDiff, RandomExpressionCorpusAgrees) {
  std::uint64_t rng = 0x5eed5eed5eed5eedULL;
  const ExprBinder binder = [](std::string_view name) -> std::optional<ExprBinding> {
    if (name == "a") return ExprBinding::Slot(0);
    if (name == "b") return ExprBinding::Slot(1);
    if (name == "c") return ExprBinding::Slot(2);
    return std::nullopt;
  };
  ExprCompileOptions options;
  options.domain = "net expressions";  // match the .pnet loader's error phrasing

  // Lowering is total: all 400 expressions compile to register code.
  for (int i = 0; i < 400; ++i) {
    const std::string source = GenExpr(&rng, 5);
    std::string error;
    const auto expr = CompiledExpr::CompileSource(source, binder, &error, options);
    ASSERT_NE(expr, nullptr) << source << ": " << error;
    ASSERT_FALSE(expr->reg_code().empty()) << source;
    for (int trial = 0; trial < 16; ++trial) {
      std::vector<double> attrs(3);
      for (double& a : attrs) a = DrawAttr(&rng);
      ExpectSame(*expr, attrs, source);
    }
  }
}

TEST(ExprDiff, DivisionByZeroErrorStringsMatchTheLoader) {
  const ExprBinder binder = [](std::string_view name) -> std::optional<ExprBinding> {
    if (name == "a") return ExprBinding::Slot(0);
    return std::nullopt;
  };
  ExprCompileOptions options;
  options.domain = "net expressions";
  std::string error;
  const auto expr = CompiledExpr::CompileSource("(7 / a)", binder, &error, options);
  ASSERT_NE(expr, nullptr) << error;
  const EvalResult regs = expr->EvalChecked([](std::uint32_t) { return 0.0; });
  ASSERT_FALSE(regs.ok);
  EXPECT_EQ(regs.error, "line 1: division by zero");
  EXPECT_EQ(regs.error, EvalCanonical(expr->Canonical(), {0.0}).error);
}

// min/max order -0 below +0 in every form the lowering can pick (plain,
// constant-second, clamp, folded), so the sign of a zero result never
// depends on how a build expands the call.
TEST(ExprDiff, MinMaxOrderSignedZeros) {
  const auto slot_binder = [](std::string_view name) -> std::optional<ExprBinding> {
    return ExprBinding::Slot(static_cast<std::uint32_t>(std::stoul(std::string(name.substr(1)))));
  };
  struct Case {
    const char* source;
    std::vector<double> attrs;
    bool negative;  // expected sign of the zero result
  };
  const std::vector<Case> cases = {
      {"min(a0, a1)", {-0.0, 0.0}, true},   {"min(a0, a1)", {0.0, -0.0}, true},
      {"max(a0, a1)", {-0.0, 0.0}, false},  {"max(a0, a1)", {0.0, -0.0}, false},
      {"min(a0, 0)", {-0.0}, true},         {"min(a0, -0)", {0.0}, true},
      {"max(a0, 0)", {-0.0}, false},        {"max(a0, -0)", {0.0}, false},
      {"max(min(a0, -0), 0)", {0.0}, false},
      // Folded at compile time; a0 * 0 + x keeps the sign of a zero x
      // when a0 is -0.
      {"a0 * 0 + min(-0, 0)", {-0.0}, true}, {"a0 * 0 + max(-0, 0)", {-0.0}, false},
  };
  for (const Case& c : cases) {
    std::string error;
    const auto expr = CompiledExpr::CompileSource(c.source, slot_binder, &error);
    ASSERT_NE(expr, nullptr) << c.source << ": " << error;
    const double got = expr->EvalChecked([&c](std::uint32_t s) { return c.attrs[s]; }).Num();
    EXPECT_EQ(got, 0.0) << c.source;
    EXPECT_EQ(std::signbit(got), c.negative) << c.source << " a0=" << c.attrs[0];
    ExpectSame(*expr, c.attrs, c.source);
  }
}

// Lowering is total within the documented limits; past them, compilation
// fails with an error naming the limit instead of leaving an expression
// without register code.
TEST(ExprDiff, ExpressionsPastTheLimitsAreCompileErrors) {
  const auto slot_binder = [](std::string_view name) -> std::optional<ExprBinding> {
    return ExprBinding::Slot(static_cast<std::uint32_t>(std::stoul(std::string(name.substr(1)))));
  };
  std::string error;
  EXPECT_NE(CompiledExpr::CompileSource("a179 + 1", slot_binder, &error), nullptr) << error;
  EXPECT_EQ(CompiledExpr::CompileSource("a180 + 1", slot_binder, &error), nullptr);
  EXPECT_EQ(error,
            "expression reads attribute slot 180; net expressions address at most 180 "
            "attribute slots");

  std::string deep = "a0";
  for (int i = 0; i < 70; ++i) deep = "a1 * (" + deep + " + a2)";
  EXPECT_EQ(CompiledExpr::CompileSource(deep, slot_binder, &error), nullptr);
  EXPECT_EQ(error, "expression too deep");
}

}  // namespace
}  // namespace perfiface
