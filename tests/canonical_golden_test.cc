// Golden pin for CompiledExpr::Canonical().
//
// The canonical serialization of a compiled delay/guard expression is what
// the .pnet loader records as TransitionSpec::delay_expr/guard_expr, which
// is in turn the *only* expression input to CompiledNet's structural hash —
// the key under which every cross-request memo entry (pnet_memo.h) and
// every derived interface (distill.h) is stored. If the format drifts — a
// reordered ExprOp enum, a different float rendering, an "optimized"
// emission order — every one of those keys silently changes: caches go
// cold, distilled models orphan, and nothing fails loudly. This test snapshots the canonical string of every
// shipped .pnet delay and guard into a checked-in golden file so such a
// drift fails CI with an explanation instead.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/loc.h"
#include "src/core/pnet.h"

namespace perfiface {
namespace {

// Every shipped net, including the reusable component nets that only appear
// via `use` includes (their expressions reach CompiledNet too).
const char* const kShippedNets[] = {
    "jpeg.pnet", "conv.pnet", "protoacc.pnet", "vta.pnet",
    "components/dram_channel.pnet",
};

TEST(CanonicalGolden, ShippedPnetExpressionsAreByteIdentical) {
  const std::string dir = std::string(PERFIFACE_SOURCE_DIR) + "/src/core/interfaces/";
  std::string actual;
  for (const char* name : kShippedNets) {
    LoadedNet loaded = LoadPnetFile(dir + name);
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.error;
    actual += std::string("# ") + name + "\n";
    for (const TransitionSpec& t : loaded.net->transitions()) {
      actual += name + (":" + t.name) + ":delay=" + t.delay_expr + "\n";
      if (!t.guard_expr.empty()) {
        actual += name + (":" + t.name) + ":guard=" + t.guard_expr + "\n";
      }
    }
  }

  const std::string golden_path =
      std::string(PERFIFACE_SOURCE_DIR) + "/tests/golden/pnet_canonical.golden";
  const std::string golden = ReadFileOrDie(golden_path);
  EXPECT_EQ(golden, actual)
      << "CompiledExpr::Canonical() output changed for a shipped .pnet "
         "expression.\n"
         "This is not cosmetic: the canonical string keys the cross-request "
         "pnet memo table\nand the derived-interface store (via CompiledNet's\n"
         "structural hash). If the new "
         "format is intentional, every persisted/cross-version\nkey space "
         "just changed — update " << golden_path
      << "\nonly after confirming no consumer relies on key stability.\n"
         "Actual content (for regenerating the golden):\n" << actual;
}

}  // namespace
}  // namespace perfiface
