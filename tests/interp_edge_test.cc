// PerfScript edge cases beyond perfscript_test.cc, run on the bytecode Vm
// that serves interface programs: forward references, nesting, shadowing,
// resource limits, and grammar corners that shipped interfaces are allowed
// to rely on.
#include <gtest/gtest.h>

#include <memory>

#include "src/perfscript/compile.h"
#include "src/perfscript/parser.h"
#include "src/perfscript/vm.h"

namespace perfiface {
namespace {

std::shared_ptr<const CompiledProgram> CompileSource(const std::string& src) {
  ParseResult parsed = ParseProgram(src);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  CompileProgramResult compiled = CompileProgram(parsed.program, {});
  EXPECT_TRUE(compiled.ok()) << compiled.error;
  return compiled.program;
}

double Eval(const std::string& src, const std::string& fn,
            const std::vector<Value>& args = {}) {
  Vm vm(CompileSource(src));
  const EvalResult r = vm.Call(fn, args);
  EXPECT_TRUE(r.ok) << r.error;
  return r.value.num;
}

TEST(ProgramEdge, ForwardReferencesAcrossFunctions) {
  // `caller` is defined before `callee` in the source: name resolution is
  // by program, not by position (Fig 3's read_cost relies on this pattern
  // in reverse).
  const std::string src =
      "def caller(x):\n"
      " return callee(x) + 1\n"
      "end\n"
      "def callee(x):\n"
      " return x * 2\n"
      "end\n";
  EXPECT_DOUBLE_EQ(Eval(src, "caller", {Value::Number(5)}), 11.0);
}

TEST(ProgramEdge, NestedForLoops) {
  class Grid : public ScriptObject {
   public:
    explicit Grid(int depth) {
      if (depth > 0) {
        for (int i = 0; i < 3; ++i) {
          children_.push_back(std::make_unique<Grid>(depth - 1));
        }
      }
    }
    std::optional<double> GetAttr(std::string_view name) const override {
      if (name == "one") {
        return 1.0;
      }
      return std::nullopt;
    }
    std::size_t NumChildren() const override { return children_.size(); }
    const ScriptObject* Child(std::size_t i) const override { return children_[i].get(); }

   private:
    std::vector<std::unique_ptr<Grid>> children_;
  };

  const std::string src =
      "def count(g):\n"
      " total = 0\n"
      " for row in g:\n"
      "  for cell in row:\n"
      "   total += cell.one\n"
      "  end\n"
      " end\n"
      " return total\n"
      "end\n";
  Grid grid(2);
  EXPECT_DOUBLE_EQ(Eval(src, "count", {Value::Object(&grid)}), 9.0);
}

TEST(ProgramEdge, LoopVariableShadowsAndPersists) {
  class Two : public ScriptObject {
   public:
    std::optional<double> GetAttr(std::string_view) const override { return std::nullopt; }
    std::size_t NumChildren() const override { return 2; }
    const ScriptObject* Child(std::size_t) const override { return this; }
  };
  // After the loop, the loop variable holds the last child (objects are
  // values too); using it numerically must fail, but reassigning is fine.
  const std::string src =
      "def f(obj):\n"
      " x = 5\n"
      " for x in obj:\n"
      "  y = 1\n"
      " end\n"
      " x = 7\n"
      " return x\n"
      "end\n";
  Two two;
  EXPECT_DOUBLE_EQ(Eval(src, "f", {Value::Object(&two)}), 7.0);
}

TEST(ProgramEdge, EarlyReturnFromLoop) {
  class Five : public ScriptObject {
   public:
    std::optional<double> GetAttr(std::string_view name) const override {
      if (name == "v") {
        return 3.0;
      }
      return std::nullopt;
    }
    std::size_t NumChildren() const override { return 5; }
    const ScriptObject* Child(std::size_t) const override { return this; }
  };
  const std::string src =
      "def f(obj):\n"
      " n = 0\n"
      " for c in obj:\n"
      "  n += 1\n"
      "  if n == 2:\n"
      "   return c.v * n\n"
      "  end\n"
      " end\n"
      " return 0\n"
      "end\n";
  Five five;
  EXPECT_DOUBLE_EQ(Eval(src, "f", {Value::Object(&five)}), 6.0);
}

TEST(ProgramEdge, StepBudgetStopsLongLoops) {
  class Wide : public ScriptObject {
   public:
    std::optional<double> GetAttr(std::string_view) const override { return 1.0; }
    std::size_t NumChildren() const override { return 1000000; }
    const ScriptObject* Child(std::size_t) const override { return this; }
  };
  Vm vm(CompileSource(
      "def f(o):\n"
      " n = 0\n"
      " for c in o:\n"
      "  n += 1\n"
      " end\n"
      " return n\n"
      "end\n"));
  vm.set_max_steps(10000);
  Wide wide;
  const EvalResult r = vm.Call("f", {Value::Object(&wide)});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("step budget"), std::string::npos);
  EXPECT_TRUE(vm.step_budget_exhausted());
}

TEST(ProgramEdge, UnboundedLoopFailsCleanlyAndVmStaysUsable) {
  // An effectively unbounded loop (the object claims endless children) must
  // come back as a clean error under max_steps — never an abort or a hang —
  // and the same Vm must answer the next call normally, because serving
  // workers reuse one Vm per thread across requests.
  class Endless : public ScriptObject {
   public:
    std::optional<double> GetAttr(std::string_view) const override { return 1.0; }
    std::size_t NumChildren() const override { return static_cast<std::size_t>(-1); }
    const ScriptObject* Child(std::size_t) const override { return this; }
  };
  Vm vm(CompileSource(
      "def f(o):\n"
      " n = 0\n"
      " for c in o:\n"
      "  n += c.x\n"
      " end\n"
      " return n\n"
      "end\n"
      "def g():\n"
      " return 42\n"
      "end\n"));
  vm.set_max_steps(5000);
  Endless endless;
  const EvalResult r = vm.Call("f", {Value::Object(&endless)});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("step budget exhausted"), std::string::npos);
  EXPECT_TRUE(vm.step_budget_exhausted());
  EXPECT_LE(vm.steps_used(), 5001u);

  // Call resets the per-call state: the next request succeeds.
  const EvalResult ok = vm.Call("g", {});
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_DOUBLE_EQ(ok.value.num, 42.0);
  EXPECT_FALSE(vm.step_budget_exhausted());
}

TEST(ProgramEdge, ComparisonChainsAreLeftAssociative) {
  // (1 < 2) < 3  ->  1 < 3  ->  1.
  EXPECT_DOUBLE_EQ(Eval("def f():\n return 1 < 2 < 3\nend\n", "f"), 1.0);
  // (3 < 2) < 1  ->  0 < 1  ->  1 (documenting non-Python chaining).
  EXPECT_DOUBLE_EQ(Eval("def f():\n return 3 < 2 < 1\nend\n", "f"), 1.0);
}

TEST(ProgramEdge, NotOperator) {
  EXPECT_DOUBLE_EQ(Eval("def f():\n return not 0\nend\n", "f"), 1.0);
  EXPECT_DOUBLE_EQ(Eval("def f():\n return not 3\nend\n", "f"), 0.0);
  EXPECT_DOUBLE_EQ(Eval("def f():\n return not not 3\nend\n", "f"), 1.0);
}

TEST(ProgramEdge, ModuloOnDoubles) {
  EXPECT_DOUBLE_EQ(Eval("def f():\n return 7 % 3\nend\n", "f"), 1.0);
  EXPECT_DOUBLE_EQ(Eval("def f():\n return 7.5 % 2\nend\n", "f"), 1.5);
}

TEST(ProgramEdge, MutualRecursionWithDepthLimit) {
  const std::string src =
      "def even(n):\n"
      " if n == 0:\n"
      "  return 1\n"
      " end\n"
      " return odd(n - 1)\n"
      "end\n"
      "def odd(n):\n"
      " if n == 0:\n"
      "  return 0\n"
      " end\n"
      " return even(n - 1)\n"
      "end\n";
  EXPECT_DOUBLE_EQ(Eval(src, "even", {Value::Number(10)}), 1.0);
  EXPECT_DOUBLE_EQ(Eval(src, "even", {Value::Number(7)}), 0.0);

  Vm vm(CompileSource(src));
  vm.set_max_depth(16);
  const EvalResult r = vm.Call("even", {Value::Number(100)});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("recursion depth limit exceeded"), std::string::npos) << r.error;
}

TEST(ProgramEdge, FunctionWithoutReturnYieldsZero) {
  EXPECT_DOUBLE_EQ(Eval("def f():\n x = 3\nend\n", "f"), 0.0);
}

TEST(ProgramEdge, ObjectsPassThroughCalls) {
  class Leaf : public ScriptObject {
   public:
    std::optional<double> GetAttr(std::string_view name) const override {
      if (name == "v") {
        return 13.0;
      }
      return std::nullopt;
    }
  };
  const std::string src =
      "def get(o):\n"
      " return o.v\n"
      "end\n"
      "def f(o):\n"
      " return get(o) + 1\n"
      "end\n";
  Leaf leaf;
  EXPECT_DOUBLE_EQ(Eval(src, "f", {Value::Object(&leaf)}), 14.0);
}

TEST(ProgramEdge, CommentsAndBlankLinesEverywhere) {
  const std::string src =
      "# leading comment\n"
      "\n"
      "def f(x):  # trailing\n"
      "\n"
      " # inner comment\n"
      " return x  # result\n"
      "\n"
      "end\n"
      "# closing comment\n";
  EXPECT_DOUBLE_EQ(Eval(src, "f", {Value::Number(4)}), 4.0);
}

}  // namespace
}  // namespace perfiface
