#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/perfscript/compile.h"
#include "src/perfscript/lexer.h"
#include "src/perfscript/parser.h"
#include "src/perfscript/vm.h"

namespace perfiface {
namespace {

// Parses, compiles (globals folded in as constants) and calls `fn` on the
// bytecode Vm, the engine that serves interface programs.
EvalResult Run(const std::string& src, const std::string& fn, const std::vector<Value>& args,
               const std::vector<std::pair<std::string, double>>& globals = {}) {
  ParseResult parsed = ParseProgram(src);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  CompileProgramResult compiled = CompileProgram(parsed.program, globals);
  EXPECT_TRUE(compiled.ok()) << compiled.error;
  if (!compiled.ok()) return EvalResult{};
  Vm vm(compiled.program);
  return vm.Call(fn, args);
}

double EvalFn(const std::string& src, const std::string& fn, const std::vector<Value>& args,
           const std::vector<std::pair<std::string, double>>& globals = {}) {
  const EvalResult r = Run(src, fn, args, globals);
  EXPECT_TRUE(r.ok) << r.error;
  return r.value.num;
}

std::string RunExpectError(const std::string& src, const std::string& fn,
                           const std::vector<Value>& args) {
  const EvalResult r = Run(src, fn, args);
  EXPECT_FALSE(r.ok);
  return r.error;
}

TEST(Lexer, TokenizesOperators) {
  const LexResult r = Lex("a <= b == c != (1.5)");
  ASSERT_TRUE(r.ok);
  // a <= b == c != ( 1.5 ) NEWLINE EOF
  ASSERT_EQ(r.tokens.size(), 11u);
  EXPECT_EQ(r.tokens[1].kind, TokKind::kLe);
  EXPECT_EQ(r.tokens[3].kind, TokKind::kEq);
  EXPECT_EQ(r.tokens[5].kind, TokKind::kNe);
  EXPECT_DOUBLE_EQ(r.tokens[7].number, 1.5);
}

TEST(Lexer, SkipsCommentsAndBlankLines) {
  const LexResult r = Lex("# full comment\n\n x = 1 # trailing\n");
  ASSERT_TRUE(r.ok);
  // x = 1 NEWLINE EOF
  EXPECT_EQ(r.tokens.size(), 5u);
}

TEST(Lexer, RejectsUnknownCharacter) {
  const LexResult r = Lex("a @ b");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("'@'"), std::string::npos);
}

TEST(Parser, RejectsMissingEnd) {
  const ParseResult r = ParseProgram("def f(x):\n return x\n");
  EXPECT_FALSE(r.ok);
}

TEST(Parser, RejectsBadExpression) {
  const ParseResult r = ParseProgram("def f(x):\n return x +\nend\n");
  EXPECT_FALSE(r.ok);
}

TEST(ProgramVm, Arithmetic) {
  EXPECT_DOUBLE_EQ(EvalFn("def f(x):\n return (x + 2) * 3 - 4 / 2\nend\n", "f",
                       {Value::Number(1)}),
                   7.0);
}

TEST(ProgramVm, Precedence) {
  EXPECT_DOUBLE_EQ(EvalFn("def f():\n return 2 + 3 * 4\nend\n", "f", {}), 14.0);
  EXPECT_DOUBLE_EQ(EvalFn("def f():\n return -2 * 3\nend\n", "f", {}), -6.0);
}

TEST(ProgramVm, Builtins) {
  EXPECT_DOUBLE_EQ(EvalFn("def f():\n return max(1, 5, 3)\nend\n", "f", {}), 5.0);
  EXPECT_DOUBLE_EQ(EvalFn("def f():\n return min(4, 2)\nend\n", "f", {}), 2.0);
  EXPECT_DOUBLE_EQ(EvalFn("def f():\n return ceil(1.2)\nend\n", "f", {}), 2.0);
  EXPECT_DOUBLE_EQ(EvalFn("def f():\n return floor(1.8)\nend\n", "f", {}), 1.0);
  EXPECT_DOUBLE_EQ(EvalFn("def f():\n return abs(0 - 3)\nend\n", "f", {}), 3.0);
  EXPECT_DOUBLE_EQ(EvalFn("def f():\n return sqrt(9)\nend\n", "f", {}), 3.0);
}

// min/max order -0 below +0, whichever operand holds it and whether the
// call is folded, fused with a constant or evaluated at run time.
TEST(ProgramVm, MinMaxOrderSignedZeros) {
  const std::string src =
      "def mn(x, y):\n return min(x, y)\nend\n"
      "def mx(x, y):\n return max(x, y)\nend\n"
      "def mnc(x, y):\n return min(x, 0)\nend\n"
      "def mxc(x, y):\n return max(x, -0)\nend\n"
      "def clamp(x, y):\n return max(min(x, -0), 0)\nend\n"
      "def folded_min(x, y):\n return min(-0, 0)\nend\n"
      "def folded_max(x, y):\n return max(-0, 0)\nend\n";
  struct Case {
    const char* fn;
    double x, y;
    bool negative;  // expected sign of the zero result
  };
  for (const Case& c : {Case{"mn", -0.0, 0.0, true}, Case{"mn", 0.0, -0.0, true},
                        Case{"mx", -0.0, 0.0, false}, Case{"mx", 0.0, -0.0, false},
                        Case{"mnc", -0.0, 0.0, true}, Case{"mxc", 0.0, 0.0, false},
                        Case{"clamp", 0.0, 0.0, false}, Case{"folded_min", 0.0, 0.0, true},
                        Case{"folded_max", 0.0, 0.0, false}}) {
    const double got = EvalFn(src, c.fn, {Value::Number(c.x), Value::Number(c.y)});
    EXPECT_EQ(got, 0.0) << c.fn;
    EXPECT_EQ(std::signbit(got), c.negative) << c.fn << " x=" << c.x;
  }
}

TEST(ProgramVm, IfElse) {
  const std::string src =
      "def f(x):\n"
      " if x > 10:\n"
      "  return 1\n"
      " else:\n"
      "  return 2\n"
      " end\n"
      "end\n";
  EXPECT_DOUBLE_EQ(EvalFn(src, "f", {Value::Number(11)}), 1.0);
  EXPECT_DOUBLE_EQ(EvalFn(src, "f", {Value::Number(9)}), 2.0);
}

TEST(ProgramVm, LogicalShortCircuit) {
  // `or` must not evaluate the rhs when lhs is true: rhs divides by zero.
  const std::string src =
      "def f(x):\n"
      " if x == 0 or 1 / x > 0:\n"
      "  return 1\n"
      " end\n"
      " return 0\n"
      "end\n";
  EXPECT_DOUBLE_EQ(EvalFn(src, "f", {Value::Number(0)}), 1.0);
  EXPECT_DOUBLE_EQ(EvalFn(src, "f", {Value::Number(4)}), 1.0);
  EXPECT_DOUBLE_EQ(EvalFn(src, "f", {Value::Number(-4)}), 0.0);
}

TEST(ProgramVm, Recursion) {
  const std::string src =
      "def fact(n):\n"
      " if n <= 1:\n"
      "  return 1\n"
      " end\n"
      " return n * fact(n - 1)\n"
      "end\n";
  EXPECT_DOUBLE_EQ(EvalFn(src, "fact", {Value::Number(6)}), 720.0);
}

TEST(ProgramVm, Globals) {
  EXPECT_DOUBLE_EQ(
      EvalFn("def f():\n return avg_mem_latency * 2\nend\n", "f", {}, {{"avg_mem_latency", 60}}),
      120.0);
}

TEST(ProgramVm, AugmentedAdd) {
  const std::string src =
      "def f():\n"
      " cost = 1\n"
      " cost += 4\n"
      " cost += cost\n"
      " return cost\n"
      "end\n";
  EXPECT_DOUBLE_EQ(EvalFn(src, "f", {}), 10.0);
}

TEST(ProgramVm, RuntimeErrors) {
  EXPECT_NE(RunExpectError("def f():\n return 1 / 0\nend\n", "f", {}).find("division"),
            std::string::npos);
  EXPECT_NE(RunExpectError("def f():\n return q\nend\n", "f", {}).find("undefined variable"),
            std::string::npos);
  EXPECT_NE(RunExpectError("def f():\n return g(1)\nend\n", "f", {}).find("undefined function"),
            std::string::npos);
}

TEST(ProgramVm, RecursionDepthLimited) {
  const std::string src = "def f(n):\n return f(n + 1)\nend\n";
  const std::string err = RunExpectError(src, "f", {Value::Number(0)});
  EXPECT_NE(err.find("recursion depth"), std::string::npos);
}

TEST(ProgramVm, WrongArgumentCount) {
  EXPECT_NE(RunExpectError("def f(a, b):\n return a\nend\n", "f", {Value::Number(1)})
                .find("expected 2 arguments"),
            std::string::npos);
}

// A host object tree for iteration/attribute tests.
class FakeNode : public ScriptObject {
 public:
  explicit FakeNode(double weight) : weight_(weight) {}

  std::optional<double> GetAttr(std::string_view name) const override {
    if (name == "weight") {
      return weight_;
    }
    return std::nullopt;
  }
  std::size_t NumChildren() const override { return children_.size(); }
  const ScriptObject* Child(std::size_t i) const override { return children_[i].get(); }

  void Add(std::unique_ptr<FakeNode> child) { children_.push_back(std::move(child)); }

 private:
  double weight_;
  std::vector<std::unique_ptr<FakeNode>> children_;
};

TEST(ProgramVm, AttributeAccess) {
  FakeNode node(42);
  EXPECT_DOUBLE_EQ(EvalFn("def f(n):\n return n.weight\nend\n", "f", {Value::Object(&node)}), 42.0);
}

TEST(ProgramVm, UnknownAttributeFails) {
  FakeNode node(1);
  EXPECT_NE(RunExpectError("def f(n):\n return n.mass\nend\n", "f", {Value::Object(&node)})
                .find("no attribute 'mass'"),
            std::string::npos);
}

TEST(ProgramVm, ForIteratesChildrenRecursively) {
  auto root = std::make_unique<FakeNode>(1);
  auto child1 = std::make_unique<FakeNode>(10);
  child1->Add(std::make_unique<FakeNode>(100));
  root->Add(std::move(child1));
  root->Add(std::make_unique<FakeNode>(20));

  const std::string src =
      "def total(n):\n"
      " sum = n.weight\n"
      " for c in n:\n"
      "  sum += total(c)\n"
      " end\n"
      " return sum\n"
      "end\n";
  EXPECT_DOUBLE_EQ(EvalFn(src, "total", {Value::Object(root.get())}), 131.0);
}

TEST(ProgramVm, LenBuiltin) {
  FakeNode root(0);
  root.Add(std::make_unique<FakeNode>(1));
  root.Add(std::make_unique<FakeNode>(2));
  EXPECT_DOUBLE_EQ(EvalFn("def f(n):\n return len(n)\nend\n", "f", {Value::Object(&root)}), 2.0);
}

TEST(CompiledExpr, BindsVariables) {
  std::string error;
  const auto expr = CompiledExpr::CompileSource(
      "ceil(x / 8) * (lat + 8) + 4",
      [](std::string_view name) -> std::optional<ExprBinding> {
        if (name == "x") return ExprBinding::Const(20.0);
        if (name == "lat") return ExprBinding::Slot(0);
        return std::nullopt;
      },
      &error);
  ASSERT_NE(expr, nullptr) << error;
  EXPECT_DOUBLE_EQ(expr->EvalChecked([](std::uint32_t) { return 52.0; }).Num(), 3 * 60 + 4);
}

TEST(CompiledExpr, UnknownVariableFails) {
  std::string error;
  const auto expr = CompiledExpr::CompileSource(
      "y + 1", [](std::string_view) { return std::optional<ExprBinding>(); }, &error);
  EXPECT_EQ(expr, nullptr);
  EXPECT_NE(error.find("unknown variable 'y'"), std::string::npos) << error;
}

TEST(CompiledExpr, CheckedEvalReportsDivisionByZero) {
  std::string error;
  const auto expr = CompiledExpr::CompileSource(
      "7 / a", [](std::string_view) { return std::optional<ExprBinding>(ExprBinding::Slot(0)); },
      &error);
  ASSERT_NE(expr, nullptr) << error;
  const EvalResult r = expr->EvalChecked([](std::uint32_t) { return 0.0; });
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "line 1: division by zero");
}

}  // namespace
}  // namespace perfiface
