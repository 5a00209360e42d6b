// Reference semantics for PerfScript: a tree-walking interpreter over the
// parsed AST. It is the oracle vm_diff_test holds the bytecode Vm
// (src/perfscript/vm.h) to — same results, same error strings, same
// recursion-depth limit — and nothing else runs it. Being a direct reading
// of the AST, it resolves variables the way the language defines them: a
// function's locals first (parameters, plus every name assigned so far on
// the path taken), then the global constants, else "undefined variable".
//
// An Interpreter is stateful (globals, step counter, error latch) and must
// not be shared between threads; the Program it walks is only read.
#ifndef TESTS_INTERP_ORACLE_H_
#define TESTS_INTERP_ORACLE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/perfscript/ast.h"
#include "src/perfscript/value.h"

namespace perfiface::oracle {

class Interpreter {
 public:
  // The program must outlive the interpreter.
  explicit Interpreter(const Program* program);

  // Calls a top-level function with the given arguments.
  EvalResult Call(const std::string& function, const std::vector<Value>& args);

  // Defines a global constant visible to every function.
  void SetGlobal(const std::string& name, double value);

  void set_max_steps(std::uint64_t steps) { max_steps_ = steps; }
  void set_max_depth(std::size_t depth) { max_depth_ = depth; }
  bool step_budget_exhausted() const { return steps_ > max_steps_; }

 private:
  struct Frame {
    std::vector<std::pair<std::string, Value>> locals;
  };

  Value EvalExpr(const Expr& e, Frame* frame);
  // Returns true if a `return` was executed (result in *ret).
  bool ExecBlock(const std::vector<StmtPtr>& block, Frame* frame, Value* ret);
  bool ExecStmt(const Stmt& s, Frame* frame, Value* ret);
  Value CallFunction(const FunctionDef& f, const std::vector<Value>& args, int call_line);
  Value CallBuiltin(const Expr& call, std::vector<Value> args, bool* handled);
  Value* FindLocal(Frame* frame, const std::string& name);
  void SetLocal(Frame* frame, const std::string& name, Value v);

  void RuntimeError(int line, const std::string& msg);
  bool Step(int line);
  double NumOrError(const Value& v, int line, const char* what);

  const Program* program_;
  std::vector<std::pair<std::string, double>> globals_;
  bool failed_ = false;
  std::string error_;
  std::uint64_t steps_ = 0;
  std::uint64_t max_steps_ = 50'000'000;
  std::size_t depth_ = 0;
  std::size_t max_depth_ = 200;
};

}  // namespace perfiface::oracle

#endif  // TESTS_INTERP_ORACLE_H_
