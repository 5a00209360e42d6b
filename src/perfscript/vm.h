// Register-bytecode virtual machine for compiled PerfScript programs.
//
// A Vm executes the CompiledProgram form produced by CompileProgram
// (compile.h); it is the only engine that runs interface programs. Its
// observable semantics — results, error strings ("line N: ..."), the
// recursion-depth limit — are those of the language as the reference
// tree-walker in tests/interp_oracle.h reads it off the AST, and
// vm_diff_test holds the two to that. Step accounting counts one step per
// bytecode instruction.
//
// The hot path allocates nothing: the register file, frame stack, and
// inline-cache array are owned by the Vm and reused across calls. A Vm is
// STATEFUL and must not be shared between threads (create one per thread;
// construction is cheap), while the CompiledProgram it runs is immutable
// and freely shared (each Vm keeps only per-thread inline-cache hints).
#ifndef SRC_PERFSCRIPT_VM_H_
#define SRC_PERFSCRIPT_VM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/perfscript/compile.h"
#include "src/perfscript/value.h"

namespace perfiface {

class Vm {
 public:
  explicit Vm(std::shared_ptr<const CompiledProgram> program);

  // Calls a top-level function with the given arguments.
  EvalResult Call(const std::string& function, const std::vector<Value>& args);

  void set_max_steps(std::uint64_t steps) { max_steps_ = steps; }
  void set_max_depth(std::size_t depth) { max_depth_ = depth; }
  bool step_budget_exhausted() const { return steps_ > max_steps_; }
  std::uint64_t steps_used() const { return steps_; }

  const CompiledProgram& program() const { return *program_; }

 private:
  struct Frame {
    const CompiledFunction* fn;
    std::uint32_t base;
    std::uint32_t pc;
    std::uint8_t dst;
  };

  void EnsureRegs(std::size_t n) {
    if (regs_.size() < n) {
      regs_.resize(n < 2 * regs_.size() ? 2 * regs_.size() : n);
    }
  }

  std::shared_ptr<const CompiledProgram> program_;
  std::vector<Value> regs_;
  std::vector<Frame> frames_;
  // One inline-cache slot per kAttr site, shared across calls on this Vm
  // (per-thread by the no-sharing contract above).
  std::vector<std::uint32_t> ic_;
  std::uint64_t steps_ = 0;
  std::uint64_t max_steps_ = 50'000'000;
  std::size_t max_depth_ = 200;
};

}  // namespace perfiface

#endif  // SRC_PERFSCRIPT_VM_H_
