// Runtime values for PerfScript.
//
// A value is either a number or a reference to a host object. Host objects
// are how the C++ side hands workload descriptors (an image, a protobuf-like
// message) to an interface program: the program reads attributes
// (`img.orig_size`) and iterates sub-objects (`for sub_msg in msg:`), exactly
// like the paper's Python interfaces do.
#ifndef SRC_PERFSCRIPT_VALUE_H_
#define SRC_PERFSCRIPT_VALUE_H_

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/check.h"

namespace perfiface {

class ScriptObject {
 public:
  virtual ~ScriptObject() = default;

  // Returns the numeric attribute `name`, or nullopt if the object does not
  // expose it (a runtime error in the interface program).
  virtual std::optional<double> GetAttr(std::string_view name) const = 0;

  // Inline-cache-aware attribute read. `*hint` is a caller-owned slot
  // keyed by the reading call site (the bytecode VM keeps one per kAttr
  // instruction); implementations with indexable attribute storage probe
  // the hinted index first and write back the index that matched. The
  // default ignores the hint, so existing objects behave unchanged.
  virtual std::optional<double> GetAttrHinted(std::string_view name,
                                              std::uint32_t* hint) const {
    (void)hint;
    return GetAttr(name);
  }

  // Iteration support (`for x in obj:` and `len(obj)`).
  virtual std::size_t NumChildren() const { return 0; }
  virtual const ScriptObject* Child(std::size_t i) const {
    (void)i;
    return nullptr;
  }
};

struct Value {
  enum class Kind { kNumber, kObject };
  Kind kind = Kind::kNumber;
  double num = 0;
  const ScriptObject* obj = nullptr;

  static Value Number(double v) {
    Value out;
    out.kind = Kind::kNumber;
    out.num = v;
    return out;
  }
  static Value Object(const ScriptObject* o) {
    Value out;
    out.kind = Kind::kObject;
    out.obj = o;
    return out;
  }
  bool IsNumber() const { return kind == Kind::kNumber; }
};

// The min/max of programs and net expressions: std::fmin/std::fmax (a NaN
// operand yields the other operand) with -0 ordered below +0. fmin alone may
// return either zero when both operands are zeros (C17 7.12.12), and which
// one depends on how the compiler expands the call site, so every evaluator
// and constant folder calls these instead to answer alike in every build.
inline double MinNum(double a, double b) {
  if (a == b) return std::signbit(a) ? a : b;
  return std::fmin(a, b);
}
inline double MaxNum(double a, double b) {
  if (a == b) return std::signbit(a) ? b : a;
  return std::fmax(a, b);
}

// Outcome of one evaluation (a Vm call or a checked net expression): the
// value, or the runtime error ("line N: ...") that stopped it.
struct EvalResult {
  bool ok = false;
  std::string error;
  Value value;

  // Convenience: the numeric result; aborts if !ok or non-numeric.
  double Num() const {
    PI_CHECK_MSG(ok, error.c_str());
    PI_CHECK_MSG(value.IsNumber(), "result is not a number");
    return value.num;
  }
};

}  // namespace perfiface

#endif  // SRC_PERFSCRIPT_VALUE_H_
