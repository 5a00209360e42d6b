// Spans the benchmark records around its calls into each layer of the
// program, kept in memory, reduced to per-module self times and written out
// as a Chrome trace_event file at exit.
//
// A span is named "<module>.<what>" (module = net, serve, perfscript,
// petri, gen, ...). Spans of one request share a request id; a child names
// its parent by the index Add returned. A span's self time is its duration
// minus the part of it its children cover.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name;  // static storage
  std::uint64_t request;
  std::uint32_t parent;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  // Returns the span's index, to be passed as a child's parent.
  std::uint32_t Add(const char* name, std::uint64_t request, std::uint32_t parent,
                    std::uint64_t start_ns, std::uint64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t requests() const { return requests_; }

  // Summed self time per module, in nanoseconds.
  std::map<std::string, double> SelfNsByModule() const;

  // Chrome trace_event JSON; false if the file cannot be written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::uint64_t requests_ = 0;  // root spans recorded
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
