#include "src/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::uint32_t SpanRecorder::Add(const char* name, std::uint64_t request, std::uint32_t parent,
                                std::uint64_t start_ns, std::uint64_t end_ns) {
  if (parent == kNoParent) {
    ++requests_;
  }
  spans_.push_back(Span{name, request, parent, start_ns, std::max(start_ns, end_ns)});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::map<std::string, double> SpanRecorder::SelfNsByModule() const {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != kNoParent && s.parent < spans_.size()) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t cursor = s.start_ns;  // end of the covered prefix
    for (const auto& [begin, end] : kids) {
      const std::uint64_t lo = std::max(begin, cursor);
      const std::uint64_t hi = std::min(end, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    const std::string name(s.name);
    const std::string module = name.substr(0, name.find('.'));
    self[module] += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return self;
}

bool SpanRecorder::WriteChromeJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::uint64_t origin = UINT64_MAX;
  for (const Span& s : spans_) {
    origin = std::min(origin, s.start_ns);
  }
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string name(s.name);
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", s.name, name.substr(0, name.find('.')).c_str(),
                 static_cast<unsigned long long>(s.request),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
