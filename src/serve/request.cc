#include "src/serve/request.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <limits>

#include "src/common/check.h"
#include "src/common/small_vec.h"
#include "src/common/strings.h"

namespace perfiface::serve {

namespace {

void AppendInt(std::string* out, long long v) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

// Canonical form of a parsed spec: "place:count" items, then malformed
// items as "!item". "vld_in ,hdr_in:1" with tokens=8 and
// "hdr_in:1,vld_in:4,vld_in:4" thus canonicalize identically — they
// inject the same marking, so they must share a cache entry. Built on
// every cache probe, so it formats without printf.
void AppendCanonicalEntryPlace(const EntryPlan& plan, std::string* out) {
  const std::size_t start = out->size();
  for (const auto& [place, count] : plan.items) {
    if (out->size() != start) {
      out->push_back(',');
    }
    *out += place;
    out->push_back(':');
    AppendInt(out, count);
  }
  for (const std::string& item : plan.malformed) {
    if (out->size() != start) {
      out->push_back(',');
    }
    out->push_back('!');
    *out += item;
  }
}

// Saturating add: two near-LLONG_MAX counts must total "as many as
// representable", not wrap (signed overflow is UB besides producing a
// nonsense key or a negative plan).
long long SaturatingAdd(long long a, long long b) {
  return a > std::numeric_limits<long long>::max() - b ? std::numeric_limits<long long>::max()
                                                       : a + b;
}

// splitmix64: cheap, well-mixed 64-bit permutation.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::string GenerateTraceId() {
  // One wall-clock+pid sample per process, then a counter: ids are unique
  // within the process by construction and across concurrent processes with
  // overwhelming probability.
  static const std::uint64_t kBase = Mix64(
      static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     std::chrono::system_clock::now().time_since_epoch())
                                     .count()) ^
      (static_cast<std::uint64_t>(::getpid()) << 32));
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t id = Mix64(kBase + counter.fetch_add(1, std::memory_order_relaxed));
  return StrFormat("%016llx", static_cast<unsigned long long>(id));
}

const char* PredictStatusName(PredictStatus s) {
  switch (s) {
    case PredictStatus::kOk: return "OK";
    case PredictStatus::kError: return "ERROR";
    case PredictStatus::kNotFound: return "NOT_FOUND";
    case PredictStatus::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case PredictStatus::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case PredictStatus::kRejected: return "REJECTED";
  }
  return "UNKNOWN";
}

bool PredictStatusFromName(std::string_view name, PredictStatus* out) {
  for (const PredictStatus s :
       {PredictStatus::kOk, PredictStatus::kError, PredictStatus::kNotFound,
        PredictStatus::kDeadlineExceeded, PredictStatus::kResourceExhausted,
        PredictStatus::kRejected}) {
    if (name == PredictStatusName(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

EntryPlan ParseEntryPlan(const PredictRequest& req) {
  EntryPlan plan;
  const long long default_count = std::max(1, req.tokens);
  const std::string_view spec = req.entry_place;
  if (spec.empty()) {
    plan.first_place = true;
    plan.total_tokens = default_count;
    return plan;
  }
  for (std::size_t begin = 0; begin <= spec.size();) {
    std::size_t comma = spec.find(',', begin);
    if (comma == std::string_view::npos) {
      comma = spec.size();
    }
    std::string item;
    for (const char c : spec.substr(begin, comma - begin)) {
      if (std::isspace(static_cast<unsigned char>(c)) == 0) {
        item.push_back(c);
      }
    }
    begin = comma + 1;
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos) {
      plan.items.emplace_back(std::move(item), default_count);
      continue;
    }
    char* end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(item.c_str() + colon + 1, &end, 10);
    // An overflowing count is malformed: strtoll clamps to LLONG_MAX on
    // ERANGE, so without the errno check every overflowing spec would
    // alias to one "p:9223372036854775807" key.
    if (end == item.c_str() + colon + 1 || *end != '\0' || errno == ERANGE || parsed < 1) {
      plan.malformed.push_back(std::move(item));
      continue;
    }
    item.resize(colon);
    plan.items.emplace_back(std::move(item), parsed);
  }
  std::sort(plan.items.begin(), plan.items.end());
  std::sort(plan.malformed.begin(), plan.malformed.end());
  // Merge duplicate places: the same place listed twice injects the sum.
  std::size_t merged = 0;
  for (std::size_t i = 0; i < plan.items.size(); ++i) {
    if (merged > 0 && plan.items[merged - 1].first == plan.items[i].first) {
      plan.items[merged - 1].second =
          SaturatingAdd(plan.items[merged - 1].second, plan.items[i].second);
    } else {
      if (merged != i) {
        plan.items[merged] = std::move(plan.items[i]);
      }
      ++merged;
    }
  }
  plan.items.resize(merged);
  for (const auto& item : plan.items) {
    plan.total_tokens = SaturatingAdd(plan.total_tokens, item.second);
  }
  return plan;
}

std::string CanonicalCacheKey(const PredictRequest& req, Representation resolved) {
  PI_CHECK(resolved != Representation::kAuto);
  std::string key;
  key.reserve(64 + 24 * req.attrs.size());
  key += req.interface;
  key += '\x1f';
  key += resolved == Representation::kProgram ? 'p' : 'n';
  key += '\x1f';
  if (resolved == Representation::kProgram) {
    key += req.function;
  } else {
    const EntryPlan plan = ParseEntryPlan(req);
    if (plan.first_place) {
      // Empty spec means "first declared place, `tokens` copies" — the
      // count is the only degree of freedom left. Its own tag: the spec
      // ":N" names an empty place, which is a different (invalid) query.
      key += "@first:";
      AppendInt(&key, plan.total_tokens);
    } else {
      // Every count is explicit in the canonical spec, so the `tokens`
      // field no longer matters: "vld_in" with tokens=8 and "vld_in:8"
      // with tokens=1 are the same query.
      AppendCanonicalEntryPlace(plan, &key);
    }
  }
  key += "\x1f" "c";
  AppendInt(&key, req.children);

  // Sort attribute names without copying the request: order-insensitive
  // keys are what make "same workload, different builder" queries collide.
  SmallVec<const std::pair<std::string, double>*, 8> sorted;
  for (const auto& kv : req.attrs) {
    sorted.push_back(&kv);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (const auto* kv : sorted) {
    key += '\x1f';
    key += kv->first;
    key += '=';
    // %.17g's digits (to_chars with precision is defined as printf) round-
    // trip doubles exactly, so distinct workloads never alias.
    char buf[32];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), kv->second, std::chars_format::general, 17);
    key.append(buf, r.ptr);
  }
  return key;
}

}  // namespace perfiface::serve
