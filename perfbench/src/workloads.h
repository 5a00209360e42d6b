// The benchmark's workloads: seeded, deterministic request streams over the
// three query families that have simulator ground truth (jpeg pnet stripes,
// the protoacc serializer program, the conv latency program).
//
//  hot_tcp     run-time offload clients repeating a few workload shapes:
//              Zipf(1) over 256 distinct queries, sent over loopback TCP
//              with the response cache warm.
//  zipf_churn  a design-space sweep with popular regions: Zipf(1) over
//              65 536 distinct queries in-process -- 16x the response cache,
//              inside the sub-net memo.
//  cold_sweep  an autotuner's first pass: every request unique, in-process.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/serve/request.h"

namespace perfbench {

enum class Workload { kHotTcp, kZipfChurn, kColdSweep };

// Everything about a workload the driver needs besides its requests.
struct WorkloadSpec {
  Workload workload;
  const char* name;
  bool tcp;                      // measured over loopback TCP, else in-process
  std::uint64_t distinct;        // population size; 0 = every request unique
  double open_loop_rate;         // offered rate of the latency phase, req/s
  std::uint64_t warmup_requests; // stream requests sent before timing starts
  std::uint64_t round_requests;  // closed-loop round size (qps is per round)
};

// Null for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);
const std::vector<WorkloadSpec>& AllWorkloads();

// Query families, interleaved by id.
enum class Family { kJpegPnet, kProtoaccProgram, kConvProgram };
constexpr std::uint64_t kNumFamilies = 3;
// Per-family query ids are permuted over this many values, so a stream has
// at most this many distinct queries of one family.
constexpr std::uint64_t kFamilyIdSpace = 1u << 20;

// The query with index `id` of the space keyed by `salt`: family id % 3,
// attributes a bijection of id / 3, so distinct ids below
// 3 * kFamilyIdSpace give distinct queries. Every query is valid (the
// service answers it OK) and uses integer attributes only.
perfiface::serve::PredictRequest MakeQuery(std::uint64_t salt, std::uint64_t id);

Family FamilyOf(std::uint64_t id);

// A 64-bit finalizer (SplitMix64's output mix), for seeded sampling.
std::uint64_t Mix64(std::uint64_t x);

// Samples ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double s);
  std::uint64_t Sample(perfiface::SplitMix64* rng) const;

 private:
  std::vector<double> cdf_;
};

// A workload's request stream for one seed: the same seed yields the same
// sequence. Population workloads draw Zipf ranks of MakeQuery ids;
// cold_sweep walks ids in order, so no request repeats.
class RequestStream {
 public:
  RequestStream(const WorkloadSpec& spec, std::uint64_t seed);

  perfiface::serve::PredictRequest Next();
  // How many more requests Next can return: what is left of cold_sweep's
  // unique query space, or kUnlimited for a population workload.
  std::uint64_t remaining() const;
  static constexpr std::uint64_t kUnlimited = ~std::uint64_t{0};
  // The MakeQuery salt of this stream's query space.
  std::uint64_t salt() const { return salt_; }

 private:
  std::uint64_t DrawId();

  const WorkloadSpec& spec_;
  std::uint64_t salt_;
  perfiface::SplitMix64 rng_;
  ZipfSampler zipf_;
  std::uint64_t cold_next_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
