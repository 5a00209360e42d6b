#include "src/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace perfbench {

using perfiface::DeriveSeed;
using perfiface::SplitMix64;
using perfiface::serve::PredictRequest;
using perfiface::serve::Representation;

namespace {

// Offered rates sit well below each workload's saturation on a 4-core host
// with two service workers, so p50/p90 measure the request path rather
// than queue length. They are also high enough that no thread on the
// request path idles for more than ~150 us between requests: on a virtual
// machine a longer idle halts the vCPU, and waking it again takes from
// 20 us to several ms depending on the host's load (perfbench/README.md,
// "Workloads").
const std::vector<WorkloadSpec> kWorkloads = {
    {Workload::kHotTcp, "hot_tcp", /*tcp=*/true, /*distinct=*/256,
     /*open_loop_rate=*/16000, /*warmup_requests=*/20000, /*round_requests=*/8192},
    {Workload::kZipfChurn, "zipf_churn", /*tcp=*/false, /*distinct=*/65536,
     /*open_loop_rate=*/16000, /*warmup_requests=*/300000, /*round_requests=*/8192},
    {Workload::kColdSweep, "cold_sweep", /*tcp=*/false, /*distinct=*/0,
     /*open_loop_rate=*/16000, /*warmup_requests=*/200000, /*round_requests=*/4096},
};

constexpr std::uint64_t kIdMask = kFamilyIdSpace - 1;

// A seeded bijection on [0, kFamilyIdSpace): each step (add, multiply by
// an odd constant, xor with the value shifted right by half the width) is
// invertible modulo 2^20, so distinct inputs stay distinct.
std::uint64_t Permute(std::uint64_t x, std::uint64_t key) {
  SplitMix64 keys(key);
  x &= kIdMask;
  for (int round = 0; round < 3; ++round) {
    x = (x + keys.Next()) & kIdMask;
    x = (x * (keys.Next() | 1)) & kIdMask;
    x ^= x >> 10;
  }
  return x;
}

// Upper bound on the 16-byte words a protoacc message of `fields` fields,
// `children` of them uniform sub-messages, needs before its filler field:
// at most 3 bytes per scalar field and 6 of framing per sub-message.
std::uint64_t ProtoaccWordBound(std::uint64_t fields, std::uint64_t children) {
  const std::uint64_t bytes = children * (3 * fields + 6) + 3 * fields + 8;
  return bytes / 16 + 1;
}

}  // namespace

std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

const std::vector<WorkloadSpec>& AllWorkloads() { return kWorkloads; }

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

Family FamilyOf(std::uint64_t id) { return static_cast<Family>(id % kNumFamilies); }

PredictRequest MakeQuery(std::uint64_t salt, std::uint64_t id) {
  const Family family = FamilyOf(id);
  const std::uint64_t j = id / kNumFamilies;
  const std::uint64_t x = Permute(j, DeriveSeed(salt, static_cast<std::uint64_t>(family)));
  // Attribute choices that need not be unique come from a hash.
  const std::uint64_t h = Mix64(salt ^ Mix64(id));
  PredictRequest req;
  switch (family) {
    case Family::kJpegPnet: {
      // One header token plus 8..32 full stripes; `bits` alone is unique
      // per query, so no two queries share a memo key.
      req.interface = "jpeg_decoder";
      req.representation = Representation::kPnet;
      req.entry_place = "hdr_in:1,vld_in:" + std::to_string(8 + h % 25);
      req.attrs = {{"bits", static_cast<double>(512 + x)}, {"blocks", 8}};
      break;
    }
    case Family::kProtoaccProgram: {
      // children, fields and writes are a bijection of x (5 + 5 + 10 bits);
      // num_writes stays above the message's structural minimum.
      const std::uint64_t children = x & 31;
      const std::uint64_t fields = children + 1 + ((x >> 5) & 31);
      const std::uint64_t writes = ProtoaccWordBound(fields, children) + (x >> 10);
      req.interface = "protoacc";
      req.representation = Representation::kProgram;
      req.function = "tput_protoacc_ser";
      req.attrs = {{"num_fields", static_cast<double>(fields)},
                   {"num_writes", static_cast<double>(writes)}};
      req.children = static_cast<int>(children);
      break;
    }
    case Family::kConvProgram: {
      // The layer is a bijection of x (5 + 5 + 4 + 4 + 1 + 1 bits); tiles
      // are small powers of two, which fit the default BRAM budget for
      // every layer here.
      const std::uint64_t height = 4 + (x & 31);
      const std::uint64_t width = 4 + ((x >> 5) & 31);
      const std::uint64_t channels = 4 * (1 + ((x >> 10) & 15));
      const std::uint64_t filters = 4 * (1 + ((x >> 14) & 15));
      const std::uint64_t kernel = ((x >> 18) & 1) != 0 ? 3 : 1;
      const std::uint64_t stride = 1 + ((x >> 19) & 1);
      const std::uint64_t pad = kernel / 2;
      const std::uint64_t out_h = (height + 2 * pad - kernel) / stride + 1;
      const std::uint64_t out_w = (width + 2 * pad - kernel) / stride + 1;
      const std::uint64_t tile_h = std::min<std::uint64_t>(out_h, 1u << (h % 3));
      const std::uint64_t tile_w = std::min<std::uint64_t>(out_w, 1u << ((h >> 8) % 4));
      const std::uint64_t tile_k = std::min<std::uint64_t>(filters, 4u << ((h >> 16) % 3));
      req.interface = "conv";
      req.representation = Representation::kProgram;
      req.function = "latency_conv";
      req.attrs = {{"height", static_cast<double>(height)},
                   {"width", static_cast<double>(width)},
                   {"channels", static_cast<double>(channels)},
                   {"filters", static_cast<double>(filters)},
                   {"kernel_h", static_cast<double>(kernel)},
                   {"kernel_w", static_cast<double>(kernel)},
                   {"stride", static_cast<double>(stride)},
                   {"pad", static_cast<double>(pad)},
                   {"tile_h", static_cast<double>(tile_h)},
                   {"tile_w", static_cast<double>(tile_w)},
                   {"tile_k", static_cast<double>(tile_k)}};
      break;
    }
  }
  return req;
}

ZipfSampler::ZipfSampler(std::uint64_t n, double s) {
  cdf_.reserve(n);
  double total = 0;
  for (std::uint64_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) {
    c /= total;
  }
}

std::uint64_t ZipfSampler::Sample(SplitMix64* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::uint64_t>(static_cast<std::uint64_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
}

RequestStream::RequestStream(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec),
      salt_(DeriveSeed(seed, static_cast<std::uint64_t>(spec.workload))),
      rng_(DeriveSeed(seed, 100 + static_cast<std::uint64_t>(spec.workload))),
      zipf_(std::max<std::uint64_t>(spec.distinct, 1), 1.0) {}

std::uint64_t RequestStream::DrawId() {
  if (spec_.distinct != 0) {
    return zipf_.Sample(&rng_);
  }
  // The drivers stop before this: see RequestStream::remaining.
  const std::uint64_t id = cold_next_++;
  if (id / kNumFamilies >= kFamilyIdSpace) {
    std::fprintf(stderr, "perfbench: %s exhausted its unique query space\n", spec_.name);
    std::abort();
  }
  return id;
}

std::uint64_t RequestStream::remaining() const {
  return spec_.distinct != 0 ? kUnlimited : kNumFamilies * kFamilyIdSpace - cold_next_;
}

PredictRequest RequestStream::Next() { return MakeQuery(salt_, DrawId()); }

}  // namespace perfbench
