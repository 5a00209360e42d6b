#include "src/accel/jpeg/jpeg_shadow.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/accel/jpeg/codec.h"
#include "src/accel/jpeg/decoder_sim.h"
#include "src/common/strings.h"
#include "src/serve/shadow.h"

namespace perfiface::jpeg {

namespace {

// Keeps synthetic images bounded: a malicious/buggy orig_size must not turn
// one shadow replay into a gigabyte allocation. 2^20 blocks is a 512 MiB
// decoded image — far past any workload the calibration corpus covers.
constexpr std::uint64_t kMaxBlocks = 1u << 20;

// Pulls one workload attribute; false (with *error set) when it is missing.
bool GetAttr(const serve::PredictRequest& request, const char* name, double* out,
             std::string* error) {
  for (const auto& kv : request.attrs) {
    if (kv.first == name) {
      *out = kv.second;
      return true;
    }
  }
  *error = StrFormat("jpeg shadow: missing attr '%s'", name);
  return false;
}

// A positive integer attribute bounded by `max`.
bool GetCount(const serve::PredictRequest& request, const char* name, std::uint64_t max,
              std::uint64_t* out, std::string* error) {
  double v = 0;
  if (!GetAttr(request, name, &v, error)) {
    return false;
  }
  if (!(v >= 1) || v > static_cast<double>(max) || v != std::floor(v)) {
    *error = StrFormat("jpeg shadow: attr '%s' is not a positive integer <= %llu", name,
                       static_cast<unsigned long long>(max));
    return false;
  }
  *out = static_cast<std::uint64_t>(v);
  return true;
}

// `count` blocks whose coded bits sum to `bits`, spread as evenly as the
// integer grain allows — the same uniform-distribution assumption the
// aggregate compress_rate abstraction itself makes.
void AppendUniformBlocks(std::uint64_t count, std::uint64_t bits,
                         std::vector<EncodedBlock>* blocks) {
  const std::uint64_t base = bits / count;
  const std::uint64_t extra = bits % count;
  for (std::uint64_t i = 0; i < count; ++i) {
    EncodedBlock b;
    b.coded_bits = static_cast<std::uint32_t>(base + (i < extra ? 1 : 0));
    blocks->push_back(b);
  }
}

// Ground truth shared by both replay paths: the cycle-level simulator with
// the calibration suite's configuration (tests/accuracy_test.cc — default
// timing, seed 2024), so shadow drift is measured against the same target
// the interface was calibrated on.
double Simulate(std::vector<EncodedBlock> blocks) {
  const std::size_t n = blocks.size();
  CompressedImage image(/*width=*/8, /*height=*/8 * n, /*quality=*/75, std::move(blocks));
  JpegDecoderSim sim(JpegDecoderTiming{}, /*seed=*/2024);
  return static_cast<double>(sim.DecodeLatency(image));
}

// Program replay: latency_jpeg_decode(orig_size, compress_rate). Inverts
// the Fig 2 vocabulary — orig_size fixes the block count (512 output bytes
// per block), compress_rate fixes the entropy-coded payload — and rebuilds
// a uniformly coded image with exactly those aggregates.
bool ProgramTruth(const serve::PredictRequest& request, double* truth, std::string* error) {
  std::uint64_t orig_size = 0;
  double compress_rate = 0;
  if (!GetCount(request, "orig_size", kMaxBlocks * 512, &orig_size, error) ||
      !GetAttr(request, "compress_rate", &compress_rate, error)) {
    return false;
  }
  if (orig_size % 512 != 0) {
    // 64 pixels * 8 output bytes per block: any decodable image's output
    // size is a multiple of 512. Fractional blocks have no ground truth.
    *error = "jpeg shadow: orig_size is not a multiple of 512 (whole 8x8 blocks)";
    return false;
  }
  const std::uint64_t num_blocks = orig_size / 512;
  // compressed_bytes = header + coded_bits/8, so the payload the VLD sees
  // is (compress_rate * orig_size - header) * 8 bits.
  const double payload_bits =
      (compress_rate * static_cast<double>(orig_size) -
       static_cast<double>(CompressedImage::kHeaderBytes)) *
      8.0;
  const double per_block = payload_bits / static_cast<double>(num_blocks);
  if (!(payload_bits >= 1.0) || per_block > 4294967295.0) {
    *error = "jpeg shadow: compress_rate implies an empty or oversized payload";
    return false;
  }
  std::vector<EncodedBlock> blocks;
  blocks.reserve(num_blocks);
  AppendUniformBlocks(num_blocks, static_cast<std::uint64_t>(std::llround(payload_bits)),
                      &blocks);
  *truth = Simulate(std::move(blocks));
  return true;
}

// Pnet replay: the standard stripe query — hdr_in:1 plus N vld_in tokens,
// each carrying `blocks` blocks and `bits` coded bits. Replayable exactly
// when the token stream is one SplitIntoStripes could have produced: full
// 8-block stripes (any N), or a single trailing partial stripe.
bool PnetTruth(const serve::PredictRequest& request, double* truth, std::string* error) {
  // The service's own plan parser, so the replay reads the plan exactly as
  // the evaluation did (duplicate places already merged).
  const serve::EntryPlan plan = serve::ParseEntryPlan(request);
  if (plan.first_place) {
    // The default plan injects `tokens` copies into the first declared
    // place (hdr_in): several header tokens and no stripes is not an image.
    *error = "jpeg shadow: default-entry pnet queries are not replayable";
    return false;
  }
  if (!plan.malformed.empty()) {
    *error = StrFormat("jpeg shadow: bad entry place item '%s'", plan.malformed.front().c_str());
    return false;
  }
  std::uint64_t hdr_tokens = 0;
  std::uint64_t vld_tokens = 0;
  for (const auto& [name, count] : plan.items) {
    // Counts are positive: non-positive ones are malformed.
    if (name == "hdr_in") {
      hdr_tokens = static_cast<std::uint64_t>(count);
    } else if (name == "vld_in") {
      vld_tokens = static_cast<std::uint64_t>(count);
    } else {
      *error = StrFormat("jpeg shadow: injection into '%s' is not replayable", name.c_str());
      return false;
    }
  }
  if (hdr_tokens != 1 || vld_tokens < 1 || vld_tokens > kMaxBlocks / 8) {
    *error = "jpeg shadow: replayable plans are hdr_in:1 plus vld_in stripes";
    return false;
  }

  std::uint64_t blocks = 0;
  std::uint64_t bits = 0;
  if (!GetCount(request, "blocks", /*max=*/8, &blocks, error) ||
      !GetCount(request, "bits", /*max=*/4294967295ull, &bits, error)) {
    return false;
  }
  if (blocks != 8 && vld_tokens != 1) {
    // The simulator stripes sequentially in groups of 8; several partial
    // stripes cannot come from one contiguous block stream.
    *error = "jpeg shadow: partial stripes are only replayable as a single token";
    return false;
  }

  std::vector<EncodedBlock> all;
  all.reserve(vld_tokens * blocks);
  for (std::uint64_t s = 0; s < vld_tokens; ++s) {
    AppendUniformBlocks(blocks, bits, &all);
  }
  *truth = Simulate(std::move(all));
  return true;
}

}  // namespace

bool JpegShadowTruth(const serve::PredictRequest& request, double* truth, std::string* error) {
  if (!request.function.empty()) {
    if (request.function != "latency_jpeg_decode") {
      // tput_jpeg_decode reports a derived rate, not a simulatable latency.
      *error = StrFormat("jpeg shadow: no ground truth for function '%s'",
                         request.function.c_str());
      return false;
    }
    if (!request.entry_place.empty()) {
      *error = "jpeg shadow: program queries take no injection plan";
      return false;
    }
    return ProgramTruth(request, truth, error);
  }
  return PnetTruth(request, truth, error);
}

void RegisterJpegShadowBackend() {
  serve::ShadowBackendRegistry::Global().Register("jpeg_decoder", JpegShadowTruth);
}

}  // namespace perfiface::jpeg
