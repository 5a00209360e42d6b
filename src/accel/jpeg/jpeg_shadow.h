// Shadow-validation backend for the jpeg_decoder interface family.
//
// The jpeg workload vocabulary is small enough to invert: a program query
// (`latency_jpeg_decode` over orig_size + compress_rate) or a standard
// pnet stripe query (hdr_in:1,vld_in:N over bits + blocks) fully
// determines a synthetic CompressedImage with uniformly distributed
// entropy-coded bits, which the cycle-level decoder simulator
// (src/accel/jpeg/decoder_sim.h) can then decode for ground truth. The
// sim runs with the same default timing and seed the calibration suite
// (tests/accuracy_test.cc) uses, so drift detected here is interface
// drift — the same contract conv_shadow.h establishes for conv.
#ifndef SRC_ACCEL_JPEG_JPEG_SHADOW_H_
#define SRC_ACCEL_JPEG_JPEG_SHADOW_H_

#include <string>

#include "src/serve/request.h"

namespace perfiface::jpeg {

// Reconstructs the workload from `request` and produces the simulator's
// latency. Returns false with *error set when the request is outside the
// replayable vocabulary (throughput functions, non-integral or
// inconsistent attrs, injection plans other than hdr_in:1,vld_in:N).
bool JpegShadowTruth(const serve::PredictRequest& request, double* truth, std::string* error);

// Registers JpegShadowTruth for interface "jpeg_decoder" in the
// process-wide ShadowBackendRegistry. Idempotent; call once at startup.
void RegisterJpegShadowBackend();

}  // namespace perfiface::jpeg

#endif  // SRC_ACCEL_JPEG_JPEG_SHADOW_H_
