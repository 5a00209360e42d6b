// Native (C++) mirrors of the shipped PerfScript interface programs.
//
// Two purposes: (1) tests cross-validate the shipped PerfScript programs,
// run on the bytecode VM, against these closed forms — the program and the
// mirror must agree to the last ulp-ish; (2) tools that want predictions
// without loading a program (e.g. the SoC design-space explorer) can call
// these directly.
#ifndef SRC_CORE_NATIVE_INTERFACES_H_
#define SRC_CORE_NATIVE_INTERFACES_H_

#include "src/accel/jpeg/codec.h"
#include "src/accel/protoacc/message.h"

namespace perfiface {

// ---- Fig 2: JPEG decoder ----

double NativeJpegLatency(const CompressedImage& image);
double NativeJpegThroughput(const CompressedImage& image);

// ---- Fig 3: Protoacc serializer ----

double NativeProtoaccReadCost(const MessageInstance& msg, double avg_mem_latency);
double NativeProtoaccThroughput(const MessageInstance& msg, double avg_mem_latency);
double NativeProtoaccMinLatency(const MessageInstance& msg, double avg_mem_latency);
double NativeProtoaccMaxLatency(const MessageInstance& msg, double avg_mem_latency);

}  // namespace perfiface

#endif  // SRC_CORE_NATIVE_INTERFACES_H_
