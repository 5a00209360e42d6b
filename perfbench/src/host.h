// Process and host readings the benchmark reports beside its metrics.
#ifndef PERFBENCH_SRC_HOST_H_
#define PERFBENCH_SRC_HOST_H_

#include <cstdint>

namespace perfbench {

// Monotonic clock in nanoseconds (the clock every latency is taken on).
std::uint64_t NowNs();
// User + system CPU time of the whole process / of the calling thread.
std::uint64_t ProcessCpuNs();
std::uint64_t ThreadCpuNs();
// Voluntary + involuntary context switches of the process so far.
std::uint64_t ContextSwitches();
// Peak resident set size, in MiB.
double PeakRssMb();
// Threads in this process right now.
int ThreadCount();
int OnlineCpus();
// One-minute load average.
double LoadAverage1m();
// Runs a fixed amount of CPU work of two kinds the service does (branchy
// integer and floating-point arithmetic; string building, hashing and
// inserts into a small hash map) twice, and returns the calling thread's
// CPU time for the second pass, about 0.6 ms. The work is the benchmark's
// own code, so a change to the program does not move it; a change in the
// host's speed does.
std::uint64_t CalibrationNs();
// The calibration kernel's speed over every CPU this process may run on: the
// calling thread moves to each CPU in turn, takes the median of `per_cpu`
// CalibrationNs times there, and moves back. Returns the mean of the
// per-CPU medians.
double CalibrationAcrossCpusNs(int per_cpu);
// Lets the calling thread's timed sleeps wake within ~1 us of their
// deadline instead of the default 50 us slack.
void TightenTimerSlack();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HOST_H_
