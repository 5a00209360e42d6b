#include "src/host.h"

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/stats.h"

namespace perfbench {

namespace {

std::uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

std::uint64_t NowNs() { return ClockNs(CLOCK_MONOTONIC); }
std::uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
std::uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

std::uint64_t ContextSwitches() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
}

namespace {

// The integer after `field` in /proc/self/status, or 0.
long StatusField(const char* field) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  const std::size_t len = std::strlen(field);
  char line[256];
  long value = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0) {
      value = std::atol(line + len);
      break;
    }
  }
  std::fclose(f);
  return value;
}

}  // namespace

// VmHWM, unlike getrusage's ru_maxrss, starts afresh at exec, so a
// launcher's own footprint does not count.
double PeakRssMb() { return static_cast<double>(StatusField("VmHWM:")) / 1024.0; }

int ThreadCount() { return static_cast<int>(StatusField("Threads:")); }

int OnlineCpus() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

double LoadAverage1m() {
  double load[1] = {0};
  return getloadavg(load, 1) == 1 ? load[0] : -1;
}

namespace {

std::uint64_t NextRandom(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

volatile std::uint64_t calibration_sink;

void CalibrationPass() {
  std::uint64_t state = 7;
  std::uint64_t check = 0;
  // Branchy integer and floating-point arithmetic.
  double acc = 1;
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t r = NextRandom(&state);
    check = (r & 1) != 0 ? check + (r >> 3) : check ^ (r * 7);
    acc = acc * 1.0000001 + static_cast<double>(r & 255) * 1e-9;
  }
  // String building, hashing and inserts into a small fresh map.
  std::unordered_map<std::string, double> map;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t r = NextRandom(&state);
    std::string key = "attr_" + std::to_string(r % 1500) + "=" + std::to_string(i & 63);
    double& slot = map[key];
    slot = slot * 0.5 + std::sqrt(static_cast<double>(r % 100000) + 1.0) / (1.0 + (i & 7));
    check += std::hash<std::string>{}(key) + static_cast<std::uint64_t>(slot);
  }
  calibration_sink = check + static_cast<std::uint64_t>(acc);
}

}  // namespace

std::uint64_t CalibrationNs() {
  CalibrationPass();  // warms the caches and the allocator
  const std::uint64_t t0 = ThreadCpuNs();
  CalibrationPass();
  return ThreadCpuNs() - t0;
}

double CalibrationAcrossCpusNs(int per_cpu) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  double sum = 0;
  int cpus = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (!CPU_ISSET(cpu, &allowed) || sched_setaffinity(0, sizeof(one), &one) != 0) {
      continue;
    }
    std::vector<double> times;
    for (int i = 0; i < per_cpu; ++i) {
      times.push_back(static_cast<double>(CalibrationNs()));
    }
    sum += Median(times);
    ++cpus;
  }
  sched_setaffinity(0, sizeof(allowed), &allowed);
  return cpus > 0 ? sum / cpus : static_cast<double>(CalibrationNs());
}

void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

}  // namespace perfbench
