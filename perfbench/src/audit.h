// Output audit: the answers a run served must be bit-identical to a
// reference service that evaluates everything from scratch, and the
// interfaces' accuracy against the simulators is measured on a fixed sample.
#ifndef PERFBENCH_SRC_AUDIT_H_
#define PERFBENCH_SRC_AUDIT_H_

#include <cstdint>
#include <vector>

#include "src/loadgen.h"
#include "src/serve/service.h"
#include "src/workloads.h"

namespace perfbench {

// A service with no response cache and no sub-net memo: every answer is a
// full evaluation.
perfiface::serve::ServiceOptions ReferenceOptions();

struct IdentityAudit {
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;  // value or throughput differs in any bit
};

// Re-answers every answered sample with `reference` and compares.
IdentityAudit AuditIdentity(perfiface::serve::PredictionService* reference,
                            const std::vector<ResponseCheck::Sample>& samples);

struct AccuracyAudit {
  std::uint64_t queries = 0;   // replayed by a shadow backend
  std::uint64_t failures = 0;  // reference answer not OK
  std::uint64_t per_family[kNumFamilies] = {};
  double mean_abs_err_pct = 0;  // mean |predicted - simulated| / simulated
  double sim_us = 0;            // mean time of one shadow-backend call
  double iface_us = 0;          // mean reference evaluation time, same queries
};

// Draws the workload's queries under a fixed seed (the same sample on every
// run) until `per_family` of each family have simulator ground truth, and
// scores the reference service's answers against the shadow backends.
AccuracyAudit AuditAccuracy(const WorkloadSpec& spec,
                            perfiface::serve::PredictionService* reference,
                            std::uint64_t per_family);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_AUDIT_H_
