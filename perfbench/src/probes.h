// Timed calls into single layers on the workload's own requests: the wire
// codec (src/net/wire.h), the cache key (src/serve/request.h) and the
// response cache's LRU (src/common/sharded_lru.h).
#ifndef PERFBENCH_SRC_PROBES_H_
#define PERFBENCH_SRC_PROBES_H_

#include <cstdint>

#include "src/serve/service.h"
#include "src/workloads.h"

namespace perfbench {

struct ProbeResult {
  double req_decode_us = 0;  // DecodeRequestFrame, one single-request frame
  double resp_encode_us = 0; // EncodeResponseLine
  double resp_bytes = 0;     // mean response line length
  double key_us = 0;         // CanonicalCacheKey
  double cache_get_us = 0;   // ShardedLru::Get on the workload's key stream
  double cache_put_us = 0;   // ShardedLru::Put on the same stream
};

// Each probe reports the median over repeated passes of its mean per-call
// time. `service` answers the requests whose responses are encoded.
ProbeResult RunProbes(const WorkloadSpec& spec, std::uint64_t seed,
                      perfiface::serve::PredictionService* service);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBES_H_
