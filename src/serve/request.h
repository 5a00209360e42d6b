// Wire-level request/response types for the prediction service.
//
// A request names an interface from the registry, picks one of the shipped
// representations, and describes the workload as flat numeric attributes
// (plus the uniform-children shorthand for recursive interfaces). This is
// deliberately the same vocabulary psc_tool speaks, so a query that works
// on the command line works against the service unchanged.
#ifndef SRC_SERVE_REQUEST_H_
#define SRC_SERVE_REQUEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfiface::serve {

// Which shipped representation answers the query. kAuto prefers the
// executable program and falls back to the Petri net.
enum class Representation { kAuto, kProgram, kPnet };

struct PredictRequest {
  std::string interface;  // registry accelerator name, e.g. "jpeg_decoder"
  Representation representation = Representation::kAuto;

  // Program queries: the prediction function to call (e.g.
  // "latency_jpeg_decode"). Ignored for pnet queries.
  std::string function;

  // Workload attributes exposed to the interface. Program queries see them
  // as object attributes; pnet queries map them onto the net's token
  // attribute schema (names absent from the schema are ignored).
  std::vector<std::pair<std::string, double>> attrs;
  // Attach this many uniform child objects (recursive interfaces).
  int children = 0;

  // Pnet queries: where the workload tokens enter the net. Either empty
  // (inject `tokens` copies into the net's first declared place) or a
  // comma-separated list of `place[:count]` items — e.g. the JPEG net's
  // "hdr_in:1,vld_in:8" injects the header token plus eight stripes. All
  // injected tokens carry the same attribute values. The net then runs to
  // quiescence; `value` is the quiescence time.
  std::string entry_place;
  int tokens = 1;  // copies used when entry_place names no :count

  // Resource limits. max_steps bounds VM instructions (program) or net
  // firings (pnet); 0 means the service default. deadline_us is a wall
  // clock budget measured from batch submission; 0 means none. See
  // docs/serving.md for how the deadline maps onto the step budget.
  std::uint64_t max_steps = 0;
  std::int64_t deadline_us = 0;

  // Provenance (docs/observability.md "Trace context" / "Explain"). Both
  // are deliberately excluded from CanonicalCacheKey: they change what the
  // response *reports*, never what it predicts.
  //
  // Client-supplied trace id echoed in the response and attached to every
  // span the request crosses; the service generates one when empty.
  std::string trace_id;
  // Opt-in: fill PredictResponse::explain with the provenance breakdown.
  bool explain = false;

  // Tenant name for per-tenant quotas and metrics (docs/serving.md
  // "Admission control & tenancy"). At most 64 bytes on the wire, echoed
  // in the response, and — like trace_id — excluded from
  // CanonicalCacheKey: tenancy changes who is asking, not what the
  // interface predicts. Empty means the default tenant.
  std::string tenant;
};

enum class PredictStatus {
  kOk,
  kError,              // runtime error in the interface program / net
  kNotFound,           // unknown interface, function, representation, place
  kDeadlineExceeded,   // expired in queue or step budget derived from the
                       // deadline exhausted mid-evaluation
  kResourceExhausted,  // explicit max_steps budget exhausted
  kRejected,           // shed at admission (tenant quota dry, deadline
                       // infeasible at current queue depth) or service
                       // shutting down — see docs/serving.md "Admission
                       // control & tenancy"
};

const char* PredictStatusName(PredictStatus s);

// Inverse of PredictStatusName; false (and *out untouched) on an unknown
// name. Used by the wire codec to decode statuses off the network.
bool PredictStatusFromName(std::string_view name, PredictStatus* out);

// Per-request provenance, filled only when PredictRequest::explain is set.
// Everything here is assembled from state the evaluation path already
// tracks; requesting it costs a few string copies, not extra evaluation.
struct ExplainInfo {
  bool filled = false;
  // Which machinery produced the value: "psc-vm", "pnet",
  // "pnet-memo" (every component answered from the memo table),
  // "pnet-derived" (no simulation; at least one component served from a
  // distilled closed-form interface, src/petri/distill.h), or "cache"
  // (served from the prediction cache without evaluating).
  std::string representation;
  // Prediction-cache outcome: "hit", "miss", or "not_consulted" (cache
  // disabled or the request never reached lookup).
  std::string cache;
  std::uint64_t queue_wait_ns = 0;  // batch submission -> worker pickup
  std::uint64_t eval_ns = 0;        // same clock as PredictResponse::eval_ns
  // VM steps (program) or net firings consumed (pnet).
  std::uint64_t steps = 0;
  // Pnet memo path: components consulted and how many hit the memo table.
  std::uint64_t memo_components = 0;
  std::uint64_t memo_hits = 0;
  // Components served from a distilled closed-form interface on an
  // exact-memo miss (docs/serving.md "Unified expression IR & derived
  // interfaces"). representation reads "pnet-derived" when no component
  // had to simulate and at least one came from a closed form.
  std::uint64_t derived_hits = 0;
  // Always 0 (there is no fitted pnet tier); kept because perfbench's
  // load generator still reads it.
  std::uint64_t param_hits = 0;
  // The step budget came from deadline_us rather than max_steps.
  bool deadline_limited = false;
  // Shadow validation (docs/observability.md): set when this request was
  // sampled and re-run against the simulator backend.
  bool shadowed = false;
  double shadow_truth = 0;
  double shadow_rel_err = 0;  // (predicted - truth) / truth, signed
};

struct PredictResponse {
  PredictStatus status = PredictStatus::kRejected;
  std::string error;  // empty iff status == kOk

  // Program queries: `value` is the called function's result; throughput is
  // filled only when the function name suggests a rate (left 0 otherwise).
  // Pnet queries: `value` is the quiescence latency in cycles and
  // `throughput` is tokens/latency.
  double value = 0;
  double throughput = 0;

  bool cache_hit = false;
  std::uint64_t eval_ns = 0;  // service-side evaluation time (0 on a hit)

  // Echo of the request's trace id (service-generated when the request
  // carried none). Always set by PredictionService, even on errors.
  std::string trace_id;
  // Echo of the request's tenant (empty for the default tenant), so
  // pipelined multi-tenant clients can attribute responses without
  // re-joining against their own bookkeeping.
  std::string tenant;
  // Provenance breakdown; filled iff the request set explain.
  ExplainInfo explain;

  bool ok() const { return status == PredictStatus::kOk; }
};

// Process-unique trace id: 16 lowercase hex chars, seeded from the wall
// clock and pid at first use so concurrent processes don't collide.
std::string GenerateTraceId();

// Upper bound on the tokens one pnet request injects, summed over its
// injection plan. Every injected token costs the simulator memory (about
// 95 bytes), and the wire accepts counts up to INT_MAX per item, so
// without a bound one request could demand tens of gigabytes. Shipped,
// tested and benchmarked plans inject at most 257.
inline constexpr long long kMaxInjectedTokens = 65'536;

// A pnet request's injection plan: its entry_place spec read by the one
// parser of that grammar. The cache key and the evaluator both build on
// it, so the evaluator accepts exactly the specs the cache can answer.
//
// Grammar: comma-separated `place[:count]` items. Whitespace is
// insignificant anywhere (place names are identifiers, so dropping it
// cannot merge names). An item without `:count` injects
// max(1, PredictRequest::tokens) copies. An empty spec injects that many
// into the net's first declared place.
struct EntryPlan {
  bool first_place = false;  // empty spec; total_tokens go to place 0
  // Well-formed items, sorted by place name, duplicates merged by summing
  // their counts (saturating at LLONG_MAX).
  std::vector<std::pair<std::string, long long>> items;
  // Items whose count is not a positive decimal integer, whitespace
  // stripped and sorted. The evaluator rejects them; the cache key keeps
  // them verbatim so distinct garbage never aliases.
  std::vector<std::string> malformed;
  // Tokens the plan injects (saturating at LLONG_MAX); compare against
  // kMaxInjectedTokens before injecting anything.
  long long total_tokens = 0;
};

EntryPlan ParseEntryPlan(const PredictRequest& req);

// Canonical cache key: representation-resolved, attribute order and float
// formatting normalized, and the entry-place spec canonicalized through
// ParseEntryPlan (default counts made explicit, items sorted, duplicates
// merged), so permuted but identical queries share an entry. `resolved`
// must be kProgram or kPnet (kAuto is resolved by the service before
// keying).
// Resource limits are deliberately excluded: the cache stores ground-truth
// predictions, and limits only bound *evaluation* cost.
std::string CanonicalCacheKey(const PredictRequest& req, Representation resolved);

}  // namespace perfiface::serve

#endif  // SRC_SERVE_REQUEST_H_
