// PredictionService: a concurrent performance-query service over the
// interface registry (paper §2's design-time and run-time clients — SoC
// sizing sweeps, offload decisions, auto-tuners — all reduce to "what
// latency/throughput will this workload see?" asked at high rate).
//
// The service loads the registry once, pre-parses every shipped .psc
// program and .pnet net (nets are also pre-compiled to flat CompiledNet
// form), and answers queries through a fixed worker pool:
//
//   clients ──Predict/PredictBatch/SubmitBatch──▶ admission control ──▶
//       cache probe on the submitting thread (sharded LRU cache; hits and
//       early outcomes resolve here) ──▶ misses only: deadline-bucketed
//       MPMC queue (request chunks) ──▶ workers (one bytecode Vm per
//       thread per program — never shared) ──▶ process-wide sub-net memo
//       (src/petri/pnet_memo.h) ──▶ cache fill
//
// Responses memoize (interface, function, canonicalized workload) →
// prediction, so hot workloads skip evaluation entirely; below that, pnet
// evaluations memoize per weakly-connected component keyed by structural
// hash, so repeated *structure* is cheap even across different nets.
// Registry lookups go through a lock-free direct-mapped hot tier over a
// hash index — no linear scan on the hot path. Per-request deadlines ride
// on the Vm's step budget (docs/serving.md).
//
// Thread-safety: all public methods are safe from any thread. Shutdown
// (or destruction) drains accepted work, then rejects later submissions.
#ifndef SRC_SERVE_SERVICE_H_
#define SRC_SERVE_SERVICE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/program_interface.h"
#include "src/core/pnet.h"
#include "src/core/registry.h"
#include "src/obs/trace.h"
#include "src/perfscript/vm.h"
#include "src/petri/compiled_net.h"
#include "src/serve/admission.h"
#include "src/serve/deadline_queue.h"
#include "src/serve/lru_cache.h"
#include "src/serve/metrics.h"
#include "src/serve/request.h"
#include "src/serve/shadow.h"

namespace perfiface::serve {

struct ServiceOptions {
  // 0 = one worker per hardware thread.
  std::size_t num_workers = 0;
  // Capacity of the request queue, in chunks (not individual requests).
  std::size_t queue_capacity = 256;
  // Batch submissions are split into chunks of this many requests; the
  // chunk is the unit of queue handoff, so its cost amortizes.
  std::size_t batch_chunk = 32;
  // Total cache entries (0 disables caching) and shard count.
  std::size_t cache_capacity = 4096;
  std::size_t cache_shards = 64;
  // Cross-request per-component Petri-net memoization (the process-wide
  // table in src/petri/pnet_memo.h). Off, every pnet query simulates from
  // scratch — useful for benchmarking and for verifying equivalence.
  bool enable_pnet_memo = true;
  // Derived closed-form interfaces (src/petri/distill.h): on an exact-memo
  // miss, serve deterministic-path components from the closed form
  // distilled out of their compiled delay expressions. Distillation runs
  // once per (component, injection plan), probing with a handful of
  // restricted simulations; any refusal (attr-dependent guards, drifting
  // firing counts, query outside the probed hull) falls back to simulation
  // bit-identically. Off by default. Requires enable_pnet_memo (the tier
  // lives on the per-component path).
  bool enable_derived = false;
  // There is no approximate (fitted) pnet tier. A constant, not an option:
  // perfbench's facts line still prints it.
  static constexpr bool enable_param_memo = false;
  // Program interfaces always run as compiled bytecode (one Vm per worker
  // per program). A constant, not an option: perfbench's facts line still
  // prints it.
  static constexpr bool enable_psc_compile = true;
  // Default evaluation budget: Vm steps (program queries) or net firings
  // (pnet queries).
  std::uint64_t default_max_steps = 5'000'000;
  // Deadline→budget conversion: a request with deadline_us left gets at
  // most deadline_us * steps_per_us steps (docs/serving.md).
  std::uint64_t steps_per_us = 200;
  // Shadow validation (src/serve/shadow.h): re-run 1-in-N evaluated
  // predictions against the registered simulator backend and track drift.
  // 0 disables. The sampler is seeded and key-hashed, so the sampled set is
  // identical across runs regardless of worker interleaving.
  std::uint64_t shadow_sample_every = 0;
  std::uint64_t shadow_seed = 0;
  // |relative error| above this counts as a perfiface_shadow_violations_total
  // drift violation. The default leaves headroom over conv's calibrated
  // worst case (~7.7% program max error in tests/conv_test.cc).
  double shadow_drift_threshold = 0.15;
  // Record one coarse entry per evaluated request into the process-wide
  // obs::SpanRing behind GET /tracez. Cheap (a mutex + small copies), but
  // can be disabled for closed-loop microbenchmarks.
  bool enable_span_ring = true;
  // Admission control (docs/serving.md "Admission control & tenancy"):
  // per-tenant token-bucket quotas plus optional deadline-feasibility
  // shedding, applied at enqueue so overload is rejected early instead of
  // timing out in the queue. Defaults admit everything.
  AdmissionOptions admission;
};

// Per-request completion callback for the async API: invoked once per
// request, with the request's index in submission order, as soon as that
// request resolves (streaming — not batched at the end). Cache hits, and
// requests resolved before evaluation (shed by admission control, unknown
// interface, expired deadline, service shutting down), complete on the
// submitting thread before SubmitBatch returns; cache misses complete on
// the worker that evaluated them. Must not block for long: it runs on the
// worker that would otherwise be evaluating.
using StreamCallback = std::function<void(std::size_t index, const PredictResponse& response)>;

class PredictionService {
 private:
  struct BatchState;  // defined below; BatchHandle only holds a pointer

 public:
  explicit PredictionService(const InterfaceRegistry& registry, ServiceOptions options = {});
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  // Handle to an in-flight async batch. Cheap to copy (shared state);
  // dropping every copy does NOT cancel the batch — it runs to completion
  // ("fire and forget" is legal, the workers keep the state alive).
  class BatchHandle {
   public:
    BatchHandle() = default;  // invalid handle; done() == true

    bool valid() const { return state_ != nullptr; }
    std::size_t size() const;
    // True once every request has resolved (and every callback returned).
    bool done() const;
    void Wait() const;
    // False on timeout.
    bool WaitFor(std::chrono::microseconds timeout) const;
    // Blocks until done; responses[i] answers requests[i].
    const std::vector<PredictResponse>& Responses() const;

   private:
    friend class PredictionService;
    explicit BatchHandle(std::shared_ptr<BatchState> state) : state_(std::move(state)) {}
    std::shared_ptr<BatchState> state_;
  };

  // Synchronous single query (a batch of one).
  PredictResponse Predict(const PredictRequest& request);

  // Batch API: responses[i] answers requests[i]; blocks until the whole
  // batch is resolved. Requests are processed by the pool concurrently.
  std::vector<PredictResponse> PredictBatch(std::span<const PredictRequest> requests);

  // Async batch API: returns immediately with a handle; the service owns
  // the requests for the batch's lifetime. A single client thread can keep
  // many batches in flight and consume completions through `on_complete`
  // (streamed per request) or by polling/waiting on the handles.
  BatchHandle SubmitBatch(std::vector<PredictRequest> requests,
                          StreamCallback on_complete = nullptr);

  // Stops accepting work, drains the queue, joins the workers. Idempotent.
  void Shutdown();

  const ServiceMetrics& metrics() const { return *metrics_; }
  const ShardedLruCache& cache() const { return cache_; }
  std::size_t queue_depth() const { return queue_.size(); }
  std::size_t num_workers() const { return workers_.size(); }

  // Observability dumps (histograms, counters, queue depth).
  std::string StatsText() const { return metrics_->DumpText(queue_depth()); }
  std::string StatsJson() const { return metrics_->DumpJson(queue_depth()); }
  // Prometheus scrape: this service's families plus the process-wide
  // vm/pnet/sim counters (the service registers itself as a collector
  // with obs::MetricsRegistry; see docs/observability.md).
  std::string StatsPrometheus() const;

  // Interfaces the service can answer for (registry order).
  std::vector<std::string> InterfaceNames() const;

  // Shadow-validation bookkeeping (always constructed; inert when
  // ServiceOptions::shadow_sample_every is 0).
  const ShadowValidator& shadow() const { return *shadow_; }

  // GET /statusz body: uptime, build info, effective options, and a
  // per-interface requests/qps/p50/p99/shadow summary (docs/observability.md).
  std::string StatuszJson() const;

  // Name + shipped representations per interface (registry order); feeds
  // the HTTP GET /interfaces discovery endpoint.
  struct InterfaceInfo {
    std::string name;
    bool has_program = false;
    bool has_pnet = false;
  };
  std::vector<InterfaceInfo> InterfaceInfos() const;

  // Deadline→budget conversion used by Budget: at most remaining_us *
  // steps_per_us steps, saturating at UINT64_MAX instead of wrapping (a
  // client-supplied deadline near INT64_MAX must mean "effectively
  // unlimited", not a tiny wrapped budget and a spurious
  // DEADLINE_EXCEEDED). Non-positive remaining_us yields 0.
  static std::uint64_t DeadlineBudgetSteps(std::int64_t remaining_us,
                                           std::uint64_t steps_per_us);

 private:
  using Clock = std::chrono::steady_clock;

  // One pre-parsed registry entry; immutable after construction.
  struct Entry {
    std::string name;
    std::optional<ProgramInterface> program;  // shared parse + constants
    LoadedNet pnet;                           // pnet.net null if none shipped
    std::unique_ptr<CompiledNet> compiled;    // non-null iff pnet.net is
  };

  // What the probe half learned about a request that missed the cache,
  // carried to the worker that evaluates it: the evaluate half neither
  // resolves the entry again nor rebuilds the key.
  struct Probed {
    std::size_t entry = 0;  // index into entries_
    Representation rep = Representation::kAuto;
    std::string key;       // CanonicalCacheKey(request, rep)
    std::string trace_id;  // the client's, or minted by the probe
  };

  // Completion state shared between a batch submitter and the workers.
  // Synchronous batches stack-allocate it (the submitter outlives the
  // batch by construction); async batches heap-allocate it and the Jobs
  // carry a keepalive reference so fire-and-forget is safe.
  struct BatchState {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t remaining = 0;
    Clock::time_point submitted;
    // Async-only: the batch owns its request/response storage, and
    // completions stream through on_complete (may be empty).
    std::vector<PredictRequest> requests;
    std::vector<PredictResponse> responses;
    StreamCallback on_complete;
    // probed[i] describes queued request i; sized on the batch's first
    // miss, before any chunk is queued, and written only by the submitter.
    std::vector<Probed> probed;
  };

  struct Job {
    const PredictRequest* requests = nullptr;
    PredictResponse* responses = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    BatchState* batch = nullptr;
    std::shared_ptr<BatchState> keepalive;  // non-null for async batches
    // Links this chunk's enqueue span to the dequeue span of whichever
    // worker picks it up (trace flow arrow). 0 = tracing was off at
    // submission, no flow recorded.
    std::uint64_t flow_id = 0;
    // Slack band the chunk was scheduled in (tightest deadline of its
    // requests at enqueue) and when it entered the queue, for the
    // queue-wait-by-band histograms.
    DeadlineBucket bucket = DeadlineBucket::kNone;
    Clock::time_point enqueued{};
  };

  // Per-worker evaluation state: one bytecode Vm per program, created
  // lazily and reused across requests (Call resets per-call state).
  struct WorkerState {
    std::vector<std::unique_ptr<Vm>> vms;  // by entry index
  };

  // Evaluation-path facts threaded out of EvaluateProgram/EvaluatePnet so
  // Finish can assemble the explain payload and the span-ring entry
  // without re-deriving them. Static strings only — no per-request
  // allocation unless the client asked to explain.
  struct EvalDetail {
    // "cache" | "psc-vm" | "pnet" | "pnet-memo" | "pnet-derived"
    const char* representation = "";
    std::uint64_t steps = 0;          // VM steps or net firings
    std::uint64_t memo_components = 0;
    std::uint64_t memo_hits = 0;
    std::uint64_t derived_hits = 0;   // components served by distilled closed forms
  };

  // Per-request bookkeeping of one half (probe or evaluate), turned into
  // metrics, explain and the span-ring entry by Finish.
  struct Outcome {
    Clock::time_point start;
    std::uint64_t queue_wait_ns = 0;
    std::uint64_t ring_start_ns = 0;
    std::size_t iface_idx = 0;
    // kNotConsulted until the cache lookup runs: early exits (expired
    // deadline, unknown interface/function) must not skew the hit/miss
    // counters.
    CacheOutcome cache = CacheOutcome::kNotConsulted;
    bool deadline_limited = false;
    EvalDetail detail;
    ShadowValidator::Outcome shadow;
    obs::SpanGuard* span = nullptr;
  };

  void WorkerLoop();
  // Runs admission over [0, n), then the cache probe over every admitted
  // request. Shed requests, hits and early outcomes (and, on shutdown,
  // everything unqueued) resolve inline on the calling thread — response
  // filled, metrics charged, completion streamed, batch accounting
  // settled; misses are enqueued as contiguous chunks. After it returns,
  // every request is either queued or already resolved.
  void EnqueueChunks(const PredictRequest* requests, PredictResponse* responses,
                     std::size_t n, BatchState* batch,
                     const std::shared_ptr<BatchState>& keepalive);
  // Fills a REJECTED response with the trace-id/tenant echo and
  // explain-presence parity every evaluated response gets.
  static void FillRejected(const PredictRequest& request, const char* error,
                           PredictResponse* out);
  // DEADLINE_EXCEEDED for a request whose deadline expired before it was
  // evaluated (at the probe, in the queue, or at eval start), charging the
  // deadline counter but not the eval-path latency/request metrics, the
  // cache counters or the shadow sampler.
  PredictResponse ExpiredResponse(const PredictRequest& request, const std::string& trace_id,
                                  const char* error, std::uint64_t queue_wait_ns);
  const Entry* FindEntry(const std::string& name) const;
  // Evaluation budget for a request starting at `now`: the explicit or
  // default step budget, capped by the time left before its deadline.
  // False if the deadline has already passed.
  bool Budget(const PredictRequest& request, Clock::time_point submitted, Clock::time_point now,
              std::uint64_t* budget, bool* deadline_limited) const;
  // Probe half, on the submitting thread: deadline check, registry entry,
  // representation, cache key, cache lookup. True if the request resolved
  // (hit or early outcome; *response is final); false on a miss, with
  // *probed filled for the evaluate half.
  bool Probe(const PredictRequest& request, Clock::time_point submitted,
             PredictResponse* response, Probed* probed);
  // Evaluate half, on a worker: a second cache look with the carried key,
  // program/pnet evaluation, the non-finite check, shadow sampling, cache
  // fill.
  PredictResponse Evaluate(const PredictRequest& request, const Probed& probed,
                           Clock::time_point submitted, WorkerState* state);
  // Shared tail of both halves: stamps trace id/tenant/eval_ns onto the
  // response and records metrics, explain and the span-ring entry.
  PredictResponse Finish(const PredictRequest& request, const std::string& trace_id,
                         const Outcome& outcome, PredictResponse r);
  PredictResponse EvaluateProgram(const PredictRequest& request, const Entry& entry,
                                  std::size_t entry_idx, std::uint64_t budget,
                                  bool deadline_limited, WorkerState* state, EvalDetail* detail);
  PredictResponse EvaluatePnet(const PredictRequest& request, const Entry& entry,
                               std::uint64_t budget, bool deadline_limited, EvalDetail* detail);

  ServiceOptions options_;
  std::vector<Entry> entries_;
  // Registry lookup, two tiers: a direct-mapped, lock-free hot tier of
  // entry indices validated by name compare (one hash + one compare for a
  // repeated interface name), backed by a hash index built at
  // construction. Both are read-mostly; the hot tier's slots are plain
  // relaxed atomics because any value they hold is validated before use.
  static constexpr std::size_t kHotSlots = 64;  // power of two
  std::unordered_map<std::string, std::size_t> index_;
  mutable std::array<std::atomic<std::uint32_t>, kHotSlots> hot_;
  std::unique_ptr<ServiceMetrics> metrics_;
  std::unique_ptr<ShadowValidator> shadow_;
  Clock::time_point service_start_{};
  ShardedLruCache cache_;
  DeadlineQueue<Job> queue_;
  AdmissionController admission_;
  // Queued-but-unfinished requests (misses) and a relaxed EMA of their
  // service time, feeding the deadline-feasibility estimate (predicted
  // wait = pending x ema / workers). Racy lost EMA updates are fine — it
  // is an estimate, and the atomics keep it TSan-clean.
  std::atomic<std::uint64_t> pending_requests_{0};
  std::atomic<std::uint64_t> ema_service_ns_{0};
  std::atomic<std::uint64_t> next_flow_id_{1};
  std::vector<std::thread> workers_;
  // Set by Shutdown before the queue closes: later submissions are
  // rejected, hits included.
  std::atomic<bool> shut_down_{false};
  std::once_flag shutdown_once_;
  std::uint64_t metrics_collector_ = 0;  // obs::MetricsRegistry handle
};

}  // namespace perfiface::serve

#endif  // SRC_SERVE_SERVICE_H_
