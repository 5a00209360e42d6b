#include "src/serve/service.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/common/strings.h"
#include "src/obs/build_info.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/span_ring.h"
#include "src/obs/trace.h"
#include "src/perfscript/kv_object.h"
#include "src/petri/distill.h"
#include "src/petri/pnet_memo.h"
#include "src/petri/sim.h"

namespace perfiface::serve {

namespace {

// Same event-horizon budget the petri interface adapters use: far beyond
// any real prediction, only hit by nets that never quiesce.
constexpr Cycles kPnetRunBudget = 1ULL << 40;

std::uint64_t ElapsedNs(std::chrono::steady_clock::time_point from,
                        std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

// The response a cache hit answers with.
PredictResponse FromCache(const CachedPrediction& cached) {
  obs::Tracer::Global().Instant("serve", "cache_hit");
  PredictResponse r;
  r.status = PredictStatus::kOk;
  r.value = cached.value;
  r.throughput = cached.throughput;
  r.cache_hit = true;
  return r;
}

}  // namespace

std::size_t PredictionService::BatchHandle::size() const {
  return state_ == nullptr ? 0 : state_->responses.size();
}

bool PredictionService::BatchHandle::done() const {
  if (state_ == nullptr) {
    return true;
  }
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->remaining == 0;
}

void PredictionService::BatchHandle::Wait() const {
  if (state_ == nullptr) {
    return;
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->remaining == 0; });
}

bool PredictionService::BatchHandle::WaitFor(std::chrono::microseconds timeout) const {
  if (state_ == nullptr) {
    return true;
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_for(lock, timeout, [this] { return state_->remaining == 0; });
}

const std::vector<PredictResponse>& PredictionService::BatchHandle::Responses() const {
  static const std::vector<PredictResponse>* const kEmpty = new std::vector<PredictResponse>();
  if (state_ == nullptr) {
    return *kEmpty;
  }
  Wait();
  return state_->responses;
}

PredictionService::PredictionService(const InterfaceRegistry& registry, ServiceOptions options)
    : options_(options),
      service_start_(Clock::now()),
      cache_(options.cache_capacity, options.cache_shards),
      queue_(options.queue_capacity),
      admission_(options.admission) {
  // Pre-parse everything the registry ships: queries never touch the
  // filesystem, the parser, or the pnet compiler.
  std::vector<std::string> names;
  for (const InterfaceBundle& bundle : registry.bundles()) {
    Entry entry;
    entry.name = bundle.accelerator;
    if (!bundle.program_path.empty()) {
      entry.program = registry.LoadProgram(bundle.accelerator);
    }
    if (!bundle.pnet_path.empty()) {
      entry.pnet = LoadPnetFile(bundle.pnet_path);
      PI_CHECK_MSG(entry.pnet.ok(), entry.pnet.error.c_str());
      entry.compiled = std::make_unique<CompiledNet>(entry.pnet.net.get());
    }
    names.push_back(entry.name);
    entries_.push_back(std::move(entry));
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    index_.emplace(entries_[i].name, i);
  }
  for (std::atomic<std::uint32_t>& slot : hot_) {
    slot.store(UINT32_MAX, std::memory_order_relaxed);
  }
  metrics_ = std::make_unique<ServiceMetrics>(names);
  shadow_ = std::make_unique<ShadowValidator>(
      ShadowOptions{options_.shadow_sample_every, options_.shadow_seed,
                    options_.shadow_drift_threshold},
      names);
  // One scrape via MetricsRegistry::RenderPrometheus() unifies this
  // service's families with the process-wide vm/pnet/sim counters (and
  // the shadow-validation series when the sampler is on).
  metrics_collector_ = obs::MetricsRegistry::Global().RegisterCollector([this](std::string* out) {
    *out += metrics_->DumpPrometheus(queue_depth());
    shadow_->DumpPrometheus(out);
  });

  std::size_t n = options_.num_workers;
  if (n == 0) {
    n = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

PredictionService::~PredictionService() {
  // The collector captures `this`; detach it before any member dies.
  obs::MetricsRegistry::Global().Unregister(metrics_collector_);
  Shutdown();
}

void PredictionService::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    shut_down_.store(true, std::memory_order_release);
    queue_.Close();
    for (std::thread& w : workers_) {
      w.join();
    }
  });
}

std::uint64_t PredictionService::DeadlineBudgetSteps(std::int64_t remaining_us,
                                                     std::uint64_t steps_per_us) {
  if (remaining_us <= 0) {
    return 0;
  }
  const std::uint64_t remaining = static_cast<std::uint64_t>(remaining_us);
  // Saturate instead of wrapping: deadline_us arrives from the client (and,
  // with the wire front end, from the network), and a value near INT64_MAX
  // must mean "effectively unlimited" — the wrapped product can be tiny,
  // turning a generous deadline into a spurious DEADLINE_EXCEEDED.
  if (steps_per_us != 0 &&
      remaining > std::numeric_limits<std::uint64_t>::max() / steps_per_us) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return remaining * steps_per_us;
}

std::string PredictionService::StatsPrometheus() const {
  return obs::MetricsRegistry::Global().RenderPrometheus();
}

std::string PredictionService::StatuszJson() const {
  const double uptime_s =
      static_cast<double>(ElapsedNs(service_start_, Clock::now())) / 1e9;
  std::string out = "{";
  out += StrFormat("\"uptime_s\":%.3f,", uptime_s);
  out += "\"build\":" + obs::BuildInfoJson() + ",";
  out += StrFormat(
      "\"options\":{\"workers\":%zu,\"queue_capacity\":%zu,\"batch_chunk\":%zu,"
      "\"cache_capacity\":%zu,\"cache_shards\":%zu,\"pnet_memo\":%s,\"derived\":%s,"
      "\"default_max_steps\":%llu,\"steps_per_us\":%llu,\"shadow_sample_every\":%llu,"
      "\"shadow_seed\":%llu,\"shadow_drift_threshold\":%.9g,\"span_ring\":%s},",
      workers_.size(), options_.queue_capacity, options_.batch_chunk, options_.cache_capacity,
      options_.cache_shards, options_.enable_pnet_memo ? "true" : "false",
      options_.enable_derived ? "true" : "false",
      static_cast<unsigned long long>(options_.default_max_steps),
      static_cast<unsigned long long>(options_.steps_per_us),
      static_cast<unsigned long long>(options_.shadow_sample_every),
      static_cast<unsigned long long>(options_.shadow_seed), options_.shadow_drift_threshold,
      options_.enable_span_ring ? "true" : "false");
  out += StrFormat("\"queue_depth\":%zu,", queue_depth());
  // Admission summary: configured quotas merged with observed per-tenant
  // decision counters, so a tenant shows up whether it has traffic, a
  // quota, or both (docs/serving.md "Admission control & tenancy").
  {
    std::vector<TenantAdmissionSnapshot> rows = metrics_->AdmissionSnapshot();
    for (const auto& [tenant, quota] : admission_.options().tenant_quotas) {
      const std::string display = tenant.empty() ? "default" : tenant;
      bool present = false;
      for (const TenantAdmissionSnapshot& row : rows) {
        present = present || row.tenant == display;
      }
      if (!present) {
        rows.push_back(TenantAdmissionSnapshot{display, 0, 0, 0});
      }
    }
    std::sort(rows.begin(), rows.end(),
              [](const TenantAdmissionSnapshot& a, const TenantAdmissionSnapshot& b) {
                return a.tenant < b.tenant;
              });
    out += StrFormat(
        "\"admission\":{\"enabled\":%s,\"shed_deadline\":%s,\"pending_requests\":%llu,"
        "\"ema_service_us\":%.3f,\"admitted\":%llu,\"shed_deadline_total\":%llu,"
        "\"shed_quota_total\":%llu,\"tenants\":[",
        admission_.enabled() ? "true" : "false",
        admission_.options().shed_deadline ? "true" : "false",
        static_cast<unsigned long long>(pending_requests_.load(std::memory_order_relaxed)),
        static_cast<double>(ema_service_ns_.load(std::memory_order_relaxed)) / 1e3,
        static_cast<unsigned long long>(metrics_->admission_admitted()),
        static_cast<unsigned long long>(metrics_->admission_shed_deadline()),
        static_cast<unsigned long long>(metrics_->admission_shed_quota()));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const TenantAdmissionSnapshot& row = rows[i];
      const TenantQuota quota =
          admission_.QuotaFor(row.tenant == "default" ? std::string() : row.tenant);
      out += StrFormat(
          "%s{\"tenant\":\"%s\",\"admitted\":%llu,\"shed_deadline\":%llu,"
          "\"shed_quota\":%llu,\"quota_qps\":%.9g,\"quota_burst\":%.9g}",
          i == 0 ? "" : ",", obs::EscapeLabelValue(row.tenant).c_str(),
          static_cast<unsigned long long>(row.admitted),
          static_cast<unsigned long long>(row.shed_deadline),
          static_cast<unsigned long long>(row.shed_quota), quota.qps, quota.burst);
    }
    out += "]},";
  }
  // Tier attribution: occupancy/eviction pressure on the exact table next
  // to the derived store's distill/hit/refusal totals.
  const PnetMemoTable& memo = PnetMemoTable::Global();
  out += StrFormat(
      "\"pnet_memo\":{\"entries\":%zu,\"capacity\":%zu,\"hits\":%llu,\"misses\":%llu,"
      "\"evictions\":%llu},",
      memo.size(), memo.capacity(), static_cast<unsigned long long>(memo.hits()),
      static_cast<unsigned long long>(memo.misses()),
      static_cast<unsigned long long>(memo.evictions()));
  out += "\"derived_store\":" + DerivedStore::Global().SummaryJson() + ",";
  out += "\"interfaces\":[";
  const auto& rows = metrics_->interfaces();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const InterfaceMetrics& m = *rows[i];
    const std::uint64_t requests = m.requests.load(std::memory_order_relaxed);
    if (i != 0) {
      out += ',';
    }
    out += StrFormat(
        "{\"name\":\"%s\",\"requests\":%llu,\"errors\":%llu,\"qps\":%.2f,"
        "\"p50_us\":%.2f,\"p99_us\":%.2f,\"derived_hits\":%llu,\"shadow\":%s}",
        obs::EscapeLabelValue(m.interface).c_str(), static_cast<unsigned long long>(requests),
        static_cast<unsigned long long>(m.errors.load(std::memory_order_relaxed)),
        uptime_s <= 0 ? 0.0 : static_cast<double>(requests) / uptime_s,
        m.latency.PercentileNs(50) / 1e3, m.latency.PercentileNs(99) / 1e3,
        static_cast<unsigned long long>(m.derived_hits.load(std::memory_order_relaxed)),
        shadow_->SummaryJson(i).c_str());
  }
  out += "]}";
  return out;
}

std::vector<std::string> PredictionService::InterfaceNames() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& e : entries_) {
    names.push_back(e.name);
  }
  return names;
}

std::vector<PredictionService::InterfaceInfo> PredictionService::InterfaceInfos() const {
  std::vector<InterfaceInfo> infos;
  infos.reserve(entries_.size());
  for (const Entry& e : entries_) {
    infos.push_back({e.name, e.program.has_value(), e.pnet.net != nullptr});
  }
  return infos;
}

const PredictionService::Entry* PredictionService::FindEntry(const std::string& name) const {
  // Hot tier: a direct-mapped slot of entry indices. Whatever the slot
  // holds is validated by a name compare before use, so a stale or
  // colliding value costs one extra map lookup, never a wrong answer.
  std::atomic<std::uint32_t>& slot = hot_[std::hash<std::string>{}(name) & (kHotSlots - 1)];
  const std::uint32_t cached = slot.load(std::memory_order_relaxed);
  if (cached < entries_.size() && entries_[cached].name == name) {
    metrics_->RecordLookup(/*hot=*/true);
    return &entries_[cached];
  }
  const auto it = index_.find(name);
  if (it == index_.end()) {
    metrics_->RecordLookup(/*hot=*/false);
    return nullptr;
  }
  slot.store(static_cast<std::uint32_t>(it->second), std::memory_order_relaxed);
  metrics_->RecordLookup(/*hot=*/false);
  return &entries_[it->second];
}

PredictResponse PredictionService::Predict(const PredictRequest& request) {
  return PredictBatch(std::span<const PredictRequest>(&request, 1))[0];
}

void PredictionService::FillRejected(const PredictRequest& request, const char* error,
                                     PredictResponse* out) {
  out->status = PredictStatus::kRejected;
  out->error = error;
  // Same provenance contract as evaluated responses: the trace id is
  // echoed (or minted) and the tenant echoed even on the rejection path,
  // so a pipelined multi-tenant client can attribute every line.
  out->trace_id = request.trace_id.empty() ? GenerateTraceId() : request.trace_id;
  out->tenant = request.tenant;
  if (request.explain) {
    out->explain.filled = true;
    out->explain.representation = "rejected";
    out->explain.cache = "not_consulted";
  }
}

void PredictionService::EnqueueChunks(const PredictRequest* requests,
                                      PredictResponse* responses, std::size_t n,
                                      BatchState* batch,
                                      const std::shared_ptr<BatchState>& keepalive) {
  const std::size_t chunk = std::max<std::size_t>(1, options_.batch_chunk);
  obs::Tracer& tracer = obs::Tracer::Global();
  obs::SpanGuard enqueue_span("serve", "enqueue");
  enqueue_span.SetArg("requests", static_cast<double>(n));

  const Clock::time_point now = Clock::now();
  const std::int64_t elapsed_us =
      static_cast<std::int64_t>(ElapsedNs(batch->submitted, now) / 1000);

  // Admission pass: decide every request up front so shedding happens
  // before any cache or queue work (REJECTED now beats DEADLINE_EXCEEDED
  // later, and a hit never gets around a tenant's quota). An empty
  // `admitted` means admission is inert and everything proceeds — the
  // per-request metrics work is skipped entirely on that hot path.
  std::vector<bool> admitted;
  std::vector<std::size_t> resolved_inline;  // shed, hit, early outcome, or shut down
  std::size_t shed = 0;
  if (admission_.enabled()) {
    obs::SpanGuard admission_span("serve", "admission");
    const std::uint64_t now_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now.time_since_epoch()).count());
    const std::uint64_t ema = ema_service_ns_.load(std::memory_order_relaxed);
    admitted.assign(n, true);
    for (std::size_t i = 0; i < n; ++i) {
      const PredictRequest& request = requests[i];
      const std::int64_t remaining_us =
          request.deadline_us > 0 ? request.deadline_us - elapsed_us : 0;
      const AdmissionDecision decision = admission_.Decide(
          request.tenant, remaining_us, now_ns,
          pending_requests_.load(std::memory_order_relaxed) + (i - shed), ema,
          workers_.size());
      metrics_->RecordAdmission(request.tenant, decision);
      if (decision == AdmissionDecision::kAdmit) {
        continue;
      }
      admitted[i] = false;
      ++shed;
      resolved_inline.push_back(i);
      FillRejected(request,
                   decision == AdmissionDecision::kShedQuota
                       ? "admission: tenant quota exhausted"
                       : "admission: deadline infeasible at current queue depth",
                   &responses[i]);
      // Shed requests never consulted the cache: the hit/miss counters
      // must not move.
      metrics_->RecordStatus(CacheOutcome::kNotConsulted, /*deadline_exceeded=*/false,
                             /*rejected=*/true);
    }
    if (admission_span.active()) {
      admission_span.SetArg("admitted", static_cast<double>(n - shed));
      admission_span.SetArg("shed", static_cast<double>(shed));
    }
  }

  // Probe pass: every admitted request consults the cache here, on the
  // submitting thread. Hits and early outcomes resolve inline; only misses
  // are queued, carrying the key the probe built.
  std::vector<bool> queued(n, false);
  const bool shut_down = shut_down_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    if (!admitted.empty() && !admitted[i]) {
      continue;
    }
    if (shut_down) {
      // Shut down: nothing is answered, hits included, and the cache was
      // not consulted, so the hit/miss counters must not move.
      FillRejected(requests[i], "service is shut down", &responses[i]);
      metrics_->RecordStatus(CacheOutcome::kNotConsulted, /*deadline_exceeded=*/false,
                             /*rejected=*/true);
      resolved_inline.push_back(i);
      continue;
    }
    Probed probed;
    if (Probe(requests[i], batch->submitted, &responses[i], &probed)) {
      resolved_inline.push_back(i);
      continue;
    }
    if (batch->probed.empty()) {
      batch->probed.resize(n);
    }
    batch->probed[i] = std::move(probed);
    queued[i] = true;
  }

  // Enqueue the misses as contiguous runs of at most `chunk`. A run is
  // scheduled in the slack band of its tightest deadline so one urgent
  // request is never parked behind its chunk-mates' laxity.
  std::size_t begin = 0;
  while (begin < n) {
    if (!queued[begin]) {
      ++begin;
      continue;
    }
    std::size_t end = begin + 1;
    while (end < n && end - begin < chunk && queued[end]) {
      ++end;
    }
    Job job;
    job.requests = requests;
    job.responses = responses;
    job.begin = begin;
    job.end = end;
    job.batch = batch;
    job.keepalive = keepalive;
    job.enqueued = now;
    std::int64_t tightest_us = 0;  // 0 = no deadline in the run
    for (std::size_t i = begin; i < end; ++i) {
      if (requests[i].deadline_us > 0) {
        const std::int64_t remaining_us = requests[i].deadline_us - elapsed_us;
        // An already-expired deadline still schedules most urgently; the
        // worker answers it DEADLINE_EXCEEDED at dequeue.
        const std::int64_t clamped = remaining_us < 1 ? 1 : remaining_us;
        if (tightest_us == 0 || clamped < tightest_us) {
          tightest_us = clamped;
        }
      }
    }
    job.bucket = ClassifyDeadline(tightest_us);
    if (tracer.enabled()) {
      // Each chunk gets a flow arrow from this enqueue span to the dequeue
      // span of whichever worker pops it (the queue-wait handoff the flat
      // span view cannot show). The chunk's first trace id rides on the
      // arrow so a wire trace id finds its queue hop in the export.
      job.flow_id = next_flow_id_.fetch_add(1, std::memory_order_relaxed);
      tracer.FlowBegin("serve", "queue", job.flow_id, batch->probed[begin].trace_id);
    }
    pending_requests_.fetch_add(end - begin, std::memory_order_relaxed);
    if (!queue_.Push(job, job.bucket)) {
      pending_requests_.fetch_sub(end - begin, std::memory_order_relaxed);
      // Service shut down mid-submission: answer the unqueued misses
      // directly. A miss is counted when its evaluation finishes, so these
      // move neither cache counter.
      for (std::size_t i = begin; i < n; ++i) {
        if (!queued[i]) {
          continue;
        }
        FillRejected(requests[i], "service is shut down", &responses[i]);
        metrics_->RecordStatus(CacheOutcome::kNotConsulted, /*deadline_exceeded=*/false,
                               /*rejected=*/true);
        resolved_inline.push_back(i);
      }
      break;
    }
    begin = end;
  }

  if (resolved_inline.empty()) {
    return;
  }
  // Stream inline-resolved responses before they are counted done: once
  // remaining hits zero, Wait() may return and the submitter may assume
  // every callback has finished.
  if (batch->on_complete) {
    for (const std::size_t i : resolved_inline) {
      batch->on_complete(i, responses[i]);
    }
  }
  std::lock_guard<std::mutex> lock(batch->mu);
  batch->remaining -= resolved_inline.size();
  if (batch->remaining == 0) {
    metrics_->DecrementInflight();
    batch->cv.notify_all();
  }
}

std::vector<PredictResponse> PredictionService::PredictBatch(
    std::span<const PredictRequest> requests) {
  std::vector<PredictResponse> responses(requests.size());
  if (requests.empty()) {
    return responses;
  }

  BatchState batch;
  batch.submitted = Clock::now();
  {
    std::lock_guard<std::mutex> lock(batch.mu);
    batch.remaining = requests.size();
  }
  metrics_->IncrementInflight();

  // EnqueueChunks resolves shed and shutdown-rejected requests inline
  // (response, metrics, batch accounting); everything else is queued.
  EnqueueChunks(requests.data(), responses.data(), requests.size(), &batch, nullptr);
  if (obs::Tracer::Global().enabled()) {
    obs::Tracer::Global().Counter("serve", "queue_depth",
                                  static_cast<double>(queue_.size()));
  }

  std::unique_lock<std::mutex> lock(batch.mu);
  batch.cv.wait(lock, [&] { return batch.remaining == 0; });
  return responses;
}

PredictionService::BatchHandle PredictionService::SubmitBatch(
    std::vector<PredictRequest> requests, StreamCallback on_complete) {
  auto state = std::make_shared<BatchState>();
  state->submitted = Clock::now();
  state->requests = std::move(requests);
  state->responses.resize(state->requests.size());
  state->on_complete = std::move(on_complete);
  const std::size_t n = state->requests.size();
  if (n == 0) {
    return BatchHandle(std::move(state));  // remaining == 0: already done
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->remaining = n;
  }
  metrics_->IncrementInflight();

  // EnqueueChunks resolves shed and shutdown-rejected requests inline from
  // this (submitting) thread — responses filled, completions streamed,
  // batch accounting settled; everything else is queued.
  EnqueueChunks(state->requests.data(), state->responses.data(), n, state.get(), state);
  if (obs::Tracer::Global().enabled()) {
    obs::Tracer::Global().Counter("serve", "queue_depth",
                                  static_cast<double>(queue_.size()));
  }
  return BatchHandle(std::move(state));
}

void PredictionService::WorkerLoop() {
  WorkerState state;
  state.vms.resize(entries_.size());
  Job job;
  for (;;) {
    {
      // The dequeue span makes worker idle time (queue wait) visible next
      // to the eval spans it precedes.
      obs::SpanGuard dequeue_span("serve", "dequeue");
      if (!queue_.Pop(&job)) {
        break;
      }
      dequeue_span.SetArg("chunk", static_cast<double>(job.end - job.begin));
      if (job.flow_id != 0) {
        // Terminate the enqueue->dequeue flow inside this span (the export
        // binds "f" events to their enclosing slice).
        obs::Tracer::Global().FlowEnd("serve", "queue", job.flow_id,
                                      job.batch->probed[job.begin].trace_id);
      }
    }
    if (obs::Tracer::Global().enabled()) {
      obs::Tracer::Global().Counter("serve", "queue_depth",
                                    static_cast<double>(queue_.size()));
    }
    const Clock::time_point popped = Clock::now();
    const std::uint64_t queue_wait_ns = ElapsedNs(job.enqueued, popped);
    for (std::size_t i = job.begin; i < job.end; ++i) {
      const PredictRequest& request = job.requests[i];
      metrics_->RecordQueueWait(job.bucket, queue_wait_ns);
      // A deadline that expired while the chunk sat in the queue is
      // answered here, before any cache or registry work starts — the
      // eval-path metrics and the shadow sampler never see the request.
      if (request.deadline_us > 0 &&
          static_cast<std::int64_t>(ElapsedNs(job.batch->submitted, popped) / 1000) >=
              request.deadline_us) {
        job.responses[i] = ExpiredResponse(request, job.batch->probed[i].trace_id,
                                           "deadline expired while queued", queue_wait_ns);
      } else {
        job.responses[i] =
            Evaluate(request, job.batch->probed[i], job.batch->submitted, &state);
        // Service-time EMA (alpha 1/8) feeding the admission feasibility
        // estimate, over queued work only: the pending count it multiplies
        // holds no inline hits. Relaxed load/store: a lost update only
        // nudges an estimate.
        const std::int64_t ns = static_cast<std::int64_t>(job.responses[i].eval_ns);
        const std::int64_t prev = static_cast<std::int64_t>(
            ema_service_ns_.load(std::memory_order_relaxed));
        ema_service_ns_.store(static_cast<std::uint64_t>(prev == 0 ? ns : prev + (ns - prev) / 8),
                              std::memory_order_relaxed);
      }
      if (job.batch->on_complete) {
        // Stream each completion before the request is counted done: once
        // remaining hits zero, Wait() may return and the submitter may
        // assume every callback has finished.
        job.batch->on_complete(i, job.responses[i]);
      }
    }
    const std::size_t done = job.end - job.begin;
    pending_requests_.fetch_sub(done, std::memory_order_relaxed);
    {
      // Notify while still holding the mutex: the moment the submitter
      // observes remaining == 0 it may destroy the BatchState (sync
      // batches stack-allocate it), so the worker must not touch it after
      // releasing the lock. Async batches are additionally pinned by the
      // keepalive below.
      std::lock_guard<std::mutex> lock(job.batch->mu);
      job.batch->remaining -= done;
      if (job.batch->remaining == 0) {
        metrics_->DecrementInflight();
        job.batch->cv.notify_all();
      }
    }
    // Release the async batch promptly rather than at the next Pop.
    job.keepalive.reset();
  }
}

PredictResponse PredictionService::ExpiredResponse(const PredictRequest& request,
                                                   const std::string& trace_id,
                                                   const char* error,
                                                   std::uint64_t queue_wait_ns) {
  PredictResponse response;
  response.status = PredictStatus::kDeadlineExceeded;
  response.error = error;
  response.trace_id = trace_id;
  response.tenant = request.tenant;
  // The deadline counter moves (operators alert on it) but RecordRequest
  // does not: the latency histogram and per-interface request/error
  // counters describe evaluated traffic, and this request was never
  // evaluated. The cache was not consulted either.
  metrics_->RecordStatus(CacheOutcome::kNotConsulted, /*deadline_exceeded=*/true,
                         /*rejected=*/false);
  if (request.explain) {
    response.explain.filled = true;
    response.explain.representation = "expired";
    response.explain.cache = "not_consulted";
    response.explain.queue_wait_ns = queue_wait_ns;
  }
  if (options_.enable_span_ring) {
    obs::SpanRing::Entry ring_entry;
    ring_entry.cat = "serve";
    ring_entry.name = "expired";
    ring_entry.trace_id = response.trace_id;
    ring_entry.detail = request.interface + " DEADLINE_EXCEEDED";
    ring_entry.start_ns = obs::SpanRing::Global().NowNs();
    ring_entry.dur_ns = 0;
    obs::SpanRing::Global().Record(std::move(ring_entry));
  }
  return response;
}

bool PredictionService::Budget(const PredictRequest& request, Clock::time_point submitted,
                               Clock::time_point now, std::uint64_t* budget,
                               bool* deadline_limited) const {
  *budget = request.max_steps != 0 ? request.max_steps : options_.default_max_steps;
  *deadline_limited = false;
  if (request.deadline_us <= 0) {
    return true;
  }
  const std::int64_t elapsed_us = static_cast<std::int64_t>(ElapsedNs(submitted, now) / 1000);
  const std::int64_t remaining_us = request.deadline_us - elapsed_us;
  if (remaining_us <= 0) {
    return false;
  }
  const std::uint64_t deadline_steps = DeadlineBudgetSteps(remaining_us, options_.steps_per_us);
  if (deadline_steps < *budget) {
    *budget = deadline_steps;
    *deadline_limited = true;
  }
  return true;
}

PredictResponse PredictionService::Finish(const PredictRequest& request,
                                          const std::string& trace_id, const Outcome& outcome,
                                          PredictResponse r) {
  r.trace_id = trace_id;
  r.tenant = request.tenant;
  r.eval_ns = ElapsedNs(outcome.start, Clock::now());
  const EvalDetail& detail = outcome.detail;
  metrics_->RecordRequest(outcome.iface_idx, r.eval_ns, r.ok());
  metrics_->RecordDerivedHits(outcome.iface_idx, detail.derived_hits);
  metrics_->RecordStatus(outcome.cache, r.status == PredictStatus::kDeadlineExceeded,
                         r.status == PredictStatus::kRejected);
  if (outcome.span->active()) {
    outcome.span->SetArg("status", std::string(PredictStatusName(r.status)));
  }
  if (request.explain) {
    ExplainInfo& ex = r.explain;
    ex.filled = true;
    ex.representation = detail.representation;
    ex.cache = outcome.cache == CacheOutcome::kHit
                   ? "hit"
                   : (outcome.cache == CacheOutcome::kMiss ? "miss" : "not_consulted");
    ex.queue_wait_ns = outcome.queue_wait_ns;
    ex.eval_ns = r.eval_ns;
    ex.steps = detail.steps;
    ex.memo_components = detail.memo_components;
    ex.memo_hits = detail.memo_hits;
    ex.derived_hits = detail.derived_hits;
    ex.deadline_limited = outcome.deadline_limited;
    ex.shadowed = outcome.shadow.ran;
    ex.shadow_truth = outcome.shadow.truth;
    ex.shadow_rel_err = outcome.shadow.rel_err;
  }
  if (options_.enable_span_ring) {
    obs::SpanRing::Entry ring_entry;
    ring_entry.cat = "serve";
    ring_entry.name = "eval";
    ring_entry.trace_id = r.trace_id;
    ring_entry.detail = request.interface + ' ' + PredictStatusName(r.status);
    ring_entry.start_ns = outcome.ring_start_ns;
    ring_entry.dur_ns = r.eval_ns;
    obs::SpanRing::Global().Record(std::move(ring_entry));
  }
  return r;
}

bool PredictionService::Probe(const PredictRequest& request, Clock::time_point submitted,
                              PredictResponse* response, Probed* probed) {
  Outcome outcome;
  outcome.start = Clock::now();
  // About zero for every request but the last of a long batch: nothing
  // queues before the probe.
  outcome.queue_wait_ns = ElapsedNs(submitted, outcome.start);
  outcome.ring_start_ns = options_.enable_span_ring ? obs::SpanRing::Global().NowNs() : 0;
  // Every response carries a trace id: the client's when supplied, a fresh
  // one otherwise (docs/observability.md "Trace context"). A miss carries
  // it to the evaluate half.
  std::string trace_id = request.trace_id.empty() ? GenerateTraceId() : request.trace_id;

  obs::SpanGuard probe_span("serve", "probe");
  if (probe_span.active()) {
    probe_span.SetArg("interface", request.interface);
    probe_span.SetTraceId(trace_id);
  }
  outcome.span = &probe_span;
  outcome.iface_idx = metrics_->IndexOf(request.interface);
  const auto not_found = [&](std::string error) {
    PredictResponse r;
    r.status = PredictStatus::kNotFound;
    r.error = std::move(error);
    *response = Finish(request, trace_id, outcome, std::move(r));
    return true;
  };

  std::uint64_t budget = 0;
  if (!Budget(request, submitted, outcome.start, &budget, &outcome.deadline_limited)) {
    *response = ExpiredResponse(request, trace_id, "deadline expired before evaluation started",
                                outcome.queue_wait_ns);
    return true;
  }
  const Entry* entry = FindEntry(request.interface);
  if (entry == nullptr) {
    return not_found(StrFormat("unknown interface '%s'", request.interface.c_str()));
  }
  Representation rep = request.representation;
  if (rep == Representation::kAuto) {
    if (!entry->program.has_value() && entry->pnet.net == nullptr) {
      return not_found(StrFormat("'%s' ships only a text interface (nothing executable)",
                                 request.interface.c_str()));
    }
    rep = entry->program.has_value() ? Representation::kProgram : Representation::kPnet;
  }
  if (rep == Representation::kProgram && !entry->program.has_value()) {
    return not_found(
        StrFormat("'%s' ships no executable interface", request.interface.c_str()));
  }
  if (rep == Representation::kPnet && entry->pnet.net == nullptr) {
    return not_found(
        StrFormat("'%s' ships no Petri-net interface", request.interface.c_str()));
  }

  std::string key = CanonicalCacheKey(request, rep);
  CachedPrediction cached;
  if (cache_.Get(key, &cached)) {
    outcome.cache = CacheOutcome::kHit;
    outcome.detail.representation = "cache";
    *response = Finish(request, trace_id, outcome, FromCache(cached));
    return true;
  }
  probed->entry = static_cast<std::size_t>(entry - entries_.data());
  probed->rep = rep;
  probed->key = std::move(key);
  probed->trace_id = std::move(trace_id);
  return false;
}

PredictResponse PredictionService::Evaluate(const PredictRequest& request, const Probed& probed,
                                            Clock::time_point submitted, WorkerState* state) {
  Outcome outcome;
  outcome.start = Clock::now();
  outcome.queue_wait_ns = ElapsedNs(submitted, outcome.start);
  outcome.ring_start_ns = options_.enable_span_ring ? obs::SpanRing::Global().NowNs() : 0;
  obs::SpanGuard eval_span("serve", "eval");
  if (eval_span.active()) {
    eval_span.SetArg("interface", request.interface);
    eval_span.SetTraceId(probed.trace_id);
  }
  outcome.span = &eval_span;
  outcome.iface_idx = metrics_->IndexOf(request.interface);

  // Live requests get a step budget capped by the time remaining now,
  // after the queue wait.
  std::uint64_t budget = 0;
  if (!Budget(request, submitted, outcome.start, &budget, &outcome.deadline_limited)) {
    return ExpiredResponse(request, probed.trace_id, "deadline expired before evaluation started",
                           outcome.queue_wait_ns);
  }

  // A second look with the carried key: an identical request queued
  // alongside this one may have filled the entry meanwhile, so duplicates
  // submitted together still evaluate once.
  CachedPrediction cached;
  if (cache_.Get(probed.key, &cached)) {
    outcome.cache = CacheOutcome::kHit;
    outcome.detail.representation = "cache";
    return Finish(request, probed.trace_id, outcome, FromCache(cached));
  }
  outcome.cache = CacheOutcome::kMiss;

  const Entry& entry = entries_[probed.entry];
  PredictResponse response =
      probed.rep == Representation::kProgram
          ? EvaluateProgram(request, entry, probed.entry, budget, outcome.deadline_limited,
                            state, &outcome.detail)
          : EvaluatePnet(request, entry, budget, outcome.deadline_limited, &outcome.detail);
  if (response.ok()) {
    // JSON has no inf/nan, and no latency or throughput is infinite or
    // negative: an interface driven outside its domain (say orig_size=-1)
    // answers an error, which is never cached.
    const char* bad = nullptr;
    if (!(std::isfinite(response.value) && std::isfinite(response.throughput))) {
      bad = "non-finite result";
    } else if (response.value < 0 || response.throughput < 0) {
      bad = "negative result";
    }
    if (bad != nullptr) {
      response.status = PredictStatus::kError;
      response.error = bad;
      response.value = 0;
      response.throughput = 0;
    }
  }
  if (response.ok()) {
    // Shadow validation rides the miss path only: a cached prediction was
    // already sampled (same key, same decision) when first evaluated.
    if (shadow_->enabled() && shadow_->ShouldSample(probed.key)) {
      outcome.shadow = shadow_->Validate(probed.entry, entry.name, request, response.value);
    }
    obs::SpanGuard fill_span("serve", "cache_fill");
    cache_.Put(probed.key, CachedPrediction{response.value, response.throughput});
  }
  return Finish(request, probed.trace_id, outcome, std::move(response));
}

PredictResponse PredictionService::EvaluateProgram(const PredictRequest& request,
                                                   const Entry& entry, std::size_t entry_idx,
                                                   std::uint64_t budget, bool deadline_limited,
                                                   WorkerState* state, EvalDetail* detail) {
  PredictResponse response;
  const ProgramInterface& iface = *entry.program;
  if (!iface.Has(request.function)) {
    response.status = PredictStatus::kNotFound;
    response.error = StrFormat("'%s' has no function '%s'", request.interface.c_str(),
                               request.function.c_str());
    return response;
  }

  KvObject workload;
  for (const auto& kv : request.attrs) {
    workload.Set(kv.first, kv.second);
  }
  workload.AddUniformChildren(request.children);

  // One Vm per (worker, program), never shared across threads; the
  // registry compiled every program at load.
  std::unique_ptr<Vm>& slot = state->vms[entry_idx];
  if (slot == nullptr) {
    slot = std::make_unique<Vm>(iface.compiled());
  }
  Vm& vm = *slot;
  vm.set_max_steps(budget);
  const EvalResult result = vm.Call(request.function, {Value::Object(&workload)});
  detail->representation = "psc-vm";
  detail->steps = vm.steps_used();

  if (!result.ok) {
    if (vm.step_budget_exhausted()) {
      response.status =
          deadline_limited ? PredictStatus::kDeadlineExceeded : PredictStatus::kResourceExhausted;
    } else {
      response.status = PredictStatus::kError;
    }
    response.error = result.error;
    return response;
  }
  if (!result.value.IsNumber()) {
    response.status = PredictStatus::kError;
    response.error = "interface returned a non-numeric result";
    return response;
  }
  response.status = PredictStatus::kOk;
  response.value = result.value.num;
  if (StartsWith(request.function, "tput")) {
    response.throughput = response.value;
  }
  return response;
}

PredictResponse PredictionService::EvaluatePnet(const PredictRequest& request, const Entry& entry,
                                                std::uint64_t budget, bool deadline_limited,
                                                EvalDetail* detail) {
  PredictResponse response;
  detail->representation = "pnet";
  const PetriNet& net = *entry.pnet.net;
  const CompiledNet& cnet = *entry.compiled;

  // Resolve the injection plan (ParseEntryPlan, the parser the cache key
  // uses) against this net. Nothing is injected until the whole plan is
  // known to be well formed, within kMaxInjectedTokens, and bound to
  // places the net declares.
  const EntryPlan plan = ParseEntryPlan(request);
  if (!plan.malformed.empty()) {
    response.status = PredictStatus::kError;
    response.error =
        StrFormat("bad token count in entry place item '%s'", plan.malformed.front().c_str());
    return response;
  }
  if (plan.total_tokens > kMaxInjectedTokens) {
    response.status = PredictStatus::kError;
    response.error = StrFormat("injected token count %lld exceeds the cap of %lld",
                               plan.total_tokens, kMaxInjectedTokens);
    return response;
  }
  // Counts fit an int from here on: each is at most kMaxInjectedTokens.
  std::vector<std::pair<PlaceId, int>> injections;
  if (plan.first_place) {
    injections.emplace_back(PlaceId{0}, static_cast<int>(plan.total_tokens));
  }
  for (const auto& [name, count] : plan.items) {
    if (!net.HasPlace(name)) {
      response.status = PredictStatus::kNotFound;
      response.error = StrFormat("net '%s' has no place '%s'", entry.name.c_str(), name.c_str());
      return response;
    }
    injections.emplace_back(net.PlaceByName(name), static_cast<int>(count));
  }

  // Map workload attributes onto the net's token schema; names the schema
  // does not declare are ignored so mixed program/pnet query sets can share
  // one workload description.
  Token token;
  token.attrs.assign(net.attr_names().size(), 0.0);
  for (const auto& kv : request.attrs) {
    const std::size_t slot = net.FindAttr(kv.first);
    if (slot != PetriNet::kNoAttr) {
      token.attrs[slot] = kv.second;
    }
  }

  Cycles value = 0;
  bool quiesced = true;
  bool firing_budget_hit = false;
  bool delay_out_of_range = false;

  if (options_.enable_pnet_memo && cnet.hashable()) {
    // Weakly-connected components share no places, so they evolve
    // independently: evaluate (or recall) each on its own, charging
    // firings against one shared budget so budget-exhaustion statuses
    // match a whole-net run exactly (the total work is identical, only
    // the interleaving differs). Every component must run — one with no
    // injected tokens can still fire off its initial marking. Each
    // component is answered by the first exact tier that can: memo table,
    // derived closed form, simulation.
    PnetMemoTable& memo = PnetMemoTable::Global();
    std::uint64_t remaining = budget;
    detail->memo_components = cnet.num_components();
    for (std::size_t c = 0; c < cnet.num_components(); ++c) {
      const std::string key = PnetMemoTable::Key(cnet, c, token, injections);
      PnetMemoResult result;
      bool hit;
      {
        obs::SpanGuard lookup_span("serve", "memo_lookup");
        hit = memo.Lookup(key, remaining, &result);
        if (lookup_span.active()) {
          lookup_span.SetArg("hit", hit ? 1.0 : 0.0);
        }
      }
      if (hit) {
        ++detail->memo_hits;
      }
      if (!hit && options_.enable_derived) {
        // Second tier: the closed form distilled from the component's
        // compiled delay expressions (src/petri/distill.h). The first
        // consultation per (component, plan) distills — a few restricted
        // probe simulations, cached process-wide — and every outcome
        // short of a hit falls through to the exact simulation below.
        DerivedStore& derived = DerivedStore::Global();
        const std::string derived_key = DerivedStore::Key(cnet, c, injections);
        DerivedPrediction derived_pred;
        DerivedStore::Outcome derived_outcome;
        {
          obs::SpanGuard derived_span("serve", "derived_lookup");
          derived_outcome = derived.Predict(derived_key, token, remaining, &derived_pred);
          if (derived_outcome == DerivedStore::Outcome::kNoModel &&
              derived.Distill(derived_key, cnet, c, token, injections)) {
            derived_outcome = derived.Predict(derived_key, token, remaining, &derived_pred);
          }
          if (derived_span.active()) {
            derived_span.SetArg(
                "hit", derived_outcome == DerivedStore::Outcome::kHit ? 1.0 : 0.0);
          }
        }
        if (derived_outcome == DerivedStore::Outcome::kHit) {
          ++detail->derived_hits;
          remaining -= derived_pred.firings;
          detail->steps += derived_pred.firings;
          value = std::max(value, derived_pred.quiesce_time);
          continue;
        }
      }
      if (!hit) {
        PetriSim sim(&cnet, c);
        sim.set_max_firings(remaining);
        for (const auto& [place, count] : injections) {
          if (cnet.places()[place].component != c) {
            continue;
          }
          for (int i = 0; i < count; ++i) {
            sim.Inject(place, token);
          }
        }
        const bool q = sim.Run(kPnetRunBudget);
        result.quiesce_time = sim.now();
        result.firings = sim.total_firings();
        if (!q) {
          quiesced = false;
          firing_budget_hit = sim.firing_budget_exhausted();
          delay_out_of_range = sim.delay_out_of_range();
          break;
        }
        // Only quiesced results enter the table (pnet_memo.h contract).
        memo.Insert(key, result);
      }
      remaining -= result.firings;
      detail->steps += result.firings;
      value = std::max(value, result.quiesce_time);
    }
    if (detail->memo_components != 0 &&
        detail->memo_hits + detail->derived_hits == detail->memo_components) {
      // No component simulated: "pnet-derived" whenever the distilled tier
      // contributed.
      detail->representation = detail->derived_hits != 0 ? "pnet-derived" : "pnet-memo";
    }
  } else {
    // Memo off (or net unhashable: opaque C++ closures): one whole-net
    // run over the shared pre-compiled form.
    PetriSim sim(&cnet);
    sim.set_max_firings(budget);
    for (const auto& [place, count] : injections) {
      for (int i = 0; i < count; ++i) {
        sim.Inject(place, token);
      }
    }
    quiesced = sim.Run(kPnetRunBudget);
    firing_budget_hit = sim.firing_budget_exhausted();
    delay_out_of_range = sim.delay_out_of_range();
    value = sim.now();
    detail->steps = sim.total_firings();
  }

  if (delay_out_of_range) {
    // The workload, not the budget, stopped the run: an error, and (like
    // every unquiesced run) never memoized or cached.
    response.status = PredictStatus::kError;
    response.error = "delay out of range";
    return response;
  }
  if (!quiesced) {
    response.status =
        deadline_limited ? PredictStatus::kDeadlineExceeded : PredictStatus::kResourceExhausted;
    response.error = firing_budget_hit ? "net firing budget exhausted"
                                       : "net did not quiesce within the time horizon";
    return response;
  }
  response.status = PredictStatus::kOk;
  response.value = static_cast<double>(value);
  response.throughput = value == 0 ? 0.0 : static_cast<double>(plan.total_tokens) / response.value;
  return response;
}

}  // namespace perfiface::serve
