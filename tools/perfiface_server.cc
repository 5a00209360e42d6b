// perfiface_server — the prediction service behind a TCP port.
//
//   perfiface_server [options]
//
// Serves the NDJSON wire protocol and HTTP (GET /metrics, GET /healthz,
// GET /interfaces, GET /statusz, GET /tracez, POST /predict) on one port;
// see docs/serving.md "Wire protocol". Prints
// "listening on HOST:PORT" once ready (with --port 0 this is how callers
// learn the ephemeral port), then runs until SIGTERM/SIGINT, draining
// in-flight connections before exiting 0.
//
// Options:
//   --host ADDR            listen address (default 127.0.0.1)
//   --port N               listen port; 0 picks an ephemeral port
//                          (default 7077)
//   --workers N            worker threads (default: hardware concurrency)
//   --cache N              prediction cache entries (0 disables)
//   --no-memo              disable the cross-request sub-net memo table
//   --max-conns N          max concurrent connections (default 64)
//   --io-timeout-ms N      per-connection read/write timeout (default 30000)
//   --max-frame-bytes N    max request frame size (default 1 MiB)
//   --max-inflight N       per-connection pipelined-batch window (default 32)
//   --shadow-every N       shadow-validate 1 in N cache-miss predictions
//                          against the registered simulator backends
//                          (0 disables; default 0)
//   --shadow-threshold X   relative error above which a shadow run counts
//                          as a drift violation (default 0.15)
//   --shadow-seed N        seed for the deterministic shadow sampler
//   --derived              serve exact-memo misses from closed-form
//                          interfaces distilled out of the compiled delay
//                          expressions (docs/serving.md "Unified
//                          expression IR & derived interfaces")
//   --quota T=QPS[:BURST]  token-bucket quota for tenant T (repeatable;
//                          T "*" sets the default quota for tenants
//                          without an explicit entry); over-quota
//                          requests are shed with REJECTED at enqueue
//                          (docs/serving.md "Admission control & tenancy")
//   --admission            also shed requests whose deadline cannot be
//                          met at the current queue depth
//
// Example:
//   perfiface_server --port 7077 &
//   serve_tool run examples/serve_queries.txt --connect 127.0.0.1:7077 --async
//   curl -s http://127.0.0.1:7077/metrics
#include <poll.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/accel/conv/conv_shadow.h"
#include "src/accel/jpeg/jpeg_shadow.h"
#include "src/accel/protoacc/protoacc_shadow.h"
#include "src/core/registry.h"
#include "src/net/server.h"
#include "src/serve/service.h"

namespace perfiface::net {
namespace {

// Self-pipe: the handler only writes one byte, the main thread does the
// actual shutdown outside signal context.
int g_signal_pipe[2] = {-1, -1};

void OnSignal(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfiface_server [--host ADDR] [--port N] [--workers N] [--cache N]\n"
               "                        [--no-memo] [--max-conns N]\n"
               "                        [--io-timeout-ms N] [--max-frame-bytes N]\n"
               "                        [--max-inflight N] [--shadow-every N]\n"
               "                        [--shadow-threshold X] [--shadow-seed N]\n"
               "                        [--derived]\n"
               "                        [--quota TENANT=QPS[:BURST]] [--admission]\n");
  return 2;
}

// Parses "tenant=qps[:burst]" (tenant "*" = the default quota). False on
// any malformed piece.
bool ParseQuotaFlag(const char* text, std::string* tenant, serve::TenantQuota* quota) {
  const std::string s = text;
  const std::size_t eq = s.find('=');
  if (eq == std::string::npos || eq == 0) {
    return false;
  }
  *tenant = s.substr(0, eq);
  std::string rate = s.substr(eq + 1);
  quota->burst = 0.0;
  if (const std::size_t colon = rate.find(':'); colon != std::string::npos) {
    char* end = nullptr;
    quota->burst = std::strtod(rate.c_str() + colon + 1, &end);
    if (end == rate.c_str() + colon + 1 || *end != '\0' || quota->burst <= 0) {
      return false;
    }
    rate.resize(colon);
  }
  char* end = nullptr;
  quota->qps = std::strtod(rate.c_str(), &end);
  return end != rate.c_str() && *end == '\0' && quota->qps > 0;
}

int Main(int argc, char** argv) {
  serve::ServiceOptions service_options;
  NetServerOptions net_options;
  net_options.port = 7077;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--host" && (v = value()) != nullptr) {
      net_options.host = v;
    } else if (arg == "--port" && (v = value()) != nullptr) {
      const long port = std::atol(v);
      if (port < 0 || port > 65535) {
        return Usage();
      }
      net_options.port = static_cast<std::uint16_t>(port);
    } else if (arg == "--workers" && (v = value()) != nullptr) {
      service_options.num_workers = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--cache" && (v = value()) != nullptr) {
      service_options.cache_capacity = static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--no-memo") {
      service_options.enable_pnet_memo = false;
    } else if (arg == "--max-conns" && (v = value()) != nullptr) {
      net_options.max_connections = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--io-timeout-ms" && (v = value()) != nullptr) {
      net_options.io_timeout_ms = std::atoi(v);
    } else if (arg == "--max-frame-bytes" && (v = value()) != nullptr) {
      net_options.max_frame_bytes = static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--max-inflight" && (v = value()) != nullptr) {
      net_options.max_inflight_batches = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--shadow-every" && (v = value()) != nullptr) {
      service_options.shadow_sample_every = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--shadow-threshold" && (v = value()) != nullptr) {
      service_options.shadow_drift_threshold = std::atof(v);
    } else if (arg == "--shadow-seed" && (v = value()) != nullptr) {
      service_options.shadow_seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--derived") {
      service_options.enable_derived = true;
    } else if (arg == "--quota" && (v = value()) != nullptr) {
      std::string tenant;
      serve::TenantQuota quota;
      if (!ParseQuotaFlag(v, &tenant, &quota)) {
        return Usage();
      }
      if (tenant == "*") {
        service_options.admission.default_quota = quota;
      } else {
        service_options.admission.tenant_quotas.emplace_back(tenant, quota);
      }
    } else if (arg == "--admission") {
      service_options.admission.shed_deadline = true;
    } else {
      return Usage();
    }
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::perror("pipe");
    return 1;
  }
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGPIPE, SIG_IGN);

  // Shadow backends register before the service starts so a --shadow-every
  // sampler never races a late registration. Other accelerators join by
  // registering their own replay backend here.
  conv::RegisterConvShadowBackend();
  jpeg::RegisterJpegShadowBackend();
  protoacc::RegisterProtoaccShadowBackend();

  serve::PredictionService service(InterfaceRegistry::Default(), service_options);
  NetServer server(&service, net_options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("listening on %s:%u\n", net_options.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  char byte = 0;
  for (;;) {
    pollfd pfd{g_signal_pipe[0], POLLIN, 0};
    if (::poll(&pfd, 1, -1) > 0) {
      break;
    }
    if (errno != EINTR) {
      break;
    }
  }
  [[maybe_unused]] const ssize_t n = ::read(g_signal_pipe[0], &byte, 1);

  // Graceful drain: stop the listener and connections first (in-flight
  // batches finish and flush), then the service behind them.
  std::fprintf(stderr, "shutting down: draining %zu connection(s)\n",
               server.open_connections());
  server.Stop();
  service.Shutdown();
  std::fprintf(stderr, "%s", service.StatsText().c_str());
  return 0;
}

}  // namespace
}  // namespace perfiface::net

int main(int argc, char** argv) { return perfiface::net::Main(argc, argv); }
