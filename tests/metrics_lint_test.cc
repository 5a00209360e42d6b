// Metrics lint: every perfiface_* family the process emits must be named
// in docs/observability.md. A metric nobody documented is a dashboard
// nobody can read — this test makes the doc a checked artifact instead of
// a hopeful one. It exercises the serving, network, pnet-memo, VM,
// simulator, and shadow-validation paths so lazily-created families are
// present in the scrape, then diffs the scrape's names (histogram
// _bucket/_sum/_count suffixes stripped to the base family) against the
// doc's text.
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/accel/conv/conv_shadow.h"
#include "src/accel/jpeg/jpeg_shadow.h"
#include "src/common/loc.h"
#include "src/core/registry.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/metrics_registry.h"
#include "src/perfscript/compile.h"
#include "src/serve/request.h"
#include "src/serve/service.h"
#include "tests/exposition_parser.h"

namespace perfiface {
namespace {

serve::PredictRequest ConvRequest(double height, double width) {
  serve::PredictRequest req;
  req.interface = "conv";
  req.function = "latency_conv";
  req.attrs = {{"height", height}, {"width", width}, {"channels", 8}, {"filters", 8},
               {"kernel_h", 3},    {"kernel_w", 3},  {"stride", 1},   {"pad", 1},
               {"tile_h", 4},      {"tile_w", width}, {"tile_k", 4}};
  return req;
}

// Strips a histogram/summary series suffix down to the family name the
// doc is expected to mention.
std::string BaseFamily(const std::string& name) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::size_t len = std::string(suffix).size();
    if (name.size() > len && name.compare(name.size() - len, len, suffix) == 0) {
      return name.substr(0, name.size() - len);
    }
  }
  return name;
}

TEST(MetricsLint, EveryEmittedFamilyIsDocumented) {
  // Drive every layer that contributes families: program queries (VM
  // counters), pnet queries (memo table + derived store), conv queries
  // with shadow validation on (conv sim + shadow families), and the TCP
  // front end (net counters).
  conv::RegisterConvShadowBackend();
  jpeg::RegisterJpegShadowBackend();
  // None of the shipped registry expressions happens to trigger a peephole
  // fusion, so compile one fusable shape (min-against-constant feeding a
  // live consumer) directly to register the family.
  {
    std::string error;
    const auto fused = CompiledExpr::CompileSource(
        "min(x, 9) + y",
        [](std::string_view name) { return ExprBinding::Slot(name == "x" ? 0 : 1); },
        &error);
    ASSERT_NE(fused, nullptr) << error;
    ASSERT_NE(fused->DisassembleRegs().find("minc"), std::string::npos);
  }
  serve::ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity = 64;
  options.shadow_sample_every = 1;
  options.enable_derived = true;
  serve::PredictionService service(InterfaceRegistry::Default(), options);
  net::NetServer server(&service);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  std::vector<serve::PredictRequest> batch;
  serve::PredictRequest jpeg;
  jpeg.interface = "jpeg_decoder";
  jpeg.function = "latency_jpeg_decode";
  jpeg.attrs = {{"orig_size", 65536.0}, {"compress_rate", 0.2}};
  batch.push_back(jpeg);
  serve::PredictRequest pnet;
  pnet.interface = "jpeg_decoder";
  pnet.representation = serve::Representation::kPnet;
  pnet.entry_place = "hdr_in:1,vld_in:8";
  pnet.attrs = {{"bits", 800.0}, {"blocks", 8.0}};
  batch.push_back(pnet);
  batch.push_back(ConvRequest(8, 8));

  net::NetClient client;
  std::vector<serve::PredictResponse> responses;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  ASSERT_TRUE(client.Call(batch, &responses, &error)) << error;
  for (const serve::PredictResponse& r : responses) {
    ASSERT_TRUE(r.ok()) << r.error;
  }
  // Same batch again: cache-hit counters.
  ASSERT_TRUE(client.Call(batch, &responses, &error)) << error;

  const std::string scrape = service.StatsPrometheus();
  std::vector<testing::ExpositionSample> samples;
  ASSERT_TRUE(testing::ParseExposition(scrape, &samples, &error)) << error;

  const std::string doc = ReadFileOrDie(std::string(PERFIFACE_SOURCE_DIR) +
                                        "/docs/observability.md");
  std::set<std::string> undocumented;
  std::set<std::string> checked;
  for (const testing::ExpositionSample& sample : samples) {
    if (sample.name.rfind("perfiface_", 0) != 0) {
      continue;  // foreign families are not this doc's responsibility
    }
    const std::string family = BaseFamily(sample.name);
    if (!checked.insert(family).second) {
      continue;
    }
    if (doc.find(family) == std::string::npos) {
      undocumented.insert(family);
    }
  }
  EXPECT_GT(checked.size(), 20u) << "scrape suspiciously small — did a layer stop emitting?";
  EXPECT_TRUE(undocumented.empty())
      << "metric families missing from docs/observability.md: "
      << [&undocumented] {
           std::string joined;
           for (const std::string& name : undocumented) {
             joined += name + " ";
           }
           return joined;
         }();

  server.Stop();
  service.Shutdown();
}

}  // namespace
}  // namespace perfiface
