// Micro-benchmarks of the engines underlying every experiment: the Petri
// event rate vs the cycle-accurate tick rate is the mechanism behind the
// paper's auto-tuning speedups, so we pin both here.
#include <benchmark/benchmark.h>

#include "src/accel/jpeg/decoder_sim.h"
#include "src/accel/vta/vta_sim.h"
#include "src/core/petri_interfaces.h"
#include "src/core/program_interface.h"
#include "src/core/pnet.h"
#include "src/core/registry.h"
#include "src/core/script_objects.h"
#include "src/mem/memory_system.h"
#include "src/petri/compiled_net.h"
#include "src/petri/sim.h"
#include "src/sim/pipeline_model.h"
#include "src/workload/image_gen.h"
#include "src/workload/vta_gen.h"

namespace perfiface {
namespace {

void BM_MemoryAccess(benchmark::State& state) {
  MemorySystem mem(MemoryConfig{}, 1);
  std::uint64_t addr = 0;
  Cycles t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.Access(addr, t));
    addr += 128;
    t += 60;
  }
}
BENCHMARK(BM_MemoryAccess);

void BM_VtaCycleSim(benchmark::State& state) {
  VtaSim sim(VtaTiming{}, VtaSim::RecommendedMemoryConfig(), 5);
  VtaProgram p;
  for (int i = 0; i < 8; ++i) {
    AppendMacroStep(&p, 64, 64, 48, 48, 12, 12, 64);
  }
  AppendFinish(&p);
  Cycles cycles = 0;
  for (auto _ : state) {
    cycles = sim.RunLatency(p);
    benchmark::DoNotOptimize(cycles);
  }
  state.counters["sim_cycles"] = static_cast<double>(cycles);
  state.counters["cycles/s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_VtaCycleSim);

void BM_VtaPetriPredict(benchmark::State& state) {
  VtaPetriInterface iface(InterfaceRegistry::Default().Get("vta").pnet_path);
  VtaProgram p;
  for (int i = 0; i < 8; ++i) {
    AppendMacroStep(&p, 64, 64, 48, 48, 12, 12, 64);
  }
  AppendFinish(&p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(iface.PredictLatency(p));
  }
}
BENCHMARK(BM_VtaPetriPredict);

void BM_JpegDecodeSim(benchmark::State& state) {
  JpegDecoderSim sim(JpegDecoderTiming{}, 1);
  const CompressedImage img = Encode(GenerateImage(ImageClass::kTexture, 192, 192, 3), 70);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.DecodeLatency(img));
  }
}
BENCHMARK(BM_JpegDecodeSim);

void BM_JpegPetriPredict(benchmark::State& state) {
  JpegPetriInterface iface(InterfaceRegistry::Default().Get("jpeg_decoder").pnet_path);
  const CompressedImage img = Encode(GenerateImage(ImageClass::kTexture, 192, 192, 3), 70);
  for (auto _ : state) {
    benchmark::DoNotOptimize(iface.PredictLatency(img));
  }
}
BENCHMARK(BM_JpegPetriPredict);

// What the prediction service runs on a jpeg pnet miss: one sim per worker
// reset per query, one header token and 20 identical stripes (the same
// token, as the service injects it) on the compiled net's component 0.
// Unlike BM_JpegPetriPredict, whose stripes each carry their own bit count,
// every stripe here shares one pool entry, so the delay memo hits.
void BM_JpegPnetServiceShape(benchmark::State& state) {
  const LoadedNet loaded =
      LoadPnetFile(InterfaceRegistry::Default().Get("jpeg_decoder").pnet_path);
  const CompiledNet cnet(loaded.net.get());
  const PetriNet& net = *loaded.net;
  Token token;
  token.attrs.assign(net.attr_names().size(), 0.0);
  token.attrs[net.FindAttr("bits")] = 1234;
  token.attrs[net.FindAttr("blocks")] = 8;
  const PlaceId hdr = net.PlaceByName("hdr_in");
  const PlaceId vld = net.PlaceByName("vld_in");
  PetriSim sim(&cnet, 0);
  for (auto _ : state) {
    sim.Reset();
    sim.Inject(hdr, token);
    sim.Inject(vld, token, 20);
    benchmark::DoNotOptimize(sim.Run(Cycles{1} << 40));
    benchmark::DoNotOptimize(sim.now());
  }
}
BENCHMARK(BM_JpegPnetServiceShape);

void BM_PerfScriptEval(benchmark::State& state) {
  const ProgramInterface iface = InterfaceRegistry::Default().LoadProgram("jpeg_decoder");
  const CompressedImage img = Encode(GenerateImage(ImageClass::kTexture, 128, 128, 3), 70);
  const JpegImageObject obj(&img);
  for (auto _ : state) {
    benchmark::DoNotOptimize(iface.Eval("latency_jpeg_decode", obj));
  }
}
BENCHMARK(BM_PerfScriptEval);

void BM_PipelineModel(benchmark::State& state) {
  const std::size_t items = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<Cycles>> costs(3, std::vector<Cycles>(items, 100));
  for (auto _ : state) {
    PipelineModel model(costs, {2, 2});
    benchmark::DoNotOptimize(model.TotalLatency());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * items));
}
BENCHMARK(BM_PipelineModel)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace perfiface

BENCHMARK_MAIN();
