#include <gtest/gtest.h>

#include "src/core/program_interface.h"
#include "src/core/script_objects.h"
#include "src/extract/extractor.h"
#include "src/extract/fit.h"
#include "src/perfscript/value.h"
#include "src/workload/image_gen.h"
#include "src/workload/message_gen.h"

namespace perfiface {
namespace {

TEST(Fit, SolvesLinearSystemExactly) {
  std::vector<std::vector<double>> a = {{2, 1}, {1, 3}};
  std::vector<double> b = {5, 10};
  std::vector<double> x;
  ASSERT_TRUE(SolveLinearSystem(&a, &b, &x));
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 3.0, 1e-9);
}

TEST(Fit, DetectsSingularSystem) {
  std::vector<std::vector<double>> a = {{1, 2}, {2, 4}};
  std::vector<double> b = {3, 6};
  std::vector<double> x;
  EXPECT_FALSE(SolveLinearSystem(&a, &b, &x));
}

TEST(Fit, RecoversExactLinearModel) {
  // y = 3*x0 + 7*x1, no noise.
  std::vector<Sample> samples;
  for (double x0 = 1; x0 <= 6; ++x0) {
    for (double x1 = 1; x1 <= 4; ++x1) {
      samples.push_back(Sample{{x0, x1}, 3 * x0 + 7 * x1});
    }
  }
  const FitResult fit = FitLeastSquares(samples);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.coefficients[0], 3.0, 1e-9);
  EXPECT_NEAR(fit.coefficients[1], 7.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Fit, RejectsUnderdeterminedInput) {
  EXPECT_FALSE(FitLeastSquares({}).ok);
  EXPECT_FALSE(FitLeastSquares({Sample{{1, 2}, 3}}).ok);  // 1 sample, 2 features
}

TEST(Extractor, MinerRecoversLoopLaw) {
  const ExtractedInterface iface = ExtractMinerInterface({1, 2, 4, 8, 16, 32, 64});
  ASSERT_TRUE(iface.ok);
  // The hardware law is latency = 1.0 * Loop, exactly.
  EXPECT_NEAR(iface.constants[0], 1.0, 1e-9);
  EXPECT_NEAR(iface.train_max_error, 0.0, 1e-9);
  EXPECT_NE(iface.psc_source.find("job.loop"), std::string::npos);
}

TEST(Extractor, JpegRecoversFig2Constants) {
  JpegDecoderTiming timing;
  timing.stall_probability = 0;  // extract against the deterministic core
  JpegDecoderSim sim(timing, 7);
  const auto corpus = GenerateImageCorpus(220, 13579);
  const ExtractedInterface iface = ExtractJpegInterface(&sim, corpus);
  ASSERT_TRUE(iface.ok);

  // The writer branch is 1-D and identifiable: Fig 2's 136.5 per size unit.
  EXPECT_NEAR(iface.constants[0], 136.5, 2.0) << "writer coefficient";

  // The decode branch's individual constants (Fig 2: 22.5/cr + 9) are NOT
  // identifiable from black-box profiling: within the decode-bound regime
  // 1/cr only spans ~[390, 512], so a/cr and b are nearly collinear. What
  // extraction can and must deliver is the *function*: over the regime's cr
  // range, the fitted per-stripe cost must match the true hardware law.
  // (The extractor fits the *simulator*, whose decode-bound latencies carry
  // stripe-variance and pipeline-tail effects the idealized law omits —
  // exactly the gap Fig 2's own 2%/10% prediction error comes from.)
  const double a = iface.constants[2];
  const double b = iface.constants[3];
  const double dc = iface.constants[4];
  for (double cr : {0.0020, 0.0022, 0.0024}) {
    const double stripes = 400.0;  // a representative decode-bound image
    const double fitted = stripes * (a / cr + b) + dc;
    const double truth = stripes * (22.5 / cr + 9.0);
    EXPECT_NEAR(fitted, truth, truth * 0.08) << "cr " << cr;
  }
  EXPECT_LT(iface.train_avg_error, 0.04);
}

TEST(Extractor, ExtractedJpegProgramRunsAndPredicts) {
  JpegDecoderTiming timing;
  timing.stall_probability = 0;
  JpegDecoderSim sim(timing, 7);
  const auto corpus = GenerateImageCorpus(150, 2468);
  const ExtractedInterface extracted = ExtractJpegInterface(&sim, corpus);
  ASSERT_TRUE(extracted.ok);

  // The emitted text must be a valid PerfScript program whose predictions
  // track the hardware on held-out images.
  ProgramInterface program = ProgramInterface::FromSource(extracted.psc_source);
  program.Compile();
  double sum_err = 0;
  std::size_t n = 0;
  for (const ImageWorkload& w : GenerateImageCorpus(40, 97531)) {
    const JpegImageObject obj(&w.compressed);
    const double predicted = program.Eval("latency_jpeg_decode", obj);
    const double actual = static_cast<double>(sim.DecodeLatency(w.compressed));
    sum_err += std::abs(predicted - actual) / actual;
    ++n;
  }
  EXPECT_LT(sum_err / static_cast<double>(n), 0.08);
}

TEST(Extractor, ProtoaccWriteStageLaw) {
  ProtoaccSim sim(ProtoaccTiming{}, ProtoaccSim::RecommendedMemoryConfig(), 3);
  std::vector<MessageInstance> corpus;
  for (Bytes size : {1024ULL, 2048ULL, 4096ULL, 8192ULL, 16384ULL}) {
    corpus.push_back(MessageWithWireSize(size, size));
  }
  const ExtractedInterface iface = ExtractProtoaccWriteInterface(&sim, corpus);
  ASSERT_TRUE(iface.ok);
  // Hardware: cost = 5 + 1 * num_writes per message.
  EXPECT_NEAR(iface.constants[0], 5.0, 1.5);
  EXPECT_NEAR(iface.constants[1], 1.0, 0.02);
}

TEST(Extractor, JpegFailsCleanlyOnDegenerateCorpus) {
  JpegDecoderSim sim(JpegDecoderTiming{}, 7);
  // All-noise corpus: every image is writer-bound, so the decode branch
  // cannot be identified; extraction must report failure, not garbage.
  std::vector<ImageWorkload> corpus;
  for (std::uint64_t i = 0; i < 20; ++i) {
    const RawImage img = GenerateImage(ImageClass::kNoise, 128, 128, i);
    corpus.push_back(ImageWorkload{ImageClass::kNoise, 40, Encode(img, 40)});
  }
  EXPECT_FALSE(ExtractJpegInterface(&sim, corpus).ok);
}

}  // namespace
}  // namespace perfiface
