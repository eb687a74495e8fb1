//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden miss-rate pins for a cross-section of the suite on the base
/// cache. Every component in the pipeline — parser, layout, padding,
/// trace generation, simulation — is deterministic, so these values are
/// exact. A change here means behavior changed; update the numbers only
/// after confirming the new behavior is intended (EXPERIMENTS.md shapes
/// must still hold).
///
//===----------------------------------------------------------------------===//

#include "core/Padding.h"
#include "experiments/Experiment.h"
#include "kernels/Kernels.h"

#include "gtest/gtest.h"

using namespace padx;

namespace {

struct Golden {
  const char *Kernel;
  double OrigPercent;
  double PadPercent;
};

// Values measured on the deterministic pipeline (see file header).
const Golden kGolden[] = {
    {"jacobi", 60.74, 17.93}, {"dot", 100.00, 25.02},
    {"chol", 13.08, 6.77},    {"dgefa", 17.55, 9.27},
    {"erle", 78.00, 19.97},   {"irr", 37.18, 37.18},
    {"shal", 80.25, 13.73},   {"mult", 7.54, 7.54},
};

// gtest's fallback printer dumps the raw bytes, including the Kernel
// pointer, and gtest_discover_tests copies that into the ctest name; an
// explicit printer keeps the names identical from build to build.
void PrintTo(const Golden &G, std::ostream *OS) {
  *OS << '"' << G.Kernel << "\" orig=" << G.OrigPercent
      << " pad=" << G.PadPercent;
}

class GoldenMissRates : public ::testing::TestWithParam<Golden> {};

} // namespace

TEST_P(GoldenMissRates, BaseCacheOriginalAndPad) {
  const Golden &G = GetParam();
  ir::Program P = kernels::makeKernel(G.Kernel);
  const CacheConfig Cache = CacheConfig::base16K();
  EXPECT_NEAR(expt::measureOriginal(P, Cache).percent(), G.OrigPercent,
              0.01);
  EXPECT_NEAR(
      expt::measurePadded(P, Cache, pad::PaddingScheme::pad()).percent(),
      G.PadPercent, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Suite, GoldenMissRates,
                         ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<Golden> &I) {
                           return std::string(I.param.Kernel);
                         });

TEST(GoldenStats, JacobiPadDecisions) {
  // The exact transformation for the flagship program must not drift:
  // no intra padding, B moved by 40 bytes.
  ir::Program P = kernels::makeKernel("jacobi", 512);
  pad::PaddingResult R = pad::runPad(P);
  EXPECT_EQ(R.Stats.ArraysPadded, 0u);
  EXPECT_EQ(R.Stats.InterPadBytes, 40);
  EXPECT_EQ(R.Layout.layout(*P.findArray("B")).BaseAddr,
            512 * 512 * 8 + 40);
}

TEST(GoldenStats, TraceLengths) {
  // Trace lengths are part of the experiment definitions.
  struct {
    const char *Kernel;
    uint64_t Accesses;
  } const Cases[] = {
      {"jacobi", 3641400},
      {"dot", 32768},
      {"erle", 2322432},
  };
  for (const auto &C : Cases) {
    ir::Program P = kernels::makeKernel(C.Kernel);
    layout::DataLayout DL = layout::originalLayout(P);
    exec::TraceRunner Runner(P, DL);
    EXPECT_EQ(Runner.countAccesses(), C.Accesses) << C.Kernel;
  }
}
