#include "cli/fault_spec.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "rng/rng.hpp"

namespace divlib {
namespace {

TEST(FaultSpec, EmptySpecHasNoFaults) {
  const FaultSpec spec = parse_fault_spec("");
  EXPECT_FALSE(spec.any());
  EXPECT_EQ(spec.drop, 0.0);
  EXPECT_TRUE(spec.crash_waves.empty());
}

TEST(FaultSpec, ParsesFullGrammar) {
  const FaultSpec spec = parse_fault_spec(
      "drop=0.3,crash=0.05@[0,1e6],byzantine=0.02,corrupt=0.01,seed=9");
  EXPECT_TRUE(spec.any());
  EXPECT_DOUBLE_EQ(spec.drop, 0.3);
  EXPECT_DOUBLE_EQ(spec.corrupt, 0.01);
  ASSERT_EQ(spec.crash_waves.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.crash_waves[0].fraction, 0.05);
  EXPECT_EQ(spec.crash_waves[0].start, 0u);
  EXPECT_EQ(spec.crash_waves[0].end, 1'000'000u);
  EXPECT_DOUBLE_EQ(spec.byzantine_fraction, 0.02);
  EXPECT_FALSE(spec.byzantine_lie.has_value());  // randomized lies
  ASSERT_TRUE(spec.seed.has_value());
  EXPECT_EQ(*spec.seed, 9u);
}

TEST(FaultSpec, CrashWithoutWindowIsPermanent) {
  const FaultSpec spec = parse_fault_spec("crash=0.1");
  ASSERT_EQ(spec.crash_waves.size(), 1u);
  EXPECT_EQ(spec.crash_waves[0].start, 0u);
  EXPECT_EQ(spec.crash_waves[0].end, kNoRecovery);
}

TEST(FaultSpec, RepeatedCrashClausesMakeWaves) {
  const FaultSpec spec =
      parse_fault_spec("crash=0.1@[0,100],crash=0.2@[500,1000]");
  ASSERT_EQ(spec.crash_waves.size(), 2u);
  EXPECT_EQ(spec.crash_waves[1].start, 500u);
  EXPECT_EQ(spec.crash_waves[1].end, 1000u);
}

TEST(FaultSpec, ByzantineFixedLie) {
  const FaultSpec spec = parse_fault_spec("byzantine=0.1:3");
  EXPECT_DOUBLE_EQ(spec.byzantine_fraction, 0.1);
  ASSERT_TRUE(spec.byzantine_lie.has_value());
  EXPECT_EQ(*spec.byzantine_lie, 3);
}

TEST(FaultSpec, RejectsMalformedInput) {
  EXPECT_THROW(parse_fault_spec("nonsense=1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("drop"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("drop=abc"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("drop=0.5x"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("drop=1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("drop=-0.1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("corrupt=1.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("crash=0.1@(0,5)"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("crash=0.1@[5]"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("crash=0.1@[9,9]"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("byzantine=0.1:zebra"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("seed=zebra"), std::invalid_argument);
  // Whole tokens only, no sign on the seed, the lie range-checked as an
  // Opinion: stoi/stoull used to read "3x" as 3 and wrap "-4" to 2^64 - 4.
  for (const char* text :
       {"byzantine=0.1:3x", "byzantine=0.1:2147483648", "byzantine=0.1:",
        "seed=-4", "seed=+4", "seed=4x", "seed=18446744073709551616",
        "drop=+0.5", "crash=0.1@[0,5x]"}) {
    EXPECT_THROW(parse_fault_spec(text), std::invalid_argument) << text;
  }
  EXPECT_EQ(*parse_fault_spec("byzantine=0.1:-2").byzantine_lie, -2);
  EXPECT_EQ(*parse_fault_spec("seed=18446744073709551615").seed,
            18446744073709551615ULL);
  // Fault fractions cannot cover more than the whole graph.
  EXPECT_THROW(parse_fault_spec("crash=0.7,byzantine=0.6"),
               std::invalid_argument);
}

TEST(FaultSpec, MaterializeDrawsDisjointSets) {
  const FaultSpec spec =
      parse_fault_spec("crash=0.05@[0,1000],crash=0.1,byzantine=0.02");
  Rng rng(17);
  const FaultPlan plan = materialize_fault_plan(spec, 200, 99, rng);
  EXPECT_EQ(plan.byzantine().size(), 4u);   // 0.02 * 200
  EXPECT_EQ(plan.crashes().size(), 30u);    // (0.05 + 0.1) * 200
  EXPECT_EQ(plan.seed(), 99u);
  std::set<VertexId> seen;
  for (const ByzantineSpec& byz : plan.byzantine()) {
    EXPECT_TRUE(seen.insert(byz.vertex).second);
  }
  for (const CrashEpisode& episode : plan.crashes()) {
    EXPECT_TRUE(seen.insert(episode.vertex).second);
    EXPECT_LT(episode.vertex, 200u);
  }
  std::size_t churn = 0;
  for (const CrashEpisode& episode : plan.crashes()) {
    churn += episode.end == 1000u ? 1 : 0;
  }
  EXPECT_EQ(churn, 10u);  // the first wave recovers at step 1000
}

TEST(FaultSpec, MaterializeHonorsSeedOverride) {
  Rng rng_a(1);
  Rng rng_b(1);
  const FaultPlan with_override =
      materialize_fault_plan(parse_fault_spec("drop=0.1,seed=5"), 50, 99, rng_a);
  const FaultPlan without =
      materialize_fault_plan(parse_fault_spec("drop=0.1"), 50, 99, rng_b);
  EXPECT_EQ(with_override.seed(), 5u);
  EXPECT_EQ(without.seed(), 99u);
}

TEST(FaultSpec, MaterializeIsDeterministicInRng) {
  const FaultSpec spec = parse_fault_spec("byzantine=0.1");
  Rng rng_a(7);
  Rng rng_b(7);
  const FaultPlan a = materialize_fault_plan(spec, 100, 0, rng_a);
  const FaultPlan b = materialize_fault_plan(spec, 100, 0, rng_b);
  ASSERT_EQ(a.byzantine().size(), b.byzantine().size());
  for (std::size_t i = 0; i < a.byzantine().size(); ++i) {
    EXPECT_EQ(a.byzantine()[i].vertex, b.byzantine()[i].vertex);
  }
}

}  // namespace
}  // namespace divlib
