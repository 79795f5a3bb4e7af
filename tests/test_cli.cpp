#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli/args.hpp"
#include "cli/batch_lanes.hpp"
#include "cli/flag_range.hpp"
#include "cli/graph_spec.hpp"
#include "cli/process_spec.hpp"
#include "graph/generators.hpp"

namespace divlib {
namespace {

TEST(Args, ParsesPositionalAndOptions) {
  // Note the grammar: "--key value" binds a following non-option token, so
  // flags must use "--flag" at the end, "--flag=1", or precede an option.
  const Args args(std::vector<std::string>{"run", "--graph", "complete:8",
                                           "--k=5", "tail", "--verbose"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "run");
  EXPECT_EQ(args.positional()[1], "tail");
  EXPECT_EQ(args.get("graph", ""), "complete:8");
  EXPECT_EQ(args.get_int("k", 0), 5);
  EXPECT_TRUE(args.flag("verbose"));
  EXPECT_FALSE(args.flag("quiet"));
}

TEST(Args, TypedGettersWithDefaults) {
  const Args args(std::vector<std::string>{"--n", "100", "--p", "0.25"});
  EXPECT_EQ(args.get_int("n", 7), 100);
  EXPECT_EQ(args.get_u64("n", 7), 100u);
  EXPECT_DOUBLE_EQ(args.get_double("p", 0.0), 0.25);
  EXPECT_EQ(args.get_int("missing", -3), -3);
  EXPECT_EQ(args.get("missing", "x"), "x");
}

TEST(Args, RejectsMalformedNumbers) {
  const Args args(std::vector<std::string>{"--n", "abc"});
  EXPECT_THROW(args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(args.get_u64("n", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double("n", 0.0), std::invalid_argument);

  // A token must parse to its end: stoll/stoull/stod stop at the first
  // character they cannot use, so "1e11" used to run as 1 and "4x" as 4.
  for (const std::string text : {"4x", "1e11", "0.5abc", "nan", "inf"}) {
    const Args bad(std::vector<std::string>{"--n", text});
    EXPECT_THROW(bad.get_int("n", 0), std::invalid_argument) << text;
    EXPECT_THROW(bad.get_u64("n", 0), std::invalid_argument) << text;
  }
  // Non-finite values parse as doubles but are refused; the message names
  // the flag and the value.
  for (const std::string text : {"0.5abc", "nan", "inf", "-inf", "1e999"}) {
    const Args bad(std::vector<std::string>{"--n", text});
    try {
      (void)bad.get_double("n", 0.0);
      ADD_FAILURE() << text << " parsed";
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("--n"), std::string::npos) << message;
      EXPECT_NE(message.find("'" + text + "'"), std::string::npos) << message;
    }
  }
  const Args good(std::vector<std::string>{"--n", "1e3"});
  EXPECT_DOUBLE_EQ(good.get_double("n", 0.0), 1000.0);
}

TEST(Args, FlagFollowedByOption) {
  const Args args(std::vector<std::string>{"--dot", "--seed", "4"});
  EXPECT_TRUE(args.flag("dot"));
  EXPECT_EQ(args.get_u64("seed", 0), 4u);
}

TEST(Args, UnusedKeysReportTypos) {
  const Args args(std::vector<std::string>{"--graph", "x", "--shceme", "edge"});
  (void)args.get("graph", "");
  const auto unused = args.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "shceme");
}

TEST(Args, FromArgcArgv) {
  const char* argv[] = {"prog", "cmd", "--x", "1"};
  const Args args(4, argv);
  EXPECT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.get_int("x", 0), 1);
}

TEST(GraphSpec, BuildsDeterministicFamilies) {
  Rng rng(1);
  EXPECT_EQ(make_graph_from_spec("complete:6", rng).num_edges(), 15u);
  EXPECT_EQ(make_graph_from_spec("path:5", rng).num_edges(), 4u);
  EXPECT_EQ(make_graph_from_spec("cycle:5", rng).num_edges(), 5u);
  EXPECT_EQ(make_graph_from_spec("star:5", rng).num_edges(), 4u);
  EXPECT_EQ(make_graph_from_spec("hypercube:3", rng).num_vertices(), 8u);
  EXPECT_EQ(make_graph_from_spec("barbell:4", rng).num_vertices(), 8u);
  EXPECT_EQ(make_graph_from_spec("lollipop:4:2", rng).num_vertices(), 6u);
  EXPECT_EQ(make_graph_from_spec("grid:3:4", rng).num_vertices(), 12u);
  EXPECT_EQ(make_graph_from_spec("torus:4:4", rng).num_edges(), 32u);
  EXPECT_EQ(make_graph_from_spec("tree:7", rng).num_edges(), 6u);
  EXPECT_EQ(make_graph_from_spec("margulis:5", rng).num_vertices(), 25u);
}

TEST(GraphSpec, BuildsRandomFamilies) {
  Rng rng(2);
  const Graph regular = make_graph_from_spec("regular:32:4", rng);
  EXPECT_TRUE(regular.is_regular());
  EXPECT_EQ(regular.min_degree(), 4u);
  const Graph gnp = make_graph_from_spec("gnp:64:0.2", rng);
  EXPECT_TRUE(gnp.is_connected());
  const Graph ws = make_graph_from_spec("ws:40:2:0.1", rng);
  EXPECT_EQ(ws.num_vertices(), 40u);
  const Graph ba = make_graph_from_spec("ba:40:2", rng);
  EXPECT_TRUE(ba.is_connected());
}

TEST(GraphSpec, RejectsBadSpecs) {
  Rng rng(3);
  EXPECT_THROW(make_graph_from_spec("klein:4", rng), std::invalid_argument);
  EXPECT_THROW(make_graph_from_spec("complete", rng), std::invalid_argument);
  EXPECT_THROW(make_graph_from_spec("complete:4:5", rng), std::invalid_argument);
  EXPECT_THROW(make_graph_from_spec("complete:x", rng), std::invalid_argument);
  EXPECT_THROW(make_graph_from_spec("gnp:64:high", rng), std::invalid_argument);
}

TEST(GraphSpec, HelpListsFamilies) {
  const std::string help = graph_spec_help();
  EXPECT_NE(help.find("complete:N"), std::string::npos);
  EXPECT_NE(help.find("regular:N:D"), std::string::npos);
}

TEST(ProcessSpec, BuildsAllProcesses) {
  const Graph g = make_complete(6);
  for (const char* name : {"div", "pull", "push", "median", "loadbalance", "best2"}) {
    const auto process =
        make_process_from_spec(name, SelectionScheme::kEdge, g);
    ASSERT_NE(process, nullptr) << name;
    EXPECT_FALSE(process->name().empty());
  }
}

TEST(ProcessSpec, SchemeParsingAndErrors) {
  EXPECT_EQ(parse_scheme("vertex"), SelectionScheme::kVertex);
  EXPECT_EQ(parse_scheme("edge"), SelectionScheme::kEdge);
  EXPECT_THROW(parse_scheme("both"), std::invalid_argument);
  const Graph g = make_complete(4);
  EXPECT_THROW(make_process_from_spec("gossip", SelectionScheme::kEdge, g),
               std::invalid_argument);
}

TEST(BatchLanesCli, AcceptsTheFullLaneRange) {
  EXPECT_EQ(validate_batch_lanes(1), 1u);
  EXPECT_EQ(validate_batch_lanes(16), 16u);
  EXPECT_EQ(validate_batch_lanes(kMaxBatchLanes), kMaxBatchLanes);
}

// Regression: the lane count used to be clamped with
// max(1, static_cast<unsigned>(raw)), so an explicit 0 silently became one
// lane and 2^32 + 1 silently WRAPPED to one lane.  Both must refuse loudly,
// with the value the user actually typed in the message.
TEST(BatchLanesCli, RefusesZeroOversizedAndWrappingLaneCounts) {
  EXPECT_THROW(validate_batch_lanes(0), std::invalid_argument);
  EXPECT_THROW(validate_batch_lanes(kMaxBatchLanes + 1ull),
               std::invalid_argument);
  try {
    validate_batch_lanes((std::uint64_t{1} << 32) + 1);
    FAIL() << "a wrapping lane count must not validate";
  } catch (const std::invalid_argument& refusal) {
    EXPECT_EQ(std::string(refusal.what()),
              "--batch-lanes must be in [1, 4096], got 4294967297");
  }
  try {
    validate_batch_lanes(0);
    FAIL() << "zero lanes must not validate";
  } catch (const std::invalid_argument& refusal) {
    EXPECT_EQ(std::string(refusal.what()),
              "--batch-lanes must be in [1, 4096], got 0");
  }
}

// The refusal strings divsim prints for scalar-only feature combinations:
// pinned verbatim so a reworded refusal is a conscious choice, and so the
// text keeps naming the scalar fallback.  --engine jump is deliberately
// absent: it accepts the width and runs one lane per replica.
TEST(BatchLanesCli, RefusalTextNamesTheScalarFallback) {
  EXPECT_STREQ(kBatchLanesProcessRefusal,
               "--batch-lanes only supports --process div (the batch engine "
               "inlines the DIV update rule; other processes use the scalar "
               "engines)");
  EXPECT_STREQ(kBatchLanesFaultRefusal,
               "--batch-lanes cannot honor --fault: decorated processes need "
               "the scalar engines' virtual dispatch");
  EXPECT_STREQ(kBatchLanesTraceRefusal,
               "--batch-lanes does not support --trace (per-step tracing is "
               "a scalar-engine feature)");
}

// --engine jump with a non-DIV process is refused at parse time (it used to
// fault every replica and exit 0).
TEST(JumpEngineCli, RefusalTextNamesTheStepEngine) {
  EXPECT_STREQ(kJumpProcessRefusal,
               "--engine=jump only supports --process div (the jump chain "
               "skips lazy steps of the DIV update rule); use the step "
               "engine for other processes");
}

// Regression: --k, --retries, --threads and --workers were narrowed with a
// bare static_cast, so --isolation process --workers 4294967298 (or
// --threads 4294967298 with --workers 0) forked 2 workers, --k 4294967299
// ran with opinions 1..3, and --k 0 failed every replica with
// "uniform_random_opinions: lo > hi".  Each value is now checked before it
// is narrowed, and the refusal names the flag and the value typed.
std::string refusal(const std::function<void()>& parse) {
  try {
    parse();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "accepted";
}

TEST(FlagRange, RefusesWrappingCounts) {
  const Args args(std::vector<std::string>{
      "--workers", "4294967298", "--threads", "4294967298", "--retries",
      "4294967295"});
  EXPECT_EQ(refusal([&] { unsigned_flag(args, "workers"); }),
            "--workers must be in [0, 4294967295], got 4294967298");
  EXPECT_EQ(refusal([&] { unsigned_flag(args, "threads"); }),
            "--threads must be in [0, 4294967295], got 4294967298");
  // max_attempts = retries + 1 would wrap to zero attempts.
  EXPECT_EQ(refusal([&] {
              unsigned_flag(args, "retries",
                            std::numeric_limits<unsigned>::max() - 1);
            }),
            "--retries must be in [0, 4294967294], got 4294967295");
}

TEST(FlagRange, RefusesOutOfRangeOpinionCounts) {
  for (const auto& [typed, message] :
       std::vector<std::pair<std::string, std::string>>{
           {"4294967299", "--k must be in [1, 2147483647], got 4294967299"},
           {"2147483648", "--k must be in [1, 2147483647], got 2147483648"},
           {"0", "--k must be in [1, 2147483647], got 0"},
           {"-3", "--k must be in [1, 2147483647], got -3"}}) {
    const Args args(std::vector<std::string>{"--k", typed});
    EXPECT_EQ(refusal([&] { k_flag(args); }), message) << typed;
  }
}

TEST(FlagRange, AcceptsTheBoundariesAndDefaults) {
  const Args bounds(std::vector<std::string>{
      "--k", "2147483647", "--workers", "4294967295", "--threads", "0"});
  EXPECT_EQ(k_flag(bounds), std::numeric_limits<Opinion>::max());
  EXPECT_EQ(unsigned_flag(bounds, "workers"),
            std::numeric_limits<unsigned>::max());
  EXPECT_EQ(unsigned_flag(bounds, "threads"), 0u);
  const Args none(std::vector<std::string>{});
  EXPECT_EQ(k_flag(none), 5);
  EXPECT_EQ(unsigned_flag(none, "retries"), 0u);
  EXPECT_EQ(k_flag(Args(std::vector<std::string>{"--k", "1"})), 1);
}

// stoull accepts a sign, so "-1" used to parse as 2^64 - 1.
TEST(Args, U64GetterRefusesNegativeValues) {
  const Args args(std::vector<std::string>{"--threads", "-1"});
  EXPECT_EQ(refusal([&] { args.get_u64("threads", 0); }),
            "Args: --threads expects a non-negative integer, got '-1'");
}

}  // namespace
}  // namespace divlib
