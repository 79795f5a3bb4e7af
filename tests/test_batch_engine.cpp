#include "engine/batch_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/cancel.hpp"
#include "core/discordance_tracker.hpp"
#include "core/div_process.hpp"
#include "core/opinion_plane.hpp"
#include "engine/engine.hpp"
#include "engine/initial_config.hpp"
#include "engine/montecarlo.hpp"
#include "engine/supervisor.hpp"
#include "graph/generators.hpp"
#include "graph/random_graphs.hpp"
#include "stats/chi_square.hpp"

namespace divlib {
namespace {

// Two-sample chi-square homogeneity test over winner categories (the
// test_jump_engine harness).
double two_sample_chi_square_p(const std::vector<std::uint64_t>& a,
                               const std::vector<std::uint64_t>& b) {
  double total_a = 0.0;
  double total_b = 0.0;
  for (const auto count : a) total_a += static_cast<double>(count);
  for (const auto count : b) total_b += static_cast<double>(count);
  const double total = total_a + total_b;
  double statistic = 0.0;
  int used = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double column = static_cast<double>(a[i] + b[i]);
    if (column == 0.0) {
      continue;
    }
    ++used;
    const double expected_a = column * total_a / total;
    const double expected_b = column * total_b / total;
    statistic += (a[i] - expected_a) * (a[i] - expected_a) / expected_a;
    statistic += (b[i] - expected_b) * (b[i] - expected_b) / expected_b;
  }
  return chi_square_survival(statistic, used - 1);
}

// Two-sample Kolmogorov-Smirnov statistic D = sup |F_a - F_b|.
double two_sample_ks_statistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double d = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] <= b[j]) {
      ++i;
    } else {
      ++j;
    }
    d = std::max(d, std::abs(static_cast<double>(i) / a.size() -
                             static_cast<double>(j) / b.size()));
  }
  return d;
}

void expect_same_result(const RunResult& scalar, const RunResult& lane,
                        const std::string& where) {
  EXPECT_EQ(scalar.status, lane.status) << where;
  EXPECT_EQ(scalar.completed, lane.completed) << where;
  EXPECT_EQ(scalar.steps, lane.steps) << where;
  EXPECT_EQ(scalar.min_active, lane.min_active) << where;
  EXPECT_EQ(scalar.max_active, lane.max_active) << where;
  EXPECT_EQ(scalar.num_active, lane.num_active) << where;
  EXPECT_EQ(scalar.final_sum, lane.final_sum) << where;
  EXPECT_DOUBLE_EQ(scalar.final_z, lane.final_z) << where;
  EXPECT_EQ(scalar.winner, lane.winner) << where;
}

// The core contract: lane L of run_batch, seeded like the scalar isolated
// driver's attempt 0, is BIT-identical to run() on its own OpinionState --
// same result fields, same final opinion vector, and the rng streams line up
// draw for draw (checked by comparing the next raw output after the run).
TEST(BatchEngine, LanesBitIdenticalToScalarRun) {
  Rng graph_rng(0x6a7c);
  const Graph graph = make_connected_random_regular(48, 4, graph_rng);
  constexpr unsigned kLanes = 8;
  constexpr std::uint64_t kMaster = 0xabcd;
  RunOptions options;

  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    // Scalar reference replicas.
    DivProcess process(graph, scheme);
    std::vector<RunResult> scalar(kLanes);
    std::vector<std::vector<Opinion>> scalar_final(kLanes);
    std::vector<std::uint64_t> scalar_next(kLanes);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      Rng rng(Rng::retry_seed(kMaster, lane, 0));
      OpinionState state(
          graph, uniform_random_opinions(graph.num_vertices(), 1, 4, rng));
      scalar[lane] = run(process, state, rng, options);
      scalar_final[lane].assign(state.opinions().begin(),
                                state.opinions().end());
      scalar_next[lane] = rng.next();
    }

    // The same replicas as lanes of one plane.
    OpinionPlane plane(graph, kLanes);
    std::vector<Rng> rngs;
    rngs.reserve(kLanes);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      rngs.emplace_back(Rng::retry_seed(kMaster, lane, 0));
      plane.assign_lane(
          lane, uniform_random_opinions(graph.num_vertices(), 1, 4,
                                        rngs[lane]));
    }
    const std::vector<RunResult> batch =
        run_batch(graph, scheme, plane, rngs, options);

    ASSERT_EQ(batch.size(), kLanes);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      const std::string where =
          std::string(to_string(scheme)) + " lane " + std::to_string(lane);
      expect_same_result(scalar[lane], batch[lane], where);
      const auto lane_view = plane.lane_opinions(lane);
      ASSERT_EQ(lane_view.size(), scalar_final[lane].size()) << where;
      EXPECT_TRUE(std::equal(lane_view.begin(), lane_view.end(),
                             scalar_final[lane].begin()))
          << where;
      // Stream alignment: the lane consumed exactly the scalar draws.
      EXPECT_EQ(rngs[lane].next(), scalar_next[lane]) << where;
    }
  }
}

// Opinion ranges wider than a byte force the plane onto full-width cells
// (promote_to_wide_).  The promotion is exercised both ways: a plane whose
// first assignment is already wide, and a plane where narrow lanes are
// assigned first and a later wide lane re-encodes them in place.  Either
// way the lanes must stay bit-identical to scalar runs.
TEST(BatchEngine, WideRangeLanesMatchScalarRun) {
  Rng graph_rng(0x77de);
  const Graph graph = make_connected_random_regular(40, 4, graph_rng);
  constexpr unsigned kLanes = 6;
  constexpr std::uint64_t kMaster = 0x51de;
  RunOptions options;
  // Lanes alternate between a narrow range (fits a byte) and a wide one
  // (width 300 > 256); the first wide assignment triggers the promotion.
  const auto range_hi = [](unsigned lane) -> Opinion {
    return (lane % 2 == 0) ? 4 : 300;
  };

  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    DivProcess process(graph, scheme);
    std::vector<RunResult> scalar(kLanes);
    std::vector<std::vector<Opinion>> scalar_final(kLanes);
    std::vector<std::uint64_t> scalar_next(kLanes);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      Rng rng(Rng::retry_seed(kMaster, lane, 0));
      OpinionState state(graph,
                         uniform_random_opinions(graph.num_vertices(), 1,
                                                 range_hi(lane), rng));
      scalar[lane] = run(process, state, rng, options);
      scalar_final[lane].assign(state.opinions().begin(),
                                state.opinions().end());
      scalar_next[lane] = rng.next();
    }

    OpinionPlane plane(graph, kLanes);
    EXPECT_EQ(plane.cell_bytes(), 1u);
    std::vector<Rng> rngs;
    rngs.reserve(kLanes);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      rngs.emplace_back(Rng::retry_seed(kMaster, lane, 0));
      plane.assign_lane(lane,
                        uniform_random_opinions(graph.num_vertices(), 1,
                                                range_hi(lane), rngs[lane]));
    }
    // The first wide lane (lane 1) promoted the whole plane.
    EXPECT_EQ(plane.cell_bytes(), sizeof(Opinion));
    const std::vector<RunResult> batch =
        run_batch(graph, scheme, plane, rngs, options);

    ASSERT_EQ(batch.size(), kLanes);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      const std::string where = std::string(to_string(scheme)) +
                                " wide lane " + std::to_string(lane);
      expect_same_result(scalar[lane], batch[lane], where);
      const auto lane_view = plane.lane_opinions(lane);
      ASSERT_EQ(lane_view.size(), scalar_final[lane].size()) << where;
      EXPECT_TRUE(std::equal(lane_view.begin(), lane_view.end(),
                             scalar_final[lane].begin()))
          << where;
      EXPECT_EQ(rngs[lane].next(), scalar_next[lane]) << where;
    }
  }
}

TEST(BatchEngine, StepCapMatchesScalarPerLane) {
  Rng graph_rng(0x9b1);
  const Graph graph = make_connected_random_regular(32, 4, graph_rng);
  constexpr unsigned kLanes = 4;
  RunOptions options;
  options.max_steps = 17;

  DivProcess process(graph, SelectionScheme::kEdge);
  OpinionPlane plane(graph, kLanes);
  std::vector<Rng> rngs;
  std::vector<RunResult> scalar(kLanes);
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    Rng rng(Rng::retry_seed(0x5eed, lane, 0));
    OpinionState state(
        graph, uniform_random_opinions(graph.num_vertices(), 1, 9, rng));
    scalar[lane] = run(process, state, rng, options);

    rngs.emplace_back(Rng::retry_seed(0x5eed, lane, 0));
    plane.assign_lane(lane, uniform_random_opinions(graph.num_vertices(), 1,
                                                    9, rngs[lane]));
  }
  const std::vector<RunResult> batch =
      run_batch(graph, SelectionScheme::kEdge, plane, rngs, options);
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    EXPECT_EQ(batch[lane].status, RunStatus::kCapped);
    expect_same_result(scalar[lane], batch[lane],
                       "capped lane " + std::to_string(lane));
  }
}

TEST(BatchEngine, RejectsTracingAndMismatchedRngs) {
  const Graph graph = make_cycle(6);
  OpinionPlane plane(graph, 2);
  std::vector<Rng> rngs;
  for (unsigned lane = 0; lane < 2; ++lane) {
    rngs.emplace_back(Rng::retry_seed(7, lane, 0));
    plane.assign_lane(lane, uniform_random_opinions(6, 1, 3, rngs[lane]));
  }
  RunOptions traced;
  traced.trace_stride = 1;
  EXPECT_THROW(
      run_batch(graph, SelectionScheme::kEdge, plane, rngs, traced),
      std::invalid_argument);

  std::vector<Rng> short_rngs;
  short_rngs.emplace_back(1);
  EXPECT_THROW(
      run_batch(graph, SelectionScheme::kEdge, plane, short_rngs,
                RunOptions{}),
      std::invalid_argument);
}

// A fired per-lane token drains exactly that lane; its groupmates run to
// consensus untouched, and the drained lane's state is a valid step-boundary
// configuration (aggregates match a recount).
TEST(BatchEngine, PerLaneCancelDrainsOnlyThatLane) {
  Rng graph_rng(0x77);
  const Graph graph = make_connected_random_regular(32, 4, graph_rng);
  constexpr unsigned kLanes = 3;
  OpinionPlane plane(graph, kLanes);
  std::vector<Rng> rngs;
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    rngs.emplace_back(Rng::retry_seed(0xc0de, lane, 0));
    plane.assign_lane(lane, uniform_random_opinions(graph.num_vertices(), 1,
                                                    5, rngs[lane]));
  }
  CancelToken mid_token;
  mid_token.request(CancelReason::kUser);
  const CancelToken* cancels[kLanes] = {nullptr, &mid_token, nullptr};
  const std::vector<RunResult> results = run_batch(
      graph, SelectionScheme::kEdge, plane, rngs, RunOptions{}, cancels);

  EXPECT_EQ(results[0].status, RunStatus::kCompleted);
  EXPECT_EQ(results[2].status, RunStatus::kCompleted);
  EXPECT_EQ(results[1].status, RunStatus::kCancelled);
  EXPECT_EQ(results[1].steps, 0u);  // pre-fired: drained before any step
  // Lane 1's aggregates still describe its (initial) configuration.
  std::int64_t sum = 0;
  for (const Opinion x : plane.lane_opinions(1)) sum += x;
  EXPECT_EQ(sum, results[1].final_sum);
}

// Plain DIV replicas [0, replicas) in lock-step groups of `lanes` through
// the one replica driver: run_supervised_set under supervision_off(mc),
// whose batch_task runs each claimed group on one plane with run_batch
// (run_batch_jump when Result is JumpRunResult) after drawing the lane's
// opinions uniformly in [lo, hi] from its own stream.  A lone claim runs the
// same engine on a one-lane plane.  Slot r holds replica r's lane result.
template <typename Result>
IsolatedBatch<Result> run_lane_groups(const Graph& graph,
                                      SelectionScheme scheme,
                                      std::size_t replicas, Opinion lo,
                                      Opinion hi, unsigned lanes,
                                      const MonteCarloOptions& mc) {
  IsolatedBatch<Result> batch;
  batch.results.resize(replicas);
  const auto run_group = [&](std::span<const std::size_t> ids,
                             std::vector<Rng>& rngs,
                             const std::vector<const CancelToken*>& cancels) {
    OpinionPlane plane(graph, static_cast<unsigned>(ids.size()));
    for (unsigned lane = 0; lane < ids.size(); ++lane) {
      plane.assign_lane(lane, uniform_random_opinions(graph.num_vertices(),
                                                      lo, hi, rngs[lane]));
    }
    std::vector<Result> results;
    if constexpr (std::is_same_v<Result, JumpRunResult>) {
      results =
          run_batch_jump(graph, scheme, plane, rngs, RunOptions{}, cancels);
    } else {
      results = run_batch(graph, scheme, plane, rngs, RunOptions{}, cancels);
    }
    for (std::size_t lane = 0; lane < ids.size(); ++lane) {
      batch.results[ids[lane]] = std::move(results[lane]);
    }
  };
  SupervisorOptions options = supervision_off(mc);
  options.batch_lanes = lanes;
  options.batch_task = [&](std::span<const BatchLane> group) {
    std::vector<std::size_t> ids;
    std::vector<Rng> rngs;
    std::vector<const CancelToken*> cancels;
    for (const BatchLane& lane : group) {
      ids.push_back(lane.replica);
      rngs.emplace_back(lane.seed);
      cancels.push_back(lane.cancel);
    }
    run_group(ids, rngs, cancels);
    return std::vector<std::optional<std::string>>(group.size(),
                                                   std::string());
  };
  std::vector<std::size_t> ids(replicas);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  const SupervisorReport report = run_supervised_set(
      ids,
      [&](std::size_t replica, Rng& rng,
          const CancelToken& cancel) -> std::optional<std::string> {
        std::vector<Rng> rngs{rng};
        run_group(std::span<const std::size_t>(&replica, 1), rngs, {&cancel});
        return std::string();
      },
      [](std::size_t, std::string&&) {}, options);
  batch.report = to_batch_report(report);
  return batch;
}

TEST(BatchEngine, WinnerDistributionMatchesScalarEngine) {
  Rng graph_rng(0x23a);
  const Graph graph = make_connected_random_regular(32, 4, graph_rng);
  constexpr int kReplicas = 400;
  constexpr Opinion kLo = 1;
  constexpr Opinion kHi = 3;
  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    // Scalar reference sample on one seed family.
    DivProcess process(graph, scheme);
    std::vector<std::uint64_t> scalar_winners(kHi - kLo + 1, 0);
    std::vector<double> scalar_steps;
    for (int replica = 0; replica < kReplicas; ++replica) {
      Rng rng(Rng::substream_seed(0xbeef, static_cast<std::uint64_t>(replica)));
      OpinionState state(
          graph,
          uniform_random_opinions(graph.num_vertices(), kLo, kHi, rng));
      const RunResult result = run(process, state, rng, RunOptions{});
      ASSERT_EQ(result.status, RunStatus::kCompleted);
      ++scalar_winners[static_cast<std::size_t>(*result.winner - kLo)];
      scalar_steps.push_back(static_cast<double>(result.steps));
    }

    // Batched sample on an independent seed family.
    MonteCarloOptions mc;
    mc.master_seed = 0xcafe;
    mc.num_threads = 2;
    const auto batch = run_lane_groups<RunResult>(graph, scheme, kReplicas,
                                                  kLo, kHi, /*lanes=*/16, mc);
    ASSERT_TRUE(batch.report.ok());
    std::vector<std::uint64_t> batch_winners(kHi - kLo + 1, 0);
    std::vector<double> batch_steps;
    for (const auto& result : batch.results) {
      ASSERT_TRUE(result.has_value());
      ASSERT_EQ(result->status, RunStatus::kCompleted);
      ++batch_winners[static_cast<std::size_t>(*result->winner - kLo)];
      batch_steps.push_back(static_cast<double>(result->steps));
    }

    const double chi_p =
        two_sample_chi_square_p(scalar_winners, batch_winners);
    EXPECT_GT(chi_p, 1e-3) << "winner distributions diverge, scheme "
                           << to_string(scheme);
    const double d = two_sample_ks_statistic(scalar_steps, batch_steps);
    const double critical =
        1.95 * std::sqrt(2.0 / static_cast<double>(kReplicas));
    EXPECT_LT(d, critical) << "completion-time ECDFs diverge, scheme "
                           << to_string(scheme);
  }
}

// Lock-step groups fill every slot with the scalar isolated driver's
// attempt-0 result, at any lane width / replica count alignment.
TEST(BatchDriver, SlotsMatchScalarAttemptZero) {
  Rng graph_rng(0x31);
  const Graph graph = make_connected_random_regular(24, 4, graph_rng);
  constexpr std::size_t kReplicas = 10;  // deliberately not a lane multiple
  constexpr std::uint64_t kMaster = 0xfeed;
  RunOptions run_options;

  DivProcess process(graph, SelectionScheme::kVertex);
  std::vector<RunResult> scalar(kReplicas);
  for (std::size_t replica = 0; replica < kReplicas; ++replica) {
    Rng rng(Rng::retry_seed(kMaster, replica, 0));
    OpinionState state(
        graph, uniform_random_opinions(graph.num_vertices(), 1, 4, rng));
    scalar[replica] = run(process, state, rng, run_options);
  }

  MonteCarloOptions mc;
  mc.master_seed = kMaster;
  mc.num_threads = 3;
  const auto batch = run_lane_groups<RunResult>(
      graph, SelectionScheme::kVertex, kReplicas, 1, 4, /*lanes=*/4, mc);

  EXPECT_EQ(batch.report.replicas, kReplicas);
  EXPECT_EQ(batch.report.attempted, kReplicas);
  EXPECT_TRUE(batch.report.ok());
  EXPECT_FALSE(batch.report.cancelled);
  ASSERT_EQ(batch.results.size(), kReplicas);
  for (std::size_t replica = 0; replica < kReplicas; ++replica) {
    ASSERT_TRUE(batch.results[replica].has_value());
    expect_same_result(scalar[replica], *batch.results[replica],
                       "replica " + std::to_string(replica));
  }
}

TEST(BatchDriver, PresetCancelClaimsNothing) {
  const Graph graph = make_cycle(8);
  CancelToken token;
  token.request(CancelReason::kUser);
  MonteCarloOptions mc;
  mc.cancel = &token;
  const auto batch = run_lane_groups<RunResult>(
      graph, SelectionScheme::kEdge, 8, 1, 3, /*lanes=*/4, mc);
  EXPECT_TRUE(batch.report.cancelled);
  EXPECT_EQ(batch.report.attempted, 0u);
  for (const auto& result : batch.results) {
    EXPECT_FALSE(result.has_value());
  }
}

// The transposed discordance plane agrees with per-lane scalar trackers at a
// resync point, for both schemes, after an arbitrary mirrored move history.
TEST(OpinionPlaneTest, RebuildDiscordanceMatchesScalarTrackers) {
  Rng graph_rng(0x88);
  const Graph graph = make_connected_random_regular(40, 4, graph_rng);
  constexpr unsigned kLanes = 5;

  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    OpinionPlane plane(graph, kLanes);
    std::vector<OpinionState> states;
    states.reserve(kLanes);
    Rng init_rng(0x404);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      const std::vector<Opinion> opinions =
          uniform_random_opinions(graph.num_vertices(), 1, 6, init_rng);
      plane.assign_lane(lane, opinions);
      states.emplace_back(graph, opinions);
    }
    std::vector<DiscordanceTracker> trackers;
    trackers.reserve(kLanes);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      trackers.emplace_back(states[lane], scheme);
    }

    // Mirror a random move history into both representations.
    Rng move_rng(0x505);
    for (int move = 0; move < 300; ++move) {
      const unsigned lane =
          static_cast<unsigned>(move_rng.uniform_below(kLanes));
      const VertexId v = static_cast<VertexId>(
          move_rng.uniform_below(graph.num_vertices()));
      const Opinion value =
          static_cast<Opinion>(1 + move_rng.uniform_below(6));
      const Opinion before = states[lane].opinion(v);
      states[lane].set(v, value);
      trackers[lane].apply_move(v, before);
      plane.set(lane, v, value);
    }

    plane.rebuild_discordance();
    ASSERT_TRUE(plane.discordance_built());
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      EXPECT_EQ(plane.discordant_pairs(lane),
                trackers[lane].total_discordant_pairs())
          << to_string(scheme) << " lane " << lane;
      for (VertexId v = 0; v < graph.num_vertices(); ++v) {
        ASSERT_EQ(plane.discordance(lane, v), trackers[lane].discordance(v))
            << to_string(scheme) << " lane " << lane << " vertex " << v;
      }
    }
  }
}

// Bulk sampling is draw-for-draw identical to solo sampling: each lane's rng
// sees (updater, rank) / (pair draw) in its own order, and the streams end
// in the same position.
TEST(DiscordanceTrackerBulk, MatchesScalarSamples) {
  Rng graph_rng(0x91);
  const Graph graph = make_connected_random_regular(36, 4, graph_rng);
  Rng init_rng(0x92);
  const std::vector<Opinion> opinions =
      uniform_random_opinions(graph.num_vertices(), 1, 5, init_rng);
  constexpr std::size_t kLanes = 6;

  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    OpinionState state(graph, opinions);
    DiscordanceTracker tracker(state, scheme);
    ASSERT_FALSE(tracker.frozen());

    std::vector<Rng> solo;
    std::vector<Rng> bulk;
    std::vector<Rng*> bulk_ptrs;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      solo.emplace_back(Rng::retry_seed(0xf00d, lane, 0));
      bulk.emplace_back(Rng::retry_seed(0xf00d, lane, 0));
    }
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      bulk_ptrs.push_back(&bulk[lane]);
    }

    for (int round = 0; round < 20; ++round) {
      std::vector<SelectedPair> expected(kLanes);
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        expected[lane] = tracker.sample_discordant_pair(solo[lane]);
      }
      std::vector<SelectedPair> got(kLanes);
      tracker.sample_discordant_pairs(bulk_ptrs, got);
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        EXPECT_EQ(expected[lane].updater, got[lane].updater)
            << to_string(scheme) << " round " << round << " lane " << lane;
        EXPECT_EQ(expected[lane].observed, got[lane].observed)
            << to_string(scheme) << " round " << round << " lane " << lane;
      }
    }
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      EXPECT_EQ(solo[lane].next(), bulk[lane].next()) << to_string(scheme);
    }
  }
}

TEST(DiscordanceTrackerBulk, RejectsSizeMismatch) {
  const Graph graph = make_cycle(6);
  OpinionState state(graph, {1, 2, 1, 2, 1, 2});
  DiscordanceTracker tracker(state, SelectionScheme::kEdge);
  Rng rng(1);
  Rng* rngs[1] = {&rng};
  std::vector<SelectedPair> out(2);
  EXPECT_THROW(tracker.sample_discordant_pairs(rngs, out),
               std::invalid_argument);
}

// The frozen alias table samples the same conditional law: updaters are
// always discordant, observeds always disagree with them, and the empirical
// updater marginal matches disc(v)/d(v) (chi-square).  Any move invalidates
// the freeze; the edge scheme's freeze is a documented no-op.
TEST(DiscordanceTrackerAlias, FrozenSamplingMatchesWeights) {
  Rng graph_rng(0xa1);
  const Graph graph = make_connected_random_regular(24, 4, graph_rng);
  Rng init_rng(0xa2);
  OpinionState state(
      graph, uniform_random_opinions(graph.num_vertices(), 1, 3, init_rng));
  DiscordanceTracker tracker(state, SelectionScheme::kVertex);
  ASSERT_FALSE(tracker.frozen());
  EXPECT_FALSE(tracker.alias_frozen());

  tracker.freeze_alias();
  ASSERT_TRUE(tracker.alias_frozen());

  constexpr int kSamples = 20000;
  std::vector<std::uint64_t> counts(graph.num_vertices(), 0);
  Rng rng(0xa3);
  for (int i = 0; i < kSamples; ++i) {
    const SelectedPair pair = tracker.sample_discordant_pair(rng);
    ASSERT_GT(tracker.discordance(pair.updater), 0u);
    ASSERT_NE(state.opinion(pair.updater), state.opinion(pair.observed));
    ++counts[pair.updater];
  }
  std::vector<double> expected(graph.num_vertices(), 0.0);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    expected[v] = static_cast<double>(tracker.discordance(v)) /
                  static_cast<double>(graph.degree(v));
  }
  const ChiSquareResult chi = chi_square_test(counts, expected);
  EXPECT_GT(chi.p_value, 1e-3);

  // A move invalidates the table; sampling falls back to the Fenwick path.
  const VertexId mover = 0;
  const Opinion before = state.opinion(mover);
  const Opinion moved = before == 1 ? 2 : 1;
  state.set(mover, moved);
  tracker.apply_move(mover, before);
  EXPECT_FALSE(tracker.alias_frozen());
  const SelectedPair after = tracker.sample_discordant_pair(rng);
  EXPECT_NE(state.opinion(after.updater), state.opinion(after.observed));

  // rebuild_counts also invalidates.
  tracker.freeze_alias();
  ASSERT_TRUE(tracker.alias_frozen());
  tracker.rebuild_counts();
  EXPECT_FALSE(tracker.alias_frozen());

  // Edge scheme: freeze is a no-op (already O(1)).
  DiscordanceTracker edge_tracker(state, SelectionScheme::kEdge);
  edge_tracker.freeze_alias();
  EXPECT_FALSE(edge_tracker.alias_frozen());
}

// Thread-mode lock-step groups: payloads are identical to the scalar task's
// (the contract batch_task implementations must honor), every replica
// succeeds, and the report says groups actually formed.
TEST(SupervisorBatch, GroupsProduceScalarIdenticalPayloads) {
  constexpr std::size_t kReplicas = 16;
  constexpr std::uint64_t kMaster = 0xd00d;

  const auto payload_for = [](std::size_t replica, Rng& rng) {
    return std::to_string(replica) + ":" + std::to_string(rng.next());
  };

  std::vector<std::size_t> ids(kReplicas);
  for (std::size_t i = 0; i < kReplicas; ++i) ids[i] = i;

  // Scalar reference.
  std::map<std::size_t, std::string> scalar_payloads;
  {
    SupervisorOptions options;
    options.master_seed = kMaster;
    options.num_threads = 2;
    const SupervisorReport report = run_supervised_set(
        ids,
        [&](std::size_t replica, Rng& rng, const CancelToken&) {
          return std::optional<std::string>(payload_for(replica, rng));
        },
        [&](std::size_t replica, std::string&& payload) {
          scalar_payloads[replica] = std::move(payload);
        },
        options);
    ASSERT_EQ(report.succeeded, kReplicas);
    EXPECT_EQ(report.batch_groups, 0u);
    EXPECT_EQ(report.batched_attempts, 0u);
  }

  // Batched run: same payloads, and groups actually formed.
  std::map<std::size_t, std::string> batch_payloads;
  SupervisorOptions options;
  options.master_seed = kMaster;
  options.num_threads = 2;
  options.batch_lanes = 4;
  options.batch_task =
      [&](std::span<const BatchLane> lanes) {
        std::vector<std::optional<std::string>> verdicts;
        verdicts.reserve(lanes.size());
        for (const BatchLane& lane : lanes) {
          Rng rng(lane.seed);
          verdicts.emplace_back(payload_for(lane.replica, rng));
        }
        return verdicts;
      };
  const SupervisorReport report = run_supervised_set(
      ids,
      [&](std::size_t replica, Rng& rng, const CancelToken&) {
        return std::optional<std::string>(payload_for(replica, rng));
      },
      [&](std::size_t replica, std::string&& payload) {
        batch_payloads[replica] = std::move(payload);
      },
      options);

  EXPECT_EQ(report.succeeded, kReplicas);
  EXPECT_GE(report.batch_groups, 1u);
  EXPECT_GE(report.batched_attempts, options.batch_lanes);
  EXPECT_EQ(batch_payloads, scalar_payloads);
}

// A batch_task returning the wrong number of verdicts is a deterministic
// group failure: every lane fails fast into quarantine (no retry could
// change a logic error in the batch plumbing).
TEST(SupervisorBatch, VerdictCountMismatchQuarantinesTheGroup) {
  constexpr std::size_t kReplicas = 4;
  std::vector<std::size_t> ids(kReplicas);
  for (std::size_t i = 0; i < kReplicas; ++i) ids[i] = i;

  SupervisorOptions options;
  options.num_threads = 1;
  options.max_attempts = 1;
  options.batch_lanes = 4;
  options.batch_task =
      [](std::span<const BatchLane> lanes) {
        return std::vector<std::optional<std::string>>(lanes.size() - 1);
      };
  const SupervisorReport report = run_supervised_set(
      ids,
      [](std::size_t, Rng&, const CancelToken&) {
        return std::optional<std::string>("scalar");
      },
      [](std::size_t, std::string&&) {},
      options);

  EXPECT_EQ(report.succeeded, 0u);
  ASSERT_EQ(report.quarantined.size(), kReplicas);
  for (const QuarantineRecord& record : report.quarantined) {
    EXPECT_EQ(record.failure, FailureClass::kDeterministic);
    EXPECT_NE(record.message.find("verdicts"), std::string::npos);
  }
  EXPECT_EQ(report.fail_fasts, kReplicas);
}

// A throwing batch_task fails every lane with one shared classification;
// transient classes retry on the scalar-compatible retry seeds and the
// replicas still complete (here via a batch_task that succeeds on retry).
TEST(SupervisorBatch, GroupThrowRetriesEveryLane) {
  constexpr std::size_t kReplicas = 4;
  std::vector<std::size_t> ids(kReplicas);
  for (std::size_t i = 0; i < kReplicas; ++i) ids[i] = i;

  std::atomic<int> calls{0};
  SupervisorOptions options;
  options.num_threads = 1;
  options.max_attempts = 2;
  options.backoff_base = std::chrono::milliseconds{0};
  options.batch_lanes = 4;
  options.batch_task =
      [&](std::span<const BatchLane> lanes)
          -> std::vector<std::optional<std::string>> {
        if (calls.fetch_add(1) == 0) {
          throw std::runtime_error("transient group failure");
        }
        std::vector<std::optional<std::string>> verdicts;
        for (const BatchLane& lane : lanes) {
          verdicts.emplace_back(std::to_string(lane.replica));
        }
        return verdicts;
      };
  std::map<std::size_t, std::string> payloads;
  const SupervisorReport report = run_supervised_set(
      ids,
      [](std::size_t replica, Rng&, const CancelToken&) {
        return std::optional<std::string>(std::to_string(replica));
      },
      [&](std::size_t replica, std::string&& payload) {
        payloads[replica] = std::move(payload);
      },
      options);

  EXPECT_EQ(report.succeeded, kReplicas);
  EXPECT_EQ(report.retries, kReplicas);  // one retry per lane of the group
  ASSERT_EQ(payloads.size(), kReplicas);
  for (std::size_t replica = 0; replica < kReplicas; ++replica) {
    EXPECT_EQ(payloads[replica], std::to_string(replica));
  }
}

// ---------------------------------------------------------------------------
// Batched jump-chain engine (run_batch_jump) -- refusals, per-lane cancel,
// distributional equivalence, and the lock-step groups' slot contract.  The
// draw-for-draw bit-identity suite lives in test_jump_engine.cpp
// (BatchJump.LanesBitIdenticalToScalarJump and friends).

void expect_same_jump_result(const JumpRunResult& scalar,
                             const JumpRunResult& lane,
                             const std::string& where) {
  expect_same_result(scalar, lane, where);
  EXPECT_EQ(scalar.effective_steps, lane.effective_steps) << where;
  EXPECT_EQ(scalar.mode_switches, lane.mode_switches) << where;
}

TEST(BatchJump, RejectsTracingAndMismatchedRngs) {
  const Graph graph = make_cycle(6);
  OpinionPlane plane(graph, 2);
  std::vector<Rng> rngs;
  for (unsigned lane = 0; lane < 2; ++lane) {
    rngs.emplace_back(Rng::retry_seed(7, lane, 0));
    plane.assign_lane(lane, uniform_random_opinions(6, 1, 3, rngs[lane]));
  }
  RunOptions traced;
  traced.trace_stride = 1;
  EXPECT_THROW(
      run_batch_jump(graph, SelectionScheme::kEdge, plane, rngs, traced),
      std::invalid_argument);

  std::vector<Rng> short_rngs;
  short_rngs.emplace_back(1);
  EXPECT_THROW(
      run_batch_jump(graph, SelectionScheme::kEdge, plane, short_rngs,
                     RunOptions{}),
      std::invalid_argument);

  const CancelToken* one_cancel[1] = {nullptr};
  EXPECT_THROW(
      run_batch_jump(graph, SelectionScheme::kEdge, plane, rngs, RunOptions{},
                     one_cancel),
      std::invalid_argument);
}

// A fired per-lane token drains exactly that lane at a scheduled-clock poll;
// its groupmates run to consensus untouched, and the drained lane's
// aggregates still describe its configuration.
TEST(BatchJump, PerLaneCancelDrainsOnlyThatLane) {
  Rng graph_rng(0x78);
  const Graph graph = make_connected_random_regular(32, 4, graph_rng);
  constexpr unsigned kLanes = 3;
  OpinionPlane plane(graph, kLanes);
  std::vector<Rng> rngs;
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    rngs.emplace_back(Rng::retry_seed(0xc0df, lane, 0));
    plane.assign_lane(lane, uniform_random_opinions(graph.num_vertices(), 1,
                                                    5, rngs[lane]));
  }
  CancelToken mid_token;
  mid_token.request(CancelReason::kUser);
  const CancelToken* cancels[kLanes] = {nullptr, &mid_token, nullptr};
  const std::vector<JumpRunResult> results = run_batch_jump(
      graph, SelectionScheme::kEdge, plane, rngs, RunOptions{}, cancels);

  EXPECT_EQ(results[0].status, RunStatus::kCompleted);
  EXPECT_EQ(results[2].status, RunStatus::kCompleted);
  EXPECT_EQ(results[1].status, RunStatus::kCancelled);
  EXPECT_EQ(results[1].steps, 0u);  // pre-fired: drained before any step
  EXPECT_EQ(results[1].effective_steps, 0u);
  std::int64_t sum = 0;
  for (const Opinion x : plane.lane_opinions(1)) sum += x;
  EXPECT_EQ(sum, results[1].final_sum);
}

// Distributional equivalence on INDEPENDENT seed families (the bit-identity
// suite pins same-seed equality; this pins the ensemble): winner categories
// by chi-square homogeneity, completion times by Kolmogorov-Smirnov, and the
// batched lanes must still actually skip scheduled work.
TEST(BatchJump, WinnerDistributionMatchesScalarJumpEngine) {
  Rng graph_rng(0x23b);
  const Graph graph = make_connected_random_regular(32, 4, graph_rng);
  constexpr int kReplicas = 400;
  constexpr Opinion kLo = 1;
  constexpr Opinion kHi = 3;
  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    DivProcess process(graph, scheme);
    std::vector<std::uint64_t> scalar_winners(kHi - kLo + 1, 0);
    std::vector<double> scalar_steps;
    for (int replica = 0; replica < kReplicas; ++replica) {
      Rng rng(
          Rng::substream_seed(0xbeef, static_cast<std::uint64_t>(replica)));
      OpinionState state(
          graph,
          uniform_random_opinions(graph.num_vertices(), kLo, kHi, rng));
      const JumpRunResult result =
          run_jump(process, state, rng, RunOptions{});
      ASSERT_EQ(result.status, RunStatus::kCompleted);
      ++scalar_winners[static_cast<std::size_t>(*result.winner - kLo)];
      scalar_steps.push_back(static_cast<double>(result.steps));
    }

    MonteCarloOptions mc;
    mc.master_seed = 0xcafe;
    mc.num_threads = 2;
    const auto batch = run_lane_groups<JumpRunResult>(
        graph, scheme, kReplicas, kLo, kHi, /*lanes=*/16, mc);
    ASSERT_TRUE(batch.report.ok());
    std::vector<std::uint64_t> batch_winners(kHi - kLo + 1, 0);
    std::vector<double> batch_steps;
    double scheduled = 0.0;
    double effective = 0.0;
    for (const auto& result : batch.results) {
      ASSERT_TRUE(result.has_value());
      ASSERT_EQ(result->status, RunStatus::kCompleted);
      ++batch_winners[static_cast<std::size_t>(*result->winner - kLo)];
      batch_steps.push_back(static_cast<double>(result->steps));
      scheduled += static_cast<double>(result->steps);
      effective += static_cast<double>(result->effective_steps);
    }
    // The lanes must have spent lazy stretches asleep, not stepped naively
    // throughout.
    EXPECT_LT(effective, 0.8 * scheduled) << to_string(scheme);

    const double chi_p =
        two_sample_chi_square_p(scalar_winners, batch_winners);
    EXPECT_GT(chi_p, 1e-3) << "winner distributions diverge, scheme "
                           << to_string(scheme);
    const double d = two_sample_ks_statistic(scalar_steps, batch_steps);
    const double critical =
        1.95 * std::sqrt(2.0 / static_cast<double>(kReplicas));
    EXPECT_LT(d, critical) << "completion-time ECDFs diverge, scheme "
                           << to_string(scheme);
  }
}

// Lock-step jump groups fill every slot with the scalar run_jump attempt-0
// result, at a replica count deliberately unaligned to the lane width,
// across a worker pool.
TEST(BatchDriver, JumpSlotsMatchScalarAttemptZero) {
  Rng graph_rng(0x32);
  const Graph graph = make_connected_random_regular(24, 4, graph_rng);
  constexpr std::size_t kReplicas = 10;  // deliberately not a lane multiple
  constexpr std::uint64_t kMaster = 0xfeee;
  RunOptions run_options;

  DivProcess process(graph, SelectionScheme::kVertex);
  std::vector<JumpRunResult> scalar(kReplicas);
  for (std::size_t replica = 0; replica < kReplicas; ++replica) {
    Rng rng(Rng::retry_seed(kMaster, replica, 0));
    OpinionState state(
        graph, uniform_random_opinions(graph.num_vertices(), 1, 4, rng));
    scalar[replica] = run_jump(process, state, rng, run_options);
  }

  MonteCarloOptions mc;
  mc.master_seed = kMaster;
  mc.num_threads = 3;
  const auto batch = run_lane_groups<JumpRunResult>(
      graph, SelectionScheme::kVertex, kReplicas, 1, 4, /*lanes=*/4, mc);

  EXPECT_EQ(batch.report.replicas, kReplicas);
  EXPECT_EQ(batch.report.attempted, kReplicas);
  EXPECT_TRUE(batch.report.ok());
  ASSERT_EQ(batch.results.size(), kReplicas);
  for (std::size_t replica = 0; replica < kReplicas; ++replica) {
    ASSERT_TRUE(batch.results[replica].has_value());
    expect_same_jump_result(scalar[replica], *batch.results[replica],
                            "replica " + std::to_string(replica));
  }
}

// ---------------------------------------------------------------------------
// Per-lane telemetry: each lane_metrics sink must hold what the scalar engine
// writes for the same seed -- every non-wall_* field, entry by entry.

void expect_same_metrics(const RunMetrics& scalar, const RunMetrics& lane,
                         const std::string& where) {
  EXPECT_EQ(scalar.scheduled_steps, lane.scheduled_steps) << where;
  EXPECT_EQ(scalar.effective_steps, lane.effective_steps) << where;
  EXPECT_EQ(scalar.lazy_steps_skipped, lane.lazy_steps_skipped) << where;
  EXPECT_EQ(scalar.tracker_rebuilds, lane.tracker_rebuilds) << where;
  EXPECT_EQ(scalar.frozen_tail_steps, lane.frozen_tail_steps) << where;
  EXPECT_EQ(scalar.mode_switches_dropped, lane.mode_switches_dropped)
      << where;
  EXPECT_EQ(scalar.activity_dropped, lane.activity_dropped) << where;
  ASSERT_EQ(scalar.mode_timeline.size(), lane.mode_timeline.size()) << where;
  for (std::size_t i = 0; i < scalar.mode_timeline.size(); ++i) {
    const ModeSwitch& a = scalar.mode_timeline[i];
    const ModeSwitch& b = lane.mode_timeline[i];
    const std::string entry = where + " switch " + std::to_string(i);
    EXPECT_EQ(a.step, b.step) << entry;
    EXPECT_EQ(a.jump_mode, b.jump_mode) << entry;
    EXPECT_EQ(a.active_probability, b.active_probability) << entry;
    EXPECT_EQ(a.discordant_pairs, b.discordant_pairs) << entry;
  }
  ASSERT_EQ(scalar.activity.size(), lane.activity.size()) << where;
  for (std::size_t i = 0; i < scalar.activity.size(); ++i) {
    const ActivitySample& a = scalar.activity[i];
    const ActivitySample& b = lane.activity[i];
    const std::string entry = where + " sample " + std::to_string(i);
    EXPECT_EQ(a.step, b.step) << entry;
    EXPECT_EQ(a.active_probability, b.active_probability) << entry;
    EXPECT_EQ(a.discordant_pairs, b.discordant_pairs) << entry;
  }
}

using LaneInit = std::function<std::vector<Opinion>(unsigned, Rng&)>;
using LaneSinkConfig = std::function<void(unsigned, RunMetrics&)>;

// Runs `lanes` scalar replicas (run, or run_jump when `jump`) with a metrics
// sink each, then the same seeds through the lane engine in planes of
// `width` lanes with per-lane sinks, and compares results and metrics lane
// by lane.  Returns the scalar metrics so callers can check which cases
// the configuration exercised.
std::vector<RunMetrics> expect_lane_metrics_match(
    bool jump, const Graph& graph, SelectionScheme scheme, unsigned lanes,
    unsigned width, const RunOptions& options, const LaneInit& init,
    const LaneSinkConfig& configure) {
  constexpr std::uint64_t kMaster = 0x3e7a;
  DivProcess process(graph, scheme);
  std::vector<RunMetrics> scalar(lanes);
  std::vector<RunResult> scalar_results(lanes);
  for (unsigned lane = 0; lane < lanes; ++lane) {
    configure(lane, scalar[lane]);
    Rng rng(Rng::retry_seed(kMaster, lane, 0));
    OpinionState state(graph, init(lane, rng));
    RunOptions scalar_options = options;
    scalar_options.metrics = &scalar[lane];
    if (jump) {
      scalar_results[lane] = run_jump(process, state, rng, scalar_options);
    } else {
      scalar_results[lane] = run(process, state, rng, scalar_options);
    }
  }

  std::vector<RunMetrics> batch(lanes);
  for (unsigned first = 0; first < lanes; first += width) {
    const unsigned group = std::min(width, lanes - first);
    OpinionPlane plane(graph, group);
    std::vector<Rng> rngs;
    std::vector<RunMetrics*> sinks;
    for (unsigned i = 0; i < group; ++i) {
      rngs.emplace_back(Rng::retry_seed(kMaster, first + i, 0));
      plane.assign_lane(i, init(first + i, rngs[i]));
      configure(first + i, batch[first + i]);
      sinks.push_back(&batch[first + i]);
    }
    std::vector<RunResult> results;
    if (jump) {
      const std::vector<JumpRunResult> jump_results =
          run_batch_jump(graph, scheme, plane, rngs, options, {}, sinks);
      results.assign(jump_results.begin(), jump_results.end());
    } else {
      results = run_batch(graph, scheme, plane, rngs, options, {}, sinks);
    }
    for (unsigned i = 0; i < group; ++i) {
      const unsigned lane = first + i;
      const std::string where = std::string(to_string(scheme)) + " width " +
                                std::to_string(width) + " lane " +
                                std::to_string(lane);
      expect_same_result(scalar_results[lane], results[i], where);
      expect_same_metrics(scalar[lane], batch[lane], where);
    }
  }
  return scalar;
}

std::vector<Opinion> unanimous_but_one(const Graph& graph, unsigned lane) {
  std::vector<Opinion> opinions(graph.num_vertices(), 2);
  opinions[lane % graph.num_vertices()] = 3;
  return opinions;
}

// run_batch's sinks carry run()'s telemetry: one naive timeline entry at
// step 0 (dropped into mode_switches_dropped under max_samples == 0) and
// the lane's scheduled steps, for lanes satisfied at step 0, lanes that
// complete, and lanes the step cap stops.
TEST(BatchEngine, PerLaneMetricsMatchScalarRun) {
  Rng graph_rng(0x51c);
  const Graph graph = make_connected_random_regular(48, 4, graph_rng);
  RunOptions options;
  options.max_steps = 1000;
  const LaneInit init = [&graph](unsigned lane, Rng& rng) {
    if (lane == 0) {
      return std::vector<Opinion>(graph.num_vertices(), 3);
    }
    if (lane % 2 == 1) {
      return unanimous_but_one(graph, lane);
    }
    return uniform_random_opinions(graph.num_vertices(), 1, 8, rng);
  };
  const LaneSinkConfig configure = [](unsigned lane, RunMetrics& metrics) {
    if (lane == 3) {
      metrics.max_samples = 0;
    }
  };
  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    for (const unsigned width : {1u, 4u}) {
      const std::vector<RunMetrics> scalar = expect_lane_metrics_match(
          /*jump=*/false, graph, scheme, /*lanes=*/8, width, options, init,
          configure);
      EXPECT_EQ(scalar[0].scheduled_steps, 0u);
      EXPECT_EQ(scalar[3].mode_switches_dropped, 1u);
      std::size_t capped = 0;
      std::size_t completed = 0;
      for (const RunMetrics& metrics : scalar) {
        if (metrics.scheduled_steps == options.max_steps) {
          ++capped;
        } else if (metrics.scheduled_steps > 0) {
          ++completed;
        }
      }
      EXPECT_GT(capped, 0u);
      EXPECT_GT(completed, 0u);
    }
  }

  // A group-level RunOptions::metrics sink and a sink span of the wrong
  // width are refused.
  OpinionPlane plane(graph, 2);
  std::vector<Rng> rngs;
  for (unsigned lane = 0; lane < 2; ++lane) {
    rngs.emplace_back(Rng::retry_seed(1, lane, 0));
    plane.assign_lane(lane, init(lane, rngs[lane]));
  }
  RunMetrics metrics;
  RunOptions group_sink;
  group_sink.metrics = &metrics;
  EXPECT_THROW(run_batch(graph, SelectionScheme::kEdge, plane, rngs,
                         group_sink),
               std::invalid_argument);
  RunMetrics* const one_sink[1] = {&metrics};
  EXPECT_THROW(run_batch(graph, SelectionScheme::kEdge, plane, rngs,
                         RunOptions{}, {}, one_sink),
               std::invalid_argument);
}

// run_batch_jump's sinks carry run_jump()'s telemetry across every exit and
// mode path: lanes satisfied at step 0 (whose scalar tracker still stamps
// the launch entry, with non-zero activity under the two-adjacent rule),
// mixed dense and lazy lanes (mode switches, rebuilds, activity samples on
// jump-mode steps where the cumulative effective count, naive changes
// included, hits the stride), tiny max_samples (the *_dropped counters),
// frozen-capped lanes on a disconnected graph and watchdog-capped lanes
// under a tight budget (both booking the remaining stretch as frozen-tail
// and lazy-skipped steps).
TEST(BatchJump, PerLaneMetricsMatchScalarJump) {
  // Two 24-cliques joined by one edge: clique-internal dense phases
  // alternate with lazy stretches where only the bridge disagrees, so lanes
  // switch modes and resync their trackers many times.
  const Graph graph = make_barbell(24);
  const Graph split(4, {{0, 1}, {2, 3}});
  const VertexId n = graph.num_vertices();
  const LaneInit mixed = [n](unsigned lane, Rng& rng) {
    std::vector<Opinion> opinions(n, 1);
    if (lane == 0) {
      // Satisfied at step 0 under the two-adjacent rule, yet discordant.
      for (VertexId v = 0; v < n; v += 2) {
        opinions[v] = 2;
      }
      return opinions;
    }
    if (lane % 2 == 1) {
      // Lazy: each clique unanimous, the cliques far apart.
      std::fill(opinions.begin() + n / 2, opinions.end(), 8);
      return opinions;
    }
    return uniform_random_opinions(n, 1, 8, rng);
  };
  const LaneSinkConfig sampled = [](unsigned lane, RunMetrics& metrics) {
    metrics.activity_stride = 8;
    if (lane == 3) {
      metrics.max_samples = 2;
    }
  };

  RunOptions consensus;
  RunOptions two_adjacent;
  two_adjacent.stop = StopKind::kTwoAdjacent;
  RunOptions tight;
  tight.max_steps = 20;
  RunOptions capped;
  capped.max_steps = 100000;

  // Totals that show the configurations reached the paths named above.
  std::uint64_t watchdog_tails = 0;
  std::uint64_t frozen_tails = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t dropped = 0;
  std::size_t samples = 0;
  double launch_activity = 0.0;
  const auto tally = [&](const std::vector<RunMetrics>& lanes_metrics) {
    for (const RunMetrics& metrics : lanes_metrics) {
      rebuilds += metrics.tracker_rebuilds;
      dropped += metrics.activity_dropped;
      samples += metrics.activity.size();
    }
  };
  const LaneInit split_init = [](unsigned lane, Rng&) {
    return lane % 2 == 0 ? std::vector<Opinion>{1, 1, 2, 2}
                         : std::vector<Opinion>{1, 2, 2, 1};
  };
  for (const SelectionScheme scheme :
       {SelectionScheme::kVertex, SelectionScheme::kEdge}) {
    for (const unsigned width : {1u, 4u}) {
      tally(expect_lane_metrics_match(/*jump=*/true, graph, scheme, 8, width,
                                      consensus, mixed, sampled));
      const std::vector<RunMetrics> adjacent = expect_lane_metrics_match(
          /*jump=*/true, graph, scheme, 4, width, two_adjacent, mixed,
          sampled);
      tally(adjacent);
      launch_activity += adjacent[0].mode_timeline.at(0).active_probability;
      for (const RunMetrics& metrics :
           expect_lane_metrics_match(/*jump=*/true, graph, scheme, 8, width,
                                     tight, mixed, sampled)) {
        watchdog_tails += metrics.frozen_tail_steps;
      }
      for (const RunMetrics& metrics :
           expect_lane_metrics_match(/*jump=*/true, split, scheme, 4, width,
                                     capped, split_init, sampled)) {
        frozen_tails += metrics.frozen_tail_steps;
      }
    }
  }
  EXPECT_GT(watchdog_tails, 0u);
  EXPECT_GT(frozen_tails, 0u);
  EXPECT_GT(rebuilds, 0u);
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(samples, 0u);
  EXPECT_GT(launch_activity, 0.0);

  OpinionPlane plane(graph, 1);
  std::vector<Rng> rngs;
  rngs.emplace_back(1);
  plane.assign_lane(0, mixed(1, rngs[0]));
  RunMetrics metrics;
  RunOptions group_sink;
  group_sink.metrics = &metrics;
  EXPECT_THROW(run_batch_jump(graph, SelectionScheme::kEdge, plane, rngs,
                              group_sink),
               std::invalid_argument);
}

// SupervisorOptions::batch_lanes gets the same loud range guard the CLI
// applies to --batch-lanes: 0 and anything above kMaxBatchLanes refuse up
// front instead of silently degenerating (0 used to disable batching, and
// oversized widths allocated planes nothing could have asked for).
TEST(SupervisorBatch, RejectsOutOfRangeLaneCounts) {
  const std::vector<std::size_t> ids = {0, 1};
  const auto task = [](std::size_t, Rng&, const CancelToken&) {
    return std::optional<std::string>("ok");
  };
  const auto commit = [](std::size_t, std::string&&) {};

  for (const unsigned lanes : {0u, kMaxBatchLanes + 1}) {
    SupervisorOptions options;
    options.num_threads = 1;
    options.batch_lanes = lanes;
    EXPECT_THROW(run_supervised_set(ids, task, commit, options),
                 std::invalid_argument)
        << "batch_lanes=" << lanes;
  }

  SupervisorOptions options;
  options.num_threads = 1;
  options.batch_lanes = kMaxBatchLanes;  // the boundary itself is legal
  const SupervisorReport report =
      run_supervised_set(ids, task, commit, options);
  EXPECT_EQ(report.succeeded, ids.size());
}

}  // namespace
}  // namespace divlib
