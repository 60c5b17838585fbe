#include "core/partition.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "common/error.hpp"
#include "core/spmd_common.hpp"
#include "simnet/platform.hpp"

namespace hprs::core {
namespace {

WorkloadModel compute_only() {
  WorkloadModel m;
  m.flops_per_pixel = 1000.0;
  m.bytes_per_pixel = 4;
  m.scatter_input = false;
  return m;
}

/// Checks that the partitions tile [0, rows) exactly, in rank order.
void expect_tiling(const PartitionResult& result, std::size_t rows) {
  std::size_t row = 0;
  for (const auto& part : result.parts) {
    EXPECT_EQ(part.row_begin, row);
    EXPECT_GE(part.owned_rows(), 1u);
    row = part.row_end;
  }
  EXPECT_EQ(row, rows);
}

TEST(WeaPartitionTest, HomogeneousPolicySplitsEqually) {
  const auto platform = simnet::fully_heterogeneous();
  const auto result = wea_partition(platform, 160, 32, compute_only(),
                                    PartitionPolicy::kHomogeneous);
  expect_tiling(result, 160);
  for (const auto& part : result.parts) {
    EXPECT_EQ(part.owned_rows(), 10u);
  }
  for (double a : result.alpha) {
    EXPECT_NEAR(a, 1.0 / 16.0, 1e-12);
  }
}

TEST(WeaPartitionTest, HeterogeneousSharesAreProportionalToSpeed) {
  // With negligible communication the DLT recursion degenerates to the
  // paper's alpha_i ~ 1/w_i.
  const auto platform = simnet::fully_heterogeneous();
  const auto result = wea_partition(platform, 1600, 32, compute_only(),
                                    PartitionPolicy::kHeterogeneous);
  expect_tiling(result, 1600);
  const double total_speed = [&] {
    double s = 0.0;
    for (std::size_t i = 0; i < platform.size(); ++i) s += platform.speed(i);
    return s;
  }();
  for (std::size_t i = 0; i < platform.size(); ++i) {
    EXPECT_NEAR(result.alpha[i], platform.speed(i) / total_speed, 1e-9)
        << "rank " << i;
  }
  // p3 (fastest) gets the most rows, p10 (slowest) the fewest.
  EXPECT_GT(result.parts[2].owned_rows(), result.parts[9].owned_rows());
}

TEST(WeaPartitionTest, AlphaSumsToOne) {
  for (const auto policy :
       {PartitionPolicy::kHomogeneous, PartitionPolicy::kHeterogeneous}) {
    const auto result = wea_partition(simnet::fully_heterogeneous(), 640, 64,
                                      compute_only(), policy);
    const double sum =
        std::accumulate(result.alpha.begin(), result.alpha.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(WeaPartitionTest, CommunicationAwareSharesShiftTowardCheapLinks) {
  // Identical processors on the Table 2 network with full data staging:
  // the DLT recursion must assign more work to segments close to the root.
  WorkloadModel model;
  model.flops_per_pixel = 1000.0;
  model.bytes_per_pixel = 896;
  model.scatter_input = true;
  const auto platform = simnet::partially_homogeneous();
  const auto result = wea_partition(platform, 1600, 32, model,
                                    PartitionPolicy::kHeterogeneous);
  // Rank 1 shares the root's fast segment (19.26); rank 15 sits behind the
  // slowest inter-segment link (154.76).
  EXPECT_GT(result.alpha[1], result.alpha[15]);
}

TEST(WeaPartitionTest, MemoryCapsTriggerRedistribution) {
  // Two processors: equally fast, but the first can hold only a sliver.
  std::vector<simnet::ProcessorSpec> procs = {
      {"small", "t", 0.01, 1, 512, 0},   // 1 MB memory
      {"big", "t", 0.01, 4096, 512, 0},  // 4 GB memory
  };
  const simnet::Platform platform("capped", std::move(procs), {{10.0}});
  // 1024 rows x 256 cols x 4 B = 1 MB total; cap the small node to 25% of
  // its 1 MB => it may hold at most a quarter of the image.
  const auto result =
      wea_partition(platform, 1024, 256, compute_only(),
                    PartitionPolicy::kHeterogeneous, /*memory_fraction=*/0.25);
  expect_tiling(result, 1024);
  EXPECT_LE(result.alpha[0], 0.25 + 1e-9);
  EXPECT_NEAR(result.alpha[0] + result.alpha[1], 1.0, 1e-9);
}

TEST(WeaPartitionTest, ThrowsWhenImageExceedsAggregateMemory) {
  std::vector<simnet::ProcessorSpec> procs = {
      {"tiny1", "t", 0.01, 1, 512, 0},
      {"tiny2", "t", 0.01, 1, 512, 0},
  };
  const simnet::Platform platform("tiny", std::move(procs), {{10.0}});
  // 64 MB image into 2 MB of aggregate memory.
  EXPECT_THROW((void)wea_partition(platform, 4096, 4096, compute_only(),
                                   PartitionPolicy::kHeterogeneous),
               Error);
}

TEST(WeaPartitionTest, OverlapAddsClampedHalos) {
  const auto platform = simnet::fully_homogeneous();
  const auto result =
      wea_partition(platform, 160, 32, compute_only(),
                    PartitionPolicy::kHomogeneous, 0.5, /*overlap=*/3);
  // First partition's halo clamps at the image top.
  EXPECT_EQ(result.parts.front().halo_begin, 0u);
  EXPECT_EQ(result.parts.front().halo_end,
            result.parts.front().row_end + 3);
  // Interior partitions get symmetric halos.
  const auto& mid = result.parts[7];
  EXPECT_EQ(mid.halo_begin, mid.row_begin - 3);
  EXPECT_EQ(mid.halo_end, mid.row_end + 3);
  // Last partition clamps at the bottom.
  EXPECT_EQ(result.parts.back().halo_end, 160u);
}

TEST(WeaPartitionTest, EveryRankGetsAtLeastOneRow) {
  // Extreme heterogeneity: the slowest node's exact share rounds to zero
  // rows, but the partitioner must still give it one.
  const auto platform = simnet::synthetic_heterogeneous(8, 1000.0, 0.01, 10.0);
  const auto result = wea_partition(platform, 64, 8, compute_only(),
                                    PartitionPolicy::kHeterogeneous);
  expect_tiling(result, 64);
}

TEST(WeaPartitionTest, ValidatesArguments) {
  const auto platform = simnet::fully_homogeneous();
  EXPECT_THROW((void)wea_partition(platform, 8, 32, compute_only(),
                                   PartitionPolicy::kHomogeneous),
               Error);  // fewer rows than processors
  EXPECT_THROW((void)wea_partition(platform, 160, 0, compute_only(),
                                   PartitionPolicy::kHomogeneous),
               Error);
  EXPECT_THROW((void)wea_partition(platform, 160, 32, compute_only(),
                                   PartitionPolicy::kHomogeneous, 0.0),
               Error);
  EXPECT_THROW((void)wea_partition(platform, 160, 32, compute_only(),
                                   PartitionPolicy::kHomogeneous, 0.5, 0,
                                   /*root=*/99),
               Error);
}

TEST(WeaPartitionTest, IsDeterministic) {
  const auto platform = simnet::fully_heterogeneous();
  const auto a = wea_partition(platform, 777, 31, compute_only(),
                               PartitionPolicy::kHeterogeneous);
  const auto b = wea_partition(platform, 777, 31, compute_only(),
                               PartitionPolicy::kHeterogeneous);
  ASSERT_EQ(a.parts.size(), b.parts.size());
  for (std::size_t i = 0; i < a.parts.size(); ++i) {
    EXPECT_EQ(a.parts[i].row_begin, b.parts[i].row_begin);
    EXPECT_EQ(a.parts[i].row_end, b.parts[i].row_end);
  }
}

class PartitionRowSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PartitionRowSweep, TilesExactlyForAnyRowCount) {
  const std::size_t rows = GetParam();
  for (const auto policy :
       {PartitionPolicy::kHomogeneous, PartitionPolicy::kHeterogeneous}) {
    const auto result = wea_partition(simnet::fully_heterogeneous(), rows, 16,
                                      compute_only(), policy);
    expect_tiling(result, rows);
  }
}

INSTANTIATE_TEST_SUITE_P(RowCounts, PartitionRowSweep,
                         ::testing::Values(16, 17, 31, 100, 128, 333, 2133));

TEST(SpectralPartitionTest, CoversAllBands) {
  const auto parts = spectral_partition(simnet::fully_heterogeneous(), 224,
                                        PartitionPolicy::kHeterogeneous);
  ASSERT_EQ(parts.size(), 16u);
  std::size_t band = 0;
  for (const auto& [begin, end] : parts) {
    EXPECT_EQ(begin, band);
    EXPECT_GE(end, begin);
    band = end;
  }
  EXPECT_EQ(band, 224u);
}

TEST(SpectralPartitionTest, HomogeneousSplitIsRoughlyEqual) {
  const auto parts = spectral_partition(simnet::fully_homogeneous(), 224,
                                        PartitionPolicy::kHomogeneous);
  for (const auto& [begin, end] : parts) {
    EXPECT_NEAR(static_cast<double>(end - begin), 14.0, 1.0);
  }
}

TEST(SpectralPartitionTest, RejectsFewerBandsThanRanks) {
  EXPECT_THROW((void)spectral_partition(simnet::fully_homogeneous(), 8,
                                        PartitionPolicy::kHomogeneous),
               Error);
}

TEST(PolicyNamesTest, AreStable) {
  EXPECT_STREQ(to_string(PartitionPolicy::kHomogeneous), "homogeneous");
  EXPECT_STREQ(to_string(PartitionPolicy::kHeterogeneous), "heterogeneous");
}


TEST(WeaPartitionTest, SyncRoundsAmortizeTheStagingTransfer) {
  // With many synchronized rounds the one-time staging transfer stops
  // mattering and the fractions converge to the pure-speed split.
  WorkloadModel model;
  model.flops_per_pixel = 1000.0;
  model.bytes_per_pixel = 896;
  model.scatter_input = true;
  const auto platform = simnet::partially_homogeneous();

  model.sync_rounds = 1.0;
  const auto single = wea_partition(platform, 1600, 32, model,
                                    PartitionPolicy::kHeterogeneous);
  model.sync_rounds = 1e6;
  const auto iterative = wea_partition(platform, 1600, 32, model,
                                       PartitionPolicy::kHeterogeneous);
  // Single-round: near segments get clearly more work.
  EXPECT_GT(single.alpha[1], single.alpha[15] * 1.1);
  // Heavily iterative: equal processors -> essentially equal fractions.
  EXPECT_NEAR(iterative.alpha[1], iterative.alpha[15], 0.001);
  // And the skew shrinks monotonically with the round count.
  EXPECT_LT(iterative.alpha[1] - iterative.alpha[15],
            single.alpha[1] - single.alpha[15]);
}

TEST(WeaPartitionTest, RootOverrideMovesTheFreeTransferSlot) {
  WorkloadModel model;
  model.flops_per_pixel = 1000.0;
  model.bytes_per_pixel = 896;
  model.scatter_input = true;
  const auto platform = simnet::partially_homogeneous();
  const auto from_p1 = wea_partition(platform, 1600, 32, model,
                                     PartitionPolicy::kHeterogeneous, 0.5, 0,
                                     /*root=*/0);
  const auto from_p16 = wea_partition(platform, 1600, 32, model,
                                      PartitionPolicy::kHeterogeneous, 0.5, 0,
                                      /*root=*/15);
  // Rank 1 shares segment s1: favored when the root sits there, not when
  // the root moved to segment s4.
  EXPECT_GT(from_p1.alpha[1], from_p16.alpha[1]);
}

TEST(TilePlanTest, MakeRowTilesCoversRangeWithRaggedTail) {
  const auto tiles = detail::make_row_tiles(10, 23, 100, 5);
  ASSERT_EQ(tiles.size(), 3u);
  EXPECT_EQ(tiles[0].row_begin, 10u);
  EXPECT_EQ(tiles[0].row_end, 15u);
  EXPECT_EQ(tiles[0].bytes, 500u);
  EXPECT_EQ(tiles[1].row_begin, 15u);
  EXPECT_EQ(tiles[1].row_end, 20u);
  EXPECT_EQ(tiles[2].row_begin, 20u);
  EXPECT_EQ(tiles[2].row_end, 23u);  // ragged tail
  EXPECT_EQ(tiles[2].rows(), 3u);
  EXPECT_EQ(tiles[2].bytes, 300u);
  EXPECT_TRUE(detail::make_row_tiles(7, 7, 100, 5).empty());
  EXPECT_THROW((void)detail::make_row_tiles(0, 4, 100, 0), Error);
}

TEST(TilePlanTest, AutoTileHeightSplitsPartitionIntoFourTiles) {
  // ceil(owned_rows / 4): at most four tiles, never a zero-row tile.
  EXPECT_EQ(detail::tile_rows_for(100), 25u);
  EXPECT_EQ(detail::tile_rows_for(3), 1u);
  EXPECT_EQ(detail::tile_rows_for(0), 1u);
}

}  // namespace
}  // namespace hprs::core
