// Tests for distributed k-means, PCA and projection/ThemeView.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>

#include "sva/cluster/kmeans.hpp"
#include "sva/cluster/pca.hpp"
#include "sva/cluster/projection.hpp"
#include "sva/util/rng.hpp"
#include "temp_path.hpp"

namespace sva::cluster {
namespace {

/// Three well-separated Gaussian-ish blobs in 2-D, split across ranks.
Matrix make_blobs(int rank, int nprocs, std::size_t per_blob = 60) {
  static const double kCenters[3][2] = {{0.0, 0.0}, {10.0, 10.0}, {-10.0, 10.0}};
  std::vector<std::array<double, 2>> all;
  Xoshiro256 rng(99);
  for (int b = 0; b < 3; ++b) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      all.push_back({kCenters[b][0] + rng.uniform() - 0.5,
                     kCenters[b][1] + rng.uniform() - 0.5});
    }
  }
  // Contiguous split.
  const std::size_t per_rank = (all.size() + static_cast<std::size_t>(nprocs) - 1) /
                               static_cast<std::size_t>(nprocs);
  const std::size_t begin = std::min(all.size(), static_cast<std::size_t>(rank) * per_rank);
  const std::size_t end = std::min(all.size(), begin + per_rank);
  Matrix out(end - begin, 2);
  for (std::size_t i = begin; i < end; ++i) {
    out.at(i - begin, 0) = all[i][0];
    out.at(i - begin, 1) = all[i][1];
  }
  return out;
}

// ---- kmeans++ ----------------------------------------------------------------

TEST(KMeansPPTest, Deterministic) {
  Matrix sample(10, 2);
  Xoshiro256 rng(1);
  for (double& v : sample.flat()) v = rng.uniform();
  const Matrix a = kmeanspp_seed(sample, 3, 42);
  const Matrix b = kmeanspp_seed(sample, 3, 42);
  for (std::size_t i = 0; i < a.flat().size(); ++i) EXPECT_EQ(a.flat()[i], b.flat()[i]);
}

TEST(KMeansPPTest, SeedsAreSamplePoints) {
  Matrix sample(5, 1);
  for (std::size_t i = 0; i < 5; ++i) sample.at(i, 0) = static_cast<double>(i) * 10.0;
  const Matrix seeds = kmeanspp_seed(sample, 3, 7);
  for (std::size_t c = 0; c < 3; ++c) {
    const double v = seeds.at(c, 0);
    EXPECT_TRUE(v == 0.0 || v == 10.0 || v == 20.0 || v == 30.0 || v == 40.0);
  }
}

TEST(KMeansPPTest, SpreadsAcrossSeparatedPoints) {
  // With k == #distinct far-apart points, k-means++ should pick all of
  // them (D^2 weighting makes duplicates essentially impossible).
  Matrix sample(3, 1);
  sample.at(0, 0) = 0.0;
  sample.at(1, 0) = 100.0;
  sample.at(2, 0) = 200.0;
  const Matrix seeds = kmeanspp_seed(sample, 3, 5);
  std::set<double> got = {seeds.at(0, 0), seeds.at(1, 0), seeds.at(2, 0)};
  EXPECT_EQ(got.size(), 3u);
}

TEST(KMeansPPTest, EmptySampleThrows) {
  Matrix empty(0, 2);
  EXPECT_THROW((void)kmeanspp_seed(empty, 2, 1), InvalidArgument);
}

// ---- distributed k-means --------------------------------------------------------

class KMeansSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(KMeansSweepTest, RecoversWellSeparatedBlobs) {
  const int nprocs = GetParam();
  ga::spmd_run(nprocs, [&](ga::Context& ctx) {
    const Matrix points = make_blobs(ctx.rank(), nprocs);
    KMeansConfig config;
    config.k = 3;
    const KMeansResult r = kmeans_cluster(ctx, points, config);

    ASSERT_EQ(r.centroids.rows(), 3u);
    // Each centroid lands near one blob center.
    const double kCenters[3][2] = {{0.0, 0.0}, {10.0, 10.0}, {-10.0, 10.0}};
    for (std::size_t c = 0; c < 3; ++c) {
      double best = 1e18;
      for (const auto& center : kCenters) {
        const std::vector<double> ctr = {center[0], center[1]};
        best = std::min(best, squared_distance(r.centroids.row(c), ctr));
      }
      EXPECT_LT(best, 1.0);
    }
    // All points assigned; sizes sum to the global count.
    std::int64_t total = 0;
    for (auto s : r.cluster_sizes) total += s;
    EXPECT_EQ(total, 180);
  });
}

TEST_P(KMeansSweepTest, CentroidsIdenticalAcrossRanks) {
  const int nprocs = GetParam();
  ga::spmd_run(nprocs, [&](ga::Context& ctx) {
    const Matrix points = make_blobs(ctx.rank(), nprocs);
    const KMeansResult r = kmeans_cluster(ctx, points, {});
    // Compare centroid bits across ranks via allgather of a checksum.
    double checksum = 0.0;
    for (double v : r.centroids.flat()) checksum += v;
    const auto sums = ctx.allgather(checksum);
    for (double s : sums) EXPECT_EQ(s, sums[0]);
  });
}

TEST_P(KMeansSweepTest, AssignmentIsNearestCentroid) {
  const int nprocs = GetParam();
  ga::spmd_run(nprocs, [&](ga::Context& ctx) {
    const Matrix points = make_blobs(ctx.rank(), nprocs);
    KMeansConfig config;
    config.k = 4;
    const KMeansResult r = kmeans_cluster(ctx, points, config);
    for (std::size_t i = 0; i < points.rows(); ++i) {
      const double assigned =
          squared_distance(points.row(i),
                           r.centroids.row(static_cast<std::size_t>(r.assignment[i])));
      for (std::size_t c = 0; c < r.centroids.rows(); ++c) {
        EXPECT_LE(assigned, squared_distance(points.row(i), r.centroids.row(c)) + 1e-9);
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Procs, KMeansSweepTest, ::testing::Values(1, 2, 3, 4));

TEST(KMeansTest, ResultIndependentOfProcessorCount) {
  std::vector<double> reference;
  for (int nprocs : {1, 2, 4}) {
    auto flat = std::make_shared<std::vector<double>>();
    ga::spmd_run(nprocs, [&](ga::Context& ctx) {
      const Matrix points = make_blobs(ctx.rank(), nprocs);
      KMeansConfig config;
      config.k = 3;
      const KMeansResult r = kmeans_cluster(ctx, points, config);
      if (ctx.rank() == 0) flat->assign(r.centroids.flat().begin(), r.centroids.flat().end());
    });
    if (reference.empty()) {
      reference = *flat;
    } else {
      ASSERT_EQ(reference.size(), flat->size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_NEAR(reference[i], (*flat)[i], 1e-6) << "P-variant centroid at " << i;
      }
    }
  }
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters) {
  ga::spmd_run(2, [&](ga::Context& ctx) {
    const Matrix points = make_blobs(ctx.rank(), 2);
    KMeansConfig c2, c6;
    c2.k = 2;
    c6.k = 6;
    const double i2 = kmeans_cluster(ctx, points, c2).inertia;
    const double i6 = kmeans_cluster(ctx, points, c6).inertia;
    EXPECT_LT(i6, i2);
  });
}

TEST(KMeansTest, KLargerThanPointsIsClamped) {
  ga::spmd_run(2, [&](ga::Context& ctx) {
    Matrix points(ctx.rank() == 0 ? 3u : 0u, 2);
    if (ctx.rank() == 0) {
      points.at(0, 0) = 1.0;
      points.at(1, 0) = 2.0;
      points.at(2, 0) = 3.0;
    }
    KMeansConfig config;
    config.k = 50;
    const KMeansResult r = kmeans_cluster(ctx, points, config);
    EXPECT_LE(r.centroids.rows(), 3u);
  });
}

TEST(KMeansTest, RanksWithNoPointsParticipate) {
  ga::spmd_run(3, [&](ga::Context& ctx) {
    // Only rank 0 has data.
    Matrix points(ctx.rank() == 0 ? 30u : 0u, 2);
    if (ctx.rank() == 0) {
      Xoshiro256 rng(4);
      for (double& v : points.flat()) v = rng.uniform();
    }
    KMeansConfig config;
    config.k = 2;
    const KMeansResult r = kmeans_cluster(ctx, points, config);
    std::int64_t total = 0;
    for (auto s : r.cluster_sizes) total += s;
    EXPECT_EQ(total, 30);
  });
}

// ---- PCA -------------------------------------------------------------------------

TEST(PcaTest, RecoversDominantAxis) {
  // Points along the x-axis with tiny y noise: PC1 ~ (1, 0).
  Matrix data(50, 2);
  Xoshiro256 rng(8);
  for (std::size_t i = 0; i < 50; ++i) {
    data.at(i, 0) = static_cast<double>(i);
    data.at(i, 1) = rng.uniform() * 0.01;
  }
  const PcaResult pca = pca_fit(data, 2);
  EXPECT_NEAR(std::abs(pca.components.at(0, 0)), 1.0, 1e-3);
  EXPECT_NEAR(pca.components.at(0, 1), 0.0, 1e-2);
  EXPECT_GT(pca.eigenvalues[0], pca.eigenvalues[1]);
}

TEST(PcaTest, ComponentsAreOrthonormal) {
  Matrix data(30, 5);
  Xoshiro256 rng(9);
  for (double& v : data.flat()) v = rng.uniform();
  const PcaResult pca = pca_fit(data, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(dot(pca.components.row(i), pca.components.row(j)), i == j ? 1.0 : 0.0,
                  1e-8);
    }
  }
}

TEST(PcaTest, ProjectionCentersTheMean) {
  Matrix data(10, 3);
  for (std::size_t i = 0; i < 10; ++i) {
    data.at(i, 0) = static_cast<double>(i);
    data.at(i, 1) = 5.0;
    data.at(i, 2) = -static_cast<double>(i);
  }
  const PcaResult pca = pca_fit(data, 2);
  const auto projected_mean = pca.project(pca.mean);
  EXPECT_NEAR(projected_mean[0], 0.0, 1e-12);
  EXPECT_NEAR(projected_mean[1], 0.0, 1e-12);
}

TEST(PcaTest, SignConventionIsDeterministic) {
  Matrix data(20, 4);
  Xoshiro256 rng(10);
  for (double& v : data.flat()) v = rng.uniform();
  const PcaResult a = pca_fit(data, 2);
  const PcaResult b = pca_fit(data, 2);
  for (std::size_t i = 0; i < a.components.flat().size(); ++i) {
    EXPECT_EQ(a.components.flat()[i], b.components.flat()[i]);
  }
}

TEST(PcaTest, InvalidArgsThrow) {
  Matrix empty(0, 3);
  EXPECT_THROW((void)pca_fit(empty, 1), InvalidArgument);
  Matrix small(3, 2);
  EXPECT_THROW((void)pca_fit(small, 3), InvalidArgument);
  const PcaResult pca = pca_fit(Matrix(3, 2), 1);
  std::vector<double> wrong_dim = {1.0, 2.0, 3.0};
  EXPECT_THROW((void)pca.project(wrong_dim), InvalidArgument);
}

// ---- projection + terrain ---------------------------------------------------------

TEST(ProjectionTest, GathersAllCoordinatesOnRankZero) {
  ga::spmd_run(3, [](ga::Context& ctx) {
    Matrix sigs(4, 3);
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < 4; ++i) {
      sigs.at(i, 0) = static_cast<double>(ctx.rank());
      sigs.at(i, 1) = static_cast<double>(i);
      sigs.at(i, 2) = 1.0;
      ids.push_back(static_cast<std::uint64_t>(ctx.rank()) * 100 + i);
    }
    Matrix centroids(3, 3);
    Xoshiro256 rng(2);
    for (double& v : centroids.flat()) v = rng.uniform();
    const PcaResult pca = pca_fit(centroids, 2);
    const ProjectionResult r = project_documents(ctx, sigs, ids, pca);

    EXPECT_EQ(r.local_xy.size(), 8u);
    if (ctx.rank() == 0) {
      EXPECT_EQ(r.all_xy.size(), 24u);
      EXPECT_EQ(r.all_doc_ids.size(), 12u);
    } else {
      EXPECT_TRUE(r.all_xy.empty());
    }
  });
}

TEST(ProjectionTest, WriteCoordinatesRoundTrip) {
  const auto dir = sva::testing::unique_temp_path("proj");
  const auto path = (dir / "coords.csv").string();
  write_coordinates(path, {7, 8}, {1.0, 2.0, 3.0, 4.0});
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "doc_id,x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "7,1,2");
  std::filesystem::remove_all(dir);
}

TEST(ProjectionTest, WriteCoordinatesValidatesSizes) {
  EXPECT_THROW(write_coordinates("/tmp/x.csv", {1}, {1.0}), InvalidArgument);
}

TEST(TerrainTest, EmptyPointsYieldFlatTerrain) {
  const auto t = ThemeViewTerrain::from_points({}, 8);
  EXPECT_DOUBLE_EQ(t.peak(), 0.0);
}

TEST(TerrainTest, DenseRegionFormsMountain) {
  std::vector<double> xy;
  // 100 points at (0,0), 1 point at (10,10).
  for (int i = 0; i < 100; ++i) {
    xy.push_back(0.0);
    xy.push_back(0.0);
  }
  xy.push_back(10.0);
  xy.push_back(10.0);
  const auto t = ThemeViewTerrain::from_points(xy, 16, 1.0);
  // Peak must be much higher than the median cell.
  EXPECT_GT(t.peak(), 50.0);
}

TEST(TerrainTest, AsciiHasGridLines) {
  std::vector<double> xy = {0.0, 0.0, 1.0, 1.0, 0.5, 0.5};
  const auto t = ThemeViewTerrain::from_points(xy, 8);
  const std::string ascii = t.to_ascii();
  EXPECT_EQ(std::count(ascii.begin(), ascii.end(), '\n'), 8);
  EXPECT_NE(ascii.find('@'), std::string::npos);  // the peak cell
}

TEST(TerrainTest, GridTooSmallThrows) {
  EXPECT_THROW((void)ThemeViewTerrain::from_points({0.0, 0.0}, 2), InvalidArgument);
}

}  // namespace
}  // namespace sva::cluster
