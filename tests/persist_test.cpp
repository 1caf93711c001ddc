// Tests for knowledge-signature persistence: round trips across
// processor counts, header validation, and corruption handling.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <vector>

#include "sva/sig/persist.hpp"
#include "temp_path.hpp"

namespace sva::sig {
namespace {

using sva::testing::test_temp_dir;

/// Builds a small deterministic SignatureSet on each rank.
SignatureSet make_set(ga::Context& ctx, std::size_t n_total, std::size_t dim) {
  const auto nprocs = static_cast<std::size_t>(ctx.nprocs());
  const std::size_t per = (n_total + nprocs - 1) / nprocs;
  const std::size_t begin = std::min(n_total, static_cast<std::size_t>(ctx.rank()) * per);
  const std::size_t end = std::min(n_total, begin + per);

  SignatureSet s;
  s.dimension = dim;
  s.docvecs = Matrix(end - begin, dim);
  for (std::size_t g = begin; g < end; ++g) {
    for (std::size_t d = 0; d < dim; ++d) {
      s.docvecs.at(g - begin, d) = static_cast<double>(g * 100 + d) * 0.25;
    }
    s.doc_ids.push_back(g);
    s.is_null.push_back(g % 7 == 3);
  }
  return s;
}

class PersistProcsTest : public ::testing::TestWithParam<int> {};

TEST_P(PersistProcsTest, RoundTripPreservesEverything) {
  const int nprocs = GetParam();
  const auto path = test_temp_dir() / "sigs.bin";
  const std::vector<std::string> names = {"alpha", "beta", "gamma", "delta"};

  ga::spmd_run(nprocs, [&](ga::Context& ctx) {
    const auto s = make_set(ctx, 23, 4);
    write_signatures(ctx, path.string(), s, names);
    ctx.barrier();
  });

  const PersistedSignatures store = read_signatures(path.string());
  EXPECT_EQ(store.topic_terms, names);
  EXPECT_EQ(store.size(), 23u);
  EXPECT_EQ(store.dimension(), 4u);
  // Rows are gathered rank-ordered, so global ids 0..22 in order.
  for (std::size_t g = 0; g < 23; ++g) {
    EXPECT_EQ(store.doc_ids[g], g);
    EXPECT_EQ(store.is_null[g], g % 7 == 3);
    for (std::size_t d = 0; d < 4; ++d) {
      EXPECT_DOUBLE_EQ(store.docvecs.at(g, d), static_cast<double>(g * 100 + d) * 0.25);
    }
  }
  std::filesystem::remove(path);
}

TEST_P(PersistProcsTest, FileIsIdenticalForEveryP) {
  const int nprocs = GetParam();
  const auto path_p = test_temp_dir() / "p.bin";
  const auto path_1 = test_temp_dir() / "1.bin";
  const std::vector<std::string> names = {"t0", "t1", "t2"};

  ga::spmd_run(1, [&](ga::Context& ctx) {
    write_signatures(ctx, path_1.string(), make_set(ctx, 17, 3), names);
  });
  ga::spmd_run(nprocs, [&](ga::Context& ctx) {
    write_signatures(ctx, path_p.string(), make_set(ctx, 17, 3), names);
    ctx.barrier();
  });

  std::ifstream a(path_1, std::ios::binary);
  std::ifstream b(path_p, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)), {});
  const std::string bytes_b((std::istreambuf_iterator<char>(b)), {});
  EXPECT_EQ(bytes_a, bytes_b) << "persisted artifact must be P-invariant";
  std::filesystem::remove(path_1);
  std::filesystem::remove(path_p);
}

INSTANTIATE_TEST_SUITE_P(Procs, PersistProcsTest, ::testing::Values(1, 2, 3, 4));

TEST(PersistTest, MissingFileThrows) {
  EXPECT_THROW((void)read_signatures("/nonexistent/dir/sigs.bin"), Error);
}

TEST(PersistTest, CorruptMagicThrows) {
  const auto path = test_temp_dir() / "corrupt.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTSIGSFILE_____garbage";
  }
  EXPECT_THROW((void)read_signatures(path.string()), Error);
  std::filesystem::remove(path);
}

TEST(PersistTest, TruncatedFileThrows) {
  const auto path = test_temp_dir() / "trunc.bin";
  ga::spmd_run(1, [&](ga::Context& ctx) {
    write_signatures(ctx, path.string(), make_set(ctx, 9, 3), {"a", "b", "c"});
  });
  // Chop the tail off.
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 2);
  EXPECT_THROW((void)read_signatures(path.string()), Error);
  std::filesystem::remove(path);
}

TEST(PersistTest, EmptySignatureSetRoundTrips) {
  const auto path = test_temp_dir() / "empty.bin";
  ga::spmd_run(1, [&](ga::Context& ctx) {
    SignatureSet s;
    s.dimension = 5;
    s.docvecs = Matrix(0, 5);
    write_signatures(ctx, path.string(), s, {"a", "b", "c", "d", "e"});
  });
  const auto store = read_signatures(path.string());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.dimension(), 5u);
  EXPECT_EQ(store.topic_terms.size(), 5u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace sva::sig
