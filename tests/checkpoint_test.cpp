// Checkpoint/resume: a run killed after any stage resumes to a
// byte-identical EngineResult (even at a different processor count), and
// a corrupted checkpoint — truncated or bit-flipped anywhere — raises
// FormatError rather than loading garbage.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sva/corpus/generator.hpp"
#include "sva/corpus/reader.hpp"
#include "sva/engine/checkpoint.hpp"
#include "sva/engine/digest.hpp"
#include "sva/engine/engine.hpp"
#include "sva/engine/pipeline.hpp"
#include "sva/util/error.hpp"
#include "temp_path.hpp"

namespace sva::engine {
namespace {

corpus::CorpusSpec tiny_spec() {
  corpus::CorpusSpec spec;
  spec.kind = corpus::CorpusKind::kPubMedLike;
  spec.seed = 777;
  spec.target_bytes = 64 << 10;
  spec.core_vocabulary = 900;
  spec.num_themes = 4;
  spec.theme_vocabulary = 60;
  spec.theme_token_fraction = 0.3;
  return spec;
}

EngineConfig tiny_config() {
  EngineConfig config;
  config.topicality.num_major_terms = 120;
  config.kmeans.k = 4;
  return config;
}

/// A new, empty `<base>/<name>`; `base` defaults to the running test's
/// own directory.
std::filesystem::path fresh_dir(
    const std::string& name,
    const std::filesystem::path& base = sva::testing::test_temp_dir()) {
  const auto dir = base / name;
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<std::uint8_t> slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  in.seekg(0, std::ios::end);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void spew(const std::filesystem::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

struct Fixture {
  corpus::CorpusSpec spec = tiny_spec();
  corpus::GeneratedReader reader{spec};
  EngineConfig config = tiny_config();
  std::uint64_t baseline = 0;

  Fixture() {
    const auto sources = corpus::generate_corpus(spec);
    baseline = result_checksum(run_pipeline(1, ga::CommModel{}, sources, config).result);
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

std::uint64_t resume_checksum(const std::filesystem::path& dir, int nprocs,
                              const EngineConfig& config) {
  Engine engine(config);
  std::uint64_t checksum = 0;
  ga::spmd_run(nprocs, [&](ga::Context& ctx) {
    const EngineResult result = engine.resume(ctx, dir);
    if (ctx.rank() == 0) checksum = result_checksum(result);
  });
  return checksum;
}

// ---- kill-and-resume ---------------------------------------------------

class StopStageTest : public ::testing::TestWithParam<Stage> {};

TEST_P(StopStageTest, KilledRunResumesToIdenticalChecksum) {
  const Fixture& f = fixture();
  const auto dir = fresh_dir(std::string("stop_") + stage_name(GetParam()));

  Engine engine(f.config);
  PipelineOptions options;
  options.sharding.num_shards = 2;
  options.checkpoint_dir = dir;
  options.stop_after = GetParam();
  ga::spmd_run(2, [&](ga::Context& ctx) {
    const auto result = engine.run(ctx, f.reader, options);
    EXPECT_FALSE(result.has_value());  // the simulated kill
  });
  ASSERT_EQ(last_completed_stage(dir), GetParam());

  EXPECT_EQ(resume_checksum(dir, 2, f.config), f.baseline);
  // The resume filled in the remaining stage files.
  EXPECT_EQ(last_completed_stage(dir), Stage::kFinal);
}

INSTANTIATE_TEST_SUITE_P(Stages, StopStageTest,
                         ::testing::Values(Stage::kIngest, Stage::kSignatures,
                                           Stage::kCluster),
                         [](const auto& info) { return stage_name(info.param); });

TEST(CheckpointTest, ResumeAtDifferentProcessorCountMatches) {
  // Every restore path reslices its gathered state by the stored
  // per-record byte sizes, so each stop point must survive a resume at a
  // different processor count than the one that wrote the checkpoint.
  const Fixture& f = fixture();
  for (const Stage stop : {Stage::kIngest, Stage::kSignatures, Stage::kCluster}) {
    const auto dir = fresh_dir(std::string("procs_") + stage_name(stop));
    Engine engine(f.config);
    PipelineOptions options;
    options.sharding.num_shards = 3;
    options.checkpoint_dir = dir;
    options.stop_after = stop;
    ga::spmd_run(4, [&](ga::Context& ctx) { (void)engine.run(ctx, f.reader, options); });

    EXPECT_EQ(resume_checksum(dir, 3, f.config), f.baseline)
        << "diverged resuming after " << stage_name(stop) << " at a different P";
  }
}

TEST(CheckpointTest, ResumeFromCompletedRunReloadsWithoutRecompute) {
  const Fixture& f = fixture();
  const auto dir = fresh_dir("final");
  Engine engine(f.config);
  PipelineOptions options;
  options.checkpoint_dir = dir;
  std::uint64_t direct = 0;
  ga::spmd_run(2, [&](ga::Context& ctx) {
    const auto result = engine.run(ctx, f.reader, options);
    ASSERT_TRUE(result.has_value());
    if (ctx.rank() == 0) direct = result_checksum(*result);
  });
  EXPECT_EQ(direct, f.baseline);
  EXPECT_EQ(last_completed_stage(dir), Stage::kFinal);
  // Full-restore path, including at a different processor count than the
  // run that wrote the checkpoints.
  EXPECT_EQ(resume_checksum(dir, 2, f.config), f.baseline);
  EXPECT_EQ(resume_checksum(dir, 3, f.config), f.baseline);
}

TEST(CheckpointTest, ResumeRefusesDifferentConfiguration) {
  const Fixture& f = fixture();
  const auto dir = fresh_dir("config");
  Engine engine(f.config);
  PipelineOptions options;
  options.checkpoint_dir = dir;
  options.stop_after = Stage::kIngest;
  ga::spmd_run(2, [&](ga::Context& ctx) { (void)engine.run(ctx, f.reader, options); });

  EngineConfig other = f.config;
  other.kmeans.k += 1;
  EXPECT_NE(Engine::config_fingerprint(other), Engine::config_fingerprint(f.config));
  Engine wrong(other);
  EXPECT_THROW(ga::spmd_run(2, [&](ga::Context& ctx) { (void)wrong.resume(ctx, dir); }),
               InvalidArgument);
}

TEST(CheckpointTest, ResumeWithoutCheckpointRefused) {
  const auto dir = fresh_dir("empty");
  Engine engine(fixture().config);
  EXPECT_THROW(ga::spmd_run(1, [&](ga::Context& ctx) { (void)engine.resume(ctx, dir); }),
               InvalidArgument);
}

// ---- corruption fuzzing ------------------------------------------------

class CheckpointFuzz : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::filesystem::path(fresh_dir("fuzz", sva::testing::program_temp_dir()));
    const Fixture& f = fixture();
    Engine engine(f.config);
    PipelineOptions options;
    options.sharding.num_shards = 2;
    options.checkpoint_dir = *dir_;
    ga::spmd_run(2, [&](ga::Context& ctx) { (void)engine.run(ctx, f.reader, options); });
  }
  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }
  static std::filesystem::path* dir_;
};

std::filesystem::path* CheckpointFuzz::dir_ = nullptr;

TEST_F(CheckpointFuzz, EveryStageFileRoundTrips) {
  for (int s = 0; s < 4; ++s) {
    const auto stage = static_cast<Stage>(s);
    const CheckpointFile file = CheckpointFile::read(stage_path(*dir_, stage));
    EXPECT_EQ(file.stage, stage);
  }
}

TEST_F(CheckpointFuzz, TruncationAlwaysRaisesFormatError) {
  for (int s = 0; s < 4; ++s) {
    const auto bytes = slurp(stage_path(*dir_, static_cast<Stage>(s)));
    ASSERT_GT(bytes.size(), 16u);
    const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 97);
    for (std::size_t len = 0; len < bytes.size(); len += stride) {
      std::vector<std::uint8_t> cut(bytes.begin(),
                                    bytes.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_THROW((void)CheckpointFile::parse(cut), FormatError)
          << "stage " << s << " truncated to " << len << " bytes parsed";
    }
    // One byte short of valid.
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.end() - 1);
    EXPECT_THROW((void)CheckpointFile::parse(cut), FormatError);
  }
}

TEST_F(CheckpointFuzz, BitFlipsAlwaysRaiseFormatError) {
  for (int s = 0; s < 4; ++s) {
    auto bytes = slurp(stage_path(*dir_, static_cast<Stage>(s)));
    const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 211);
    for (std::size_t pos = 0; pos < bytes.size(); pos += stride) {
      const std::uint8_t mask = static_cast<std::uint8_t>(1u << (pos % 8));
      bytes[pos] ^= mask;
      EXPECT_THROW((void)CheckpointFile::parse(bytes), FormatError)
          << "stage " << s << " flip at byte " << pos << " parsed";
      bytes[pos] ^= mask;  // restore
    }
  }
}

TEST_F(CheckpointFuzz, CorruptTailFileEndsTheCompletedChain) {
  // Copy the checkpoint dir, then corrupt final.svack: the chain must
  // stop at kCluster and resume must still reproduce the baseline.
  const Fixture& f = fixture();
  const auto dir = fresh_dir("fuzz_tail");
  for (int s = 0; s < 4; ++s) {
    const auto stage = static_cast<Stage>(s);
    std::filesystem::copy_file(stage_path(*dir_, stage), stage_path(dir, stage),
                               std::filesystem::copy_options::overwrite_existing);
  }
  auto bytes = slurp(stage_path(dir, Stage::kFinal));
  bytes[bytes.size() / 2] ^= 0x10;
  spew(stage_path(dir, Stage::kFinal), bytes);

  EXPECT_EQ(last_completed_stage(dir), Stage::kCluster);
  EXPECT_EQ(resume_checksum(dir, 2, f.config), f.baseline);
}

TEST_F(CheckpointFuzz, EmptyAndGarbageFilesRaiseFormatError) {
  EXPECT_THROW((void)CheckpointFile::parse({}), FormatError);
  const std::vector<std::uint8_t> garbage(64, 0xAB);
  EXPECT_THROW((void)CheckpointFile::parse(garbage), FormatError);
}

}  // namespace
}  // namespace sva::engine
