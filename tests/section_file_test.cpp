// Tests for the SectionedFile write path's durability/atomicity
// contract: temp-then-rename publication, PID-suffixed temp files so
// concurrent writers to one path never clobber each other, cleanup of
// the temp on a failed write, and corruption rejection on read.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "sva/engine/section_file.hpp"
#include "sva/util/error.hpp"
#include "temp_path.hpp"

namespace sva::engine {
namespace {

constexpr char kMagic[8] = {'T', 'E', 'S', 'T', 'S', 'E', 'C', '1'};
constexpr std::uint64_t kVersion = 1;

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = sva::testing::test_temp_dir() / name;
  std::filesystem::create_directories(dir);
  return dir;
}

/// A file whose single section is `writer` repeated — each writer's
/// output is distinguishable and internally consistent.
SectionedFile make_variant(std::uint64_t writer) {
  SectionedFile f;
  f.tag = writer;
  f.fingerprint = 0xF00D + writer;
  std::vector<std::uint8_t> payload(1024, static_cast<std::uint8_t>(writer));
  f.add("payload", std::move(payload));
  return f;
}

TEST(SectionFileTest, WriteReadRoundTrip) {
  const auto dir = fresh_dir("roundtrip");
  const auto path = dir / "artifact.bin";
  make_variant(7).write(path, kMagic, kVersion);

  const auto loaded = SectionedFile::read(path, kMagic, kVersion, "test");
  EXPECT_EQ(loaded.tag, 7u);
  EXPECT_EQ(loaded.fingerprint, 0xF00Du + 7u);
  ASSERT_TRUE(loaded.has("payload"));
  EXPECT_EQ(loaded.section("payload").size(), 1024u);
  EXPECT_EQ(loaded.section("payload")[0], 7u);
}

TEST(SectionFileTest, WriteLeavesNoTempBehind) {
  const auto dir = fresh_dir("notemp");
  const auto path = dir / "artifact.bin";
  make_variant(1).write(path, kMagic, kVersion);
  make_variant(2).write(path, kMagic, kVersion);  // overwrite is fine

  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(e.path().filename(), "artifact.bin")
        << "stray file left behind: " << e.path();
  }
  EXPECT_EQ(entries, 1u);
}

TEST(SectionFileTest, ConcurrentWritersToOnePathNeverTearTheFile) {
  const auto dir = fresh_dir("concurrent");
  const auto path = dir / "artifact.bin";

  // Several threads publish different variants to the SAME final path.
  // The PID/temp discipline must guarantee the final file is always one
  // complete variant — never an interleaving — and every rename wins or
  // loses atomically.  (Same-PID writers stress the rename ordering; the
  // PID suffix itself guards cross-process writers, e.g. two daemons.)
  constexpr int kWriters = 4;
  constexpr int kRounds = 12;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        make_variant(static_cast<std::uint64_t>(w)).write(path, kMagic, kVersion);
        // Interleave with readers: whatever is under the final name must
        // always parse as a complete artifact.
        const auto snap = SectionedFile::read(path, kMagic, kVersion, "test");
        const auto& payload = snap.section("payload");
        ASSERT_EQ(payload.size(), 1024u);
        for (const auto b : payload) {
          ASSERT_EQ(b, payload[0]) << "torn payload: mixed writers in one file";
        }
        ASSERT_EQ(snap.tag, payload[0]);
      }
    });
  }
  for (auto& t : writers) t.join();

  // Settled state: one coherent variant, no temp debris.
  const auto last = SectionedFile::read(path, kMagic, kVersion, "test");
  EXPECT_LT(last.tag, static_cast<std::uint64_t>(kWriters));
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(e.path().filename(), "artifact.bin") << "temp debris: " << e.path();
  }
  EXPECT_EQ(entries, 1u);
}

TEST(SectionFileTest, FailedWriteThrowsAndLeavesNothing) {
  const auto dir = fresh_dir("fail");
  // The "parent directory" is actually a file: creating the temp fails.
  const auto blocker = dir / "blocker";
  {
    std::ofstream out(blocker);
    out << "x";
  }
  const auto path = blocker / "artifact.bin";  // blocker is not a directory
  EXPECT_THROW(make_variant(1).write(path, kMagic, kVersion), Error);

  // Nothing new appeared next to the blocker.
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(e.path().filename(), "blocker");
  }
  EXPECT_EQ(entries, 1u);
}

TEST(SectionFileTest, RejectsCorruptedBytes) {
  const auto dir = fresh_dir("corrupt");
  const auto path = dir / "artifact.bin";
  make_variant(3).write(path, kMagic, kVersion);

  auto bytes = SectionedFile::read_file_bytes(path, "test");
  bytes[bytes.size() / 2] ^= 0x40;  // flip one bit mid-payload
  EXPECT_THROW(SectionedFile::parse(bytes, kMagic, kVersion, "test"), FormatError);

  bytes = SectionedFile::read_file_bytes(path, "test");
  bytes.resize(bytes.size() - 1);  // truncate
  EXPECT_THROW(SectionedFile::parse(bytes, kMagic, kVersion, "test"), FormatError);
}

}  // namespace
}  // namespace sva::engine
