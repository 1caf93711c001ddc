// Scratch paths for tests that touch the filesystem.  ctest runs every
// case as its own process, in parallel under -j, so a fixed name in the
// temp directory lets one case delete or rewrite another's file.  Every
// path handed out here lives in a directory that is removed, with all it
// holds, when its owner ends: the running test, or the test program.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace sva::testing {

namespace detail {

/// `<temp dir>/sva_<pid>_<role>`.  Short on purpose: Unix socket paths
/// made under it must fit sun_path's 108 bytes even under a long TMPDIR.
inline std::filesystem::path temp_root(const char* role) {
  return std::filesystem::path(::testing::TempDir()) /
         ("sva_" + std::to_string(::getpid()) + "_" + role);
}

/// Removes the test directory when each test ends (a process runs its
/// tests one at a time, so the next test reuses the name) and the
/// program directory when the program ends.
class TempDirJanitor : public ::testing::EmptyTestEventListener {
  void OnTestEnd(const ::testing::TestInfo&) override {
    std::error_code ec;
    std::filesystem::remove_all(temp_root("test"), ec);
  }
  void OnTestProgramEnd(const ::testing::UnitTest&) override {
    std::error_code ec;
    std::filesystem::remove_all(temp_root("program"), ec);
  }
};

inline std::filesystem::path created(const char* role) {
  static const bool installed = [] {
    ::testing::UnitTest::GetInstance()->listeners().Append(new TempDirJanitor);
    return true;
  }();
  (void)installed;
  const auto dir = temp_root(role);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace detail

/// `<temp dir>/sva_<pid>_test`: the running test's own directory, created
/// on first use and removed, with all it holds, when the test ends.
inline std::filesystem::path test_temp_dir() { return detail::created("test"); }

/// `<temp dir>/sva_<pid>_program`: for files several tests of one process
/// share (a fixture built once, a suite's SetUpTestSuite), removed when
/// the test program ends.
inline std::filesystem::path program_temp_dir() { return detail::created("program"); }

}  // namespace sva::testing
