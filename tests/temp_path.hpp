// Scratch paths for tests that touch the filesystem.  ctest runs every
// case as its own process, in parallel under -j, so a fixed name in the
// temp directory lets one case delete or rewrite another's file.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace sva::testing {

/// `<temp dir>/sva_<suite>.<test>_<pid>_<name>`: unique to the running
/// test and process, so parallel cases never share a file or directory.
inline std::filesystem::path unique_temp_path(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = std::string(info->test_suite_name()) + "." + info->name();
  std::replace(test.begin(), test.end(), '/', '_');
  return std::filesystem::path(::testing::TempDir()) /
         ("sva_" + test + "_" + std::to_string(::getpid()) + "_" + name);
}

}  // namespace sva::testing
