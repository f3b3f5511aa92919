// Per-test unique temp file paths.
//
// gtest_discover_tests runs every TEST as its own process, in parallel
// under `ctest -j`, so a fixed `::testing::TempDir() + "name"` is shared by
// every test that uses it: one test's truncating write can land under
// another test's live mmap.  unique_temp_path() puts the running test's
// suite, name and pid into the file name instead.
// scripts/check_test_temp_paths.py rejects the fixed form under tests/.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <string_view>

namespace bgpintent::test_support {

/// TempDir() + "<suite>.<test>.<pid>.<name>" ('/' of parameterized names
/// folded to '_').
inline std::string unique_temp_path(std::string_view name) {
  std::string stem;
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    stem = std::string(info->test_suite_name()) + "." + info->name() + ".";
    std::replace(stem.begin(), stem.end(), '/', '_');
  }
  return ::testing::TempDir() + stem + std::to_string(::getpid()) + "." +
         std::string(name);
}

}  // namespace bgpintent::test_support
