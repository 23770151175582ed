// Copyright (c) the pdexplore authors.
// Strict count parsing for the bench harness flags: --trials=, PDX_TRIALS
// and bench_serve's --sessions= must reject trailing garbage and
// out-of-range text instead of reading a prefix.
#include <cstdlib>
#include <gtest/gtest.h>

#include "bench_common.h"

namespace pdx::bench {
namespace {

TEST(BenchArgsTest, ParsePositiveIntTakesWholeDecimalCounts) {
  EXPECT_EQ(ParsePositiveInt("1"), 1);
  EXPECT_EQ(ParsePositiveInt("12"), 12);
  EXPECT_EQ(ParsePositiveInt("2147483647"), 2147483647);
}

TEST(BenchArgsTest, ParsePositiveIntRejectsEverythingElse) {
  for (const char* bad : {"", "0", "-3", "+3", "12abc", "abc", " 12", "12 ",
                          "1.5", "2147483648", "99999999999999999999"}) {
    EXPECT_EQ(ParsePositiveInt(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(BenchArgsTest, BadTrialsFallBack) {
  ASSERT_EQ(unsetenv("PDX_TRIALS"), 0);
  char prog[] = "bench";
  char good[] = "--trials=12";
  char* ok_argv[] = {prog, good};
  EXPECT_EQ(TrialsFromArgs(2, ok_argv, 7), 12);
  char garbage[] = "--trials=12abc";
  char* garbage_argv[] = {prog, garbage};
  EXPECT_EQ(TrialsFromArgs(2, garbage_argv, 7), 7);
  char huge[] = "--trials=99999999999999999999";
  char* huge_argv[] = {prog, huge};
  EXPECT_EQ(TrialsFromArgs(2, huge_argv, 7), 7);

  ASSERT_EQ(setenv("PDX_TRIALS", "5x", 1), 0);
  EXPECT_EQ(TrialsFromArgs(1, ok_argv, 7), 7);
  ASSERT_EQ(setenv("PDX_TRIALS", "5", 1), 0);
  EXPECT_EQ(TrialsFromArgs(1, ok_argv, 7), 5);
  EXPECT_EQ(TrialsFromArgs(2, garbage_argv, 7), 5);
  ASSERT_EQ(unsetenv("PDX_TRIALS"), 0);
}

}  // namespace
}  // namespace pdx::bench
