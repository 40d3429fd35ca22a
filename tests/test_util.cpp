#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <set>
#include <string>
#include <vector>
#include <thread>

#include "util/flags.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace mclg {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.next() != b.next()) ++differing;
  }
  EXPECT_GT(differing, 30);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniformInt(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 11u);  // all values hit
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NormalRoughMoments) {
  Rng rng(7);
  double sum = 0.0, sumSq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sumSq += v * v;
  }
  const double mean = sum / n;
  const double var = sumSq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(8);
  const double weights[3] = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 4000; ++i) ++counts[rng.weightedIndex(weights, 3)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[2], 2 * counts[1]);
}

TEST(Table, FormatsAlignedColumns) {
  Table table({"name", "value"});
  table.addRow({"alpha", "1.5"});
  table.addRow({"b", "120.25"});
  const std::string s = table.toString();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("120.25"), std::string::npos);
  EXPECT_EQ(table.numRows(), 2);
}

TEST(Table, CsvEscapesSpecials) {
  Table table({"a", "b"});
  table.addRow({"x,y", "he said \"hi\""});
  const std::string csv = table.toCsv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(12345LL), "12345");
  EXPECT_EQ(Table::pct(0.123, 1), "12.3%");
}

TEST(Timer, StartsRunningAndAccumulates) {
  Timer timer;
  EXPECT_TRUE(timer.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double first = timer.seconds();
  EXPECT_GT(first, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(timer.seconds(), first);  // monotone while running
}

TEST(Timer, PauseExcludesIntervalAndResumeContinues) {
  Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  timer.pause();
  EXPECT_FALSE(timer.running());
  const double paused = timer.seconds();
  EXPECT_GT(paused, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Paused interval is excluded: reading twice gives the same total.
  EXPECT_DOUBLE_EQ(timer.seconds(), paused);
  timer.pause();  // idempotent
  EXPECT_DOUBLE_EQ(timer.seconds(), paused);

  timer.resume();
  EXPECT_TRUE(timer.running());
  timer.resume();  // idempotent
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(timer.seconds(), paused);
  EXPECT_LT(timer.seconds(), paused + 10.0);  // sanity upper bound

  timer.reset();
  EXPECT_TRUE(timer.running());
  EXPECT_LT(timer.seconds(), 1.0);
}

TEST(Timer, CpuSecondsTracksWorkNotSleep) {
  Timer timer;
  // Busy work accumulates CPU time...
  volatile double sink = 0.0;
  while (timer.cpuSeconds() < 0.01) {
    for (int i = 0; i < 10000; ++i) {
      sink = sink + static_cast<double>(i) * 1e-9;
    }
  }
  const double cpuAfterWork = timer.cpuSeconds();
  EXPECT_GE(cpuAfterWork, 0.01);
  // ...sleeping accumulates wall time but (almost) no CPU time.
  timer.pause();
  const double cpuPaused = timer.cpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_DOUBLE_EQ(timer.cpuSeconds(), cpuPaused);
  EXPECT_GT(Timer::threadCpuSeconds(), 0.0);
}

// Parses `args` (argv[0] is the tool) against a small flag table.
std::optional<Flags> parseFlags(std::vector<std::string> args) {
  static const FlagSpec kSpecs[] = {
      {"--on", FlagKind::Switch},
      {"--name", FlagKind::Text},
      {"--jobs", FlagKind::Integer, 0},
      {"--seconds", FlagKind::Number},
  };
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return Flags::parse("tool", kSpecs, static_cast<int>(argv.size()),
                      argv.data(), 1);
}

TEST(Flags, FirstValueWinsAndEveryValueIsKept) {
  const auto flags = parseFlags({"tool", "--name", "a", "--jobs", "3",
                                 "--name", "b", "--on", "--seconds", "0.5"});
  ASSERT_TRUE(flags.has_value());
  EXPECT_TRUE(flags->has("--on"));
  EXPECT_EQ(flags->text("--name"), "a");
  EXPECT_EQ(flags->values("--name"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(flags->integer("--jobs", 7), 3);
  EXPECT_DOUBLE_EQ(flags->number("--seconds", 1.0), 0.5);
  EXPECT_FALSE(flags->text("--missing").has_value());

  const auto none = parseFlags({"tool"});
  ASSERT_TRUE(none.has_value());
  EXPECT_FALSE(none->has("--on"));
  EXPECT_EQ(none->integer("--jobs", 7), 7);
  EXPECT_DOUBLE_EQ(none->number("--seconds", 1.5), 1.5);
}

TEST(Flags, RejectsWhatNoGetterCouldHonour) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"tool", "--nmae", "a"},       // unknown flag
           {"tool", "stray"},             // stray positional
           {"tool", "--name"},            // dangling value
           {"tool", "--jobs", "abc"},     // malformed integer
           {"tool", "--jobs", "2x"},      // trailing junk
           {"tool", "--jobs", "-1"},      // below the minimum
           {"tool", "--jobs", "3000000000"},  // beyond int
           {"tool", "--seconds", "ten"},  // malformed number
           {"tool", "--seconds", "-1"},   // negative number
           {"tool", "--seconds", "nan"},
       }) {
    EXPECT_FALSE(parseFlags(args).has_value()) << args[1];
  }
}

}  // namespace
}  // namespace mclg
