#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace speedbal {
namespace {

Cli make_cli(std::vector<const char*> args,
             std::vector<std::string> known = {}) {
  args.insert(args.begin(), "prog");
  return Cli(static_cast<int>(args.size()), args.data(), std::move(known));
}

TEST(Cli, ParsesKeyValueFlags) {
  const auto cli = make_cli({"--topo=tigerton", "--cores=8"});
  EXPECT_EQ(cli.get("topo"), "tigerton");
  EXPECT_EQ(cli.get_int("cores", 0), 8);
}

TEST(Cli, BareFlagIsTrue) {
  const auto cli = make_cli({"--verbose"});
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(Cli, DefaultsWhenMissing) {
  const auto cli = make_cli({});
  EXPECT_FALSE(cli.has("x"));
  EXPECT_EQ(cli.get("x", "def"), "def");
  EXPECT_EQ(cli.get_int("x", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0.5), 0.5);
  EXPECT_TRUE(cli.get_bool("x", true));
}

TEST(Cli, DoubleParsing) {
  const auto cli = make_cli({"--threshold=0.9"});
  EXPECT_DOUBLE_EQ(cli.get_double("threshold", 0.0), 0.9);
}

/// The message of the std::invalid_argument `f` throws, or "" if none.
template <typename F>
std::string error_of(F f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, IntRejectsTrailingGarbage) {
  const auto cli = make_cli({"--seed=12abc"});
  EXPECT_EQ(error_of([&] { cli.get_int("seed", 0); }),
            "--seed: '12abc' is not a whole number");
}

TEST(Cli, IntRejectsNonNumbersEmptyAndFractions) {
  EXPECT_NE(error_of([] { make_cli({"--seed=abc"}).get_int("seed", 0); }), "");
  EXPECT_NE(error_of([] { make_cli({"--seed="}).get_int("seed", 0); }), "");
  EXPECT_NE(error_of([] { make_cli({"--seed=1.5"}).get_int("seed", 0); }), "");
  EXPECT_NE(error_of([] {
              make_cli({"--seed=99999999999999999999"}).get_int("seed", 0);
            }),
            "");
  EXPECT_EQ(make_cli({"--seed=-3"}).get_int("seed", 0), -3);
}

TEST(Cli, BareFlagIsNotANumber) {
  const auto cli = make_cli({"--rebalance-cooldown", "--threshold"});
  EXPECT_EQ(error_of([&] { cli.get_int("rebalance-cooldown", 2); }),
            "--rebalance-cooldown needs a whole number: "
            "--rebalance-cooldown=<value>");
  EXPECT_EQ(error_of([&] { cli.get_double("threshold", 0.9); }),
            "--threshold needs a number: --threshold=<value>");
}

TEST(Cli, DoubleRejectsTrailingGarbage) {
  EXPECT_EQ(error_of([] { make_cli({"--threshold=0.9x"}).get_double("threshold", 0); }),
            "--threshold: '0.9x' is not a number");
  EXPECT_DOUBLE_EQ(make_cli({"--threshold=1e-3"}).get_double("threshold", 0),
                   1e-3);
}

TEST(Cli, BareBoolIsOnAndZeroIsOff) {
  EXPECT_TRUE(make_cli({"--rebalance"}).get_bool("rebalance", false));
  EXPECT_FALSE(make_cli({"--rebalance=0"}).get_bool("rebalance", true));
}

TEST(Cli, BoolParsesCommonForms) {
  EXPECT_TRUE(make_cli({"--a=true"}).get_bool("a"));
  EXPECT_TRUE(make_cli({"--a=1"}).get_bool("a"));
  EXPECT_TRUE(make_cli({"--a=yes"}).get_bool("a"));
  EXPECT_FALSE(make_cli({"--a=no"}).get_bool("a", true));
}

TEST(Cli, PositionalArguments) {
  const auto cli = make_cli({"--flag", "file1", "file2"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "file1");
  EXPECT_EQ(cli.positional()[1], "file2");
}

TEST(Cli, UnknownFlagsDetected) {
  const auto cli = make_cli({"--good=1", "--typo=2"}, {"good"});
  const auto unknown = cli.unknown();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(Cli, EmptyKnownSetAcceptsEverything) {
  const auto cli = make_cli({"--whatever=1"});
  EXPECT_TRUE(cli.unknown().empty());
}

}  // namespace
}  // namespace speedbal
