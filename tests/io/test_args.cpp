#include "io/args.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace cobra::io {
namespace {

Args parse(std::vector<const char*> argv,
           const std::vector<std::string>& allowed = {}) {
  argv.insert(argv.begin(), "prog");
  return Args(static_cast<int>(argv.size()), argv.data(), allowed);
}

TEST(Args, EqualsSyntax) {
  const Args args = parse({"--n=128", "--rate=0.5"});
  EXPECT_EQ(args.get_int("n", 0), 128);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 0.5);
}

TEST(Args, SpaceSyntax) {
  const Args args = parse({"--n", "42", "--name", "grid"});
  EXPECT_EQ(args.get_int("n", 0), 42);
  EXPECT_EQ(args.get("name", ""), "grid");
}

TEST(Args, BareFlagIsTrue) {
  const Args args = parse({"--verbose"});
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_TRUE(args.has("verbose"));
}

TEST(Args, DefaultsWhenMissing) {
  const Args args = parse({});
  EXPECT_EQ(args.get_int("n", 7), 7);
  EXPECT_EQ(args.get("s", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(args.get_double("d", 1.5), 1.5);
  EXPECT_FALSE(args.get_bool("b", false));
  EXPECT_FALSE(args.has("n"));
}

TEST(Args, Positional) {
  const Args args = parse({"first", "--n=1", "second"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "first");
  EXPECT_EQ(args.positional()[1], "second");
}

TEST(Args, UnknownFlagRejectedWhenAllowlisted) {
  EXPECT_THROW(parse({"--typo=1"}, {"n", "seed"}), std::invalid_argument);
  EXPECT_NO_THROW(parse({"--n=1"}, {"n", "seed"}));
}

TEST(Args, BadIntegerThrows) {
  const Args args = parse({"--n=12x"});
  EXPECT_THROW((void)args.get_int("n", 0), std::invalid_argument);
}

TEST(Args, BadDoubleThrows) {
  const Args args = parse({"--d=1.5zz"});
  EXPECT_THROW((void)args.get_double("d", 0.0), std::invalid_argument);
}

TEST(Args, NegativeUintThrows) {
  const Args args = parse({"--n=-3"});
  EXPECT_THROW((void)args.get_uint("n", 0), std::invalid_argument);
  EXPECT_EQ(args.get_int("n", 0), -3);
}

TEST(Args, ExitOnBadValueExitsWithUsageInsteadOfThrowing) {
  Args args = parse({"--seed=abc", "--on=maybe"}, {"seed", "on"});
  EXPECT_THROW((void)args.get_uint("seed", 1), std::invalid_argument);
  args.exit_on_bad_value();
  EXPECT_EXIT((void)args.get_uint("seed", 1), ::testing::ExitedWithCode(1),
              "--seed is not an integer: abc\nflags: --seed --on");
  EXPECT_EXIT((void)args.get_bool("on", false), ::testing::ExitedWithCode(1),
              "--on is not a boolean: maybe");
  EXPECT_EQ(args.get_uint("missing", 5), 5u);
}

TEST(Args, BoolVariants) {
  EXPECT_TRUE(parse({"--f=yes"}).get_bool("f", false));
  EXPECT_TRUE(parse({"--f=1"}).get_bool("f", false));
  EXPECT_TRUE(parse({"--f=on"}).get_bool("f", false));
  EXPECT_FALSE(parse({"--f=no"}).get_bool("f", true));
  EXPECT_FALSE(parse({"--f=0"}).get_bool("f", true));
  EXPECT_THROW((void)parse({"--f=maybe"}).get_bool("f", false),
               std::invalid_argument);
}

TEST(Args, NegativeNumberAsValueAfterSpace) {
  // "--n -3": -3 does not start with --, so it is consumed as n's value.
  const Args args = parse({"--n", "-3"});
  EXPECT_EQ(args.get_int("n", 0), -3);
}

TEST(Args, LastOccurrenceWins) {
  const Args args = parse({"--n=1", "--n=2"});
  EXPECT_EQ(args.get_int("n", 0), 2);
}

}  // namespace
}  // namespace cobra::io
