#include "common/cli.h"

#include <gtest/gtest.h>

namespace spinner {
namespace {

CommandLine Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  CommandLine cli;
  EXPECT_TRUE(
      cli.Parse(static_cast<int>(args.size()), args.data()).ok());
  return cli;
}

TEST(CommandLineTest, EqualsForm) {
  auto cli = Parse({"--k=32", "--c=1.05", "--name=twitter"});
  EXPECT_EQ(cli.GetInt("k", 0), 32);
  EXPECT_DOUBLE_EQ(cli.GetDouble("c", 0), 1.05);
  EXPECT_EQ(cli.GetString("name", ""), "twitter");
}

TEST(CommandLineTest, SpaceForm) {
  auto cli = Parse({"--k", "8", "--name", "lj"});
  EXPECT_EQ(cli.GetInt("k", 0), 8);
  EXPECT_EQ(cli.GetString("name", ""), "lj");
}

TEST(CommandLineTest, BareBooleanFlag) {
  auto cli = Parse({"--verbose", "--k=2"});
  EXPECT_TRUE(cli.GetBool("verbose", false));
  EXPECT_FALSE(cli.GetBool("quiet", false));
  EXPECT_TRUE(cli.GetBool("quiet", true));
}

TEST(CommandLineTest, DefaultsWhenAbsent) {
  auto cli = Parse({});
  EXPECT_EQ(cli.GetInt("k", 64), 64);
  EXPECT_DOUBLE_EQ(cli.GetDouble("c", 1.05), 1.05);
  EXPECT_EQ(cli.GetString("s", "d"), "d");
  EXPECT_FALSE(cli.Has("k"));
}

TEST(CommandLineTest, HasDetectsPresence) {
  auto cli = Parse({"--x=1", "-h", "--w", "2", "--v"});
  EXPECT_TRUE(cli.Has("x"));
  EXPECT_FALSE(cli.Has("y"));
  EXPECT_EQ(cli.FlagNames(), (std::vector<std::string>{"v", "w", "x"}));
  EXPECT_EQ(cli.Positional(), std::vector<std::string>{"-h"});
}

TEST(CommandLineTest, BoolValueSpellings) {
  auto cli = Parse({"--a=true", "--b=1", "--c=yes", "--d=false", "--e=0"});
  EXPECT_TRUE(cli.GetBool("a", false));
  EXPECT_TRUE(cli.GetBool("b", false));
  EXPECT_TRUE(cli.GetBool("c", false));
  EXPECT_FALSE(cli.GetBool("d", true));
  EXPECT_FALSE(cli.GetBool("e", true));
}

TEST(CommandLineTest, EmptyFlagNameIsError) {
  const char* argv[] = {"prog", "--"};
  CommandLine cli;
  EXPECT_FALSE(cli.Parse(2, argv).ok());
}

TEST(CommandLineTest, LaterValueWins) {
  auto cli = Parse({"--k=1", "--k=2"});
  EXPECT_EQ(cli.GetInt("k", 0), 2);
}

}  // namespace
}  // namespace spinner
