// Whole-token number parsing and the table-driven flag parser
// (core/flags.h) shared by the TSAUG_* settings and every tool's command
// line.
#include "core/flags.h"

#include <climits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace tsaug::core {
namespace {

TEST(ParseInt, AcceptsOnlyWholeTokensInRange) {
  int value = -7;
  EXPECT_TRUE(ParseInt("42", 0, INT_MAX, &value));
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(ParseInt("-3", -5, 5, &value));
  EXPECT_EQ(value, -3);
  EXPECT_TRUE(ParseInt("2147483647", 0, INT_MAX, &value));
  EXPECT_EQ(value, INT_MAX);
  for (const char* bad : {"", "abc", "2x", "x2", " 5", "5 ", "1.5", "-",
                          "2147483648", "99999999999999999999"}) {
    SCOPED_TRACE(bad);
    value = -7;
    EXPECT_FALSE(ParseInt(bad, INT_MIN, INT_MAX, &value));
    EXPECT_EQ(value, -7);  // untouched on rejection
  }
  EXPECT_FALSE(ParseInt(nullptr, 0, INT_MAX, &value));
  EXPECT_FALSE(ParseInt("0", 1, INT_MAX, &value));
  EXPECT_FALSE(ParseInt("65536", 0, 65535, &value));
}

TEST(ParseDouble, AcceptsFiniteWholeTokensInRange) {
  double value = -1.0;
  EXPECT_TRUE(ParseDouble("2.5", 0.0, 10.0, &value));
  EXPECT_EQ(value, 2.5);
  EXPECT_TRUE(ParseDouble("1e3", 0.0, 1e6, &value));
  EXPECT_EQ(value, 1000.0);
  for (const char* bad : {"", "soon", "2ms", " 1", "inf", "nan", "-0.5",
                          "1e400", "11"}) {
    SCOPED_TRACE(bad);
    value = -1.0;
    EXPECT_FALSE(ParseDouble(bad, 0.0, 10.0, &value));
    EXPECT_EQ(value, -1.0);
  }
}

TEST(ParseFlags, AppliesKnownFlagsAndNamesTheFirstBadOne) {
  int port = 0;
  double linger = 0.0;
  std::string path;
  bool list = false;
  const std::vector<Flag> flags = {
      IntFlag("--port", 0, 65535, &port),
      DoubleFlag("--linger-ms", 0.0, 1e6, &linger),
      StringFlag("--out", &path), SwitchFlag("--list", &list)};
  auto parse = [&](std::vector<const char*> args) {
    args.insert(args.begin(), "tool");
    return ParseFlags(static_cast<int>(args.size()),
                      const_cast<char**>(args.data()), flags);
  };
  ASSERT_TRUE(
      parse({"--port", "8080", "--list", "--out", "r.txt", "--linger-ms", "2"})
          .ok());
  EXPECT_EQ(port, 8080);
  EXPECT_EQ(linger, 2.0);
  EXPECT_EQ(path, "r.txt");
  EXPECT_TRUE(list);
  EXPECT_TRUE(parse({}).ok());

  // The `--name=VALUE` form, an empty value included.
  ASSERT_TRUE(parse({"--port=9090", "--out=", "--linger-ms=0.5"}).ok());
  EXPECT_EQ(port, 9090);
  EXPECT_EQ(path, "");
  EXPECT_EQ(linger, 0.5);
  ASSERT_TRUE(parse({"--out=a=b"}).ok());
  EXPECT_EQ(path, "a=b");

  struct Case {
    std::vector<const char*> args;
    const char* message;
  };
  const Case cases[] = {
      {{"--bogus", "1"}, "unknown flag --bogus"},
      {{"--port"}, "missing value for --port"},
      {{"--out", "r.txt", "--port"}, "missing value for --port"},
      {{"--port", "abc"}, "bad value 'abc' for --port"},
      {{"--port", "5x"}, "bad value '5x' for --port"},
      {{"--port", "70000"}, "bad value '70000' for --port"},
      {{"--linger-ms", "-1"}, "bad value '-1' for --linger-ms"},
      {{"8080"}, "unknown flag 8080"},
      {{"--port=abc"}, "bad value 'abc' for --port"},
      {{"--port="}, "bad value '' for --port"},
      {{"--linger-ms=-1"}, "bad value '-1' for --linger-ms"},
      {{"--bogus=1"}, "unknown flag --bogus"},
      {{"--list=1"}, "--list takes no value"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.message);
    const Status status = parse(c.args);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.context(), c.message);
  }
}

}  // namespace
}  // namespace tsaug::core
