// The shared JSON writer (core/json.h) and whole-file writer (core/io.h):
// the escaping table, separators and layouts of nested containers, number
// formatting, and WriteFile's replace-and-report contract.
#include "core/json.h"

#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/io.h"
#include "core/status.h"

namespace tsaug::core {
namespace {

std::string Quoted(std::string_view text) {
  JsonWriter w;
  w.String(text);
  return w.str();
}

TEST(JsonWriter, EscapesQuoteBackslashAndEveryControlByte) {
  EXPECT_EQ(Quoted(""), "\"\"");
  EXPECT_EQ(Quoted("\""), "\"\\\"\"");
  EXPECT_EQ(Quoted("\\"), "\"\\\\\"");
  EXPECT_EQ(Quoted("a/b"), "\"a/b\"");
  static constexpr char kHex[] = "0123456789abcdef";
  for (int byte = 0; byte < 0x20; ++byte) {
    SCOPED_TRACE(byte);
    const std::string expected =
        std::string("\"x\\u00") + kHex[byte >> 4] + kHex[byte & 0xf] + "y\"";
    EXPECT_EQ(Quoted(std::string("x") + static_cast<char>(byte) + "y"),
              expected);
  }
  EXPECT_EQ(Quoted(std::string("\0", 1)), "\"\\u0000\"");
  EXPECT_EQ(Quoted("\x7f"), "\"\x7f\"");  // DEL is not a control escape
}

TEST(JsonWriter, MultiByteUtf8PassesThroughUnchanged) {
  const std::string utf8 = "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x93\x88";
  EXPECT_EQ(Quoted(utf8), "\"" + utf8 + "\"");
}

TEST(JsonWriter, CompactNestingPutsSeparatorsOnlyBetweenMembers) {
  JsonWriter w;
  w.BeginObject().Key("a").Int(1).Key("empty").BeginArray().EndArray();
  w.Key("list").BeginArray().Int(-2).BeginObject().EndObject();
  w.BeginArray().Bool(false).String("s").EndArray().EndArray();
  w.Key("o").BeginObject().Key("k\"").Uint(18446744073709551615u);
  w.EndObject().EndObject();
  EXPECT_EQ(w.str(),
            "{\"a\":1,\"empty\":[],\"list\":[-2,{},[false,\"s\"]],"
            "\"o\":{\"k\\\"\":18446744073709551615}}");
}

TEST(JsonWriter, SpacedLayoutBreaksOnlyContainersAboveTheBreakDepth) {
  JsonWriter w({/*spaced=*/true, /*break_depth=*/2});
  w.BeginObject().Key("schema").Int(1).Key("rows").BeginArray();
  w.BeginObject().Key("x").Int(1).Key("y").Double(2.25, 1).EndObject();
  w.BeginObject().Key("x").Int(3).Key("y").Double(0.5, 0).EndObject();
  w.EndArray().Key("none").BeginArray().EndArray().EndObject();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"schema\": 1,\n"
            "  \"rows\": [\n"
            "    {\"x\": 1, \"y\": 2.2},\n"
            "    {\"x\": 3, \"y\": 0}\n"
            "  ],\n"
            "  \"none\": []\n"
            "}");
}

TEST(JsonWriter, DoublesUseTheCallersPrecisionAndNonFiniteIsNull) {
  JsonWriter w;
  w.BeginArray().Double(1.0 / 3.0, 3).Double(12345.678, 1).Double(-0.0, 2);
  w.Double(1e15, 0).Double(std::numeric_limits<double>::quiet_NaN(), 1);
  w.Double(-std::numeric_limits<double>::infinity(), 1).EndArray();
  EXPECT_EQ(w.str(), "[0.333,12345.7,-0.00,1000000000000000,null,null]");
}

TEST(WriteFile, ReplacesTheWholeFileAndReportsFailure) {
  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "write_file.txt").string();
  ASSERT_TRUE(WriteFile(path, "a much longer first version\n").ok());
  ASSERT_TRUE(WriteFile(path, std::string("b\0c", 3)).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(content, std::string("b\0c", 3));

  const Status missing_dir = WriteFile(
      (std::filesystem::path(testing::TempDir()) / "no_such_dir" / "f")
          .string(),
      "x");
  EXPECT_EQ(missing_dir.code(), StatusCode::kUnavailable);
  EXPECT_NE(missing_dir.context().find("no_such_dir"), std::string::npos);
  const Status full = WriteFile("/dev/full", "x");
  EXPECT_EQ(full.code(), StatusCode::kUnavailable) << full.ToString();
}

}  // namespace
}  // namespace tsaug::core
