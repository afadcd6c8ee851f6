// Robustness tests for the cell journal (eval/journal.h): bitwise score
// round-trips (including NaN payloads from failed cells), torn/corrupt
// trailing lines dropped with a warning, duplicate records resolving to
// the last writer, and fingerprint mismatches rejected with a clear
// Status instead of silently mixing experiments.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/status.h"
#include "eval/journal.h"

namespace tsaug::eval {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::path(testing::TempDir()) / name).string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

JournalCell MakeCell(const std::string& dataset, int run, int cell,
                     const std::string& name, double score, int retries = 0,
                     core::Status status = core::OkStatus()) {
  JournalCell record;
  record.dataset = dataset;
  record.run = run;
  record.cell = cell;
  record.name = name;
  record.score = score;
  record.retries = retries;
  record.status = std::move(status);
  return record;
}

TEST(Crc32, MatchesTheIeeeCheckVector) {
  // The canonical CRC-32 test vector ("check" value in every table).
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
}

TEST(Journal, RoundTripsCellsBitwiseIncludingNanScores) {
  const std::string path = TempPath("journal_roundtrip.jsonl");
  std::filesystem::remove(path);

  const double exact = 0.8571428571428571;  // not representable in short text
  const double nan_score = std::nan("");
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(path, "fp=roundtrip").ok());
    EXPECT_EQ(journal.loaded_cells(), 0);
    ASSERT_TRUE(journal.Append(MakeCell("toy", 0, 0, "baseline", exact)).ok());
    ASSERT_TRUE(journal
                    .Append(MakeCell(
                        "toy", 0, 1, "smote", nan_score, 2,
                        core::DivergedError("trainer: loss diverged")))
                    .ok());
    // Cells appended by this process are computed, not resumed: invisible.
    EXPECT_EQ(journal.Find("toy", 0, 0), nullptr);
  }

  Journal resumed;
  ASSERT_TRUE(resumed.Open(path, "fp=roundtrip").ok());
  EXPECT_EQ(resumed.loaded_cells(), 2);
  EXPECT_EQ(resumed.dropped_lines(), 0);

  const JournalCell* baseline = resumed.Find("toy", 0, 0);
  ASSERT_NE(baseline, nullptr);
  EXPECT_EQ(baseline->name, "baseline");
  EXPECT_EQ(Bits(baseline->score), Bits(exact));  // bit-identical, not just ==
  EXPECT_TRUE(baseline->status.ok());

  const JournalCell* failed = resumed.Find("toy", 0, 1);
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(Bits(failed->score), Bits(nan_score));
  EXPECT_EQ(failed->retries, 2);
  EXPECT_EQ(failed->status.code(), core::StatusCode::kDiverged);
  EXPECT_EQ(failed->status.context(), "trainer: loss diverged");

  EXPECT_EQ(resumed.Find("toy", 1, 0), nullptr);  // never written
}

TEST(Journal, TruncatedTrailingLineIsDroppedAndEarlierCellsSurvive) {
  const std::string path = TempPath("journal_torn.jsonl");
  std::filesystem::remove(path);
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(path, "fp=torn").ok());
    ASSERT_TRUE(journal.Append(MakeCell("toy", 0, 0, "baseline", 0.5)).ok());
    ASSERT_TRUE(journal.Append(MakeCell("toy", 0, 1, "smote", 0.75)).ok());
  }
  // Tear the last line mid-record, as a kill during fwrite would.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 10);

  Journal resumed;
  ASSERT_TRUE(resumed.Open(path, "fp=torn").ok());
  EXPECT_EQ(resumed.dropped_lines(), 1);
  EXPECT_EQ(resumed.loaded_cells(), 1);
  ASSERT_NE(resumed.Find("toy", 0, 0), nullptr);
  EXPECT_EQ(resumed.Find("toy", 0, 1), nullptr);  // torn cell re-runs
}

TEST(Journal, CorruptBodyByteFailsTheCrcAndDropsOnlyThatLine) {
  const std::string path = TempPath("journal_corrupt.jsonl");
  std::filesystem::remove(path);
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(path, "fp=corrupt").ok());
    ASSERT_TRUE(journal.Append(MakeCell("toy", 0, 0, "baseline", 0.5)).ok());
    ASSERT_TRUE(journal.Append(MakeCell("toy", 0, 1, "smote", 0.75)).ok());
  }
  // Flip one digit inside the last record's body ("smote" -> "smoze"):
  // the recorded CRC no longer matches, so the whole line must go.
  std::string content = ReadAll(path);
  const size_t pos = content.rfind("smote");
  ASSERT_NE(pos, std::string::npos);
  content[pos + 3] = 'z';
  WriteAll(path, content);

  Journal resumed;
  ASSERT_TRUE(resumed.Open(path, "fp=corrupt").ok());
  EXPECT_EQ(resumed.dropped_lines(), 1);
  EXPECT_EQ(resumed.loaded_cells(), 1);
  ASSERT_NE(resumed.Find("toy", 0, 0), nullptr);
  EXPECT_EQ(resumed.Find("toy", 0, 1), nullptr);
}

TEST(Journal, DuplicateCellRecordsTakeTheLastWriter) {
  const std::string path = TempPath("journal_dup.jsonl");
  std::filesystem::remove(path);
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(path, "fp=dup").ok());
    ASSERT_TRUE(journal.Append(MakeCell("toy", 0, 0, "baseline", 0.25)).ok());
    ASSERT_TRUE(journal.Append(MakeCell("toy", 0, 0, "baseline", 0.875)).ok());
  }
  Journal resumed;
  ASSERT_TRUE(resumed.Open(path, "fp=dup").ok());
  EXPECT_EQ(resumed.loaded_cells(), 1);  // keyed by (dataset, run, cell)
  const JournalCell* cell = resumed.Find("toy", 0, 0);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->score, 0.875);
}

TEST(Journal, FingerprintMismatchIsRejectedWithAClearStatus) {
  const std::string path = TempPath("journal_fingerprint.jsonl");
  std::filesystem::remove(path);
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(path, "model=rocket;seed=5").ok());
    ASSERT_TRUE(journal.Append(MakeCell("toy", 0, 0, "baseline", 0.5)).ok());
  }
  Journal mismatched;
  const core::Status status = mismatched.Open(path, "model=rocket;seed=6");
  EXPECT_EQ(status.code(), core::StatusCode::kDegenerateInput);
  EXPECT_NE(status.context().find("fingerprint mismatch"), std::string::npos);
  EXPECT_NE(status.context().find("model=rocket;seed=5"), std::string::npos);
  EXPECT_NE(status.context().find("model=rocket;seed=6"), std::string::npos);
  EXPECT_FALSE(mismatched.is_open());

  // The matching fingerprint still opens the same file fine.
  Journal matching;
  ASSERT_TRUE(matching.Open(path, "model=rocket;seed=5").ok());
  EXPECT_EQ(matching.loaded_cells(), 1);
}

TEST(Journal, StatusContextWithNewlinesCannotTearTheLineFormat) {
  const std::string path = TempPath("journal_escape.jsonl");
  std::filesystem::remove(path);
  const std::string hostile = "line one\nline two\t\"quoted\\slash\"";
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(path, "fp=escape").ok());
    ASSERT_TRUE(journal
                    .Append(MakeCell("toy", 0, 0, "baseline", 0.5, 1,
                                     core::SingularError(hostile)))
                    .ok());
  }
  Journal resumed;
  ASSERT_TRUE(resumed.Open(path, "fp=escape").ok());
  EXPECT_EQ(resumed.dropped_lines(), 0);
  const JournalCell* cell = resumed.Find("toy", 0, 0);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->status.code(), core::StatusCode::kSingular);
  EXPECT_EQ(cell->status.context(), hostile);
}

/// A guarded journal line around `body`, as the journal writes it.
std::string Guarded(const std::string& body) {
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", static_cast<unsigned>(Crc32(body)));
  return std::string("{\"crc\":\"") + crc + "\",\"body\":" + body + "}\n";
}

TEST(Journal, LinesKeepTheirFormatAndEscapeControlBytesAsUnicode) {
  const std::string path = TempPath("journal_bytes.jsonl");
  std::filesystem::remove(path);
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(path, "fp=\"q\" \\ x").ok());
    ASSERT_TRUE(journal
                    .Append(MakeCell("toy", 1, 2, "smote", 0.5, 3,
                                     core::DivergedError("a\001b")))
                    .ok());
    ASSERT_TRUE(journal
                    .Append(MakeCell("toy", 0, 0, "baseline", 0.25, 0,
                                     core::DivergedError("x\ny\tz")))
                    .ok());
  }
  // The first two lines are byte for byte what journals have always held;
  // \n and \t now take the same \u00XX escape as every other control byte.
  const std::string expected =
      Guarded("{\"type\":\"header\",\"version\":1,"
              "\"fingerprint\":\"fp=\\\"q\\\" \\\\ x\"}") +
      Guarded("{\"type\":\"cell\",\"dataset\":\"toy\",\"run\":1,\"cell\":2,"
              "\"name\":\"smote\",\"score_bits\":4602678819172646912,"
              "\"score\":\"0.5\",\"retries\":3,\"code\":\"diverged\","
              "\"context\":\"a\\u0001b\"}") +
      Guarded("{\"type\":\"cell\",\"dataset\":\"toy\",\"run\":0,\"cell\":0,"
              "\"name\":\"baseline\",\"score_bits\":4598175219545276416,"
              "\"score\":\"0.25\",\"retries\":0,\"code\":\"diverged\","
              "\"context\":\"x\\u000ay\\u0009z\"}");
  EXPECT_EQ(ReadAll(path), expected);

  Journal resumed;
  ASSERT_TRUE(resumed.Open(path, "fp=\"q\" \\ x").ok());
  ASSERT_NE(resumed.Find("toy", 0, 0), nullptr);
  EXPECT_EQ(resumed.Find("toy", 0, 0)->status.context(), "x\ny\tz");
  EXPECT_EQ(resumed.Find("toy", 1, 2)->status.context(), "a\001b");
}

TEST(Journal, OlderLinesWithNewlineAndTabEscapesStillLoad) {
  const std::string path = TempPath("journal_old_escapes.jsonl");
  WriteAll(path,
           Guarded("{\"type\":\"header\",\"version\":1,"
                   "\"fingerprint\":\"fp=old\"}") +
               Guarded("{\"type\":\"cell\",\"dataset\":\"toy\",\"run\":0,"
                       "\"cell\":1,\"name\":\"smote\",\"score_bits\":0,"
                       "\"score\":\"0\",\"retries\":1,\"code\":\"singular\","
                       "\"context\":\"line1\\nline2\\tend\"}"));
  Journal journal;
  ASSERT_TRUE(journal.Open(path, "fp=old").ok());
  EXPECT_EQ(journal.dropped_lines(), 0);
  const JournalCell* cell = journal.Find("toy", 0, 1);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->status.code(), core::StatusCode::kSingular);
  EXPECT_EQ(cell->status.context(), "line1\nline2\tend");
}

}  // namespace
}  // namespace tsaug::eval
