// Seeded-mutation fuzzing of the cell journal's reader (eval/journal.h):
// Journal::Open and MergeJournals over valid journals that were bit-flipped,
// truncated, spliced, given bad \u escapes or oversized numbers, or edited
// inside a re-signed body so the edit gets past the CRC guard. The
// invariant: OK or a typed reject (kDegenerateInput for a foreign or
// header-less file), never a crash; the asan/ubsan CI legs run this too.
// And whatever the reader accepts, the shared JSON writer re-encodes
// losslessly: a merged journal reloads with every merged cell, drops no
// line, and merges again to the same bytes.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/status.h"
#include "eval/journal.h"

namespace tsaug::eval {
namespace {

constexpr char kFingerprint[] = "fp=fuzz";

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

/// A guarded journal line around `body`, as the journal writes it.
std::string Guarded(const std::string& body) {
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", static_cast<unsigned>(Crc32(body)));
  return std::string("{\"crc\":\"") + crc + "\",\"body\":" + body + "}";
}

/// The body of a guarded line, or the whole line when it is not one.
std::string BodyOf(const std::string& line) {
  const std::string marker = "\"body\":";
  const size_t at = line.find(marker);
  if (at == std::string::npos || line.back() != '}') return line;
  const size_t start = at + marker.size();
  return line.substr(start, line.size() - 1 - start);
}

/// A valid journal whose strings carry quotes, backslashes, control bytes
/// and multi-byte UTF-8.
std::string SeedJournal() {
  const std::string path = TempPath("journal_fuzz_seed.jsonl");
  std::filesystem::remove(path);
  Journal journal;
  EXPECT_TRUE(journal.Open(path, kFingerprint).ok());
  const char* contexts[] = {"", "ridge: \"singular\" \\ matrix",
                            "a\nb\tc\001d", "caf\xc3\xa9"};
  for (int i = 0; i < 4; ++i) {
    JournalCell cell;
    cell.dataset = i % 2 == 0 ? "toy" : "Epi\"lepsy";
    cell.run = i;
    cell.cell = i % 3;
    cell.name = "smote";
    cell.score = 0.125 * i;
    cell.retries = i;
    if (i > 0) cell.status = core::SingularError(contexts[i]);
    EXPECT_TRUE(journal.Append(cell).ok());
  }
  return ReadAll(path);
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

size_t Pick(core::Rng& rng, size_t size) {
  return static_cast<size_t>(rng.Int(0, static_cast<int>(size) - 1));
}

std::string Mutate(const std::string& journal, core::Rng& rng) {
  std::vector<std::string> lines = Lines(journal);
  std::string& line = lines[Pick(rng, lines.size())];
  switch (rng.Int(0, 5)) {
    case 0: {  // bit flips anywhere in the file
      std::string out = journal;
      for (int m = rng.Int(1, 4); m > 0; --m) {
        const size_t at = Pick(rng, out.size());
        out[at] = static_cast<char>(out[at] ^ (1 << rng.Int(0, 7)));
      }
      return out;
    }
    case 1:  // truncation
      return journal.substr(0, Pick(rng, journal.size() + 1));
    case 2: {  // one line's head spliced onto another's tail
      const std::string& other = lines[Pick(rng, lines.size())];
      line = line.substr(0, Pick(rng, line.size() + 1)) +
             other.substr(Pick(rng, other.size() + 1));
      break;
    }
    case 3: {  // a bad escape inside a re-signed body
      const char* escapes[] = {"\\u", "\\u00", "\\u12zz", "\\u0100",
                               "\\x", "\\",    "\\uFFFF", "\\u00e9"};
      std::string body = BodyOf(line);
      body.insert(Pick(rng, body.size() + 1), escapes[Pick(rng, 8)]);
      line = Guarded(body);
      break;
    }
    case 4: {  // an oversized or malformed number in a re-signed body
      const char* keys[] = {"\"run\":", "\"cell\":", "\"retries\":",
                            "\"score_bits\":", "\"version\":"};
      const char* numbers[] = {"99999999999999999999999", "2147483648",
                               "-2147483649", "18446744073709551616",
                               "-1", "1e5", "", "-", " 7", "0x10"};
      std::string body = BodyOf(line);
      const size_t at = body.find(keys[Pick(rng, 5)]);
      if (at != std::string::npos) {
        const size_t start = body.find(':', at) + 1;
        const size_t end = body.find_first_of(",}", start);
        if (end != std::string::npos) {
          body.replace(start, end - start, numbers[Pick(rng, 10)]);
        }
      }
      line = Guarded(body);
      break;
    }
    default: {  // arbitrary byte edits inside a re-signed body
      std::string body = BodyOf(line);
      for (int m = rng.Int(1, 3); m > 0 && !body.empty(); --m) {
        body[Pick(rng, body.size())] = static_cast<char>(rng.Int(1, 255));
      }
      line = Guarded(body);
      break;
    }
  }
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

bool TypedReject(const core::Status& status) {
  return status.code() == core::StatusCode::kDegenerateInput;
}

TEST(JournalFuzz, MutatedJournalsLoadOrRejectTypedAndMergeLosslessly) {
  const std::string seed = SeedJournal();
  const std::string input_a = TempPath("journal_fuzz_a.jsonl");
  const std::string input_b = TempPath("journal_fuzz_b.jsonl");
  const std::string merged = TempPath("journal_fuzz_merged.jsonl");
  const std::string remerged = TempPath("journal_fuzz_remerged.jsonl");
  core::Rng rng(20261017);
  int loaded = 0, rejected = 0, merged_ok = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    const std::string mutated = Mutate(seed, rng);
    SCOPED_TRACE(mutated);
    WriteAll(input_a, mutated);
    {
      Journal journal;
      const core::Status opened = journal.Open(input_a, kFingerprint);
      if (opened.ok()) {
        ++loaded;
        EXPECT_LE(journal.loaded_cells(), 4);
      } else {
        ++rejected;
        EXPECT_TRUE(TypedReject(opened)) << opened.ToString();
      }
    }

    WriteAll(input_a, mutated);
    WriteAll(input_b, Mutate(seed, rng));
    const core::StatusOr<JournalMergeStats> stats =
        MergeJournals({input_a, input_b}, merged, kFingerprint);
    if (!stats.ok()) {
      EXPECT_TRUE(TypedReject(stats.status())) << stats.status().ToString();
      continue;
    }
    ++merged_ok;
    Journal reloaded;
    ASSERT_TRUE(reloaded.Open(merged, kFingerprint).ok());
    EXPECT_EQ(reloaded.loaded_cells(), stats->cells);
    EXPECT_EQ(reloaded.dropped_lines(), 0);
    ASSERT_TRUE(MergeJournals({merged}, remerged, kFingerprint).ok());
    EXPECT_EQ(ReadAll(remerged), ReadAll(merged));
  }
  // Both outcomes occur at this seed, so neither path goes untested.
  EXPECT_GT(loaded, 100);
  EXPECT_GT(rejected, 10);
  EXPECT_GT(merged_ok, 100);
}

TEST(JournalFuzz, OutOfRangeNumbersDropTheRecord) {
  const std::string path = TempPath("journal_fuzz_ranges.jsonl");
  const std::string header =
      Guarded("{\"type\":\"header\",\"version\":1,"
              "\"fingerprint\":\"fp=fuzz\"}");
  auto cell = [](const std::string& run, const std::string& bits) {
    return Guarded("{\"type\":\"cell\",\"dataset\":\"toy\",\"run\":" + run +
                   ",\"cell\":0,\"name\":\"baseline\",\"score_bits\":" + bits +
                   ",\"score\":\"0\",\"retries\":0,\"code\":\"ok\","
                   "\"context\":\"\"}");
  };
  WriteAll(path, header + "\n" + cell("2147483648", "0") + "\n" +
                     cell("-2147483649", "0") + "\n" +
                     cell("1", "18446744073709551616") + "\n" +
                     cell("2", "-1") + "\n" + cell("3", "7") + "\n");
  Journal journal;
  ASSERT_TRUE(journal.Open(path, kFingerprint).ok());
  EXPECT_EQ(journal.loaded_cells(), 1);
  EXPECT_EQ(journal.dropped_lines(), 4);
  ASSERT_NE(journal.Find("toy", 3, 0), nullptr);
}

}  // namespace
}  // namespace tsaug::eval
