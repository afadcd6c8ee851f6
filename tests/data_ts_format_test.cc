#include "data/ts_format.h"

#include <cmath>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/rng.h"

namespace tsaug::data {
namespace {

constexpr char kSample[] = R"(# A toy UEA-style file
@problemName Toy
@timeStamps false
@univariate false
@classLabel true cat dog
@data
1.0,2.0,3.0:10,20,30:cat
4.0,?,6.0:40,50,60:dog
7,8,9:70,80,90:cat
)";

TEST(ReadTsFile, ParsesMultivariateCases) {
  std::istringstream in(kSample);
  core::Dataset dataset;
  std::string error;
  ASSERT_TRUE(ReadTsFile(in, &dataset, &error)) << error;
  ASSERT_EQ(dataset.size(), 3);
  EXPECT_EQ(dataset.num_classes(), 2);
  EXPECT_EQ(dataset.num_channels(), 2);
  EXPECT_EQ(dataset.max_length(), 3);
  EXPECT_DOUBLE_EQ(dataset.series(0).at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(dataset.series(0).at(1, 2), 30.0);
}

TEST(ReadTsFile, VocabularyOrderDefinesLabels) {
  std::istringstream in(kSample);
  core::Dataset dataset;
  ASSERT_TRUE(ReadTsFile(in, &dataset));
  EXPECT_EQ(dataset.label(0), 0);  // cat
  EXPECT_EQ(dataset.label(1), 1);  // dog
  EXPECT_EQ(dataset.label(2), 0);
}

TEST(ReadTsFile, QuestionMarkBecomesNaN) {
  std::istringstream in(kSample);
  core::Dataset dataset;
  ASSERT_TRUE(ReadTsFile(in, &dataset));
  EXPECT_TRUE(std::isnan(dataset.series(1).at(0, 1)));
}

TEST(ReadTsFile, NoVocabularyUsesFirstSeenOrder) {
  std::istringstream in("@data\n1,2:zebra\n3,4:ant\n5,6:zebra\n");
  core::Dataset dataset;
  ASSERT_TRUE(ReadTsFile(in, &dataset));
  EXPECT_EQ(dataset.label(0), 0);
  EXPECT_EQ(dataset.label(1), 1);
  EXPECT_EQ(dataset.label(2), 0);
}

TEST(ReadTsFile, VariableLengthDimensionsPadded) {
  std::istringstream in("@data\n1,2,3:9:x\n");
  core::Dataset dataset;
  ASSERT_TRUE(ReadTsFile(in, &dataset));
  EXPECT_EQ(dataset.series(0).length(), 3);
  EXPECT_DOUBLE_EQ(dataset.series(0).at(1, 0), 9.0);
  EXPECT_TRUE(std::isnan(dataset.series(0).at(1, 1)));
}

TEST(ReadTsFile, EmptyDimensionBecomesAllMissingChannel) {
  // A case may omit one dimension entirely (":"-delimited empty field);
  // the channel survives as all-NaN at the case length, so preflight
  // validation can diagnose it rather than the parser guessing.
  std::istringstream in("@data\n:1,2:x\n");
  core::Dataset dataset;
  std::string error;
  ASSERT_TRUE(ReadTsFile(in, &dataset, &error)) << error;
  ASSERT_EQ(dataset.num_channels(), 2);
  ASSERT_EQ(dataset.series(0).length(), 2);
  EXPECT_TRUE(std::isnan(dataset.series(0).at(0, 0)));
  EXPECT_TRUE(std::isnan(dataset.series(0).at(0, 1)));
  EXPECT_DOUBLE_EQ(dataset.series(0).at(1, 0), 1.0);
}

TEST(ReadTsFile, AllDimensionsEmptyIsRejected) {
  std::istringstream in("@data\n:::x\n");
  core::Dataset dataset;
  std::string error;
  EXPECT_FALSE(ReadTsFile(in, &dataset, &error));
  EXPECT_NE(error.find("empty case"), std::string::npos);
}

TEST(ReadTsFile, TrailingMissingRunIsPreserved) {
  // A run of '?' at the end of a dimension must not be trimmed away:
  // the case keeps its declared length with NaNs in the tail.
  std::istringstream in("@data\n1,2,?,?:9,?,?,?:x\n");
  core::Dataset dataset;
  std::string error;
  ASSERT_TRUE(ReadTsFile(in, &dataset, &error)) << error;
  ASSERT_EQ(dataset.series(0).length(), 4);
  EXPECT_DOUBLE_EQ(dataset.series(0).at(0, 1), 2.0);
  EXPECT_TRUE(std::isnan(dataset.series(0).at(0, 2)));
  EXPECT_TRUE(std::isnan(dataset.series(0).at(0, 3)));
  EXPECT_TRUE(std::isnan(dataset.series(0).at(1, 3)));
}

TEST(ReadTsFile, SingleTimestepCaseParses) {
  std::istringstream in("@data\n5:7:x\n1:2:y\n");
  core::Dataset dataset;
  std::string error;
  ASSERT_TRUE(ReadTsFile(in, &dataset, &error)) << error;
  ASSERT_EQ(dataset.size(), 2);
  EXPECT_EQ(dataset.num_channels(), 2);
  EXPECT_EQ(dataset.max_length(), 1);
  EXPECT_DOUBLE_EQ(dataset.series(0).at(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(dataset.series(0).at(1, 0), 7.0);
}

TEST(WriteTsFile, SingleTimestepAndTrailingMissingRoundTrip) {
  core::Dataset original;
  original.Add(core::TimeSeries::FromChannels({{1.5}, {std::nan("")}}), 0);
  original.Add(core::TimeSeries::FromChannels({{2.5}, {3.5}}), 1);
  std::stringstream buffer;
  WriteTsFile(original, "OneStep", buffer);
  core::Dataset loaded;
  std::string error;
  ASSERT_TRUE(ReadTsFile(buffer, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 2);
  EXPECT_EQ(loaded.max_length(), 1);
  EXPECT_DOUBLE_EQ(loaded.series(0).at(0, 0), 1.5);
  EXPECT_TRUE(std::isnan(loaded.series(0).at(1, 0)));
}

TEST(ReadTsFile, RejectsDataBeforeDirective) {
  std::istringstream in("1,2:label\n");
  core::Dataset dataset;
  std::string error;
  EXPECT_FALSE(ReadTsFile(in, &dataset, &error));
  EXPECT_NE(error.find("@data"), std::string::npos);
}

TEST(ReadTsFile, RejectsBadValues) {
  std::istringstream in("@data\n1,banana:x\n");
  core::Dataset dataset;
  std::string error;
  EXPECT_FALSE(ReadTsFile(in, &dataset, &error));
  EXPECT_NE(error.find("banana"), std::string::npos);
}

TEST(ReadTsFile, RejectsEmptyFile) {
  std::istringstream in("@data\n");
  core::Dataset dataset;
  EXPECT_FALSE(ReadTsFile(in, &dataset));
}

TEST(WriteTsFile, RoundTripsThroughReader) {
  core::Dataset original;
  original.Add(core::TimeSeries::FromChannels({{1, 2}, {3, std::nan("")}}), 0);
  original.Add(core::TimeSeries::FromChannels({{5, 6}, {7, 8}}), 1);

  std::stringstream buffer;
  WriteTsFile(original, "RoundTrip", buffer);
  core::Dataset loaded;
  std::string error;
  ASSERT_TRUE(ReadTsFile(buffer, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 2);
  EXPECT_EQ(loaded.label(0), 0);
  EXPECT_EQ(loaded.label(1), 1);
  EXPECT_DOUBLE_EQ(loaded.series(0).at(0, 1), 2.0);
  EXPECT_TRUE(std::isnan(loaded.series(0).at(1, 1)));
  EXPECT_DOUBLE_EQ(loaded.series(1).at(1, 0), 7.0);
}

// Seeded-mutation fuzzing of the reader: a valid document with a label
// vocabulary, several dimensions, '?' and ragged dimensions, given byte
// inserts, deletes and replacements from the format's own alphabet, and
// truncations. The invariant: accepted with a non-empty dataset, or
// rejected with a non-empty error, never a crash; the asan/ubsan CI legs
// run this too.
constexpr char kFuzzSeed[] = R"(# fuzz seed
@problemName Fuzz
@univariate false
@classLabel true a b c
@data
1.0,2.5,-3e-2:4,?,6,7:a
?,0.5:1.25e+1,2,3:b
8,9,10:11,12:c
)";

std::string MutateTs(std::string text, core::Rng& rng) {
  constexpr char kAlphabet[] = "0123456789.,:?@#e+-\n \t";
  constexpr int kAlphabetSize = static_cast<int>(sizeof(kAlphabet)) - 1;
  for (int m = rng.Int(1, 4); m > 0; --m) {
    const int size = static_cast<int>(text.size());
    const auto at = static_cast<size_t>(rng.Int(0, size));
    const char byte = kAlphabet[rng.Index(kAlphabetSize)];
    switch (rng.Int(0, 3)) {
      case 0:
        text.insert(at, 1, byte);
        break;
      case 1:
        if (at < text.size()) text.erase(at, 1);
        break;
      case 2:
        if (at < text.size()) text[at] = byte;
        break;
      default:
        text.resize(at);
        break;
    }
  }
  return text;
}

TEST(ReadTsFile, MutatedDocumentsParseOrRejectWithError) {
  core::Rng rng(20261017);
  int accepted = 0;
  int rejected = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const std::string mutated = MutateTs(kFuzzSeed, rng);
    SCOPED_TRACE(mutated);
    std::istringstream in(mutated);
    core::Dataset dataset;
    std::string error;
    if (ReadTsFile(in, &dataset, &error)) {
      ++accepted;
      EXPECT_FALSE(dataset.empty());
    } else {
      ++rejected;
      EXPECT_FALSE(error.empty());
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(LoadUeaProblem, MissingFilesReportError) {
  core::Dataset train;
  core::Dataset test;
  std::string error;
  EXPECT_FALSE(LoadUeaProblem("/nonexistent", "Nope", &train, &test, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace tsaug::data
