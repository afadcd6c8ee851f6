#include "core/io.h"

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

namespace tsaug::core {
namespace {

TEST(SeriesCsv, WritesHeaderAndRows) {
  TimeSeries s = TimeSeries::FromChannels({{1, 2}, {3, 4}});
  std::ostringstream out;
  WriteSeriesCsv(s, out);
  EXPECT_EQ(out.str(), "t,ch0,ch1\n0,1,3\n1,2,4\n");
}

TEST(SeriesCsv, EmitsNaNLiteral) {
  TimeSeries s = TimeSeries::FromChannels({{1, std::nan("")}});
  std::ostringstream out;
  WriteSeriesCsv(s, out);
  EXPECT_NE(out.str().find("NaN"), std::string::npos);
}

}  // namespace
}  // namespace tsaug::core
