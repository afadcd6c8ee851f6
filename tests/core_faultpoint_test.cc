// Tests for the deterministic fault-injection registry
// (core/faultpoint.h): spec parsing, Nth-hit semantics, per-domain hit
// counting and the disabled-by-default zero-cost path. Each test installs
// its spec via SetSpec (which resets all counters) and clears it on exit
// so tests stay order-independent.
#include <string>

#include <gtest/gtest.h>

#include "core/faultpoint.h"
#include "core/status.h"

namespace tsaug::core::fault {
namespace {

class SpecGuard {
 public:
  explicit SpecGuard(const std::string& spec) { SetSpec(spec); }
  ~SpecGuard() { Clear(); }
};

TEST(FaultPoint, DisabledByDefaultAndRecordsNothing) {
  Clear();
  EXPECT_FALSE(Enabled());
  EXPECT_FALSE(ShouldFail("ridge.solve"));
  EXPECT_FALSE(ShouldFail("ridge.solve"));
  // The zero-cost path must not count hits.
  EXPECT_EQ(HitCount("ridge.solve"), 0);
}

TEST(FaultPoint, FiresOnExactlyTheNthHit) {
  SpecGuard guard("ridge.solve:3");
  EXPECT_TRUE(Enabled());
  EXPECT_FALSE(ShouldFail("ridge.solve"));  // hit 1
  EXPECT_FALSE(ShouldFail("ridge.solve"));  // hit 2
  EXPECT_TRUE(ShouldFail("ridge.solve"));   // hit 3: fires
  EXPECT_FALSE(ShouldFail("ridge.solve"));  // hit 4: one-shot rule
  EXPECT_EQ(HitCount("ridge.solve"), 4);
}

TEST(FaultPoint, PlusSuffixFiresOnEveryHitFromN) {
  SpecGuard guard("trainer.step:2+");
  EXPECT_FALSE(ShouldFail("trainer.step"));
  EXPECT_TRUE(ShouldFail("trainer.step"));
  EXPECT_TRUE(ShouldFail("trainer.step"));
  EXPECT_TRUE(ShouldFail("trainer.step"));
}

TEST(FaultPoint, OtherPointsAreUnaffected) {
  SpecGuard guard("ridge.solve:1");
  EXPECT_FALSE(ShouldFail("smote.generate"));
  EXPECT_TRUE(ShouldFail("ridge.solve"));
  EXPECT_FALSE(ShouldFail("smote.generate"));
}

TEST(FaultPoint, MultipleRulesAreIndependent) {
  SpecGuard guard("ridge.solve:1,smote.generate:2");
  EXPECT_TRUE(ShouldFail("ridge.solve"));
  EXPECT_FALSE(ShouldFail("smote.generate"));
  EXPECT_TRUE(ShouldFail("smote.generate"));
}

TEST(FaultPoint, DomainSubstringRestrictsRule) {
  SpecGuard guard("ridge.solve@smote:1");
  {
    ScopedDomain domain("cell/toy/run0/baseline");
    EXPECT_FALSE(ShouldFail("ridge.solve"));
  }
  {
    ScopedDomain domain("cell/toy/run0/smote");
    EXPECT_TRUE(ShouldFail("ridge.solve"));
  }
}

TEST(FaultPoint, HitsAreCountedPerDomain) {
  // Per-(rule, domain) counters: each domain gets its own 2nd hit, so
  // which cell a worker happens to run never shifts another cell's count.
  SpecGuard guard("ridge.solve:2");
  {
    ScopedDomain domain("cell/a");
    EXPECT_FALSE(ShouldFail("ridge.solve"));  // a: hit 1
  }
  {
    ScopedDomain domain("cell/b");
    EXPECT_FALSE(ShouldFail("ridge.solve"));  // b: hit 1
    EXPECT_TRUE(ShouldFail("ridge.solve"));   // b: hit 2 fires
  }
  {
    ScopedDomain domain("cell/a");
    EXPECT_TRUE(ShouldFail("ridge.solve"));  // a: hit 2 fires independently
  }
}

TEST(FaultPoint, ScopedDomainNestsAndRestores) {
  Clear();
  EXPECT_EQ(CurrentDomain(), "");
  {
    ScopedDomain outer("outer");
    EXPECT_EQ(CurrentDomain(), "outer");
    {
      ScopedDomain inner("inner");
      EXPECT_EQ(CurrentDomain(), "inner");
    }
    EXPECT_EQ(CurrentDomain(), "outer");
  }
  EXPECT_EQ(CurrentDomain(), "");
}

TEST(FaultPoint, SetSpecResetsCounters) {
  SetSpec("ridge.solve:2");
  EXPECT_FALSE(ShouldFail("ridge.solve"));  // hit 1
  SetSpec("ridge.solve:2");                 // reset
  EXPECT_FALSE(ShouldFail("ridge.solve"));  // hit 1 again
  EXPECT_TRUE(ShouldFail("ridge.solve"));   // hit 2
  Clear();
}

TEST(FaultPoint, MalformedRulesAreSkippedNotFatal) {
  // A typo in TSAUG_FAULTS must not abort the run it was meant to probe:
  // bad rules are skipped with a warning, good ones still apply.
  SpecGuard guard(
      "nonsense,also:bad:,ridge.solve:1,:,x:0,y:-1,z:99999999999999999999");
  EXPECT_TRUE(Enabled());
  EXPECT_TRUE(ShouldFail("ridge.solve"));
  EXPECT_FALSE(ShouldFail("x"));
  EXPECT_FALSE(ShouldFail("y"));
  EXPECT_FALSE(ShouldFail("z"));  // count out of range
}

TEST(FaultPoint, AllMalformedSpecDisables) {
  SetSpec("nonsense");
  EXPECT_FALSE(Enabled());
  EXPECT_FALSE(ShouldFail("nonsense"));
  Clear();
}

TEST(FaultPoint, ClearDisables) {
  SetSpec("ridge.solve:1");
  EXPECT_TRUE(Enabled());
  Clear();
  EXPECT_FALSE(Enabled());
  EXPECT_FALSE(ShouldFail("ridge.solve"));
}

TEST(FaultPoint, InjectedAtReportsPointAndDomain) {
  Clear();
  ScopedDomain domain("cell/toy/run1/smote");
  const Status status = InjectedAt("ridge.solve");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInjectedFault);
  EXPECT_NE(status.context().find("ridge.solve"), std::string::npos);
  EXPECT_NE(status.context().find("cell/toy/run1/smote"), std::string::npos);
}

}  // namespace
}  // namespace tsaug::core::fault
