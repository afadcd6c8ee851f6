#include "augment/pipeline.h"

#include <set>

#include <gtest/gtest.h>

#include "augment/noise.h"
#include "augment/oversample.h"
#include "augment/timegan.h"
#include "data/synthetic.h"

namespace tsaug::augment {
namespace {

core::Dataset SmallData() {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {8, 4};
  spec.test_counts = {2, 2};
  spec.num_channels = 2;
  spec.length = 20;
  spec.seed = 1;
  return data::MakeSynthetic(spec).train;
}

TEST(RandomChoiceAugmenter, DelegatesToMembers) {
  core::Dataset train = SmallData();
  RandomChoiceAugmenter mix(
      {std::make_shared<NoiseInjection>(1.0), std::make_shared<Smote>()});
  core::Rng rng(2);
  EXPECT_EQ(mix.TryGenerate(train, 1, 9, rng).value().size(), 9u);
  EXPECT_EQ(mix.name(), "random_mix");
}

TEST(BuildTaxonomy, CoversEveryBranch) {
  const std::vector<TaxonomyEntry> taxonomy = BuildTaxonomy(true);
  std::set<TaxonomyBranch> branches;
  std::set<std::string> names;
  for (const TaxonomyEntry& entry : taxonomy) {
    branches.insert(entry.branch);
    names.insert(entry.augmenter->name());
  }
  EXPECT_EQ(names.size(), taxonomy.size());  // unique names
  EXPECT_GE(taxonomy.size(), 20u);
  // All nine taxonomy branches of Figure 1 are populated.
  EXPECT_EQ(branches.size(), 9u);
}

TEST(BuildTaxonomy, TimeGanIsOptional) {
  const auto with = BuildTaxonomy(true);
  const auto without = BuildTaxonomy(false);
  EXPECT_EQ(with.size(), without.size() + 1);
  for (const TaxonomyEntry& entry : without) {
    EXPECT_NE(entry.augmenter->name(), "timegan");
  }
}

TEST(PaperTechniques, MatchesTheStudySetup) {
  TimeGanConfig config;
  const auto techniques = PaperTechniques(config);
  ASSERT_EQ(techniques.size(), 5u);
  EXPECT_EQ(techniques[0]->name(), "noise_1.0");
  EXPECT_EQ(techniques[1]->name(), "noise_3.0");
  EXPECT_EQ(techniques[2]->name(), "noise_5.0");
  EXPECT_EQ(techniques[3]->name(), "smote");
  EXPECT_EQ(techniques[4]->name(), "timegan");
}

TEST(TaxonomyBranchName, AllNamed) {
  EXPECT_EQ(TaxonomyBranchName(TaxonomyBranch::kBasicTime),
            "Basic / Time domain");
  EXPECT_EQ(TaxonomyBranchName(TaxonomyBranch::kStructurePreserving),
            "Preserving / Structure-preserving");
}

}  // namespace
}  // namespace tsaug::augment
