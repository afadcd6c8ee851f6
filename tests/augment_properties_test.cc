// Property tests swept over EVERY augmenter in the taxonomy registry:
// whatever the branch, TryGenerate() must honour the same contract —
// correct count, dataset-compatible shapes, finite values after imputation,
// determinism in the RNG seed, and respecting the requested class. These
// run with a reduced TimeGAN so the whole registry is covered.
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "augment/pipeline.h"
#include "augment/timegan.h"
#include "core/kernels/kernels.h"
#include "core/parallel.h"
#include "data/synthetic.h"

namespace tsaug::augment {
namespace {

core::Dataset PropertyData() {
  data::SyntheticSpec spec;
  spec.num_classes = 3;
  spec.train_counts = {10, 6, 4};
  spec.test_counts = {2, 2, 2};
  spec.num_channels = 2;
  spec.length = 24;
  spec.seed = 77;
  return data::MakeSynthetic(spec).train;
}

std::vector<TaxonomyEntry> PropertyTaxonomy() {
  std::vector<TaxonomyEntry> taxonomy = BuildTaxonomy(/*include_timegan=*/false);
  TimeGanConfig tiny;
  tiny.hidden_dim = 4;
  tiny.num_layers = 1;
  tiny.embedding_iterations = 8;
  tiny.supervised_iterations = 6;
  tiny.joint_iterations = 3;
  tiny.max_sequence_length = 10;
  taxonomy.push_back({std::make_shared<TimeGanAugmenter>(tiny),
                      TaxonomyBranch::kGenerativeNeural});
  return taxonomy;
}

struct NamedEntry {
  std::string name;
  std::shared_ptr<Augmenter> augmenter;
};

std::vector<NamedEntry> AllEntries() {
  std::vector<NamedEntry> entries;
  for (const TaxonomyEntry& entry : PropertyTaxonomy()) {
    entries.push_back({entry.augmenter->name(), entry.augmenter});
  }
  return entries;
}

/// Bit-pattern equality: unlike operator==, a NaN equals the same NaN.
bool SameBits(const core::TimeSeries& a, const core::TimeSeries& b) {
  return a.num_channels() == b.num_channels() && a.length() == b.length() &&
         (a.values().empty() ||
          std::memcmp(a.values().data(), b.values().data(),
                      a.values().size() * sizeof(double)) == 0);
}

class AugmenterProperty : public ::testing::TestWithParam<NamedEntry> {};

TEST_P(AugmenterProperty, GeneratesExactCount) {
  core::Dataset train = PropertyData();
  core::Rng rng(1);
  EXPECT_EQ(
      GetParam().augmenter->TryGenerate(train, 1, 5, rng).value().size(), 5u);
  core::Rng rng2(2);
  EXPECT_EQ(
      GetParam().augmenter->TryGenerate(train, 2, 0, rng2).value().size(), 0u);
}

TEST_P(AugmenterProperty, ShapesMatchDataset) {
  core::Dataset train = PropertyData();
  core::Rng rng(3);
  const auto generated =
      GetParam().augmenter->TryGenerate(train, 0, 4, rng).value();
  for (const core::TimeSeries& s : generated) {
    EXPECT_EQ(s.num_channels(), 2);
    EXPECT_EQ(s.length(), 24);
  }
}

TEST_P(AugmenterProperty, ValuesFinite) {
  core::Dataset train = PropertyData();
  core::Rng rng(4);
  const auto generated =
      GetParam().augmenter->TryGenerate(train, 2, 4, rng).value();
  for (const core::TimeSeries& s : generated) {
    for (double v : s.values()) {
      // NaN only allowed where sources carry missing values (none here).
      EXPECT_TRUE(std::isfinite(v)) << GetParam().name;
    }
  }
}

TEST_P(AugmenterProperty, DeterministicInSeed) {
  core::Dataset train = PropertyData();
  GetParam().augmenter->Invalidate();
  core::Rng rng_a(9);
  const auto a = GetParam().augmenter->TryGenerate(train, 1, 3, rng_a).value();
  GetParam().augmenter->Invalidate();
  core::Rng rng_b(9);
  const auto b = GetParam().augmenter->TryGenerate(train, 1, 3, rng_b).value();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << GetParam().name;
}

TEST_P(AugmenterProperty, BalancingEqualizesCounts) {
  core::Dataset train = PropertyData();
  GetParam().augmenter->Invalidate();
  core::Rng rng(11);
  const core::Dataset balanced =
      TryBalanceWithAugmenter(train, *GetParam().augmenter, rng).value();
  const std::vector<int> counts = balanced.ClassCounts();
  for (int c : counts) EXPECT_EQ(c, 10) << GetParam().name;
}

TEST_P(AugmenterProperty, SameBitsAcrossThreadsAndBackends) {
  // Balancing prefits the per-class models on the pool, then generates;
  // the output may depend on the seed alone, not on the thread count or
  // the kernel backend.
  const core::Dataset train = PropertyData();
  const core::kernels::Backend backend = core::kernels::ActiveBackend();
  const int threads = core::GetNumThreads();
  std::vector<core::kernels::Backend> backends = {
      core::kernels::Backend::kScalar};
  if (core::kernels::SimdAvailable()) {
    backends.push_back(core::kernels::Backend::kSimd);
  }
  std::vector<core::TimeSeries> reference;
  for (core::kernels::Backend b : backends) {
    for (int n : {1, 2, 8}) {
      SCOPED_TRACE(GetParam().name + " threads=" + std::to_string(n) +
                   (b == core::kernels::Backend::kSimd ? " simd" : " scalar"));
      core::kernels::SetBackend(b);
      core::SetNumThreads(n);
      GetParam().augmenter->Invalidate();
      core::Rng rng(13);
      const core::Dataset balanced =
          TryBalanceWithAugmenter(train, *GetParam().augmenter, rng).value();
      std::vector<core::TimeSeries> got;
      for (int i = train.size(); i < balanced.size(); ++i) {
        got.push_back(balanced.series(i));
      }
      if (reference.empty()) {
        reference = got;
        continue;
      }
      ASSERT_EQ(got.size(), reference.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(SameBits(got[i], reference[i])) << "series " << i;
      }
    }
  }
  core::kernels::SetBackend(backend);
  core::SetNumThreads(threads);
}

TEST_P(AugmenterProperty, PreflightFailuresAreTyped) {
  // One preflight in Augmenter::TryGenerate answers for every technique:
  // no DoGenerate sees an empty class, a label outside the label space, a
  // negative count or an empty training set.
  const core::Dataset train = PropertyData();
  Augmenter& augmenter = *GetParam().augmenter;
  auto code = [&](const core::Dataset& data, int label, int count) {
    augmenter.Invalidate();
    core::Rng rng(17);
    return augmenter.TryGenerate(data, label, count, rng).status().code();
  };

  core::Dataset with_empty_class(train.num_classes() + 1);
  for (int i = 0; i < train.size(); ++i) {
    with_empty_class.Add(train.series(i), train.label(i));
  }
  EXPECT_EQ(code(with_empty_class, train.num_classes(), 3),
            core::StatusCode::kEmptyClass);
  EXPECT_EQ(code(train, train.num_classes(), 3),
            core::StatusCode::kInvalidArgument);
  EXPECT_EQ(code(train, -1, 3), core::StatusCode::kInvalidArgument);
  EXPECT_EQ(code(train, 0, -1), core::StatusCode::kInvalidArgument);
  EXPECT_EQ(code(core::Dataset(train.num_classes()), 0, 3),
            core::StatusCode::kDegenerateInput);
}

INSTANTIATE_TEST_SUITE_P(
    Taxonomy, AugmenterProperty, ::testing::ValuesIn(AllEntries()),
    [](const ::testing::TestParamInfo<NamedEntry>& param_info) {
      std::string name = param_info.param.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

void ExpectInputLeads(const core::Dataset& input,
                      const core::StatusOr<core::Dataset>& out,
                      const std::string& what) {
  ASSERT_TRUE(out.ok()) << what << ": " << out.status().ToString();
  ASSERT_GE(out->size(), input.size()) << what;
  for (int i = 0; i < input.size(); ++i) {
    EXPECT_EQ(out->label(i), input.label(i)) << what << ", row " << i;
    EXPECT_TRUE(SameBits(out->series(i), input.series(i)))
        << what << ", row " << i;
  }
}

// The prefix contract of every technique: balancing and expanding return
// the input's series and labels, unchanged and in order, as the leading
// rows, with the synthetic rows after them. The experiment grid relies on
// it to compute one run's ROCKET features of those rows once for every
// cell. Every technique of the registry is swept, TimeGAN included; its
// training schedule is cut to PropertyTaxonomy's (the registry's takes
// seconds per call, and the row order does not depend on it).
TEST(AugmentationContract, InputRowsLeadBalancedAndExpandedSets) {
  core::Dataset clean = PropertyData();
  // A missing value must come back as the same NaN.
  core::Dataset with_nan = clean;
  with_nan.mutable_series(11).at(1, 7) =
      std::numeric_limits<double>::quiet_NaN();
  for (TaxonomyEntry& entry : BuildTaxonomy(/*include_timegan=*/true)) {
    if (entry.augmenter->name() == "timegan") {
      entry.augmenter = PropertyTaxonomy().back().augmenter;
    }
    Augmenter& augmenter = *entry.augmenter;
    const std::string name = augmenter.name();
    augmenter.Invalidate();
    core::Rng balance_rng(31);
    ExpectInputLeads(clean, TryBalanceWithAugmenter(clean, augmenter,
                                                    balance_rng),
                     name + " balance");
    augmenter.Invalidate();
    core::Rng expand_rng(32);
    ExpectInputLeads(clean, TryExpandWithAugmenter(clean, augmenter, 0.5,
                                                   expand_rng),
                     name + " expand");
    // Some techniques reject missing values (a typed failure, never a
    // reordered or rewritten input); those that accept them keep them.
    augmenter.Invalidate();
    core::Rng nan_rng(33);
    const core::StatusOr<core::Dataset> nan_out =
        TryBalanceWithAugmenter(with_nan, augmenter, nan_rng);
    if (nan_out.ok()) ExpectInputLeads(with_nan, nan_out, name + " NaN");
  }
}

}  // namespace
}  // namespace tsaug::augment
