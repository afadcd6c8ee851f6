// Gallery: apply every augmenter in the taxonomy (Figure 1) to the same
// seed series and write each result as CSV under gallery_out/, plus a
// per-technique summary (distance from the original, basic stats). Useful
// to eyeball what each branch actually does to a series.
#include <cstdio>
#include <filesystem>

#include "augment/pipeline.h"
#include "core/io.h"
#include "data/synthetic.h"
#include "linalg/distance.h"

int main() {
  // A small 3-channel dataset; the gallery augments class 0.
  tsaug::data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {12, 6};
  spec.test_counts = {2, 2};
  spec.num_channels = 3;
  spec.length = 64;
  spec.seed = 9;
  const tsaug::core::Dataset train = tsaug::data::MakeSynthetic(spec).train;
  const tsaug::core::TimeSeries& original = train.series(0);

  const std::filesystem::path out_dir = "gallery_out";
  std::filesystem::create_directories(out_dir);
  tsaug::core::WriteSeriesCsv(original, (out_dir / "original.csv").string());

  std::printf("%-22s %-34s %12s\n", "technique", "branch", "L2-from-seed");
  // TimeGAN excluded: it needs a training phase, see timegan_sampling.
  for (const tsaug::augment::TaxonomyEntry& entry :
       tsaug::augment::BuildTaxonomy(/*include_timegan=*/false)) {
    tsaug::core::Rng rng(13);
    const std::vector<tsaug::core::TimeSeries> generated =
        entry.augmenter->TryGenerate(train, /*label=*/0, /*count=*/1, rng)
            .value();
    const tsaug::core::TimeSeries& series = generated.front();

    const std::string file = entry.augmenter->name() + ".csv";
    tsaug::core::WriteSeriesCsv(series, (out_dir / file).string());
    std::printf("%-22s %-34s %12.3f\n", entry.augmenter->name().c_str(),
                TaxonomyBranchName(entry.branch).c_str(),
                tsaug::linalg::EuclideanDistance(series, original));
  }
  std::printf("\nwrote per-technique CSVs to %s/\n", out_dir.c_str());
  return 0;
}
