// Table 2 of the paper: classification accuracy (C-acc) of all 13 model
// families over the UCR/UEA multivariate archive, plus mean accuracy and
// average rank rows.
//
// Substitution: the archive is regenerated synthetically with matched
// metadata (see data/uea_like.h and README, "Deviations from the paper"); one
// training run per cell instead of the paper's average of ten.

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "bench/bench_utils.h"
#include "data/uea_like.h"
#include "eval/ranking.h"
#include "eval/stats.h"
#include "util/csv.h"
#include "util/stopwatch.h"

using namespace dcam;

int main() {
  std::printf("=== Table 2: C-acc over UEA-like multivariate datasets ===\n");
  dcam_bench::PaperNote(
      "expected shape: conv models beat recurrent ones by ~0.1; "
      "d-variants match or beat their base architectures (dResNet best rank); "
      "c-variants lose ~0.05 to their base; MTEX ~ cCNN.");

  const std::vector<std::string>& model_names = models::AllModelNames();
  std::vector<std::string> header = {"dataset", "|C|", "|T|", "D"};
  for (const auto& m : model_names) header.push_back(m);
  TableWriter table(header);

  std::vector<std::vector<double>> scores;  // [dataset][model]
  Stopwatch total;

  const auto& registry = data::UeaLikeRegistry();
  const size_t num_datasets =
      dcam_bench::FullMode() ? registry.size() : registry.size();
  for (size_t ds_idx = 0; ds_idx < num_datasets; ++ds_idx) {
    const data::UeaLikeSpec& spec = registry[ds_idx];
    const data::Dataset train = data::BuildUeaLike(spec, /*seed=*/1);
    const data::Dataset test = data::BuildUeaLike(spec, /*seed=*/2);

    table.BeginRow();
    table.Cell(spec.name);
    table.Cell(spec.classes);
    table.Cell(spec.length);
    table.Cell(spec.dims);
    std::vector<double> row;
    for (const auto& name : model_names) {
      // The UEA-like generators are strongly separable, so a tight epoch
      // budget with early stopping suffices (full mode widens it).
      eval::TrainConfig tc = dcam_bench::BenchTrainConfig();
      if (!dcam_bench::FullMode()) {
        tc.max_epochs = 30;
        tc.patience = 10;
      }
      const dcam_bench::RunOutcome run = dcam_bench::TrainOnce(
          name, train, test, /*seed=*/7 + ds_idx, tc);
      row.push_back(run.test_acc);
      table.Cell(run.test_acc, 2);
      std::fprintf(stderr, "[table2] %s / %s: C-acc %.2f (%.1fs)\n",
                   spec.name.c_str(), name.c_str(), run.test_acc,
                   run.train_seconds);
    }
    scores.push_back(std::move(row));
  }

  const std::vector<double> means = eval::ColumnMeans(scores);
  const std::vector<double> ranks = eval::AverageRanks(scores);
  table.BeginRow();
  table.Cell("Mean");
  table.Cell("");
  table.Cell("");
  table.Cell("");
  for (double m : means) table.Cell(m, 3);
  table.BeginRow();
  table.Cell("Rank");
  table.Cell("");
  table.Cell("");
  table.Cell("");
  for (double r : ranks) table.Cell(r, 2);

  table.WriteAligned(std::cout);

  // Paired significance of each d-variant against its base architecture
  // over the per-dataset accuracies (the TSC-literature companion statistic
  // to the paper's average ranks).
  std::printf("\nWilcoxon signed-rank, d-variant vs base (per-dataset "
              "C-acc pairs):\n");
  auto column = [&](const std::string& name) {
    std::vector<double> col;
    const auto it =
        std::find(model_names.begin(), model_names.end(), name);
    const size_t idx = static_cast<size_t>(it - model_names.begin());
    for (const auto& row : scores) col.push_back(row[idx]);
    return col;
  };
  for (const auto& [d_name, base] :
       std::vector<std::pair<std::string, std::string>>{
           {"dCNN", "CNN"},
           {"dResNet", "ResNet"},
           {"dInceptionTime", "InceptionTime"}}) {
    const eval::WilcoxonResult w =
        eval::WilcoxonSignedRank(column(d_name), column(base));
    std::printf("  %-15s vs %-14s mean diff %+.3f, W=%.1f (n=%d), p=%.3f%s\n",
                d_name.c_str(), base.c_str(), w.mean_difference, w.w, w.n,
                w.p_value, w.p_value < 0.05 ? "  *" : "");
  }

  std::printf("\ntotal time: %.1fs\n", total.ElapsedSeconds());
  return 0;
}
