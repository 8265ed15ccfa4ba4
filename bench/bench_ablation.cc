// Ablation of dCAM's design choices (README, "Deviations from the paper"; not
// a paper artifact, but the paper's Section 4.4.3 argues for each ingredient):
//
//   A. Extraction rule — Definition 3 (var * mu) against variance-only,
//      mean-over-positions, MAD * mu, mu-only, and k = 1 (no permutations).
//   B. Explanation-method comparison — dCAM against the model-agnostic
//      baselines (occlusion, gradient saliency, gradient x input,
//      SmoothGrad) on the same trained dCNN, scored by Dr-acc.
//   C. Adaptive k — how many permutations the stopping rule actually spends
//      versus the paper's fixed k = 100.
//
// Expected: the variance term carries the dimension attribution (mean-only
// and mu-only collapse towards the random baseline); permutations matter
// (k=1 far below the merged estimate); occlusion is the strongest of the
// agnostic baselines but needs O(D * n / stride) forward passes; adaptive-k
// stops well under the fixed budget on easy instances.

#include <cstdio>
#include <iostream>

#include "bench/bench_utils.h"
#include "core/engine.h"
#include "core/variants.h"
#include "data/augment.h"
#include "eval/metrics.h"
#include "eval/sweep.h"
#include "util/csv.h"
#include "util/stopwatch.h"

using namespace dcam;

namespace {

// mu broadcast to every dimension: temporal information only.
Tensor MuOnly(const Tensor& mu, int64_t D) {
  const int64_t n = mu.dim(0);
  Tensor out({D, n});
  for (int64_t d = 0; d < D; ++d) {
    for (int64_t t = 0; t < n; ++t) out.at(d, t) = mu[t];
  }
  return out;
}

}  // namespace

int main() {
  std::printf("=== Ablation: dCAM design choices ===\n");
  dcam_bench::PaperNote(
      "expected shape: Definition 3 ~ variance-only >> mean-only ~ mu-only; "
      "k=1 (no permutations) far below the merged estimate; occlusion "
      "strongest agnostic baseline at a much higher forward-pass cost.");

  const dcam_bench::SyntheticPair pair = dcam_bench::MakeSyntheticPair(
      data::SeedType::kStarLight, /*type=*/1, /*dims=*/6, /*seed=*/801);
  eval::TrainConfig tc = dcam_bench::BenchTrainConfig();
  tc.max_epochs = dcam_bench::FullMode() ? 120 : 80;
  tc.patience = 0;
  const dcam_bench::RunOutcome run =
      dcam_bench::TrainOnce("dCNN", pair.train, pair.test, 3, tc);
  auto* model = static_cast<models::GapModel*>(run.model.get());
  std::printf("dCNN test C-acc: %.2f\n\n", run.test_acc);

  Stopwatch total;

  // --- A. extraction rules -------------------------------------------------
  std::printf("--- A. extraction rule (Definition 3 ablation) ---\n");
  TableWriter extraction({"variant", "mean Dr-acc", "vs random (x)"});

  core::DcamEngine engine(model);
  const int kInstances = 6;
  double rule_acc[4] = {0, 0, 0, 0};
  double mu_only = 0.0, k1 = 0.0, random_baseline = 0.0;
  int count = 0;
  std::vector<std::pair<Tensor, Tensor>> explained;  // (series, mask)
  for (int64_t i = 0; i < pair.test.size() && count < kInstances; ++i) {
    if (pair.test.y[i] != 1) continue;
    const Tensor series = pair.test.Instance(i);
    const Tensor mask = pair.test.InstanceMask(i);
    explained.emplace_back(series, mask);

    core::DcamOptions opts;
    opts.k = dcam_bench::FullMode() ? 100 : 40;
    opts.seed = 900 + i;
    const core::DcamResult res = engine.Compute(series, 1, opts);
    const auto& rules = core::AllExtractionRules();
    for (size_t r = 0; r < rules.size(); ++r) {
      rule_acc[r] +=
          eval::DrAcc(core::ExtractWithRule(res.mbar, rules[r]), mask);
    }
    mu_only += eval::DrAcc(MuOnly(res.mu, series.dim(0)), mask);

    core::DcamOptions k1_opts;
    k1_opts.k = 1;
    k1_opts.include_identity = true;
    k1 += eval::DrAcc(engine.Compute(series, 1, k1_opts).dcam, mask);
    random_baseline += eval::RandomBaseline(mask);
    ++count;
  }
  random_baseline /= count;
  auto add_row = [&](const std::string& name, double sum) {
    extraction.BeginRow();
    extraction.Cell(name);
    extraction.Cell(sum / count, 3);
    extraction.Cell(sum / count / random_baseline, 1);
  };
  {
    const auto& rules = core::AllExtractionRules();
    for (size_t r = 0; r < rules.size(); ++r) {
      add_row("extract: " + core::ExtractionRuleName(rules[r]), rule_acc[r]);
    }
  }
  add_row("mu only (broadcast)", mu_only);
  add_row("k=1 identity (no permutations)", k1);
  add_row("random baseline", random_baseline * count);
  extraction.WriteAligned(std::cout);

  // --- B. explanation methods ----------------------------------------------
  std::printf("\n--- B. dCAM vs the registry's baselines (same trained dCNN) ---\n");
  TableWriter methods({"method", "mean Dr-acc", "vs random (x)", "time (s)"});
  // The full explanation registry on one model: dCAM, raw CAM over the
  // identity cube's rows (what dCAM's M-transform fixes), and the
  // model-agnostic gradient/perturbation baselines.
  eval::ExplainSweepOptions sweep;
  sweep.max_instances = kInstances;
  sweep.base.dcam.k = 40;
  sweep.base.occlusion.window = 16;
  sweep.base.occlusion.stride = 8;
  sweep.base.smoothgrad.samples = 10;
  const std::vector<std::string> method_names = {
      "dcam",       "cam",        "saliency",
      "grad_times_input", "smoothgrad", "integrated_gradients",
      "occlusion",  "dimension_occlusion"};
  for (const eval::MethodScore& score :
       eval::SweepMethods(model, method_names, pair.test, sweep)) {
    methods.BeginRow();
    methods.Cell(score.method);
    methods.Cell(score.mean_dr_acc, 3);
    methods.Cell(score.mean_dr_acc / random_baseline, 1);
    methods.Cell(score.seconds, 2);
  }
  methods.WriteAligned(std::cout);

  // --- C. adaptive k ---------------------------------------------------------
  std::printf("\n--- C. adaptive-k stopping rule ---\n");
  TableWriter adaptive({"instance", "k used", "converged", "Dr-acc",
                        "Dr-acc @ fixed k=100"});
  const auto adaptive_explainer = explain::MakeExplainer("dcam_adaptive");
  const auto fixed_explainer = explain::MakeExplainer("dcam");
  for (size_t i = 0; i < explained.size(); ++i) {
    const auto& [series, mask] = explained[i];
    explain::ExplainOptions aopt;
    aopt.adaptive.batch = 10;
    aopt.adaptive.max_k = 200;
    aopt.adaptive.tolerance = 0.05;
    aopt.adaptive.seed = 700 + i;
    const explain::ExplanationResult ares =
        adaptive_explainer->Explain(model, series, 1, aopt);
    explain::ExplainOptions fopt;
    fopt.dcam.k = 100;
    fopt.dcam.seed = 700 + i;
    const explain::ExplanationResult fres =
        fixed_explainer->Explain(model, series, 1, fopt);
    adaptive.BeginRow();
    adaptive.Cell(static_cast<int64_t>(i));
    adaptive.Cell(static_cast<int64_t>(ares.k));
    adaptive.Cell(ares.converged ? "yes" : "no");
    adaptive.Cell(eval::DrAcc(ares.map, mask), 3);
    adaptive.Cell(eval::DrAcc(fres.map, mask), 3);
  }
  adaptive.WriteAligned(std::cout);

  // --- D. data augmentation --------------------------------------------------
  std::printf("\n--- D. training-set augmentation (Le Guennec et al. [32]) ---\n");
  TableWriter augtab({"training set", "instances", "test C-acc", "epochs"});
  {
    data::AugmentOptions aug;
    aug.copies = 2;
    aug.seed = 99;
    aug.warp_probability = 0.0;  // jitter + scale only; see table note
    const data::Dataset augmented = data::Augment(pair.train, aug);
    data::AugmentOptions warpy = aug;
    warpy.warp_probability = 1.0;
    const data::Dataset warped = data::Augment(pair.train, warpy);
    eval::TrainConfig atc = dcam_bench::BenchTrainConfig();
    atc.max_epochs = dcam_bench::FullMode() ? 120 : 60;
    atc.patience = 0;

    const dcam_bench::RunOutcome plain =
        dcam_bench::TrainOnce("dCNN", pair.train, pair.test, 21, atc);
    const dcam_bench::RunOutcome boosted =
        dcam_bench::TrainOnce("dCNN", augmented, pair.test, 21, atc);
    const dcam_bench::RunOutcome warped_run =
        dcam_bench::TrainOnce("dCNN", warped, pair.test, 21, atc);
    augtab.BeginRow();
    augtab.Cell("original");
    augtab.Cell(pair.train.size());
    augtab.Cell(plain.test_acc, 3);
    augtab.Cell(static_cast<int64_t>(plain.epochs));
    augtab.BeginRow();
    augtab.Cell("x3 jitter+scale");
    augtab.Cell(augmented.size());
    augtab.Cell(boosted.test_acc, 3);
    augtab.Cell(static_cast<int64_t>(boosted.epochs));
    augtab.BeginRow();
    augtab.Cell("x3 +window-warp");
    augtab.Cell(warped.size());
    augtab.Cell(warped_run.test_acc, 3);
    augtab.Cell(static_cast<int64_t>(warped_run.epochs));
  }
  augtab.WriteAligned(std::cout);

  std::printf("\ntotal time: %.1fs\n", total.ElapsedSeconds());
  return 0;
}
