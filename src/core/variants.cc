#include "core/variants.h"

#include <cmath>

#include "core/engine.h"

namespace dcam {
namespace core {

double RelativeL2Delta(const Tensor& a, const Tensor& b) {
  double num = 0.0, den = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    num += d * d;
    den += static_cast<double>(b[i]) * b[i];
  }
  if (den == 0.0) return num == 0.0 ? 0.0 : 1.0;
  return std::sqrt(num / den);
}

std::string ExtractionRuleName(ExtractionRule rule) {
  switch (rule) {
    case ExtractionRule::kVarianceTimesMu:
      return "var*mu";
    case ExtractionRule::kVarianceOnly:
      return "var";
    case ExtractionRule::kMeanOnly:
      return "mean";
    case ExtractionRule::kMadTimesMu:
      return "mad*mu";
  }
  return "?";
}

const std::vector<ExtractionRule>& AllExtractionRules() {
  static const std::vector<ExtractionRule> kAll = {
      ExtractionRule::kVarianceTimesMu, ExtractionRule::kVarianceOnly,
      ExtractionRule::kMeanOnly, ExtractionRule::kMadTimesMu};
  return kAll;
}

Tensor ExtractWithRule(const Tensor& mbar, ExtractionRule rule) {
  Tensor paper_map, mu;
  ExtractDcam(mbar, &paper_map, &mu);
  if (rule == ExtractionRule::kVarianceTimesMu) return paper_map;

  const int64_t D = mbar.dim(0), n = mbar.dim(2);
  Tensor map({D, n});
  for (int64_t d = 0; d < D; ++d) {
    for (int64_t t = 0; t < n; ++t) {
      double sum = 0.0, sq = 0.0;
      for (int64_t p = 0; p < D; ++p) {
        const double v = mbar.at(d, p, t);
        sum += v;
        sq += v * v;
      }
      const double mean = sum / D;
      switch (rule) {
        case ExtractionRule::kVarianceOnly: {
          double var = sq / D - mean * mean;
          if (var < 0.0) var = 0.0;
          map.at(d, t) = static_cast<float>(var);
          break;
        }
        case ExtractionRule::kMeanOnly:
          map.at(d, t) = static_cast<float>(mean);
          break;
        case ExtractionRule::kMadTimesMu: {
          double mad = 0.0;
          for (int64_t p = 0; p < D; ++p) {
            mad += std::fabs(mbar.at(d, p, t) - mean);
          }
          mad /= D;
          map.at(d, t) = static_cast<float>(mad) * mu[t];
          break;
        }
        case ExtractionRule::kVarianceTimesMu:
          break;  // handled above
      }
    }
  }
  return map;
}

AdaptiveDcamResult ComputeDcamAdaptive(models::GapModel* model,
                                       const Tensor& series, int class_idx,
                                       const AdaptiveDcamOptions& options) {
  DCAM_CHECK_GE(options.batch, 1);
  DCAM_CHECK_GE(options.max_k, options.batch);
  DCAM_CHECK_GT(options.tolerance, 0.0);
  DCAM_CHECK_GE(options.stable_batches, 1);

  // A fixed-k run at max_k that ticks after every batch. Each tick past the
  // first is a convergence check; the terminal convergence score is the
  // check at max_k. Cancelling at the tick where the rule fires leaves the
  // fixed-k result at k = k_used, bit for bit.
  AdaptiveDcamResult out;
  int stable = 0;
  const auto check = [&](double delta) {
    out.deltas.push_back(delta);
    stable = delta < options.tolerance ? stable + 1 : 0;
    out.converged = stable >= options.stable_batches;
  };
  DcamOptions fixed;
  fixed.k = options.max_k;
  fixed.seed = options.seed;
  fixed.include_identity = options.include_identity;
  DcamEngine::Config engine_config;
  engine_config.batch = options.batch;
  DcamEngine engine(model, engine_config);
  DcamEngine::ChunkedConfig chunked;
  chunked.tick_every = options.batch;
  chunked.emit_partial = {1};
  out.result = engine.ComputeManyChunked(
      {series}, {class_idx}, {fixed}, chunked, [&](const DcamTick& tick) {
        // The first tick has no previous map to compare against.
        if (tick.k_done > options.batch) check(tick.delta);
        return out.converged ? TickAction::kCancel : TickAction::kContinue;
      })[0];
  if (!out.result.cancelled && options.max_k > options.batch) {
    check(out.result.convergence);
  }
  out.k_used = out.result.k;
  out.result.cancelled = false;
  out.result.convergence = 0.0;
  return out;
}

Tensor ContrastiveDcam(models::GapModel* model, const Tensor& series,
                       int class_a, int class_b, const DcamOptions& options) {
  DCAM_CHECK_NE(class_a, class_b);
  // One engine serves both classes so the cube/CAM scratch is built once.
  DcamEngine engine(model);
  const DcamResult a = engine.Compute(series, class_a, options);
  const DcamResult b = engine.Compute(series, class_b, options);
  Tensor diff(a.dcam.shape());
  for (int64_t i = 0; i < diff.size(); ++i) {
    diff[i] = a.dcam[i] - b.dcam[i];
  }
  return diff;
}

}  // namespace core
}  // namespace dcam
