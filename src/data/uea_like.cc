#include "data/uea_like.h"

#include <cmath>

#include "util/check.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace dcam {
namespace data {
namespace {

constexpr double kTwoPi = 2.0 * M_PI;

uint64_t HashName(const std::string& name) {
  // The historical seed (a truncated FNV offset basis) is kept verbatim: it
  // feeds every synthetic dataset's structure RNG, so changing it would
  // regenerate different data under the same dataset names.
  return Fnv1a(name.data(), name.size(), 1469598103934665603ULL);
}

// Background spectrum shared by every class of a dataset: classes must not
// be separable from global frequency/phase content alone, otherwise even a
// tiny recurrent model saturates the task. What distinguishes classes is the
// *localized* structure below — the regime the paper's introduction
// motivates (patterns of interest in a subset of dimensions).
struct DatasetBackground {
  std::vector<double> freq;  // per dimension
  std::vector<double> amp;   // per dimension
  std::vector<double> phase;  // per dimension
};

// Per-class latent structure: localized transients only.
struct ClassProfile {
  int event_dim_a = 0;     // dimensions carrying the synchronized event
  int event_dim_b = 0;
  double event_pos = 0.5;  // relative position of the event
  int bump_dim = 0;        // dimension carrying the solo transient
  double bump_pos = 0.5;
};

DatasetBackground MakeBackground(int dims, Rng* rng) {
  DatasetBackground bg;
  bg.freq.resize(dims);
  bg.amp.resize(dims);
  bg.phase.resize(dims);
  for (int d = 0; d < dims; ++d) {
    bg.freq[d] = rng->Uniform(1.0, 5.0);
    bg.amp[d] = rng->Uniform(0.5, 1.2);
    bg.phase[d] = rng->Uniform(0.0, kTwoPi);
  }
  return bg;
}

ClassProfile MakeProfile(int dims, Rng* rng) {
  ClassProfile p;
  p.event_dim_a = static_cast<int>(rng->UniformInt(dims));
  p.event_dim_b = dims > 1
                      ? static_cast<int>((p.event_dim_a + 1 +
                                          rng->UniformInt(dims - 1)) %
                                         dims)
                      : p.event_dim_a;
  p.event_pos = rng->Uniform(0.15, 0.85);
  p.bump_dim = static_cast<int>(rng->UniformInt(dims));
  p.bump_pos = rng->Uniform(0.15, 0.85);
  return p;
}

}  // namespace

const std::vector<UeaLikeSpec>& UeaLikeRegistry() {
  // Metadata from Table 2 of the paper; lengths above 160 are capped (README,
  // "Deviations from the paper") so the full 12-model sweep trains on CPU.
  static const std::vector<UeaLikeSpec>* registry =
      new std::vector<UeaLikeSpec>({
          {"RacketSports", 4, 6, 30, 24},
          {"BasicMotions", 4, 6, 100, 20},
          {"Libras", 15, 2, 45, 12},
          {"NATOPS", 6, 24, 51, 16},
          {"FingerMovements", 2, 28, 50, 24},
          {"PenDigits", 10, 2, 8, 20},
          {"LSST", 14, 6, 36, 12},
          {"Epilepsy", 4, 3, 160, 20},
      });
  return *registry;
}

const UeaLikeSpec& UeaLikeByName(const std::string& name) {
  for (const UeaLikeSpec& spec : UeaLikeRegistry()) {
    if (spec.name == name) return spec;
  }
  DCAM_CHECK(false) << "unknown UEA-like dataset: " << name;
  static UeaLikeSpec dummy;
  return dummy;
}

Dataset BuildUeaLike(const UeaLikeSpec& spec, uint64_t seed) {
  DCAM_CHECK_GT(spec.classes, 1);
  DCAM_CHECK_GT(spec.dims, 0);
  DCAM_CHECK_GT(spec.length, 4);
  DCAM_CHECK_GT(spec.per_class, 1);

  // Class structure is a deterministic function of (name, seed) so separate
  // train/test generations see the same classes.
  Rng structure_rng(HashName(spec.name) ^ 0x5DEECE66DULL);
  const DatasetBackground bg = MakeBackground(spec.dims, &structure_rng);
  std::vector<ClassProfile> profiles;
  profiles.reserve(spec.classes);
  for (int c = 0; c < spec.classes; ++c) {
    profiles.push_back(MakeProfile(spec.dims, &structure_rng));
  }

  Rng rng(seed ^ HashName(spec.name));
  const int N = spec.classes * spec.per_class;
  const int D = spec.dims, n = spec.length;

  Dataset out;
  out.name = spec.name;
  out.num_classes = spec.classes;
  out.X = Tensor({N, D, n});
  out.y.resize(N);

  const double event_width = std::max(1.5, n * 0.05);
  for (int i = 0; i < N; ++i) {
    const int cls = i / spec.per_class;
    out.y[i] = cls;
    const ClassProfile& p = profiles[cls];
    // Per-instance phase jitter is large: the classes share the background
    // spectrum, so global frequency/phase content carries no label signal.
    const double phase_jitter = rng.Uniform(0.0, kTwoPi);
    float* inst = out.X.data() + static_cast<int64_t>(i) * D * n;
    for (int d = 0; d < D; ++d) {
      float* row = inst + d * n;
      for (int t = 0; t < n; ++t) {
        const double x =
            kTwoPi * bg.freq[d] * t / n + bg.phase[d] + phase_jitter;
        row[t] = static_cast<float>(bg.amp[d] * std::sin(x) +
                                    rng.Normal(0.0, 0.25));
      }
    }
    // Synchronized transient on two class-specific dimensions (needs
    // cross-dimension comparison to exploit).
    const double ec = p.event_pos * n + rng.Uniform(-0.02, 0.02) * n;
    for (int d : {p.event_dim_a, p.event_dim_b}) {
      float* row = inst + d * n;
      for (int t = 0; t < n; ++t) {
        const double dt = (t - ec) / event_width;
        row[t] += static_cast<float>(2.0 * std::exp(-dt * dt));
      }
    }
    // Solo transient on one class-specific dimension (single-dimension
    // feature).
    {
      const double bc = p.bump_pos * n + rng.Uniform(-0.02, 0.02) * n;
      float* row = inst + p.bump_dim * n;
      for (int t = 0; t < n; ++t) {
        const double dt = (t - bc) / event_width;
        row[t] -= static_cast<float>(1.2 * std::exp(-dt * dt));
      }
    }
  }
  return out;
}

}  // namespace data
}  // namespace dcam
