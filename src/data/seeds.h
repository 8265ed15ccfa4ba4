// Parametric generators standing in for the UCR seed datasets the paper
// injects patterns from (StarLightCurves, ShapesAll, Fish — Section 5.1.1).
//
// Substitution (README, "Deviations from the paper"): the archive data is not
// available offline, so each seed is a two-class family of univariate
// waveforms whose classes are locally distinguishable — the only property the
// Type 1 / Type 2 builders rely on:
//   * StarLight-like — smooth periodic light curves; class 0 is a soft
//     sinusoidal variable, class 1 adds a sharp eclipse-style dip.
//   * Shapes-like — piecewise outline profiles; class 0 is a plateau/square
//     profile, class 1 a triangular ramp profile.
//   * Fish-like — band-limited bump contours differing in bump asymmetry.

#ifndef DCAM_DATA_SEEDS_H_
#define DCAM_DATA_SEEDS_H_

#include <string>
#include <vector>

namespace dcam {

class Rng;

namespace data {

enum class SeedType { kStarLight, kShapes, kFish };

std::string SeedTypeName(SeedType type);

/// One univariate instance of the given seed family and class (0 or 1),
/// length `len`, roughly zero-mean unit-scale, with mild instance-to-instance
/// variation drawn from `rng`.
std::vector<float> SeedInstance(SeedType type, int cls, int len, Rng* rng);

}  // namespace data
}  // namespace dcam

#endif  // DCAM_DATA_SEEDS_H_
