// Synthetic stand-in for the JIGSAWS robot-assisted-surgery kinematics
// dataset (Gao et al. 2014) used in the paper's Section 5.8 use case.
//
// Substitution (README, "Deviations from the paper"): the real recordings are
// not available offline, so we generate 76-dimensional kinematic-like series
// with the same sensor grouping — four manipulator groups (left/right PSM,
// left/right MTM) of 19 sensors each (3 Cartesian positions, 9 rotation
// matrix entries, 6 linear/angular velocities, 1 gripper angle) — segmented
// into the 11 surgical gestures G1..G11. Novice instances carry tremor and
// gripper-angle artifacts concentrated in the MTM gripper and tooltip
// rotation sensors during gestures G6 and G9, which is exactly the ground
// truth the paper's analysis recovers with dCAM; an explanation method that
// works should light up those sensors in those gestures.

#ifndef DCAM_DATA_JIGSAWS_LIKE_H_
#define DCAM_DATA_JIGSAWS_LIKE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/series.h"

namespace dcam {
namespace data {

/// Surgical gesture vocabulary size (G1..G11).
inline constexpr int kNumGestures = 11;

/// Sensors per manipulator group and number of groups.
inline constexpr int kSensorsPerGroup = 19;
inline constexpr int kNumGroups = 4;
inline constexpr int kJigsawsDims = kSensorsPerGroup * kNumGroups;  // 76

struct JigsawsLikeConfig {
  /// Instances per class: novice / intermediate / expert. Paper: 19/10/10.
  int novices = 19;
  int intermediates = 10;
  int experts = 10;
  /// Series length (the real dataset is variable-length; we fix it so
  /// instances batch; one gesture segment spans length/kNumGestures steps).
  int length = 220;
  uint64_t seed = 2022;

  /// Optional downscaling of dimensionality for fast tests: keeps the group
  /// structure but with fewer sensors per group (must divide 19... any value
  /// in [4, 19]; gripper + 3 rotation sensors always included).
  int sensors_per_group = kSensorsPerGroup;
};

struct JigsawsLike {
  /// Labels: 0 = novice, 1 = intermediate, 2 = expert.
  Dataset dataset;
  /// Per instance, per timestep: gesture id in [0, kNumGestures).
  std::vector<std::vector<int>> gestures;
  /// Human-readable sensor names, size D.
  std::vector<std::string> sensor_names;
  /// Indices of the sensors that carry the novice-specific artifact (the
  /// ground truth the explanation should recover).
  std::vector<int> artifact_sensors;
  /// Gestures (ids) during which the artifact is active.
  std::vector<int> artifact_gestures;
};

JigsawsLike BuildJigsawsLike(const JigsawsLikeConfig& config = {});

}  // namespace data
}  // namespace dcam

#endif  // DCAM_DATA_JIGSAWS_LIKE_H_
