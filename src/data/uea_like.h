// Synthetic stand-ins for the UCR/UEA multivariate archive (Table 2).
//
// Substitution (README, "Deviations from the paper"): the archive is not
// available offline, so each named dataset is regenerated with matching
// metadata (|C| classes, D dimensions, length — long archives are capped so
// CPU training stays tractable) and a class structure that exercises the same
// axes the archive stresses: per-dimension spectral signatures, localized
// class-specific transients, and cross-dimension synchronized events that
// require comparing dimensions (the regime where the paper's d-architectures
// win).

#ifndef DCAM_DATA_UEA_LIKE_H_
#define DCAM_DATA_UEA_LIKE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/series.h"

namespace dcam {
namespace data {

struct UeaLikeSpec {
  std::string name;
  int classes;
  int dims;
  int length;
  int per_class;
};

/// The datasets regenerated for the Table 2 experiment (a metadata-matched
/// subset of the paper's 23; see README, "Deviations from the paper").
const std::vector<UeaLikeSpec>& UeaLikeRegistry();

/// Looks up a registry entry by name; aborts if absent.
const UeaLikeSpec& UeaLikeByName(const std::string& name);

/// Generates the dataset. The class structure is deterministic in `seed`
/// and the spec name, so train/test regeneration is reproducible.
Dataset BuildUeaLike(const UeaLikeSpec& spec, uint64_t seed);

}  // namespace data
}  // namespace dcam

#endif  // DCAM_DATA_UEA_LIKE_H_
