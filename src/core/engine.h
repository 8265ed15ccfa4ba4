// Batched dCAM explanation engine.
//
// The paper's explanation loop (Section 4.4) evaluates k random permutations
// per explained series: k forwards of a (D, D, n) cube through a trained
// d-architecture model. ComputeDcamSerial runs them one at a time and
// re-allocates the permuted series, the C(S) cube, and the CAM buffer on
// every iteration, even though the whole nn stack is batch-aware and
// thread-pooled.
//
// DcamEngine amortizes the repeated evaluation:
//   * permutations are packed into batches of `Config::batch` instances and
//     written directly into one persistent (B, D, D, n) input tensor
//     (BuildCubeInto — no ApplyPermutation / PrepareInput intermediates);
//   * one model forward evaluates the whole batch;
//   * per-instance CAMs land in a persistent (B, D, n) scratch
//     (CamFromActivationInto);
//   * the M-transformation scatter (Definition 2) is driven by a morsel
//     sweep over target dimensions, via the inverse permutation, so every
//     (d, p, t) cell of the accumulator is owned by exactly one thread.
// Nothing is re-allocated across the k-loop, and — because scratch buffers
// live on the engine — nothing is re-allocated across series either, which
// is what the dataset-level (global) explanation path exploits.
//
// Determinism contract: at a fixed seed the engine is bit-identical to
// ComputeDcamSerial for every batch size (same mbar, same dcam, same n_g).
// Per-instance model outputs do not depend on the batch they ride in (each
// (instance, channel) plane is computed independently), the CAM is
// per-instance, and the scatter performs the same single float add per
// (d, p, t) cell per permutation, in permutation order.

#ifndef DCAM_CORE_ENGINE_H_
#define DCAM_CORE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/dcam.h"
#include "models/model.h"
#include "tensor/tensor.h"

namespace dcam {
namespace core {

/// One refinement checkpoint of a ComputeManyChunked request: its
/// permutation cursor after a tick round, plus — when the request was asked
/// to emit partials — the anytime dCAM map at that cursor. Ticks exist
/// because the k-loop is an anytime algorithm: mbar at k_done < k_target is
/// the same estimator at a smaller sample, so the partial map is meaningful
/// the whole way down.
struct DcamTick {
  /// Position of the request in the ComputeManyChunked argument arrays.
  size_t index = 0;
  /// Permutations accumulated so far (> 0) and the request's full budget.
  int k_done = 0;
  int k_target = 0;
  /// n_g over the k_done permutations evaluated so far.
  int num_correct = 0;
  /// Partial dCAM map (D, n) and temporal filter mu (n) at k_done. Null
  /// unless ChunkedConfig::emit_partial[index]; points at engine-owned
  /// scratch that is only valid during the callback (clone to keep).
  const Tensor* map = nullptr;
  const Tensor* mu = nullptr;
  /// Convergence score: relative L2 change of the partial map vs the
  /// previous tick's (1.0 at the first tick, when there is no previous map;
  /// 0.0 when partials are not emitted for this request).
  double delta = 0.0;
};

/// Verdict of a tick callback: keep refining, or stop this request now. A
/// cancelled request's DcamResult carries the partial state at the boundary
/// (k = k_done, cancelled = true); its remaining permutation budget is never
/// drawn, so batch-mates stop sharing forward batches with it immediately.
enum class TickAction { kContinue, kCancel };

using DcamTickFn = std::function<TickAction(const DcamTick&)>;

class DcamEngine {
 public:
  struct Config {
    /// Permutations evaluated per model forward. 0 (the default) adapts to
    /// the configured worker set: the global pool's width — which follows
    /// DCAM_CPU_SET when a core set is pinned, hardware concurrency
    /// otherwise — clamped to [1, 16]. Wider batches feed every worker of
    /// the pool in one forward; on a single core a batch of 1 is fastest
    /// (larger batches stream the layer activations through the cache with
    /// no parallelism to pay for it), and a 4-core-pinned service must not
    /// inherit a 64-wide batch from a 64-core host.
    int batch = 0;
  };

  /// The engine keeps a non-owning pointer to `model`, which must be a
  /// cube-input (d-architecture) GapModel and outlive the engine. Verified
  /// on first use via PrepareInput's output shape.
  explicit DcamEngine(models::GapModel* model);
  DcamEngine(models::GapModel* model, Config config);

  /// Batched drop-in for ComputeDcam: dCAM of `series` (D, n) for
  /// `class_idx`. Bit-identical to ComputeDcamSerial at the same seed.
  DcamResult Compute(const Tensor& series, int class_idx,
                     const DcamOptions& options = {});

  /// Evaluates the given permutations against `series` in batches,
  /// scattering each CAM into `msum` (D, D, n, pre-allocated, accumulated
  /// in-place). Returns how many permutations the model classified as
  /// `class_idx` (the n_g criterion). For callers that replay a permutation
  /// schedule of their own (perfbench's stage replay); every explanation
  /// path runs the ComputeManyChunked loop instead.
  int Accumulate(const Tensor& series, int class_idx,
                 const std::vector<std::vector<int>>& perms, Tensor* msum);

  /// Explains many series in one pass: result[i] explains series[i] (D, n_i)
  /// w.r.t. class_idx[i] under options[i]. Permutation batches are packed
  /// across series boundaries whenever consecutive series share (D, n), so
  /// tail underfill costs at most one partial batch per shape change — the
  /// dataset-level path of Section 4.6. This is ComputeManyChunked with a
  /// single round in which every request draws its whole budget.
  std::vector<DcamResult> ComputeMany(const std::vector<Tensor>& series,
                                      const std::vector<int>& class_idx,
                                      const std::vector<DcamOptions>& options);

  /// Shared-options overload: instance i uses options.seed + i so that
  /// per-instance permutation streams stay independent.
  std::vector<DcamResult> ComputeMany(const std::vector<Tensor>& series,
                                      const std::vector<int>& class_idx,
                                      const DcamOptions& options = {});

  /// The engine's k-loop: Compute, ComputeMany and ComputeDcamAdaptive are
  /// wrappers over it, and the service's anytime/streaming path calls it
  /// directly. Requests advance round-robin: each round draws up to
  /// `tick_every` permutations per live request, packed into shared forward
  /// batches across request boundaries, then `on_tick` fires once per
  /// still-unfinished request with its cursor — and, for requests flagged
  /// in `emit_partial`, the partial map plus the convergence delta.
  /// Returning kCancel retires the request at that boundary; its unspent
  /// budget is simply never drawn, so the remaining rounds pack only live
  /// requests.
  ///
  /// Determinism: per-request accumulation order depends only on that
  /// request's own permutation order, and per-instance forwards/CAMs are
  /// batch-composition-independent, so an uncancelled request's terminal
  /// result is bit-identical to ComputeMany at the same seed — regardless of
  /// tick_every, of cancellations among batch-mates, and of how rounds
  /// interleave requests. (Verified by engine_test.)
  ///
  /// Ticks never fire for a request whose budget completed during the round
  /// (terminal results are returned, not ticked), so a request with
  /// k <= tick_every sees zero ticks.
  ///
  /// Memory: a request's (D, D, n) accumulator is allocated at its first
  /// draw and finalized by the flush that scatters its last permutation. In
  /// a single round (ComputeMany) only the requests the packing horizon
  /// touches are live at once; with several rounds every unfinished request
  /// is, so callers bound N (the service chunks groups at
  /// Config::max_coalesce).
  struct ChunkedConfig {
    /// Permutations drawn per request per tick round; 0 = the engine batch
    /// width (one full forward batch per round per live request).
    int tick_every = 0;
    /// Per-request: emit the partial map (and delta) on each tick. Costs a
    /// (D, D, n) clone + extraction per tick. Empty = all false.
    std::vector<uint8_t> emit_partial;
  };
  std::vector<DcamResult> ComputeManyChunked(
      const std::vector<Tensor>& series, const std::vector<int>& class_idx,
      const std::vector<DcamOptions>& options, const ChunkedConfig& chunked,
      const DcamTickFn& on_tick);

  models::GapModel* model() const { return model_; }
  int batch() const { return config_.batch; }

 private:
  // One (series, permutation) pair awaiting evaluation. Slots live in a
  // persistent pool (pending_) and are reused across flushes, so the perm
  // and inverse vectors keep their capacity instead of reallocating per
  // permutation.
  struct Slot {
    const Tensor* series = nullptr;
    std::vector<int> perm;
    std::vector<int> inverse;  // filled by Flush for the gather-form scatter
    int class_idx = 0;
    Tensor* msum = nullptr;    // (D, D, n) accumulator this slot scatters into
    int* num_correct = nullptr;  // n_g counter this slot votes into
    // GEMM precision of this slot's forward. A flush evaluates one batch in
    // one precision, so the k-loop flushes on precision changes exactly like
    // on shape changes.
    gemm::Precision precision = gemm::Precision::kFloat32;
  };

  // Returns persistent scratch of the exact requested shape. The full-batch
  // shape and the most recent partial-batch shape are cached separately so
  // the k-loop tail does not thrash the main buffers.
  Tensor* ScratchCube(int64_t b, int64_t dims, int64_t len);
  Tensor* ScratchCam(int64_t b, int64_t dims, int64_t len);

  // The next free slot of the pool; Flush when the pool holds a full batch.
  Slot* NextSlot();

  // Evaluates and scatters the pending slots (which share one (D, n)
  // shape), then marks the pool empty.
  void Flush();

  void CheckCubeModel(int64_t dims, int64_t len);

  models::GapModel* model_;
  Config config_;
  bool checked_cube_input_ = false;

  // Persistent scratch. The cube/CAM batches deliberately keep ordinary
  // Tensor storage rather than arena storage: inside an nn::GradientScope
  // the model's layers cache a shared-storage copy of their input, so the
  // cube must stay valid under shared ownership that can outlive a flush.
  // (An unrecorded eval forward, the engine's own, keeps none.) Warmth comes
  // from reuse (the same buffers serve every flush) plus morsel affinity
  // keeping the same workers — and, when pinned, cores — on the same slices.
  Tensor cube_full_, cam_full_;  // batch == config_.batch
  Tensor cube_tail_, cam_tail_;  // most recent partial batch
  std::vector<Slot> pending_;    // slot pool; first pending_count_ are live
  int pending_count_ = 0;
  std::vector<int> slot_classes_;  // scratch per-slot target class

  // Per-flush scatter grouping (slot ranges sharing one accumulator); a
  // member so the steady-state flush loop allocates nothing.
  struct Group {
    Tensor* msum;
    int64_t first, last;  // slot range [first, last)
  };
  std::vector<Group> groups_;
};

}  // namespace core
}  // namespace dcam

#endif  // DCAM_CORE_ENGINE_H_
