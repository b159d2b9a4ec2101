// Versioned store manifests (the "dataset descriptor" every chunk store
// keeps next to its chunks, as TensorDB/SciDB arrays do).
//
// A MANIFEST file at `<prefix>/MANIFEST` records the store's geometry so
// consumers open it by name instead of reverse-engineering shape and grid
// from block filenames:
//
//   tpcp-manifest 5
//   kind tensor            (or: factors)
//   shape 60 60 60
//   parts 2 2 2
//   rank 5                 (factor stores only)
//   format csf             (tensor stores; omitted = dense)
//
// Factor-store manifests of a cancelled (or crashed-after-checkpoint)
// Phase-2 refinement additionally carry a checkpoint record, so a
// resubmitted job resumes mid-refinement instead of restarting:
//
//   ckpt_schedule zo       (schedule the cursor indexes into)
//   ckpt_iteration 3       (completed virtual iterations)
//   ckpt_cursor 57         (next schedule position to execute)
//   ckpt_fingerprint 42    (math-shaping options fingerprint)
//   ckpt_plan 1234567      (execution-plan fingerprint)
//   ckpt_ownership 7654321  (dist ownership-map fingerprint; 0 =
//                            cut by a single process)
//   ckpt_fit 0.81 0.86 0.88   (surrogate fit trace, one per iteration)
//
// Only the current version (5) is read; any other version is
// FailedPrecondition. A checkpoint carries every ckpt_* key — a missing
// one is Corruption. The store's geometry lives only here: a store
// without a manifest does not open.

#ifndef TPCP_GRID_MANIFEST_H_
#define TPCP_GRID_MANIFEST_H_

#include <optional>
#include <string>
#include <vector>

#include "grid/grid_partition.h"
#include "grid/slab_format.h"
#include "storage/env.h"
#include "util/status.h"

namespace tpcp {

/// Mid-refinement state of an interrupted Phase 2, sufficient (together
/// with the persisted sub-factors) to continue the run bit-identically.
struct Phase2Checkpoint {
  /// Name of the update schedule the cursor indexes into (core/names.h);
  /// resuming under a different schedule is rejected.
  std::string schedule;
  /// Completed virtual iterations (== fit_trace.size()).
  int iteration = 0;
  /// Next schedule position to execute (may be mid-iteration).
  int64_t cursor = 0;
  /// Surrogate fit after each completed virtual iteration.
  std::vector<double> fit_trace;
  /// TwoPhaseCpOptions::ResumeFingerprint() of the interrupted run, so
  /// auto-resume only continues runs whose math-shaping options match the
  /// resubmitted spec.
  uint64_t options_fingerprint = 0;
  /// ExecutionPlan::fingerprint() of the interrupted run — the identity of
  /// the (possibly reordered, possibly sharded) step order the cursor
  /// indexes into. A resume whose rebuilt plan fingerprints differently
  /// (changed reorder/shard options, or a budget/policy change that
  /// flipped the certification outcome) is rejected instead of replaying
  /// the cursor against a different order.
  uint64_t plan_fingerprint = 0;
  /// DistributedPlan::ownership_fingerprint() of the fleet that wrote the
  /// checkpoint (0: cut by a single-process run). A distributed resume
  /// under any other ownership map (changed fleet size or unit weights,
  /// or a single-process checkpoint) is rejected — it would re-price the
  /// wire ledger mid-run. The single-process engine ignores the field,
  /// which is what keeps the degrade-to-single-process floor able to
  /// finish any dist checkpoint.
  uint64_t ownership_fingerprint = 0;
};

/// Geometry descriptor persisted per store.
struct StoreManifest {
  static constexpr int kVersion = 5;
  static constexpr const char* kTensorKind = "tensor";
  static constexpr const char* kFactorsKind = "factors";

  std::string kind;    // kTensorKind or kFactorsKind
  GridPartition grid;  // shape + partition counts
  int64_t rank = 0;    // factor stores only (0 for tensor stores)
  /// Block encoding of a tensor store (dense when the key is absent).
  /// Serialized only when non-dense.
  SlabFormat format = SlabFormat::kDense;
  /// Present only on factor stores holding an interrupted Phase 2.
  std::optional<Phase2Checkpoint> checkpoint;

  /// The manifest of a factor store over `grid` at `rank`, carrying
  /// `checkpoint` when set.
  static StoreManifest Factors(
      const GridPartition& grid, int64_t rank,
      std::optional<Phase2Checkpoint> checkpoint = std::nullopt);

  /// Renders the manifest file contents.
  std::string Serialize() const;

  /// Parses and validates manifest bytes of version kVersion.
  /// FailedPrecondition on any other version; Corruption on a malformed
  /// manifest, including an incomplete checkpoint and geometry that fails
  /// GridPartition::Create validation.
  static Result<StoreManifest> Parse(const std::string& bytes);
};

/// The manifest file name for a store rooted at `prefix`.
std::string ManifestFileName(const std::string& prefix);

/// Writes `manifest` for the store at `prefix`.
Status WriteManifest(Env* env, const std::string& prefix,
                     const StoreManifest& manifest);

/// Reads the manifest for `prefix`. NotFound if absent, Corruption if
/// unparsable.
Result<StoreManifest> ReadManifest(Env* env, const std::string& prefix);

}  // namespace tpcp

#endif  // TPCP_GRID_MANIFEST_H_
