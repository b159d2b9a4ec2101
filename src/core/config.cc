#include "core/config.h"

#include <cstring>
#include <limits>

#include "core/names.h"
#include "util/format.h"
#include "util/parse.h"

namespace tpcp {

namespace {

/// FNV-1a over a 64-bit word.
uint64_t HashWord(uint64_t hash, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (word >> (8 * i)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t HashDouble(uint64_t hash, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return HashWord(hash, bits);
}

Status SetField(const std::string& key, const std::string& value,
                int64_t* out) {
  const Result<int64_t> parsed = ParseInt64(value);
  if (!parsed.ok()) {
    return Status::InvalidArgument("option '" + key +
                                   "' must be an integer: '" + value + "'");
  }
  *out = *parsed;
  return Status::OK();
}

Status SetField(const std::string& key, const std::string& value, int* out) {
  int64_t wide = 0;
  TPCP_RETURN_IF_ERROR(SetField(key, value, &wide));
  if (wide < std::numeric_limits<int>::min() ||
      wide > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("option '" + key +
                                   "' is out of range: '" + value + "'");
  }
  *out = static_cast<int>(wide);
  return Status::OK();
}

Status SetField(const std::string& key, const std::string& value,
                uint64_t* out) {
  const Result<uint64_t> parsed = ParseUint64(value);
  if (!parsed.ok()) {
    return Status::InvalidArgument("option '" + key +
                                   "' must be an unsigned 64-bit integer: '" +
                                   value + "'");
  }
  *out = *parsed;
  return Status::OK();
}

Status SetField(const std::string& key, const std::string& value,
                double* out) {
  const Result<double> parsed = ParseDouble(value);
  if (!parsed.ok()) {
    return Status::InvalidArgument("option '" + key + "': " +
                                   parsed.status().message());
  }
  *out = *parsed;
  return Status::OK();
}

Status SetField(const std::string& key, const std::string& value, bool* out) {
  const Result<bool> parsed = ParseBool(value);
  if (!parsed.ok()) {
    return Status::InvalidArgument("option '" + key +
                                   "' must be a boolean (0/1/true/false)");
  }
  *out = *parsed;
  return Status::OK();
}

/// InvalidArgument unless `value >= min`.
Status AtLeast(const char* key, int64_t value, int64_t min) {
  if (value >= min) return Status::OK();
  return Status::InvalidArgument("option '" + std::string(key) +
                                 "' must be >= " + std::to_string(min) +
                                 " (got " + std::to_string(value) + ")");
}

}  // namespace

uint64_t TwoPhaseCpOptions::ResumeFingerprint() const {
  uint64_t hash = 14695981039346656037ull;
  hash = HashWord(hash, static_cast<uint64_t>(rank));
  hash = HashWord(hash, seed);
  hash = HashWord(hash, static_cast<uint64_t>(init));
  hash = HashWord(hash, static_cast<uint64_t>(schedule));
  hash = HashWord(hash, static_cast<uint64_t>(phase1_max_iterations));
  hash = HashDouble(hash, phase1_fit_tolerance);
  hash = HashDouble(hash, phase1_ridge);
  hash = HashDouble(hash, refinement_ridge);
  // Planner knobs shape the executed step order and the shard chunking —
  // the numbers, not just the timing — so they are part of the identity.
  // Hashed only when consumed: default-plan runs keep the exact
  // fingerprint value pre-planner binaries recorded (so their checkpoints
  // still auto-resume after an upgrade), and the reorder window — which
  // the planner reads only when reordering is on — never separates two
  // specs that produce identical runs.
  // The *effective* decision is hashed: with the block-centric auto
  // default on, a default FO/ZO/HO run and an explicit --plan-reorder run
  // of the same spec execute the same plan and must resume each other.
  const bool reorder = EffectivePlanReorder();
  if (reorder || shard_slab_blocks != 0) {
    hash = HashWord(hash, reorder ? 1u : 0u);
    hash = HashWord(hash, reorder
                              ? static_cast<uint64_t>(plan_reorder_window)
                              : 0u);
    hash = HashWord(hash, static_cast<uint64_t>(shard_slab_blocks));
  }
  // Fused-multiply-add kernels change every Phase-2 rounding sequence.
  // Hashed only when enabled, like the planner knobs, so checkpoints cut
  // by pre-FMA binaries keep their fingerprints.
  if (kernel_fma) {
    hash = HashWord(hash, 0x666d61u);  // "fma"
  }
  return hash;
}

std::string TwoPhaseCpOptions::ToString() const {
  std::string out = "rank=" + std::to_string(rank);
  out += " schedule=";
  out += ScheduleTypeName(schedule);
  out += " policy=";
  out += PolicyTypeName(policy);
  out += " init=";
  out += InitMethodName(init);
  if (buffer_bytes > 0) {
    out += " buffer=" + HumanBytes(buffer_bytes);
  } else {
    out += " buffer_fraction=" + Fixed(buffer_fraction, 3);
  }
  out += " max_virtual_iterations=" + std::to_string(max_virtual_iterations);
  if (prefetch_depth > 0) {
    out += " prefetch_depth=" + std::to_string(prefetch_depth);
    out += " io_threads=" + std::to_string(io_threads);
  }
  if (compute_threads > 1) {
    out += " compute_threads=" + std::to_string(compute_threads);
  }
  if (EffectivePlanReorder()) {
    out += plan_reorder ? " plan_reorder=1" : " plan_reorder=auto";
    if (plan_reorder_window > 0) {
      out += " plan_reorder_window=" + std::to_string(plan_reorder_window);
    }
  }
  if (shard_slab_blocks > 0) {
    out += " shard_slab_blocks=" + std::to_string(shard_slab_blocks);
  }
  if (kernel_fma) out += " kernel_fma=1";
  if (policy_victim_hints) out += " policy_victim_hints=1";
  return out;
}

std::map<std::string, std::string> OptionsToMap(
    const TwoPhaseCpOptions& options) {
  std::map<std::string, std::string> map;
  map["rank"] = std::to_string(options.rank);
  map["phase1_max_iterations"] =
      std::to_string(options.phase1_max_iterations);
  map["phase1_fit_tolerance"] = RoundTripDouble(options.phase1_fit_tolerance);
  map["phase1_ridge"] = RoundTripDouble(options.phase1_ridge);
  map["init"] = InitMethodName(options.init);
  map["seed"] = std::to_string(options.seed);
  map["num_threads"] = std::to_string(options.num_threads);
  map["schedule"] = ScheduleTypeName(options.schedule);
  map["policy"] = PolicyTypeName(options.policy);
  map["buffer_fraction"] = RoundTripDouble(options.buffer_fraction);
  map["buffer_bytes"] = std::to_string(options.buffer_bytes);
  map["max_virtual_iterations"] =
      std::to_string(options.max_virtual_iterations);
  map["fit_tolerance"] = RoundTripDouble(options.fit_tolerance);
  map["refinement_ridge"] = RoundTripDouble(options.refinement_ridge);
  map["resume_phase2"] = options.resume_phase2 ? "1" : "0";
  map["prefetch_depth"] = std::to_string(options.prefetch_depth);
  map["io_threads"] = std::to_string(options.io_threads);
  map["compute_threads"] = std::to_string(options.compute_threads);
  map["plan_reorder"] = options.plan_reorder ? "1" : "0";
  map["plan_reorder_auto"] = options.plan_reorder_auto ? "1" : "0";
  map["plan_reorder_window"] = std::to_string(options.plan_reorder_window);
  map["shard_slab_blocks"] = std::to_string(options.shard_slab_blocks);
  map["kernel_fma"] = options.kernel_fma ? "1" : "0";
  map["policy_victim_hints"] = options.policy_victim_hints ? "1" : "0";
  map["max_seconds"] = RoundTripDouble(options.max_seconds);
  return map;
}

Status ApplyOption(const std::string& key, const std::string& value,
                   TwoPhaseCpOptions* options) {
  TwoPhaseCpOptions& o = *options;
  if (key == "rank") return SetField(key, value, &o.rank);
  if (key == "phase1_max_iterations") {
    return SetField(key, value, &o.phase1_max_iterations);
  }
  if (key == "phase1_fit_tolerance") {
    return SetField(key, value, &o.phase1_fit_tolerance);
  }
  if (key == "phase1_ridge") return SetField(key, value, &o.phase1_ridge);
  if (key == "init") {
    TPCP_ASSIGN_OR_RETURN(o.init, InitMethodFromName(value));
    return Status::OK();
  }
  if (key == "seed") return SetField(key, value, &o.seed);
  if (key == "num_threads") return SetField(key, value, &o.num_threads);
  if (key == "schedule") {
    TPCP_ASSIGN_OR_RETURN(o.schedule, ScheduleTypeFromName(value));
    return Status::OK();
  }
  if (key == "policy") {
    TPCP_ASSIGN_OR_RETURN(o.policy, PolicyTypeFromName(value));
    return Status::OK();
  }
  if (key == "buffer_fraction") {
    return SetField(key, value, &o.buffer_fraction);
  }
  if (key == "buffer_bytes") return SetField(key, value, &o.buffer_bytes);
  if (key == "max_virtual_iterations") {
    return SetField(key, value, &o.max_virtual_iterations);
  }
  if (key == "fit_tolerance") return SetField(key, value, &o.fit_tolerance);
  if (key == "refinement_ridge") {
    return SetField(key, value, &o.refinement_ridge);
  }
  if (key == "resume_phase2") return SetField(key, value, &o.resume_phase2);
  if (key == "prefetch_depth") return SetField(key, value, &o.prefetch_depth);
  if (key == "io_threads") return SetField(key, value, &o.io_threads);
  if (key == "compute_threads") {
    return SetField(key, value, &o.compute_threads);
  }
  if (key == "plan_reorder") return SetField(key, value, &o.plan_reorder);
  if (key == "plan_reorder_auto") {
    return SetField(key, value, &o.plan_reorder_auto);
  }
  if (key == "plan_reorder_window") {
    return SetField(key, value, &o.plan_reorder_window);
  }
  if (key == "shard_slab_blocks") {
    return SetField(key, value, &o.shard_slab_blocks);
  }
  if (key == "kernel_fma") return SetField(key, value, &o.kernel_fma);
  if (key == "policy_victim_hints") {
    return SetField(key, value, &o.policy_victim_hints);
  }
  if (key == "max_seconds") return SetField(key, value, &o.max_seconds);
  return Status::InvalidArgument("unknown option '" + key + "'");
}

Status ValidateOptions(const TwoPhaseCpOptions& options) {
  TPCP_RETURN_IF_ERROR(AtLeast("rank", options.rank, 1));
  TPCP_RETURN_IF_ERROR(AtLeast("num_threads", options.num_threads, 1));
  TPCP_RETURN_IF_ERROR(AtLeast("compute_threads", options.compute_threads, 1));
  TPCP_RETURN_IF_ERROR(AtLeast("io_threads", options.io_threads, 1));
  TPCP_RETURN_IF_ERROR(AtLeast("prefetch_depth", options.prefetch_depth, 0));
  TPCP_RETURN_IF_ERROR(AtLeast("max_virtual_iterations",
                               options.max_virtual_iterations, 1));
  TPCP_RETURN_IF_ERROR(
      AtLeast("plan_reorder_window", options.plan_reorder_window, 0));
  TPCP_RETURN_IF_ERROR(
      AtLeast("shard_slab_blocks", options.shard_slab_blocks, 0));
  // Negated comparisons, so a NaN set through the struct is rejected too.
  if (options.buffer_bytes == 0 &&
      !(options.buffer_fraction > 0.0 && options.buffer_fraction <= 1.0)) {
    return Status::InvalidArgument(
        "option 'buffer_fraction' must be in (0, 1] (got " +
        RoundTripDouble(options.buffer_fraction) + ")");
  }
  if (!(options.max_seconds >= 0.0)) {
    return Status::InvalidArgument("option 'max_seconds' must be >= 0 (got " +
                                   RoundTripDouble(options.max_seconds) + ")");
  }
  return Status::OK();
}

Result<TwoPhaseCpOptions> OptionsFromMap(
    const std::map<std::string, std::string>& map) {
  TwoPhaseCpOptions options;
  for (const auto& [key, value] : map) {
    TPCP_RETURN_IF_ERROR(ApplyOption(key, value, &options));
  }
  TPCP_RETURN_IF_ERROR(ValidateOptions(options));
  return options;
}

}  // namespace tpcp
