#include "grid/manifest.h"

#include <set>
#include <sstream>


namespace tpcp {

StoreManifest StoreManifest::Factors(
    const GridPartition& grid, int64_t rank,
    std::optional<Phase2Checkpoint> checkpoint) {
  StoreManifest manifest;
  manifest.kind = kFactorsKind;
  manifest.grid = grid;
  manifest.rank = rank;
  manifest.checkpoint = std::move(checkpoint);
  return manifest;
}

std::string StoreManifest::Serialize() const {
  std::ostringstream out;
  out << "tpcp-manifest " << kVersion << "\n";
  out << "kind " << kind << "\n";
  out << "shape";
  for (int m = 0; m < grid.num_modes(); ++m) {
    out << " " << grid.tensor_shape().dim(m);
  }
  out << "\n";
  out << "parts";
  for (int m = 0; m < grid.num_modes(); ++m) out << " " << grid.parts(m);
  out << "\n";
  if (kind == kFactorsKind) out << "rank " << rank << "\n";
  if (format != SlabFormat::kDense) {
    out << "format " << SlabFormatName(format) << "\n";
  }
  if (checkpoint.has_value()) {
    out << "ckpt_schedule " << checkpoint->schedule << "\n";
    out << "ckpt_iteration " << checkpoint->iteration << "\n";
    out << "ckpt_cursor " << checkpoint->cursor << "\n";
    out << "ckpt_fingerprint " << checkpoint->options_fingerprint << "\n";
    out << "ckpt_plan " << checkpoint->plan_fingerprint << "\n";
    out << "ckpt_ownership " << checkpoint->ownership_fingerprint << "\n";
    out << "ckpt_fit";
    out.precision(17);  // bit-exact double round trip
    for (double fit : checkpoint->fit_trace) out << " " << fit;
    out << "\n";
  }
  return out.str();
}

Result<StoreManifest> StoreManifest::Parse(const std::string& bytes) {
  std::istringstream in(bytes);
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != "tpcp-manifest") {
    return Status::Corruption("not a tpcp manifest");
  }
  if (version != kVersion) {
    // Not Corruption: a well-formed manifest of another release is an
    // incompatibility, not damage.
    return Status::FailedPrecondition("unsupported manifest version " +
                                      std::to_string(version));
  }

  StoreManifest manifest;
  std::vector<int64_t> dims;
  std::vector<int64_t> parts;
  Phase2Checkpoint ckpt;
  // ckpt_* keys seen; a checkpoint is all-or-nothing.
  std::set<std::string> ckpt_keys;
  std::string key;
  while (in >> key) {
    if (key == "kind") {
      if (!(in >> manifest.kind)) {
        return Status::Corruption("manifest kind missing");
      }
    } else if (key == "shape" || key == "parts") {
      std::string line;
      std::getline(in, line);
      std::istringstream fields(line);
      std::vector<int64_t>& target = (key == "shape") ? dims : parts;
      int64_t value = 0;
      while (fields >> value) target.push_back(value);
      if (!fields.eof()) {
        return Status::Corruption("manifest " + key + " line is malformed");
      }
    } else if (key == "rank") {
      if (!(in >> manifest.rank)) {
        return Status::Corruption("manifest rank is malformed");
      }
    } else if (key == "format") {
      std::string name;
      if (!(in >> name) ||
          !SlabFormatFromName(name.c_str(), &manifest.format)) {
        return Status::Corruption("manifest format is malformed");
      }
    } else if (key == "ckpt_schedule") {
      if (!(in >> ckpt.schedule)) {
        return Status::Corruption("manifest ckpt_schedule is malformed");
      }
      ckpt_keys.insert(key);
    } else if (key == "ckpt_iteration") {
      if (!(in >> ckpt.iteration) || ckpt.iteration < 0) {
        return Status::Corruption("manifest ckpt_iteration is malformed");
      }
      ckpt_keys.insert(key);
    } else if (key == "ckpt_cursor") {
      if (!(in >> ckpt.cursor) || ckpt.cursor < 0) {
        return Status::Corruption("manifest ckpt_cursor is malformed");
      }
      ckpt_keys.insert(key);
    } else if (key == "ckpt_fingerprint") {
      if (!(in >> ckpt.options_fingerprint)) {
        return Status::Corruption("manifest ckpt_fingerprint is malformed");
      }
      ckpt_keys.insert(key);
    } else if (key == "ckpt_plan") {
      if (!(in >> ckpt.plan_fingerprint)) {
        return Status::Corruption("manifest ckpt_plan is malformed");
      }
      ckpt_keys.insert(key);
    } else if (key == "ckpt_ownership") {
      if (!(in >> ckpt.ownership_fingerprint)) {
        return Status::Corruption("manifest ckpt_ownership is malformed");
      }
      ckpt_keys.insert(key);
    } else if (key == "ckpt_fit") {
      std::string line;
      std::getline(in, line);
      std::istringstream fields(line);
      double value = 0.0;
      while (fields >> value) ckpt.fit_trace.push_back(value);
      if (!fields.eof()) {
        return Status::Corruption("manifest ckpt_fit line is malformed");
      }
      ckpt_keys.insert(key);
    } else {
      // Unknown keys are a corruption signal within a known version;
      // future formats bump kVersion instead of sneaking fields in.
      return Status::Corruption("unknown manifest key '" + key + "'");
    }
  }

  if (manifest.kind != kTensorKind && manifest.kind != kFactorsKind) {
    return Status::Corruption("unknown manifest kind '" + manifest.kind +
                              "'");
  }
  if (dims.empty() || parts.empty()) {
    return Status::Corruption("manifest is missing shape or parts");
  }
  auto grid = GridPartition::Create(Shape(dims), parts);
  if (!grid.ok()) {
    return Status::Corruption("manifest geometry invalid: " +
                              grid.status().message());
  }
  manifest.grid = std::move(grid).value();
  if (manifest.kind == kFactorsKind && manifest.rank < 1) {
    return Status::Corruption("factor manifest requires rank >= 1");
  }
  if (!ckpt_keys.empty()) {
    // A checkpoint is all-or-nothing: the resume path needs every field.
    if (manifest.kind != kFactorsKind) {
      return Status::Corruption("checkpoint on a non-factor manifest");
    }
    for (const char* required :
         {"ckpt_schedule", "ckpt_iteration", "ckpt_cursor",
          "ckpt_fingerprint", "ckpt_plan", "ckpt_ownership", "ckpt_fit"}) {
      if (ckpt_keys.count(required) == 0) {
        return Status::Corruption(
            std::string("manifest checkpoint is missing ") + required);
      }
    }
    if (static_cast<size_t>(ckpt.iteration) != ckpt.fit_trace.size()) {
      return Status::Corruption(
          "checkpoint fit trace does not match its iteration count");
    }
    manifest.checkpoint = std::move(ckpt);
  }
  return manifest;
}

std::string ManifestFileName(const std::string& prefix) {
  return prefix + "/MANIFEST";
}

Status WriteManifest(Env* env, const std::string& prefix,
                     const StoreManifest& manifest) {
  return env->WriteFile(ManifestFileName(prefix), manifest.Serialize());
}

Result<StoreManifest> ReadManifest(Env* env, const std::string& prefix) {
  std::string bytes;
  TPCP_RETURN_IF_ERROR(env->ReadFile(ManifestFileName(prefix), &bytes));
  return StoreManifest::Parse(bytes);
}

}  // namespace tpcp
