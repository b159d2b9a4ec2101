#include "core/block_factors.h"

#include "grid/manifest.h"
#include "storage/serializer.h"

namespace tpcp {

BlockFactorStore::BlockFactorStore(Env* env, std::string prefix,
                                   GridPartition grid, int64_t rank)
    : env_(env), prefix_(std::move(prefix)), grid_(std::move(grid)),
      rank_(rank) {
  TPCP_CHECK_GE(rank_, 1);
}

Result<BlockFactorStore> BlockFactorStore::Create(Env* env,
                                                  std::string prefix,
                                                  GridPartition grid,
                                                  int64_t rank) {
  if (env == nullptr) {
    return Status::InvalidArgument("BlockFactorStore requires an Env");
  }
  if (prefix.empty()) {
    return Status::InvalidArgument(
        "BlockFactorStore requires a non-empty prefix");
  }
  if (grid.num_modes() < 1) {
    return Status::InvalidArgument(
        "BlockFactorStore requires a non-empty grid");
  }
  if (rank < 1) {
    return Status::InvalidArgument("factor rank must be >= 1 (got " +
                                   std::to_string(rank) + ")");
  }
  TPCP_RETURN_IF_ERROR(
      WriteManifest(env, prefix, StoreManifest::Factors(grid, rank)));
  return BlockFactorStore(env, std::move(prefix), std::move(grid), rank);
}

Result<BlockFactorStore> BlockFactorStore::Open(Env* env,
                                                std::string prefix) {
  if (env == nullptr) {
    return Status::InvalidArgument("BlockFactorStore requires an Env");
  }
  TPCP_ASSIGN_OR_RETURN(const StoreManifest manifest,
                        ReadManifest(env, prefix));
  if (manifest.kind != StoreManifest::kFactorsKind) {
    return Status::InvalidArgument("store at '" + prefix + "' is a " +
                                   manifest.kind + " store");
  }
  return BlockFactorStore(env, std::move(prefix), manifest.grid,
                          manifest.rank);
}

std::string BlockFactorStore::BlockFactorName(const BlockIndex& block,
                                              int mode) const {
  std::string name = prefix_ + "/U_" + std::to_string(mode);
  for (int64_t k : block) {
    name += "_";
    name += std::to_string(k);
  }
  return name;
}

std::string BlockFactorStore::SubFactorName(int mode, int64_t part) const {
  return prefix_ + "/A_" + std::to_string(mode) + "_" + std::to_string(part);
}

Status BlockFactorStore::WriteBlockFactor(const BlockIndex& block, int mode,
                                          const Matrix& u) {
  const int64_t expected_rows =
      grid_.PartitionSize(mode, block[static_cast<size_t>(mode)]);
  if (u.rows() != expected_rows || u.cols() != rank_) {
    return Status::InvalidArgument("block factor shape mismatch");
  }
  return WriteMatrix(env_, BlockFactorName(block, mode), u);
}

Result<Matrix> BlockFactorStore::ReadBlockFactor(const BlockIndex& block,
                                                 int mode) const {
  return ReadMatrix(env_, BlockFactorName(block, mode));
}

Status BlockFactorStore::WriteSubFactor(int mode, int64_t part,
                                        const Matrix& a) {
  if (a.rows() != grid_.PartitionSize(mode, part) || a.cols() != rank_) {
    return Status::InvalidArgument("sub-factor shape mismatch");
  }
  return WriteMatrix(env_, SubFactorName(mode, part), a);
}

Result<Matrix> BlockFactorStore::ReadSubFactor(int mode, int64_t part) const {
  return ReadMatrix(env_, SubFactorName(mode, part));
}

std::vector<BlockIndex> BlockFactorStore::SlabBlocks(int mode,
                                                     int64_t part) const {
  std::vector<BlockIndex> out;
  out.reserve(static_cast<size_t>(grid_.NumBlocks() / grid_.parts(mode)));
  for (const BlockIndex& block : grid_.AllBlocks()) {
    if (block[static_cast<size_t>(mode)] == part) out.push_back(block);
  }
  return out;
}

Result<Matrix> BlockFactorStore::AssembleFullFactor(int mode) const {
  Matrix full(grid_.tensor_shape().dim(mode), rank_);
  for (int64_t part = 0; part < grid_.parts(mode); ++part) {
    TPCP_ASSIGN_OR_RETURN(Matrix a, ReadSubFactor(mode, part));
    full.SetRows(grid_.PartitionOffset(mode, part), a);
  }
  return full;
}

}  // namespace tpcp
