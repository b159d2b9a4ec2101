#include "grid/block_tensor_store.h"

#include "grid/manifest.h"
#include "storage/serializer.h"

namespace tpcp {

BlockTensorStore::BlockTensorStore(Env* env, std::string prefix,
                                   GridPartition grid, SlabFormat format)
    : env_(env),
      prefix_(std::move(prefix)),
      grid_(std::move(grid)),
      format_(format) {}

Result<BlockTensorStore> BlockTensorStore::Create(Env* env,
                                                  std::string prefix,
                                                  GridPartition grid,
                                                  SlabFormat format) {
  if (env == nullptr) {
    return Status::InvalidArgument("BlockTensorStore requires an Env");
  }
  if (prefix.empty()) {
    return Status::InvalidArgument(
        "BlockTensorStore requires a non-empty prefix");
  }
  if (grid.num_modes() < 1) {
    return Status::InvalidArgument(
        "BlockTensorStore requires a non-empty grid");
  }
  StoreManifest manifest;
  manifest.kind = StoreManifest::kTensorKind;
  manifest.grid = grid;
  manifest.format = format;
  TPCP_RETURN_IF_ERROR(WriteManifest(env, prefix, manifest));
  return BlockTensorStore(env, std::move(prefix), std::move(grid), format);
}

Result<BlockTensorStore> BlockTensorStore::Open(Env* env,
                                                std::string prefix) {
  if (env == nullptr) {
    return Status::InvalidArgument("BlockTensorStore requires an Env");
  }
  if (prefix.empty()) {
    return Status::InvalidArgument(
        "BlockTensorStore requires a non-empty prefix");
  }
  TPCP_ASSIGN_OR_RETURN(const StoreManifest manifest,
                        ReadManifest(env, prefix));
  if (manifest.kind != StoreManifest::kTensorKind) {
    return Status::InvalidArgument("store at '" + prefix + "' is a " +
                                   manifest.kind + " store");
  }
  return BlockTensorStore(env, std::move(prefix), manifest.grid,
                          manifest.format);
}

std::string BlockTensorStore::BlockFileName(const BlockIndex& block) const {
  std::string name = prefix_ + "/block";
  for (int64_t k : block) {
    name += "_";
    name += std::to_string(k);
  }
  return name;
}

Status BlockTensorStore::WriteBlock(const BlockIndex& block,
                                    const DenseTensor& data) {
  const std::vector<int64_t> expected = grid_.BlockSizes(block);
  if (data.shape().dims() != expected) {
    return Status::InvalidArgument(
        "block shape " + data.shape().ToString() + " does not match grid");
  }
  const std::string name = BlockFileName(block);
  switch (format_) {
    case SlabFormat::kDense:
      return WriteTensor(env_, name, data);
    case SlabFormat::kCoo:
      return WriteSparseCoo(env_, name, SparseTensor::FromDense(data));
    case SlabFormat::kCsf:
      return WriteSparseCsf(env_, name, CsfTensor::FromDense(data));
  }
  return Status::InvalidArgument("unknown slab format");
}

Result<DenseTensor> BlockTensorStore::ReadBlock(const BlockIndex& block) const {
  return ReadTensorAny(env_, BlockFileName(block));
}

Result<SparseTensor> BlockTensorStore::ReadBlockSparse(
    const BlockIndex& block) const {
  std::string bytes;
  TPCP_RETURN_IF_ERROR(env_->ReadFile(BlockFileName(block), &bytes));
  Result<SparseTensor> sparse = DeserializeSparse(bytes);
  if (sparse.ok()) return sparse;
  // Dense record: scan its non-zero cells (linear scan == lexicographic
  // order, matching the sparse decodings).
  Result<DenseTensor> dense = DeserializeTensor(bytes);
  if (!dense.ok()) return dense.status();
  return SparseTensor::FromDense(dense.value());
}

Status BlockTensorStore::ImportTensor(const DenseTensor& tensor) {
  if (tensor.shape() != grid_.tensor_shape()) {
    return Status::InvalidArgument("tensor shape does not match grid");
  }
  for (const BlockIndex& block : grid_.AllBlocks()) {
    const DenseTensor chunk =
        tensor.Slice(grid_.BlockOffsets(block), grid_.BlockSizes(block));
    TPCP_RETURN_IF_ERROR(WriteBlock(block, chunk));
  }
  return Status::OK();
}

Status BlockTensorStore::Generate(
    const std::function<double(const Index&)>& gen) {
  for (const BlockIndex& block : grid_.AllBlocks()) {
    const Index offsets = grid_.BlockOffsets(block);
    const std::vector<int64_t> sizes = grid_.BlockSizes(block);
    DenseTensor chunk{Shape(sizes)};
    const int n = grid_.num_modes();
    Index local(static_cast<size_t>(n), 0);
    Index global(static_cast<size_t>(n));
    const int64_t total = chunk.NumElements();
    for (int64_t linear = 0; linear < total; ++linear) {
      for (int m = 0; m < n; ++m) {
        global[static_cast<size_t>(m)] =
            offsets[static_cast<size_t>(m)] + local[static_cast<size_t>(m)];
      }
      chunk.at_linear(linear) = gen(global);
      for (int m = n - 1; m >= 0; --m) {
        if (++local[static_cast<size_t>(m)] < sizes[static_cast<size_t>(m)]) {
          break;
        }
        local[static_cast<size_t>(m)] = 0;
      }
    }
    TPCP_RETURN_IF_ERROR(WriteBlock(block, chunk));
  }
  return Status::OK();
}

Result<uint64_t> BlockTensorStore::TotalBytes() const {
  uint64_t total = 0;
  for (const BlockIndex& block : grid_.AllBlocks()) {
    TPCP_ASSIGN_OR_RETURN(const uint64_t size,
                          env_->FileSize(BlockFileName(block)));
    total += size;
  }
  return total;
}

}  // namespace tpcp
