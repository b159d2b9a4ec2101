// Checksummed binary serialization of matrices and tensors.
//
// Record layout (little-endian host assumed, documented for the on-disk
// format):
//   [magic u32][kind u8][ndims u32][dims i64 * ndims][payload]
//   [crc32 u32 over everything before it]
//
// Kinds and payloads:
//   1 matrix       payload = rows*cols f64
//   2 dense tensor payload = NumElements f64
//   3 sparse COO   payload = nnz i64, nnz*ndims i64 coords (entry-major,
//                  stored order), nnz f64 values
//   4 sparse CSF   payload = nnz i64; per level: num_nodes i64; per level:
//                  idx array as zigzag-varint deltas (vs the previous
//                  element, first vs 0); per non-leaf level: ptr array
//                  (num_nodes+1 monotone offsets) as unsigned-varint
//                  deltas; nnz f64 values. The delta+varint coding is what
//                  makes the sorted fiber hierarchy pay: within a fiber
//                  run the leaf deltas are tiny and most index words
//                  shrink to one byte.

#ifndef TPCP_STORAGE_SERIALIZER_H_
#define TPCP_STORAGE_SERIALIZER_H_

#include <string>

#include "linalg/matrix.h"
#include "storage/env.h"
#include "tensor/csf_tensor.h"
#include "tensor/dense_tensor.h"
#include "tensor/sparse_tensor.h"
#include "util/status.h"

namespace tpcp {

/// Encodes a matrix to its on-disk byte representation.
std::string SerializeMatrix(const Matrix& m);

/// Decodes a matrix; Corruption on checksum/format mismatch.
Result<Matrix> DeserializeMatrix(const std::string& bytes);

/// Encodes a dense tensor.
std::string SerializeTensor(const DenseTensor& t);

/// Decodes a dense tensor; Corruption on checksum/format mismatch.
Result<DenseTensor> DeserializeTensor(const std::string& bytes);

/// Encodes a sparse COO tensor (kind 3), entries in stored order.
std::string SerializeSparseCoo(const SparseTensor& t);

/// Encodes a CSF tensor (kind 4) with delta-varint index compression.
std::string SerializeSparseCsf(const CsfTensor& t);

/// Decodes either sparse kind (3 or 4) to COO; a CSF record expands in
/// lexicographic order. Corruption on checksum/format mismatch.
Result<SparseTensor> DeserializeSparse(const std::string& bytes);

/// Decodes a CSF record (kind 4) without expanding the hierarchy.
Result<CsfTensor> DeserializeSparseCsf(const std::string& bytes);

/// Decodes any tensor record — dense (2), COO (3), or CSF (4) — to a
/// dense tensor. The auto-detecting read path: callers need not know a
/// block's slab format.
Result<DenseTensor> DeserializeTensorAny(const std::string& bytes);

/// Record kind byte of a well-formed record (crc + magic checked).
Result<uint8_t> PeekRecordKind(const std::string& bytes);

/// Convenience wrappers writing/reading through an Env.
Status WriteMatrix(Env* env, const std::string& name, const Matrix& m);
Result<Matrix> ReadMatrix(Env* env, const std::string& name);
Status WriteTensor(Env* env, const std::string& name, const DenseTensor& t);
Status WriteSparseCoo(Env* env, const std::string& name,
                      const SparseTensor& t);
Status WriteSparseCsf(Env* env, const std::string& name, const CsfTensor& t);
Result<DenseTensor> ReadTensorAny(Env* env, const std::string& name);

}  // namespace tpcp

#endif  // TPCP_STORAGE_SERIALIZER_H_
