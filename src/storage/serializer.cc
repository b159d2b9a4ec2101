#include "storage/serializer.h"

#include <cstring>

#include "storage/crc32.h"

namespace tpcp {
namespace {

constexpr uint32_t kMagic = 0x32504350;  // "2PCP"
constexpr uint8_t kKindMatrix = 1;
constexpr uint8_t kKindTensor = 2;
constexpr uint8_t kKindSparseCoo = 3;
constexpr uint8_t kKindSparseCsf = 4;

void AppendRaw(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

template <typename T>
void AppendPod(std::string* out, T value) {
  AppendRaw(out, &value, sizeof(T));
}

// LEB128 unsigned varint.
void AppendVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

uint64_t ZigZagEncode(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}

int64_t ZigZagDecode(uint64_t value) {
  return static_cast<int64_t>(value >> 1) ^
         -static_cast<int64_t>(value & 1);
}

// Index array as zigzag varints of successive deltas (first vs 0): small
// within-fiber jumps cost one byte regardless of the coordinate magnitude.
void AppendDeltaArray(std::string* out, const std::vector<int64_t>& values) {
  int64_t prev = 0;
  for (int64_t v : values) {
    AppendVarint(out, ZigZagEncode(v - prev));
    prev = v;
  }
}

// Monotone offset array as unsigned varints of successive deltas.
void AppendMonotoneArray(std::string* out,
                         const std::vector<int64_t>& values) {
  int64_t prev = 0;
  for (int64_t v : values) {
    AppendVarint(out, static_cast<uint64_t>(v - prev));
    prev = v;
  }
}

// Cursor-based reader returning false on underflow.
class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  template <typename T>
  bool Read(T* out) {
    if (pos_ + sizeof(T) > bytes_.size()) return false;
    std::memcpy(out, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadDoubles(double* out, size_t count) {
    // An empty matrix has no buffer; memcpy from or to null is undefined
    // even for zero bytes.
    if (count == 0) return true;
    const size_t n = count * sizeof(double);
    if (pos_ + n > bytes_.size()) return false;
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  bool ReadVarint(uint64_t* out) {
    uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= bytes_.size()) return false;
      const uint8_t byte = static_cast<uint8_t>(bytes_[pos_++]);
      value |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *out = value;
        return true;
      }
    }
    return false;
  }

  size_t pos() const { return pos_; }

 private:
  const std::string& bytes_;
  size_t pos_ = 0;
};

std::string SerializeDims(uint8_t kind, const std::vector<int64_t>& dims,
                          const double* payload, int64_t count) {
  std::string out;
  out.reserve(17 + dims.size() * 8 + static_cast<size_t>(count) * 8 + 4);
  AppendPod(&out, kMagic);
  AppendPod(&out, kind);
  AppendPod(&out, static_cast<uint32_t>(dims.size()));
  for (int64_t d : dims) AppendPod(&out, d);
  AppendRaw(&out, payload, static_cast<size_t>(count) * sizeof(double));
  const uint32_t crc = Crc32(out.data(), out.size());
  AppendPod(&out, crc);
  return out;
}

// Validates crc + magic + header and reports the record kind.
Status CheckEnvelopeAny(const std::string& bytes, Reader* reader,
                        uint8_t* kind, uint32_t* ndims) {
  if (bytes.size() < 13) return Status::Corruption("record too short");
  const uint32_t stored_crc =
      Crc32(bytes.data(), bytes.size() - sizeof(uint32_t));
  uint32_t file_crc = 0;
  std::memcpy(&file_crc, bytes.data() + bytes.size() - sizeof(uint32_t),
              sizeof(uint32_t));
  if (stored_crc != file_crc) {
    return Status::Corruption("checksum mismatch");
  }
  uint32_t magic = 0;
  if (!reader->Read(&magic) || !reader->Read(kind) || !reader->Read(ndims)) {
    return Status::Corruption("truncated header");
  }
  if (magic != kMagic) return Status::Corruption("bad magic");
  if (*ndims == 0 || *ndims > 64) {
    return Status::Corruption("implausible ndims");
  }
  return Status::OK();
}

Status CheckEnvelope(const std::string& bytes, uint8_t expected_kind,
                     Reader* reader, uint32_t* ndims) {
  uint8_t kind = 0;
  TPCP_RETURN_IF_ERROR(CheckEnvelopeAny(bytes, reader, &kind, ndims));
  if (kind != expected_kind) return Status::Corruption("wrong record kind");
  return Status::OK();
}

// Shared header tail: dims for a sparse record (all must be positive).
Status ReadShapeDims(Reader* reader, uint32_t ndims,
                     std::vector<int64_t>* dims) {
  dims->resize(ndims);
  for (uint32_t i = 0; i < ndims; ++i) {
    if (!reader->Read(&(*dims)[i]) || (*dims)[i] <= 0) {
      return Status::Corruption("bad tensor dims");
    }
  }
  return Status::OK();
}

Result<SparseTensor> DeserializeSparseCooRecord(const std::string& bytes) {
  Reader reader(bytes);
  uint32_t ndims = 0;
  TPCP_RETURN_IF_ERROR(
      CheckEnvelope(bytes, kKindSparseCoo, &reader, &ndims));
  std::vector<int64_t> dims;
  TPCP_RETURN_IF_ERROR(ReadShapeDims(&reader, ndims, &dims));
  int64_t nnz = 0;
  if (!reader.Read(&nnz) || nnz < 0) {
    return Status::Corruption("bad sparse nnz");
  }
  SparseTensor t{Shape(dims)};
  Index index(ndims);
  std::vector<Index> coords(static_cast<size_t>(nnz));
  for (int64_t e = 0; e < nnz; ++e) {
    for (uint32_t m = 0; m < ndims; ++m) {
      int64_t c = 0;
      if (!reader.Read(&c) || c < 0 || c >= dims[m]) {
        return Status::Corruption("sparse coordinate out of range");
      }
      index[m] = c;
    }
    coords[static_cast<size_t>(e)] = index;
  }
  std::vector<double> values(static_cast<size_t>(nnz));
  if (!reader.ReadDoubles(values.data(), values.size())) {
    return Status::Corruption("truncated sparse payload");
  }
  for (int64_t e = 0; e < nnz; ++e) {
    t.Add(std::move(coords[static_cast<size_t>(e)]),
          values[static_cast<size_t>(e)]);
  }
  return t;
}

}  // namespace

std::string SerializeMatrix(const Matrix& m) {
  return SerializeDims(kKindMatrix, {m.rows(), m.cols()}, m.data(), m.size());
}

Result<Matrix> DeserializeMatrix(const std::string& bytes) {
  Reader reader(bytes);
  uint32_t ndims = 0;
  TPCP_RETURN_IF_ERROR(CheckEnvelope(bytes, kKindMatrix, &reader, &ndims));
  if (ndims != 2) return Status::Corruption("matrix record must have 2 dims");
  int64_t rows = 0, cols = 0;
  if (!reader.Read(&rows) || !reader.Read(&cols) || rows < 0 || cols < 0) {
    return Status::Corruption("bad matrix dims");
  }
  Matrix m(rows, cols);
  if (!reader.ReadDoubles(m.data(), static_cast<size_t>(m.size()))) {
    return Status::Corruption("truncated matrix payload");
  }
  return m;
}

std::string SerializeTensor(const DenseTensor& t) {
  return SerializeDims(kKindTensor, t.shape().dims(), t.data(),
                       t.NumElements());
}

Result<DenseTensor> DeserializeTensor(const std::string& bytes) {
  Reader reader(bytes);
  uint32_t ndims = 0;
  TPCP_RETURN_IF_ERROR(CheckEnvelope(bytes, kKindTensor, &reader, &ndims));
  std::vector<int64_t> dims(ndims);
  for (uint32_t i = 0; i < ndims; ++i) {
    if (!reader.Read(&dims[i]) || dims[i] <= 0) {
      return Status::Corruption("bad tensor dims");
    }
  }
  DenseTensor t{Shape(dims)};
  if (!reader.ReadDoubles(t.data(), static_cast<size_t>(t.NumElements()))) {
    return Status::Corruption("truncated tensor payload");
  }
  return t;
}

std::string SerializeSparseCoo(const SparseTensor& t) {
  const uint32_t ndims = static_cast<uint32_t>(t.num_modes());
  std::string out;
  out.reserve(17 + static_cast<size_t>(ndims) * 8 +
              static_cast<size_t>(t.nnz()) * (ndims + 1) * 8 + 12);
  AppendPod(&out, kMagic);
  AppendPod(&out, kKindSparseCoo);
  AppendPod(&out, ndims);
  for (int64_t d : t.shape().dims()) AppendPod(&out, d);
  AppendPod(&out, t.nnz());
  for (const SparseEntry& e : t.entries()) {
    for (int64_t c : e.index) AppendPod(&out, c);
  }
  for (const SparseEntry& e : t.entries()) AppendPod(&out, e.value);
  const uint32_t crc = Crc32(out.data(), out.size());
  AppendPod(&out, crc);
  return out;
}

std::string SerializeSparseCsf(const CsfTensor& t) {
  const int n = t.num_modes();
  const uint32_t ndims = static_cast<uint32_t>(n);
  std::string out;
  out.reserve(17 + static_cast<size_t>(ndims) * 16 +
              static_cast<size_t>(t.nnz()) * 10 + 12);
  AppendPod(&out, kMagic);
  AppendPod(&out, kKindSparseCsf);
  AppendPod(&out, ndims);
  for (int64_t d : t.shape().dims()) AppendPod(&out, d);
  AppendPod(&out, t.nnz());
  for (int l = 0; l < n; ++l) AppendPod(&out, t.num_nodes(l));
  for (int l = 0; l < n; ++l) AppendDeltaArray(&out, t.idx(l));
  for (int l = 0; l + 1 < n; ++l) AppendMonotoneArray(&out, t.ptr(l));
  for (double v : t.values()) AppendPod(&out, v);
  const uint32_t crc = Crc32(out.data(), out.size());
  AppendPod(&out, crc);
  return out;
}

Result<CsfTensor> DeserializeSparseCsf(const std::string& bytes) {
  Reader reader(bytes);
  uint32_t ndims = 0;
  TPCP_RETURN_IF_ERROR(
      CheckEnvelope(bytes, kKindSparseCsf, &reader, &ndims));
  std::vector<int64_t> dims;
  TPCP_RETURN_IF_ERROR(ReadShapeDims(&reader, ndims, &dims));
  const int n = static_cast<int>(ndims);
  int64_t nnz = 0;
  if (!reader.Read(&nnz) || nnz < 0) {
    return Status::Corruption("bad sparse nnz");
  }
  std::vector<int64_t> num_nodes(ndims);
  for (uint32_t l = 0; l < ndims; ++l) {
    if (!reader.Read(&num_nodes[l]) || num_nodes[l] < 0) {
      return Status::Corruption("bad CSF node count");
    }
  }
  if (num_nodes[ndims - 1] != nnz) {
    return Status::Corruption("CSF leaf count != nnz");
  }
  std::vector<std::vector<int64_t>> idx(ndims);
  for (uint32_t l = 0; l < ndims; ++l) {
    idx[l].resize(static_cast<size_t>(num_nodes[l]));
    int64_t prev = 0;
    for (int64_t& v : idx[l]) {
      uint64_t raw = 0;
      if (!reader.ReadVarint(&raw)) {
        return Status::Corruption("truncated CSF index array");
      }
      prev += ZigZagDecode(raw);
      if (prev < 0 || prev >= dims[l]) {
        return Status::Corruption("CSF coordinate out of range");
      }
      v = prev;
    }
  }
  std::vector<std::vector<int64_t>> ptr(n > 0 ? ndims - 1 : 0);
  for (int l = 0; l + 1 < n; ++l) {
    ptr[static_cast<size_t>(l)].resize(
        static_cast<size_t>(num_nodes[static_cast<size_t>(l)]) + 1);
    int64_t prev = 0;
    for (int64_t& v : ptr[static_cast<size_t>(l)]) {
      uint64_t raw = 0;
      if (!reader.ReadVarint(&raw)) {
        return Status::Corruption("truncated CSF pointer array");
      }
      prev += static_cast<int64_t>(raw);
      v = prev;
    }
    const std::vector<int64_t>& p = ptr[static_cast<size_t>(l)];
    if (p.front() != 0 || p.back() != num_nodes[static_cast<size_t>(l) + 1]) {
      return Status::Corruption("CSF pointer array out of bounds");
    }
  }
  std::vector<double> values(static_cast<size_t>(nnz));
  if (!reader.ReadDoubles(values.data(), values.size())) {
    return Status::Corruption("truncated CSF values");
  }
  return CsfTensor::FromLevels(Shape(dims), std::move(idx), std::move(ptr),
                               std::move(values));
}

Result<SparseTensor> DeserializeSparse(const std::string& bytes) {
  Result<uint8_t> kind = PeekRecordKind(bytes);
  TPCP_RETURN_IF_ERROR(kind.status());
  switch (kind.value()) {
    case kKindSparseCoo:
      return DeserializeSparseCooRecord(bytes);
    case kKindSparseCsf: {
      Result<CsfTensor> csf = DeserializeSparseCsf(bytes);
      TPCP_RETURN_IF_ERROR(csf.status());
      return csf.value().ToSparse();
    }
    default:
      return Status::Corruption("not a sparse tensor record");
  }
}

Result<DenseTensor> DeserializeTensorAny(const std::string& bytes) {
  Result<uint8_t> kind = PeekRecordKind(bytes);
  TPCP_RETURN_IF_ERROR(kind.status());
  switch (kind.value()) {
    case kKindTensor:
      return DeserializeTensor(bytes);
    case kKindSparseCoo: {
      Result<SparseTensor> coo = DeserializeSparseCooRecord(bytes);
      TPCP_RETURN_IF_ERROR(coo.status());
      return coo.value().ToDense();
    }
    case kKindSparseCsf: {
      Result<CsfTensor> csf = DeserializeSparseCsf(bytes);
      TPCP_RETURN_IF_ERROR(csf.status());
      return csf.value().ToDense();
    }
    default:
      return Status::Corruption("not a tensor record");
  }
}

Result<uint8_t> PeekRecordKind(const std::string& bytes) {
  Reader reader(bytes);
  uint8_t kind = 0;
  uint32_t ndims = 0;
  TPCP_RETURN_IF_ERROR(CheckEnvelopeAny(bytes, &reader, &kind, &ndims));
  return kind;
}

Status WriteMatrix(Env* env, const std::string& name, const Matrix& m) {
  return env->WriteFile(name, SerializeMatrix(m));
}

Result<Matrix> ReadMatrix(Env* env, const std::string& name) {
  std::string bytes;
  TPCP_RETURN_IF_ERROR(env->ReadFile(name, &bytes));
  return DeserializeMatrix(bytes);
}

Status WriteTensor(Env* env, const std::string& name, const DenseTensor& t) {
  return env->WriteFile(name, SerializeTensor(t));
}

Result<DenseTensor> ReadTensor(Env* env, const std::string& name) {
  std::string bytes;
  TPCP_RETURN_IF_ERROR(env->ReadFile(name, &bytes));
  return DeserializeTensor(bytes);
}

Status WriteSparseCoo(Env* env, const std::string& name,
                      const SparseTensor& t) {
  return env->WriteFile(name, SerializeSparseCoo(t));
}

Status WriteSparseCsf(Env* env, const std::string& name,
                      const CsfTensor& t) {
  return env->WriteFile(name, SerializeSparseCsf(t));
}

Result<SparseTensor> ReadSparse(Env* env, const std::string& name) {
  std::string bytes;
  TPCP_RETURN_IF_ERROR(env->ReadFile(name, &bytes));
  return DeserializeSparse(bytes);
}

Result<DenseTensor> ReadTensorAny(Env* env, const std::string& name) {
  std::string bytes;
  TPCP_RETURN_IF_ERROR(env->ReadFile(name, &bytes));
  return DeserializeTensorAny(bytes);
}

}  // namespace tpcp
