#include "dist/exchange.h"

#include <array>
#include <cstring>

namespace tpcp {
namespace {

constexpr char kB64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

std::string Base64Encode(const char* data, size_t size) {
  std::string out;
  out.reserve(((size + 2) / 3) * 4);
  size_t i = 0;
  for (; i + 3 <= size; i += 3) {
    const uint32_t v = (static_cast<uint8_t>(data[i]) << 16) |
                       (static_cast<uint8_t>(data[i + 1]) << 8) |
                       static_cast<uint8_t>(data[i + 2]);
    out.push_back(kB64Alphabet[(v >> 18) & 0x3f]);
    out.push_back(kB64Alphabet[(v >> 12) & 0x3f]);
    out.push_back(kB64Alphabet[(v >> 6) & 0x3f]);
    out.push_back(kB64Alphabet[v & 0x3f]);
  }
  if (i < size) {
    uint32_t v = static_cast<uint8_t>(data[i]) << 16;
    const bool two = i + 1 < size;
    if (two) v |= static_cast<uint8_t>(data[i + 1]) << 8;
    out.push_back(kB64Alphabet[(v >> 18) & 0x3f]);
    out.push_back(kB64Alphabet[(v >> 12) & 0x3f]);
    out.push_back(two ? kB64Alphabet[(v >> 6) & 0x3f] : '=');
    out.push_back('=');
  }
  return out;
}

Result<std::string> Base64Decode(const std::string& text) {
  static const auto value_of = [] {
    std::array<int8_t, 256> table;
    table.fill(-1);
    for (int i = 0; i < 64; ++i) {
      table[static_cast<uint8_t>(kB64Alphabet[i])] = static_cast<int8_t>(i);
    }
    return table;
  }();
  if (text.size() % 4 != 0) {
    return Status::InvalidArgument("base64: length not a multiple of 4");
  }
  std::string out;
  out.reserve((text.size() / 4) * 3);
  for (size_t i = 0; i < text.size(); i += 4) {
    int vals[4];
    int pad = 0;
    for (int j = 0; j < 4; ++j) {
      const char c = text[i + j];
      if (c == '=') {
        if (i + 4 != text.size() || j < 2) {
          return Status::InvalidArgument("base64: misplaced padding");
        }
        vals[j] = 0;
        ++pad;
        continue;
      }
      if (pad > 0) {
        return Status::InvalidArgument("base64: data after padding");
      }
      const int8_t v = value_of[static_cast<uint8_t>(c)];
      if (v < 0) return Status::InvalidArgument("base64: bad character");
      vals[j] = v;
    }
    const uint32_t v = (vals[0] << 18) | (vals[1] << 12) | (vals[2] << 6) |
                       vals[3];
    out.push_back(static_cast<char>((v >> 16) & 0xff));
    if (pad < 2) out.push_back(static_cast<char>((v >> 8) & 0xff));
    if (pad < 1) out.push_back(static_cast<char>(v & 0xff));
  }
  return out;
}

}  // namespace

int64_t DoubleBits(double value) {
  int64_t bits;
  static_assert(sizeof(bits) == sizeof(value), "double is not 64-bit");
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double BitsToDouble(int64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

JsonValue EncodeMatrix(const Matrix& m) {
  JsonValue v = JsonValue::Object();
  v.Set("r", m.rows());
  v.Set("c", m.cols());
  v.Set("d", Base64Encode(reinterpret_cast<const char*>(m.data()),
                          static_cast<size_t>(m.size()) * sizeof(double)));
  return v;
}

Result<Matrix> DecodeMatrix(const JsonValue& v) {
  TPCP_ASSIGN_OR_RETURN(const int64_t rows, GetInt(v, "r"));
  TPCP_ASSIGN_OR_RETURN(const int64_t cols, GetInt(v, "c"));
  TPCP_ASSIGN_OR_RETURN(const std::string text, GetString(v, "d"));
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("matrix: negative shape");
  }
  TPCP_ASSIGN_OR_RETURN(const std::string bytes, Base64Decode(text));
  if (bytes.size() !=
      static_cast<size_t>(rows) * static_cast<size_t>(cols) *
          sizeof(double)) {
    return Status::InvalidArgument("matrix: payload does not match shape");
  }
  Matrix m(rows, cols);
  std::memcpy(m.data(), bytes.data(), bytes.size());
  return m;
}

JsonValue EncodeMatrixRows(const Matrix& m, int64_t row0, int64_t row_count) {
  JsonValue v = JsonValue::Object();
  v.Set("r", m.rows());
  v.Set("c", m.cols());
  v.Set("r0", row0);
  v.Set("rc", row_count);
  v.Set("d",
        Base64Encode(reinterpret_cast<const char*>(m.data() +
                                                   row0 * m.cols()),
                     static_cast<size_t>(row_count) *
                         static_cast<size_t>(m.cols()) * sizeof(double)));
  return v;
}

Status DecodeMatrixRowsInto(const JsonValue& v, Matrix* out) {
  TPCP_ASSIGN_OR_RETURN(const int64_t rows, GetInt(v, "r"));
  TPCP_ASSIGN_OR_RETURN(const int64_t cols, GetInt(v, "c"));
  TPCP_ASSIGN_OR_RETURN(const int64_t row0, GetInt(v, "r0"));
  TPCP_ASSIGN_OR_RETURN(const int64_t row_count, GetInt(v, "rc"));
  TPCP_ASSIGN_OR_RETURN(const std::string text, GetString(v, "d"));
  if (rows <= 0 || cols <= 0 || row0 < 0 || row_count < 0 ||
      row0 + row_count > rows) {
    return Status::InvalidArgument("matrix chunk: bad slice");
  }
  if (out->rows() != rows || out->cols() != cols) {
    *out = Matrix(rows, cols);
  }
  TPCP_ASSIGN_OR_RETURN(const std::string bytes, Base64Decode(text));
  if (bytes.size() != static_cast<size_t>(row_count) *
                          static_cast<size_t>(cols) * sizeof(double)) {
    return Status::InvalidArgument("matrix chunk: payload mismatch");
  }
  std::memcpy(out->data() + row0 * cols, bytes.data(), bytes.size());
  return Status::OK();
}

JsonValue EncodeGrid(const GridPartition& grid) {
  JsonValue dims = JsonValue::Array();
  for (int mode = 0; mode < grid.num_modes(); ++mode) {
    dims.Append(grid.tensor_shape().dim(mode));
  }
  JsonValue parts = JsonValue::Array();
  for (const int64_t k : grid.parts()) parts.Append(k);
  JsonValue v = JsonValue::Object();
  v.Set("dims", std::move(dims));
  v.Set("parts", std::move(parts));
  return v;
}

Result<GridPartition> DecodeGrid(const JsonValue& v) {
  const JsonValue* dims = v.Find("dims");
  const JsonValue* parts = v.Find("parts");
  if (dims == nullptr || !dims->is_array() || parts == nullptr ||
      !parts->is_array()) {
    return Status::InvalidArgument("grid: missing dims/parts");
  }
  std::vector<int64_t> dim_values;
  for (const JsonValue& d : dims->array_items()) {
    if (!d.is_int()) return Status::InvalidArgument("grid: bad dim");
    dim_values.push_back(d.int_value());
  }
  std::vector<int64_t> part_values;
  for (const JsonValue& p : parts->array_items()) {
    if (!p.is_int()) return Status::InvalidArgument("grid: bad part");
    part_values.push_back(p.int_value());
  }
  return GridPartition::Create(Shape(dim_values), std::move(part_values));
}

}  // namespace tpcp
