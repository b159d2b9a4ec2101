#include "util/parse.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace tpcp {

Result<int64_t> ParseInt64(const std::string& text) {
  if (text.empty()) {
    return Status::InvalidArgument("expected an integer, got an empty string");
  }
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::InvalidArgument("integer out of range: '" + text + "'");
  }
  if (end != text.c_str() + text.size()) {
    return Status::InvalidArgument("not an integer: '" + text + "'");
  }
  return static_cast<int64_t>(value);
}

Result<uint64_t> ParseUint64(const std::string& text) {
  // strtoull would accept a leading sign or blank and wrap "-1" around.
  if (text.empty() || text[0] < '0' || text[0] > '9') {
    return Status::InvalidArgument("not an unsigned integer: '" + text + "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::InvalidArgument("integer out of range: '" + text + "'");
  }
  if (end != text.c_str() + text.size()) {
    return Status::InvalidArgument("not an unsigned integer: '" + text + "'");
  }
  return static_cast<uint64_t>(value);
}

Result<bool> ParseBool(const std::string& text) {
  if (text == "1" || text == "true") return true;
  if (text == "0" || text == "false") return false;
  return Status::InvalidArgument("not a boolean: '" + text + "'");
}

Result<double> ParseDouble(const std::string& text) {
  if (text.empty()) {
    return Status::InvalidArgument("expected a number, got an empty string");
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) {
    return Status::InvalidArgument("not a number: '" + text + "'");
  }
  // Rejects both ERANGE overflow and literal "nan"/"inf": every consumer
  // (buffer fractions, throughput, latencies) needs a finite value, and
  // range guards like `x <= 0.0` are NaN-blind.
  if (!std::isfinite(value)) {
    return Status::InvalidArgument("number is not finite: '" + text + "'");
  }
  return value;
}

}  // namespace tpcp
