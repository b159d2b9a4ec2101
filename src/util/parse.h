// Checked string-to-number parsing for user-facing surfaces (CLI arguments,
// URI query parameters, manifests).
//
// The C library parsers (atoll/atof) return 0 on garbage, which silently
// turns a typo into a valid-looking configuration. These helpers accept a
// value only when the entire string parses, and report everything else as
// InvalidArgument.

#ifndef TPCP_UTIL_PARSE_H_
#define TPCP_UTIL_PARSE_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace tpcp {

/// Parses the whole of `text` as a base-10 signed integer. InvalidArgument
/// on an empty string, leading/trailing garbage, or overflow.
Result<int64_t> ParseInt64(const std::string& text);

/// Parses the whole of `text` as a base-10 unsigned 64-bit integer (digits
/// only). InvalidArgument on an empty string, a sign, garbage, or overflow.
Result<uint64_t> ParseUint64(const std::string& text);

/// "1"/"true" or "0"/"false"; InvalidArgument on anything else.
Result<bool> ParseBool(const std::string& text);

/// Parses the whole of `text` as a floating-point number (decimal or
/// scientific notation). InvalidArgument on an empty string, garbage, or a
/// value outside the double range.
Result<double> ParseDouble(const std::string& text);

}  // namespace tpcp

#endif  // TPCP_UTIL_PARSE_H_
