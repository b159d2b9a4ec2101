// Small string-formatting helpers shared by benches and logging.

#ifndef TPCP_UTIL_FORMAT_H_
#define TPCP_UTIL_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tpcp {

/// "1.5 GiB", "640.0 KiB", "12 B" — binary units, one decimal.
std::string HumanBytes(uint64_t bytes);

/// "1.23e+06" style compact count, or plain digits below 10^6.
std::string HumanCount(uint64_t count);

/// Joins items with a separator: Join({"a","b"}, "x") == "axb".
std::string Join(const std::vector<std::string>& items,
                 const std::string& sep);

/// "500x500x500" rendering of a dimension vector.
std::string DimsToString(const std::vector<uint64_t>& dims);

/// Fixed-point rendering with `digits` decimals.
std::string Fixed(double value, int digits);

/// "%.17g": enough digits that ParseDouble gives back the same double.
std::string RoundTripDouble(double value);

}  // namespace tpcp

#endif  // TPCP_UTIL_FORMAT_H_
