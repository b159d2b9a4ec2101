#include "util/format.h"

#include <cstdio>

namespace tpcp {

std::string HumanBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  char buf[64];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f %s", value, kUnits[unit]);
  }
  return buf;
}

std::string HumanCount(uint64_t count) {
  char buf[64];
  if (count < 1000000ull) {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(count));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fM",
                  static_cast<double>(count) / 1e6);
  }
  return buf;
}

std::string Join(const std::vector<std::string>& items,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return out;
}

std::string DimsToString(const std::vector<uint64_t>& dims) {
  std::vector<std::string> parts;
  parts.reserve(dims.size());
  for (uint64_t d : dims) parts.push_back(std::to_string(d));
  return Join(parts, "x");
}

std::string Fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string RoundTripDouble(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace tpcp
