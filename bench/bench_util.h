// Shared helpers for the table/figure reproduction binaries.

#ifndef TPCP_BENCH_BENCH_UTIL_H_
#define TPCP_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "server/json.h"
#include "storage/env.h"
#include "util/status.h"

namespace tpcp {
namespace bench {

/// Aborts the bench with a message if `s` is not OK.
inline void CheckOk(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "bench: %s failed: %s\n", what, s.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T CheckOk(Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "bench: %s failed: %s\n", what,
                 r.status().ToString().c_str());
    std::abort();
  }
  return std::move(r).value();
}

/// Copies every file under `src_prefix` to the same name with `dst_prefix`
/// substituted. Used to reuse Phase-1 factors across Phase-2 configurations
/// without re-decomposing.
inline void CopyPrefix(Env* env, const std::string& src_prefix,
                       const std::string& dst_prefix) {
  for (const std::string& name : env->ListFiles(src_prefix)) {
    std::string bytes;
    CheckOk(env->ReadFile(name, &bytes), "copy/read");
    CheckOk(env->WriteFile(dst_prefix + name.substr(src_prefix.size()),
                           bytes),
            "copy/write");
  }
}

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

// ---- --json=<path> machine-readable output --------------------------------
//
// The paper-figure benches emit their tables as BENCH_*.json records so CI
// and dashboards can track the perf trajectory without scraping stdout.
// The records are server/json values (sorted keys, escaped strings,
// non-finite numbers as null).

/// Writes `value` to `path`; aborts the bench on I/O failure like every
/// other CheckOk.
inline void WriteJsonFile(const std::string& path, const JsonValue& value) {
  std::ofstream out(path);
  out << value.Serialize() << "\n";
  if (!out) {
    std::fprintf(stderr, "bench: cannot write JSON to '%s'\n", path.c_str());
    std::abort();
  }
  std::printf("wrote %s\n", path.c_str());
}

/// Parses the benches' shared command line: `--json=<path>` enables the
/// machine-readable dump. With `extra_flags` non-null, any other
/// `--key=value` / `--key` argument is collected there (value "" for the
/// bare form) for the bench to interpret; without it — or on a positional
/// argument — prints usage and returns false.
inline bool ParseBenchArgs(int argc, char** argv, std::string* json_path,
                           std::map<std::string, std::string>* extra_flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0 && arg.size() > 7) {
      *json_path = arg.substr(7);
      continue;
    }
    if (extra_flags != nullptr && arg.rfind("--", 0) == 0) {
      const size_t eq = arg.find('=');
      const std::string key =
          arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
      (*extra_flags)[key] =
          eq == std::string::npos ? "" : arg.substr(eq + 1);
      continue;
    }
    std::fprintf(stderr, "usage: %s [--json=<path>]\n", argv[0]);
    return false;
  }
  return true;
}

inline bool ParseBenchArgs(int argc, char** argv, std::string* json_path) {
  return ParseBenchArgs(argc, argv, json_path, nullptr);
}

}  // namespace bench
}  // namespace tpcp

#endif  // TPCP_BENCH_BENCH_UTIL_H_
