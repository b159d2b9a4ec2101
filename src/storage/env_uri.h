// URI-addressed Env construction (the RocksDB Env::CreateFromUri idea).
//
// A storage URI names a base backend plus an optional chain of wrappers:
//
//   mem://                            in-memory Env
//   posix:///var/data/run1            filesystem Env rooted at the path
//   compressed+posix:///data          CompressedEnv over a PosixEnv
//   throttled+mem://?mbps=50          ThrottledEnv over a MemEnv
//   faulty+compressed+mem://          chains compose left-to-right,
//                                     leftmost outermost
//
// Query parameters configure any layer of the chain (the query is shared;
// each layer consumes the keys it understands, and unconsumed keys are an
// error). Backends and wrappers self-register in the EnvFactoryRegistry, so
// new storage layers plug in without touching call sites:
//
//   EnvFactoryRegistry::Global().RegisterScheme("s3", ...);
//   auto env = OpenEnv("compressed+s3://bucket/prefix");
//
// Every malformed URI — missing "://", empty or unknown scheme/wrapper,
// unparsable or unknown parameters — is rejected as InvalidArgument.

#ifndef TPCP_STORAGE_ENV_URI_H_
#define TPCP_STORAGE_ENV_URI_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "storage/env.h"
#include "util/status.h"

namespace tpcp {

/// Structured form of a storage URI.
struct ParsedEnvUri {
  /// Wrapper names, outermost first ("compressed+throttled+mem://" parses
  /// to {"compressed", "throttled"}).
  std::vector<std::string> wrappers;
  /// Base backend scheme ("mem", "posix").
  std::string scheme;
  /// Everything between "://" and '?'.
  std::string path;
  /// Decoded query parameters.
  std::map<std::string, std::string> query;
};

/// Splits a URI into wrappers/scheme/path/query. InvalidArgument on a
/// missing "://", an empty scheme or wrapper name, or a query term without
/// '=' / with an empty key. Does not check that the names are registered.
Result<ParsedEnvUri> ParseEnvUri(const std::string& uri);

/// Query-parameter accessor that records which keys were consumed, so the
/// registry can reject typoed or unknown parameters after the chain is
/// built. Typed getters propagate InvalidArgument from checked parsing.
class UriParams {
 public:
  explicit UriParams(std::map<std::string, std::string> query)
      : query_(std::move(query)) {}

  /// The raw value, marking the key consumed.
  std::optional<std::string> Get(const std::string& key);

  /// The value parsed as an integer / double, or `fallback` when absent.
  Result<int64_t> GetInt(const std::string& key, int64_t fallback);
  Result<double> GetDouble(const std::string& key, double fallback);

  /// Keys present in the query that no layer consumed.
  std::vector<std::string> UnconsumedKeys() const;

 private:
  std::map<std::string, std::string> query_;
  std::set<std::string> consumed_;
};

/// An Env opened from a URI, owning the whole wrapper chain. Move-only;
/// the Env* stays valid for the lifetime of this handle.
class OpenedEnv {
 public:
  OpenedEnv() = default;
  OpenedEnv(OpenedEnv&&) = default;
  OpenedEnv& operator=(OpenedEnv&&) = default;

  /// The outermost Env of the chain (nullptr for a default-constructed
  /// handle).
  Env* get() const { return layers_.empty() ? nullptr : layers_.back().get(); }
  Env* operator->() const { return get(); }
  Env& operator*() const { return *get(); }
  explicit operator bool() const { return !layers_.empty(); }

  /// The innermost (base) Env — e.g. the MemEnv under the wrappers.
  Env* base() const {
    return layers_.empty() ? nullptr : layers_.front().get();
  }

 private:
  friend class EnvFactoryRegistry;
  std::vector<std::unique_ptr<Env>> layers_;  // base first, outermost last
};

/// Registry of URI schemes and wrapper layers. Thread-safe.
class EnvFactoryRegistry {
 public:
  /// Creates a base Env from the URI's path.
  using SchemeFactory = std::function<Result<std::unique_ptr<Env>>(
      const std::string& path, UriParams* params)>;
  /// Wraps `delegate` (non-owning; the registry keeps the delegate alive in
  /// the returned OpenedEnv).
  using WrapperFactory = std::function<Result<std::unique_ptr<Env>>(
      Env* delegate, UriParams* params)>;

  /// The process-wide registry, pre-populated with the built-in backends
  /// (mem, posix) and wrappers (compressed, throttled, faulty).
  static EnvFactoryRegistry& Global();

  /// Registers or replaces a backend scheme / wrapper layer.
  void RegisterScheme(const std::string& scheme, SchemeFactory factory);
  void RegisterWrapper(const std::string& name, WrapperFactory factory);

  /// Resolves `uri` into an owned Env chain.
  Result<OpenedEnv> Open(const std::string& uri) const;

  /// Registered names, sorted (for error messages and --help output).
  std::vector<std::string> Schemes() const;
  std::vector<std::string> Wrappers() const;

 private:
  EnvFactoryRegistry();

  mutable std::mutex mu_;
  std::map<std::string, SchemeFactory> schemes_;
  std::map<std::string, WrapperFactory> wrappers_;
};

/// Shorthand for EnvFactoryRegistry::Global().Open(uri).
Result<OpenedEnv> OpenEnv(const std::string& uri);

}  // namespace tpcp

#endif  // TPCP_STORAGE_ENV_URI_H_
