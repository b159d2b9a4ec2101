#include "storage/env_uri.h"

#include <algorithm>

#include "storage/compressed_env.h"
#include "storage/faulty_env.h"
#include "storage/retry_env.h"
#include "storage/throttled_env.h"
#include "util/format.h"
#include "util/parse.h"

namespace tpcp {

Result<ParsedEnvUri> ParseEnvUri(const std::string& uri) {
  const size_t sep = uri.find("://");
  if (sep == std::string::npos) {
    return Status::InvalidArgument("storage URI '" + uri +
                                   "' is missing '://'");
  }
  ParsedEnvUri parsed;

  // The head is a '+'-separated chain: wrappers outermost-first, then the
  // base scheme.
  std::vector<std::string> chain;
  {
    const std::string head = uri.substr(0, sep);
    size_t start = 0;
    while (true) {
      const size_t plus = head.find('+', start);
      chain.push_back(head.substr(
          start, plus == std::string::npos ? std::string::npos : plus - start));
      if (plus == std::string::npos) break;
      start = plus + 1;
    }
  }
  for (const std::string& name : chain) {
    if (name.empty()) {
      return Status::InvalidArgument("storage URI '" + uri +
                                     "' has an empty scheme or wrapper name");
    }
  }
  parsed.scheme = chain.back();
  chain.pop_back();
  parsed.wrappers = std::move(chain);

  // Path up to '?', then the query.
  const std::string rest = uri.substr(sep + 3);
  const size_t qmark = rest.find('?');
  parsed.path = rest.substr(0, qmark);
  if (qmark != std::string::npos) {
    const std::string query = rest.substr(qmark + 1);
    size_t start = 0;
    while (start <= query.size()) {
      const size_t amp = query.find('&', start);
      const std::string term = query.substr(
          start, amp == std::string::npos ? std::string::npos : amp - start);
      const size_t eq = term.find('=');
      if (eq == std::string::npos || eq == 0) {
        return Status::InvalidArgument("storage URI query term '" + term +
                                       "' is not key=value");
      }
      parsed.query[term.substr(0, eq)] = term.substr(eq + 1);
      if (amp == std::string::npos) break;
      start = amp + 1;
    }
  }
  return parsed;
}

std::optional<std::string> UriParams::Get(const std::string& key) {
  const auto it = query_.find(key);
  if (it == query_.end()) return std::nullopt;
  consumed_.insert(key);
  return it->second;
}

Result<int64_t> UriParams::GetInt(const std::string& key, int64_t fallback) {
  const std::optional<std::string> raw = Get(key);
  if (!raw.has_value()) return fallback;
  auto value = ParseInt64(*raw);
  if (!value.ok()) {
    return Status::InvalidArgument("parameter '" + key +
                                   "': " + value.status().message());
  }
  return *value;
}

Result<double> UriParams::GetDouble(const std::string& key, double fallback) {
  const std::optional<std::string> raw = Get(key);
  if (!raw.has_value()) return fallback;
  auto value = ParseDouble(*raw);
  if (!value.ok()) {
    return Status::InvalidArgument("parameter '" + key +
                                   "': " + value.status().message());
  }
  return *value;
}

std::vector<std::string> UriParams::UnconsumedKeys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : query_) {
    if (consumed_.find(key) == consumed_.end()) out.push_back(key);
  }
  return out;
}

EnvFactoryRegistry::EnvFactoryRegistry() {
  // ---- Built-in backends. ----
  schemes_["mem"] = [](const std::string& path,
                       UriParams*) -> Result<std::unique_ptr<Env>> {
    if (!path.empty()) {
      return Status::InvalidArgument("mem:// takes no path (got '" + path +
                                     "')");
    }
    return NewMemEnv();
  };
  schemes_["posix"] = [](const std::string& path,
                         UriParams*) -> Result<std::unique_ptr<Env>> {
    if (path.empty()) {
      return Status::InvalidArgument(
          "posix:// requires a root directory path");
    }
    return NewPosixEnv(path);
  };

  // ---- Built-in wrappers. ----
  wrappers_["compressed"] = [](Env* delegate,
                               UriParams*) -> Result<std::unique_ptr<Env>> {
    return std::unique_ptr<Env>(std::make_unique<CompressedEnv>(delegate));
  };
  wrappers_["throttled"] = [](Env* delegate, UriParams* params)
      -> Result<std::unique_ptr<Env>> {
    TPCP_ASSIGN_OR_RETURN(const double mbps, params->GetDouble("mbps", 50.0));
    TPCP_ASSIGN_OR_RETURN(const double latency_ms,
                          params->GetDouble("latency_ms", 0.0));
    if (mbps <= 0.0) {
      return Status::InvalidArgument("throttled mbps must be > 0");
    }
    if (latency_ms < 0.0) {
      return Status::InvalidArgument("throttled latency_ms must be >= 0");
    }
    return std::unique_ptr<Env>(
        std::make_unique<ThrottledEnv>(delegate, mbps, latency_ms));
  };
  wrappers_["faulty"] = [](Env* delegate, UriParams* params)
      -> Result<std::unique_ptr<Env>> {
    TPCP_ASSIGN_OR_RETURN(const int64_t fail_reads,
                          params->GetInt("fail_reads_after", -1));
    TPCP_ASSIGN_OR_RETURN(const int64_t fail_writes,
                          params->GetInt("fail_writes_after", -1));
    TPCP_ASSIGN_OR_RETURN(const int64_t transient_reads,
                          params->GetInt("transient_read_every", 0));
    TPCP_ASSIGN_OR_RETURN(const int64_t transient_writes,
                          params->GetInt("transient_write_every", 0));
    if (transient_reads == 1 || transient_writes == 1) {
      return Status::InvalidArgument(
          "faulty transient_*_every must be >= 2 (1 would fail every "
          "attempt, i.e. permanently)");
    }
    auto env = std::make_unique<FaultyEnv>(delegate);
    if (fail_reads >= 0) env->FailReadsAfter(fail_reads);
    if (fail_writes >= 0) env->FailWritesAfter(fail_writes);
    if (transient_reads >= 2) env->TransientReadFaultEvery(transient_reads);
    if (transient_writes >= 2) env->TransientWriteFaultEvery(transient_writes);
    return std::unique_ptr<Env>(std::move(env));
  };
  wrappers_["retry"] = [](Env* delegate, UriParams* params)
      -> Result<std::unique_ptr<Env>> {
    RetryPolicy policy;
    TPCP_ASSIGN_OR_RETURN(const int64_t attempts,
                          params->GetInt("attempts", policy.max_attempts));
    TPCP_ASSIGN_OR_RETURN(
        const int64_t backoff_ms,
        params->GetInt("backoff_ms", policy.initial_backoff_ms));
    TPCP_ASSIGN_OR_RETURN(
        const int64_t max_backoff_ms,
        params->GetInt("max_backoff_ms", policy.max_backoff_ms));
    if (attempts < 1) {
      return Status::InvalidArgument("retry attempts must be >= 1");
    }
    if (backoff_ms < 0 || max_backoff_ms < 0) {
      return Status::InvalidArgument("retry backoff must be >= 0 ms");
    }
    policy.max_attempts = static_cast<int>(attempts);
    policy.initial_backoff_ms = backoff_ms;
    policy.max_backoff_ms = max_backoff_ms;
    return std::unique_ptr<Env>(
        std::make_unique<RetryEnv>(delegate, policy));
  };
}

EnvFactoryRegistry& EnvFactoryRegistry::Global() {
  static EnvFactoryRegistry* registry = new EnvFactoryRegistry();
  return *registry;
}

void EnvFactoryRegistry::RegisterScheme(const std::string& scheme,
                                        SchemeFactory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  schemes_[scheme] = std::move(factory);
}

void EnvFactoryRegistry::RegisterWrapper(const std::string& name,
                                         WrapperFactory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  wrappers_[name] = std::move(factory);
}

Result<OpenedEnv> EnvFactoryRegistry::Open(const std::string& uri) const {
  TPCP_ASSIGN_OR_RETURN(const ParsedEnvUri parsed, ParseEnvUri(uri));

  SchemeFactory scheme_factory;
  std::vector<WrapperFactory> wrapper_factories;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto scheme_it = schemes_.find(parsed.scheme);
    if (scheme_it == schemes_.end()) {
      std::vector<std::string> known;
      for (const auto& [name, factory] : schemes_) known.push_back(name);
      return Status::InvalidArgument(
          "unknown storage scheme '" + parsed.scheme + "' in '" + uri +
          "' (registered: " + Join(known, ", ") + ")");
    }
    scheme_factory = scheme_it->second;
    for (const std::string& name : parsed.wrappers) {
      const auto it = wrappers_.find(name);
      if (it == wrappers_.end()) {
        std::vector<std::string> known;
        for (const auto& [wname, factory] : wrappers_) known.push_back(wname);
        return Status::InvalidArgument(
            "unknown storage wrapper '" + name + "' in '" + uri +
            "' (registered: " + Join(known, ", ") + ")");
      }
      wrapper_factories.push_back(it->second);
    }
  }

  UriParams params(parsed.query);
  OpenedEnv opened;
  TPCP_ASSIGN_OR_RETURN(std::unique_ptr<Env> base,
                        scheme_factory(parsed.path, &params));
  opened.layers_.push_back(std::move(base));
  // Innermost wrapper (rightmost in the URI) is applied first.
  for (auto it = wrapper_factories.rbegin(); it != wrapper_factories.rend();
       ++it) {
    TPCP_ASSIGN_OR_RETURN(std::unique_ptr<Env> layer,
                          (*it)(opened.layers_.back().get(), &params));
    opened.layers_.push_back(std::move(layer));
  }

  const std::vector<std::string> leftover = params.UnconsumedKeys();
  if (!leftover.empty()) {
    return Status::InvalidArgument("unknown parameter(s) in '" + uri +
                                   "': " + Join(leftover, ", "));
  }
  return opened;
}

std::vector<std::string> EnvFactoryRegistry::Schemes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, factory] : schemes_) out.push_back(name);
  return out;
}

std::vector<std::string> EnvFactoryRegistry::Wrappers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, factory] : wrappers_) out.push_back(name);
  return out;
}

Result<OpenedEnv> OpenEnv(const std::string& uri) {
  return EnvFactoryRegistry::Global().Open(uri);
}

}  // namespace tpcp
