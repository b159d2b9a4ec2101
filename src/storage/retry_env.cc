#include "storage/retry_env.h"

namespace tpcp {

Status RetryEnv::WriteFile(const std::string& name, const std::string& data) {
  return RetryWithBackoff(policy_, "write " + name,
                          [&] { return delegate_->WriteFile(name, data); });
}

Status RetryEnv::ReadFile(const std::string& name, std::string* out) {
  return RetryWithBackoff(policy_, "read " + name, [&] {
    out->clear();
    return delegate_->ReadFile(name, out);
  });
}

bool RetryEnv::FileExists(const std::string& name) {
  return delegate_->FileExists(name);
}

Status RetryEnv::DeleteFile(const std::string& name) {
  return RetryWithBackoff(policy_, "delete " + name,
                          [&] { return delegate_->DeleteFile(name); });
}

Result<uint64_t> RetryEnv::FileSize(const std::string& name) {
  Result<uint64_t> result = delegate_->FileSize(name);
  if (result.ok() || !IsTransientStatus(result.status())) return result;
  const Status status = RetryWithBackoff(policy_, "stat " + name, [&] {
    result = delegate_->FileSize(name);
    return result.ok() ? Status::OK() : result.status();
  });
  if (!status.ok()) return status;
  return result;
}

std::vector<std::string> RetryEnv::ListFiles(const std::string& prefix) {
  return delegate_->ListFiles(prefix);
}

}  // namespace tpcp
